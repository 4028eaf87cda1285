"""Canonical JSON encoding for certificates and reports.

Rationals serialize as "num/den" decimal strings with the denominator
omitted when it is 1; polynomials as coefficient arrays, lowest degree
first.  Documents are dumped with sorted keys and a fixed layout so that
identical inputs always produce identical bytes.  The scan document is
written as text in that layout by dumps_scan, since its pairwise witnesses
would otherwise cost a dict each and a walk of json's pure-Python encoder.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .exact import UniPoly, format_rational, parse_rational

SCHEMA_VERSION = "v1"


def to_jsonable(obj):
    """The JSON form of one toolkit value that the json module cannot encode.

    Used as ``json.dumps(default=...)``, so dicts, lists, tuples, strings,
    numbers and str-valued enums are left to the encoder, which calls this
    only for the leaves below.
    """
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, UniPoly):
        return [format_rational(c) for c in obj.coeffs]
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def poly_from_list(items: list[str]) -> UniPoly:
    return UniPoly([parse_rational(s) for s in items])


def dumps_canonical(doc: dict) -> str:
    """Stable bytes: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, default=to_jsonable, sort_keys=True, indent=2) + "\n"


def dumps_scan(head: dict, certificates) -> str:
    """dumps_canonical of ``{"certificates": [c.to_json_dict() for c in
    certificates], **head}``, where head holds config, schema and summary.

    Each certificate is read for the fields of a family ExtensionCertificate,
    and its pairs as (vs_s, witness) tuples.  Each distinct witness's lines
    and each vs_s line are rendered once, so a pair costs one join, not a dict.
    """
    if not head or min(head) <= "certificates":
        raise ValueError("the scan document's other members must sort after 'certificates'")
    # keyed by id: every witness and vs_s stays alive in `certificates` meanwhile
    witness_text: dict[int, str] = {}
    vs_text: dict[int, str] = {}
    rendered = []
    for cert in certificates:
        entries = [
            (witness_text.get(id(w)) or witness_text.setdefault(id(w), _witness_lines(w)))
            + (vs_text.get(id(s)) or vs_text.setdefault(id(s), _scalar(s) + "\n        }"))
            for s, w in cert.disjointness
        ]
        rendered.append(_certificate(cert, _array(entries, " " * 6)))
    # one join of the whole text: each copy of a large string costs its size again
    tail = dumps_canonical(head)[2:]  # without its opening "{\n"
    return "".join(('{\n  "certificates": ', _array(rendered, "  "), ",\n", tail))


def _scalar(value) -> str:
    """A rational, string or integer as dumps_canonical writes it."""
    if isinstance(value, Fraction):
        return _string(format_rational(value))
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"cannot write {type(value).__name__} as a scan scalar")


def _array(items: list[str], pad: str) -> str:
    """A JSON array of rendered items, its closing bracket indented by pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return f"[{inner}{(',' + inner).join(items)}\n{pad}]"


def _witness_lines(witness) -> str:
    """A disjointness entry up to its vs_s value: the witness's members, then
    the vs_s key, which must sort last."""
    members = sorted(witness.to_json_dict().items())
    if members and members[-1][0] >= "vs_s":
        raise ValueError(f"witness member {members[-1][0]!r} does not sort before 'vs_s'")
    lines = "".join(f"          {_string(k)}: {_scalar(v)},\n" for k, v in members)
    return "{\n" + lines + '          "vs_s": '


def _certificate(cert, disjointness: str) -> str:
    """One certificate's members in sorted order; its arrays close at 6 spaces."""

    def array(values, pad=" " * 6) -> str:
        return _array([_scalar(v) for v in values], pad)

    return (
        "{\n"
        f'      "disc": {_scalar(cert.disc)},\n'
        f'      "disjointness": {disjointness},\n'
        f'      "fiber": {array(cert.fiber.coeffs)},\n'
        f'      "galois_class": {_string(cert.galois_class.value)},\n'
        f'      "nontorsion_checked_to": {_scalar(cert.nontorsion_checked_to)},\n'
        '      "point": {\n'
        f'        "x": {array(cert.point.x.rep.coeffs, " " * 8)},\n'
        f'        "y": {array(cert.point.y.rep.coeffs, " " * 8)}\n'
        "      },\n"
        f'      "s": {_scalar(cert.s)},\n'
        f'      "sqrt_disc": {_scalar(cert.sqrt_disc)},\n'
        f'      "t": {_scalar(cert.t)},\n'
        f'      "torsion_bound": {_scalar(cert.torsion_bound)},\n'
        f'      "torsion_primes": {array(cert.torsion_primes)}\n'
        "    }"
    )
