"""The family-scan document, written as text in dumps_canonical's layout.

A certificate keeps only its witness primes; this writer pairs each with
the s of the earlier certificate it tells apart, as v1's disjointness
entries.  Those pairs would otherwise cost a dict each and a walk of
json's pure-Python encoder.  Only family-scan imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .exact.rationals import format_rational
from .jsonio import dumps_canonical


def dumps_scan(head: dict, certificates) -> str:
    """dumps_canonical of ``{"certificates": [...], **head}``, where head
    holds config, schema and summary.

    Each certificate is read for the fields of a family ExtensionCertificate:
    coeffs is its fiber and t the y of its point (theta, t), whose x is
    theta, written as the coefficients [0, 1].
    Its witnesses are positional: witness j tells it apart from certificate
    j, and v1 writes it with that certificate's s as vs_s, so a certificate
    needs one witness per certificate before it; otherwise ValueError.  Each
    distinct witness prime's lines and each vs_s line are rendered once, so
    a pair costs one join, not a dict.
    """
    if not head or min(head) <= "certificates":
        raise ValueError("the scan document's other members must sort after 'certificates'")
    witness_text: dict[int, str] = {}
    vs_text: list[str] = []  # the vs_s line of each certificate so far
    rendered = []
    for cert in certificates:
        if len(cert.witnesses) != len(vs_text):
            raise ValueError(f"certificate {len(vs_text)} has {len(cert.witnesses)} witnesses")
        entries = [
            (witness_text.get(p) or witness_text.setdefault(p, _witness_lines(p))) + vs
            for p, vs in zip(cert.witnesses, vs_text)
        ]
        rendered.append(_certificate(cert, _array(entries, " " * 6)))
        vs_text.append(_scalar(cert.s) + "\n        }")
    # one join of the whole text: each copy of a large string costs its size again
    tail = dumps_canonical(head)[2:]  # without its opening "{\n"
    return "".join(('{\n  "certificates": ', _array(rendered, "  "), ",\n", tail))


def _scalar(value) -> str:
    """A rational or integer as dumps_canonical writes it."""
    if isinstance(value, Fraction):
        return _string(format_rational(value))
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"cannot write {type(value).__name__} as a scan scalar")


def _array(items: list[str], pad: str) -> str:
    """A JSON array of rendered items, its closing bracket indented by pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return f"[{inner}{(',' + inner).join(items)}\n{pad}]"


# theta, the point's x, as the coefficients [0, 1]: Fractions, so quoted
_THETA = _array([_scalar(Fraction(0)), _scalar(Fraction(1))], " " * 8)


def _witness_lines(prime: int) -> str:
    """A disjointness entry up to its vs_s value, which comes last."""
    return (
        "{\n"
        f'          "prime": {_scalar(prime)},\n'
        '          "verdict": "distinct_fields",\n'
        '          "vs_s": '
    )


def _certificate(cert, disjointness: str) -> str:
    """One certificate's members in sorted order; its arrays close at 6 spaces."""

    def array(values, pad=" " * 6) -> str:
        return _array([_scalar(v) for v in values], pad)

    # the point's y is the constant t, and the zero constant has no coefficient
    y = (cert.t,) if cert.t else ()

    return (
        "{\n"
        f'      "disc": {_scalar(cert.disc)},\n'
        f'      "disjointness": {disjointness},\n'
        f'      "fiber": {array(cert.coeffs)},\n'
        f'      "galois_class": {_string(cert.galois_class.value)},\n'
        f'      "nontorsion_checked_to": {_scalar(cert.nontorsion_checked_to)},\n'
        '      "point": {\n'
        f'        "x": {_THETA},\n'
        f'        "y": {array(y, " " * 8)}\n'
        "      },\n"
        f'      "s": {_scalar(cert.s)},\n'
        f'      "sqrt_disc": {_scalar(cert.sqrt_disc)},\n'
        f'      "t": {_scalar(cert.t)},\n'
        f'      "torsion_bound": {_scalar(cert.torsion_bound)},\n'
        f'      "torsion_primes": {array(cert.torsion_primes)}\n'
        "    }"
    )
