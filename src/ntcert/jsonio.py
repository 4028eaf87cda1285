"""Canonical JSON encoding for certificates and reports.

Rationals serialize as "num/den" decimal strings with the denominator
omitted when it is 1; polynomials as coefficient arrays, lowest degree
first.  Documents are dumped with sorted keys and a fixed layout so that
identical inputs always produce identical bytes.  The scan document is
written as text in that layout by scandoc.dumps_scan.  Fraction and
exact.rationals are imported inside the two functions that use them, so a
document of plain JSON values is written without loading fractions.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .exact.unipoly import UniPoly

SCHEMA_VERSION = "v1"


def to_jsonable(obj):
    """The JSON form of one toolkit value that the json module cannot encode.

    Used as ``json.dumps(default=...)``, so dicts, lists, tuples, strings,
    numbers and str-valued enums are left to the encoder, which calls this
    only for the leaves below.
    """
    from fractions import Fraction  # imported here, so the CLI's start-up skips these

    from .exact.rationals import format_rational

    if isinstance(obj, Fraction):
        return format_rational(obj)
    from .exact.unipoly import UniPoly

    if isinstance(obj, UniPoly):
        return [format_rational(c) for c in obj.coeffs]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def poly_from_list(items: list[str]) -> UniPoly:
    from .exact.rationals import parse_rational
    from .exact.unipoly import UniPoly

    return UniPoly([parse_rational(s) for s in items])


def dumps_canonical(doc: dict) -> str:
    """Stable bytes: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, default=to_jsonable, sort_keys=True, indent=2) + "\n"
