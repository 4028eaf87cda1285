"""ntcert: exact-arithmetic number-theory certificates.

Construction and certification, entirely over exact rationals, of:
cyclic cubic fields cut out by square-discriminant cubics; an elliptic
family whose fibers carry points over those fields, with torsion bounds
by reduction and non-torsion certificates; superelliptic coverings of the
line branched at three points and their triangle-curve symmetries;
Newton-polygon degree plans for monomial substitutions; and the exact
eta-quotient parametrization of the family's j-invariant.

The package re-exports one name, ``galois_class``, lazily (PEP 562), so
``import ntcert.<x>`` loads only what ``x`` itself imports; perfbench's
tracer test checks that its wrapper reaches that name too.
"""

__all__ = ["galois_class"]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name != "galois_class":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .cubicfield import galois_class

    return galois_class
