"""ntcert: exact-arithmetic number-theory certificates.

Construction and certification, entirely over exact rationals, of:
cyclic cubic fields cut out by square-discriminant cubics; an elliptic
family whose fibers carry points over those fields, with torsion bounds
by reduction and non-torsion certificates; superelliptic coverings of the
line branched at three points and their triangle-curve symmetries;
Newton-polygon degree plans for monomial substitutions; and the exact
eta-quotient parametrization of the family's j-invariant.

The names below are re-exported lazily (PEP 562): a submodule is imported
the first time one of its names is read, so ``import ntcert.<x>`` loads
only what ``x`` itself imports.
"""

from importlib import import_module

_EXPORTS = {
    "cubicfield": (
        "CubicField",
        "GaloisClass",
        "SplitType",
        "galois_class",
        "splitting_type_mod_p",
    ),
    "coverings": (
        "RamificationData",
        "SuperellipticModel",
        "TriangleCurve",
        "fermat_search",
        "model_from_n",
        "psi_identities",
        "quotient_genus",
        "rh_genus",
        "solve_eq5",
        "superelliptic_genus",
        "triangle_checks",
    ),
    "exact.ellcurve": ("FieldPoint", "WeierstrassCurve", "nontorsion_certificate"),
    "family": (
        "ExtensionCertificate",
        "FamilyParams",
        "derive_family",
        "fiber_at_s",
        "scan_family",
        "torsion_bound",
    ),
    "newton": (
        "NewtonPolygon",
        "corner_check",
        "min_universal_degree",
        "newton_polygon",
        "plan_degrees",
        "specialize_b",
        "substitute_st",
    ),
    "qseries": (
        "LaurentSeries",
        "euler_pow",
        "hauptmodul_t",
        "j_series",
        "verify_eta_identity",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SOURCE[name]}", __name__), name)
