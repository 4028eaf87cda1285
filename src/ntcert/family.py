"""The two-parameter elliptic family with forced-square fiber discriminants.

Free parameters a1, a4 (both nonzero) determine a curve

    y^2 + a1*x*y + a3*y = x^3 + a4*x + a6

whose remaining coefficients are pinned so that the cubic in x obtained by
freezing y = t,

    fiber(x) = x^3 + (a4 - a1*t)*x + (a6 - a3*t - t^2),

has discriminant (-4*(a4-a1*t) - 27*w^2) * (a4-a1*t)^2 with w = a6/a4 + t/a1,
and the leading factor completes to a square on the rational curve
1 = u^2 + 3*v^2.  Rational s parametrizes that conic; every fiber therefore
has square discriminant, so its irreducible specializations generate cyclic
cubic fields.  The family is its curve: derive_family returns the
WeierstrassCurve, and every function here takes it.  This module constructs
those fibers, decides each one's reducibility once (in evaluate_fiber),
puts exact points on the curve over the resulting cubic fields, bounds
torsion by reduction modulo at least two good primes, and assembles audit
certificates; the group law, reduction mod p and the non-torsion check are
in exact.ellcurve.  A scan groups the s that share a fiber (the same v) and
evaluates each group once; with more than one job it forks worker
processes for the groups and folds their outcomes in this process, in
enumeration order.

The j-invariant of the family depends on a1 alone:

    j = 256 * (a1^4 + 54)^3 * a1^4 / (4*a1^4 - 27)^3.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from fractions import Fraction
from math import gcd as _int_gcd
from typing import NamedTuple, Sequence

from . import cubicfield
from .cubicfield import (
    DEFAULT_WITNESS_BOUND,
    CubicField,
    GaloisClass,
    SplitTypeMatrix,
    _bad_part,
    _root_counts,
    galois_class,  # not called here; perfbench's tests expect it bound in family
)
from .errors import (
    DegenerateFiberError,
    InvalidInputError,
    SingularCurveError,
    VerificationError,
)
from .exact import (
    QuotientElem,
    UniPoly,
    count_distinct_roots,  # not called here; perfbench's tests expect it bound in family
    format_rational,
    iter_primes,
)
from .exact.ellcurve import (
    FieldPoint, WeierstrassCurve, _group_order, is_good_prime, nontorsion_certificate,
)


def derive_family(a1: Fraction | int, a4: Fraction | int) -> WeierstrassCurve:
    """The family's curve y^2 + a1*x*y + a3*y = x^3 + a4*x + a6 at free a1, a4,
    with a3 and a6 derived; rejects a zero parameter or a singular member.

    The j-invariant's denominator 4*a1^4 - 27 never vanishes over Q: with
    a1 = p/q in lowest terms, 4p^4 = 27q^4 forces 3 | p, then 81 | 27q^4,
    so 3 | q, against lowest terms.
    """
    a1, a4 = Fraction(a1), Fraction(a4)
    if a1 == 0 or a4 == 0:
        raise InvalidInputError("a1 and a4 must be nonzero")
    a6 = a4 * a1**2 / 27 - a4 / (4 * a1**2) - a4**2 / a1**2
    a3 = a1 * a6 / a4 - a4 / a1
    try:
        return WeierstrassCurve(a1, 0, a3, a4, a6)
    except SingularCurveError as exc:
        raise InvalidInputError(f"singular member at a1={a1}, a4={a4}") from exc


def closed_form_j(a1: Fraction | int) -> Fraction:
    """j as a function of a1 alone (a4 cancels)."""
    a1 = Fraction(a1)
    return 256 * (a1**4 + 54) ** 3 * a1**4 / (4 * a1**4 - 27) ** 3


# -- fibers and their points -------------------------------------------------


class FiberData(NamedTuple):
    s: Fraction
    t: Fraction
    u: Fraction
    v: Fraction
    fiber: UniPoly
    disc: Fraction
    sqrt_disc: Fraction


def fiber_at_s(curve: WeierstrassCurve, s: Fraction | int) -> FiberData:
    """Specialize the family at the conic parameter s.

    u and v satisfy 1 = u^2 + 3v^2 identically; t is solved from the
    v-equation.  The fiber is x^3 + p*x + q, so its discriminant is
    -4*p^3 - 27*q^2, computed from p and q and checked against the family's
    closed form u^2*p^2, p = a4 - a1*t.
    """
    s = Fraction(s)
    a1, a4, a3, a6 = curve.a1, curve.a4, curve.a3, curve.a6
    den = 1 + 3 * s**2
    u = (1 - 3 * s**2) / den
    v = 2 * s / den
    if u**2 + 3 * v**2 != 1:
        raise VerificationError("(u, v) is off the conic u^2 + 3v^2 = 1")
    t = a1 * (v / 3 - a6 / a4 + 2 * a1**2 / 27)
    p = a4 - a1 * t
    if p == 0:
        raise DegenerateFiberError(f"fiber at s={s} degenerates to x^3")
    q = a6 - a3 * t - t**2
    fiber = UniPoly((q, p, 0, 1))
    disc = -4 * p**3 - 27 * q**2
    expected = u**2 * p**2
    if disc != expected:
        raise VerificationError("fiber discriminant identity failed")
    sqrt_disc = abs(u * p)
    return FiberData(s, t, u, v, fiber, disc, sqrt_disc)


def point_from_fiber_data(curve: WeierstrassCurve, fd: FiberData) -> FieldPoint:
    """(theta, t) over Q[theta]/(fiber).  The caller has ruled out a rational
    root of the fiber, so Q[theta] is a field.  As a2 = 0, the point is on
    the curve iff E(x, t) = -fiber(x) in Q[x]: no Q[theta] arithmetic."""
    a1, a2, a3, a4, a6 = curve.a_invariants
    t, m = fd.t, fd.fiber
    if UniPoly((t * t + a3 * t - a6, a1 * t - a4, -a2, -1)) != -m:
        raise VerificationError(f"(theta, t) at s={fd.s} is off the curve")
    x = QuotientElem(UniPoly.x(), m, validate=False)
    y = QuotientElem(UniPoly.constant(t), m, validate=False)
    return FieldPoint.affine(curve, m, x, y, check=False)


# -- torsion bounds ------------------------------------------------------------

# Given a count, torsion_bound adds good primes while the bound exceeds the
# target, up to this many primes in all.
_TORSION_BOUND_TARGET = 30
_MAX_TORSION_PRIMES = 12


def torsion_bound(
    curve: WeierstrassCurve, fd: FiberData, primes: int | Sequence[int] = 2,
) -> tuple[int, tuple[int, ...]]:
    """(bound, primes): the gcd over the primes of |E(F_{p^d_p})|, d_p from the fiber mod p.

    Torsion over the cubic field injects into each reduced group, so the gcd
    bounds its order.  ``primes`` is a count (>= 2) of the smallest primes > 3
    good for the curve and unramified for the fiber, or a list of at least two
    distinct such primes, used as given.  Past a count, more primes join while
    the bound is large: a gcd over more good primes still bounds the torsion,
    and a smaller bound keeps the non-torsion walk short.  The ramified primes
    come from the discriminant that fiber_at_s proved.
    """
    fiber = fd.fiber
    bad = _bad_part(fiber, fd.disc)
    if isinstance(primes, int):
        if primes < 2:
            raise InvalidInputError("at least two torsion primes are required")
        count = primes
        candidates = (p for p in iter_primes(5) if bad % p and is_good_prime(curve, p))
    else:
        candidates = tuple(primes)
        count = len(candidates)
        if count < 2 or len(set(candidates)) != count:
            raise InvalidInputError("at least two distinct primes are required")
        for p in candidates:
            if not is_good_prime(curve, p):
                raise InvalidInputError(f"{p} is not a good-reduction prime")
            if bad % p == 0:
                raise InvalidInputError(f"{p} ramifies in the fiber cubic")
    used: list[int] = []
    bound = 0
    for p in candidates:
        used.append(p)
        residue_degree = 3 if _root_counts(fiber, (p,)) == [0] else 1
        bound = _int_gcd(bound, _group_order(curve, p, residue_degree))
        if len(used) >= count and (
            bound <= _TORSION_BOUND_TARGET or len(used) >= _MAX_TORSION_PRIMES
        ):
            break
    return bound, tuple(used)


# -- certificates and the scan --------------------------------------------------


class ExtensionCertificate(NamedTuple):
    """Audit record for one accepted fiber.  Every accepted fiber is C3:
    it is irreducible, and fiber_at_s has proved its discriminant a square."""

    galois_class = GaloisClass.C3  # unannotated: a class constant, not a field

    s: Fraction
    t: Fraction
    fiber: UniPoly
    disc: Fraction
    sqrt_disc: Fraction
    point: FieldPoint
    torsion_primes: tuple[int, ...]
    torsion_bound: int
    nontorsion_checked_to: int
    # the field's split-type row at cubicfield's head primes
    row: tuple[int, int]
    # for each earlier certificate, in order, the first prime that tells the two fields apart
    witnesses: tuple[int, ...]

    def cubic_field(self) -> CubicField:
        return CubicField(self.fiber, self.disc, self.sqrt_disc, self.galois_class)


class ScanResult:
    """One scan's accepted certificates and skip counts, filled in by its fold."""

    def __init__(self, curve: WeierstrassCurve, fibers_tested: int = 0) -> None:
        self.curve = curve
        self.certificates: list[ExtensionCertificate] = []
        self.fibers_tested = fibers_tested
        self.skipped_reducible = 0
        self.skipped_presumed_equal = 0
        self.skipped_torsion = 0

    def summary(self) -> dict:
        return {
            "params": {
                "a1": format_rational(self.curve.a1), "a4": format_rational(self.curve.a4),
            },
            "fibers_tested": self.fibers_tested,
            "accepted": len(self.certificates),
            "skipped_reducible": self.skipped_reducible,
            "skipped_presumed_equal": self.skipped_presumed_equal,
            "skipped_torsion": self.skipped_torsion,
        }


def enumerate_s_by_height(height_max: int) -> list[Fraction]:
    """Rationals ordered by height max(|num|, den), ascending value within a height."""
    if height_max < 1:
        raise InvalidInputError("height bound must be >= 1")
    out: list[Fraction] = []
    for h in range(1, height_max + 1):
        batch = set()
        for b in range(1, h + 1):
            if _int_gcd(h, b) == 1:
                batch.add(Fraction(h, b))
                batch.add(Fraction(-h, b))
        for a in range(-h + 1, h):
            if _int_gcd(abs(a), h) == 1:
                batch.add(Fraction(a, h))
        out.extend(sorted(batch))
    return out


def evaluate_fiber(
    curve: WeierstrassCurve,
    same_v: Sequence[Fraction],
    torsion_primes: int | Sequence[int] = 2,
) -> ExtensionCertificate | str:
    """Run the per-fiber pipeline for the s that share one v; independent of
    every other fiber.

    The fiber depends on s only through v, so every later s of same_v must
    give the first one's fiber and sqrt_disc, or degenerate too; otherwise
    VerificationError.  The pipeline runs at the first s.  Returns
    "reducible" when the fiber degenerates to x^3 or has a rational root
    (the one place a fiber's reducibility is decided),
    "torsion" when its point has finite order (at most the torsion bound),
    and otherwise the fiber's certificate with witnesses=(), which the
    scan's distinctness fold fills in.  The certificate's field is C3: the
    fiber is irreducible, and fiber_at_s has proved its discriminant the
    square sqrt_disc^2.  Its head row is built here, so the fold does only
    bit operations; a prime inert in the row rules out a rational root,
    which reduces to a root mod every prime that does not divide a
    denominator (those are bad, so in no row).
    """
    first = same_v[0]
    for s in same_v:
        try:
            fd = fiber_at_s(curve, s)
            key = fd.fiber, fd.sqrt_disc
        except DegenerateFiberError:
            fd = key = None
        if s == first:
            first_fd, first_key = fd, key
        elif key != first_key:
            raise VerificationError(f"s={s} and s={first} share v but not the fiber")
    fd = first_fd
    if fd is None:
        return "reducible"
    # A reducible fiber with a square discriminant splits into three rational
    # factors, so its row is all split and never fails the C3 check.
    field = CubicField(fd.fiber, fd.disc, fd.sqrt_disc, GaloisClass.C3)
    row = cubicfield.head_row(field)
    if not row[1] and fd.fiber.rational_roots():
        return "reducible"
    point = point_from_fiber_data(curve, fd)
    bound, primes = torsion_bound(curve, fd, torsion_primes)
    if not nontorsion_certificate(point, bound):
        return "torsion"
    return ExtensionCertificate(
        fd.s, fd.t, fd.fiber, fd.disc, fd.sqrt_disc,
        point=point,
        torsion_primes=primes,
        torsion_bound=bound,
        nontorsion_checked_to=bound,
        row=row,
        witnesses=(),
    )


def _fork_worker(stack: ExitStack, curve: WeierstrassCurve, share, torsion_primes):
    """Fork a child that runs evaluate_fiber on each group of s in share, in
    order; return a function of a group that reads the child's outcome for it.

    The child pickles each (True, outcome), or (False, exception) and stops,
    into a pipe, and leaves through os._exit: it never flushes the inherited
    stdout or returns into the caller's code.  On leaving the stack the child
    is killed and then reaped, so it stops at once, even mid-fiber or blocked
    on a full pipe.
    """
    import pickle  # only a scan with more than one worker forks
    import signal

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                for same_v in share:
                    try:
                        item = (True, evaluate_fiber(curve, same_v, torsion_primes))
                    except Exception as exc:
                        item = (False, exc)
                    pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
                    if not item[0]:
                        break
        finally:
            os._exit(0)
    # last in, first out: the kill runs before the wait
    stack.callback(os.waitpid, pid, 0)
    stack.callback(os.kill, pid, signal.SIGKILL)
    # closed before the next fork, so the child's exit ends the pipe
    os.close(write_fd)
    pipe = stack.enter_context(open(read_fd, "rb"))

    def outcome_of(same_v):
        try:
            ok, outcome = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            raise ChildProcessError(f"a worker exited before evaluating s={same_v[0]}") from None
        if not ok:
            raise outcome
        return outcome

    return outcome_of


def _outcomes(curve: WeierstrassCurve, groups, torsion_primes, readers):
    """evaluate_fiber's outcome for each group of s in groups, in order.

    Group i belongs to worker i % (len(readers) + 1): worker 0 evaluates it
    here, and worker w > 0 is read through readers[w - 1].  A worker's
    exception is raised at its group, as a serial scan would raise it.
    """
    workers = len(readers) + 1
    for i, same_v in enumerate(groups):
        w = i % workers
        yield readers[w - 1](same_v) if w else evaluate_fiber(curve, same_v, torsion_primes)


def scan_family(
    curve: WeierstrassCurve,
    s_height_max: int,
    witness_bound: int = DEFAULT_WITNESS_BOUND,
    torsion_primes: int | Sequence[int] = 2,
    jobs: int = 1,
) -> ScanResult:
    """Enumerate fibers by height and fold them into an accepted certificate set.

    The fiber depends on s only through v = 2s/(1 + 3s^2), which s and
    1/(3s) share, so the enumerated s are grouped by v, each group's s in
    enumeration order and the groups in order of their first s.
    evaluate_fiber runs once per group: it checks that every later s
    reproduces the first one's fiber and evaluates the first; it is
    independent per group.  With more than one job, group i goes to worker
    i % workers: this process is worker 0 and each other worker is a forked
    child that runs ahead through its share.  The later s of a group take
    its outcome: a certificate's repeats are presumed-equal skips, as the
    repeated field has rows identical to the first.  Acceptance (witnesses
    against every accepted field, from a SplitTypeMatrix over the rows
    evaluate_fiber built) is a serial fold in group order, so output is
    deterministic for any job count.  Every child is killed and reaped on
    every way out of the scan.
    """
    if s_height_max < 1:
        raise InvalidInputError("s_height_max must be >= 1")
    if witness_bound < 2:
        raise InvalidInputError("witness_bound must be >= 2")
    if jobs < 1:
        raise InvalidInputError("jobs must be >= 1")
    s_values = enumerate_s_by_height(s_height_max)
    by_v: dict[Fraction, list[Fraction]] = {}
    for s in s_values:
        by_v.setdefault(2 * s / (1 + 3 * s * s), []).append(s)
    groups = list(by_v.values())
    workers = min(jobs, os.cpu_count() or 1, len(groups)) if hasattr(os, "fork") else 1
    result = ScanResult(curve, fibers_tested=len(s_values))
    matrix = SplitTypeMatrix(witness_bound)
    with ExitStack() as stack:
        readers = [
            _fork_worker(stack, curve, groups[w::workers], torsion_primes)
            for w in range(1, workers)
        ]
        for same_v, outcome in zip(groups, _outcomes(curve, groups, torsion_primes, readers)):
            skipped = len(same_v)
            if not isinstance(outcome, str):
                witnesses = matrix.admit(outcome.cubic_field(), outcome.row)
                if witnesses is not None:
                    result.certificates.append(outcome._replace(witnesses=witnesses))
                    skipped -= 1
                outcome = "presumed_equal"
            if outcome == "reducible":
                result.skipped_reducible += skipped
            elif outcome == "torsion":
                result.skipped_torsion += skipped
            else:
                result.skipped_presumed_equal += skipped
    return result
