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

A scan carries each fiber as its coefficient tuple (q, p, 0, 1), Fractions
as UniPoly stores them, and its point (theta, t) as the coefficient tuples
that exact.ellcurve reduces mod p.  The polynomial and quotient-ring layers
(exact.unipoly, exact.quotient) load on demand: for rational_roots on a
fiber with no inert head prime, for the exact Q[theta] fallback of the
non-torsion check, and for the fiber views of FiberData and
ExtensionCertificate.

The j-invariant of the family depends on a1 alone:

    j = 256 * (a1^4 + 54)^3 * a1^4 / (4*a1^4 - 27)^3.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, lcm
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .cubicfield import (
    DEFAULT_WITNESS_BOUND,
    GaloisClass,
    SplitTypeMatrix,
    _bad_part,
    _root_count,
    galois_class,  # not called here; perfbench's tests expect it bound in family
    head_row,
)
from .errors import (
    DegenerateFiberError,
    InvalidInputError,
    SingularCurveError,
    VerificationError,
)
from .exact.ellcurve import (
    WeierstrassCurve, _group_order, is_good_prime, nontorsion_certificate,
)
from .exact.primes import iter_primes
from .exact.rationals import format_rational

if TYPE_CHECKING:
    from .exact.unipoly import UniPoly


def __getattr__(name: str):
    """count_distinct_roots, re-exported lazily (PEP 562) for perfbench's tests:
    no scan calls it, so a scan never loads exact.modpoly."""
    if name != "count_distinct_roots":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .exact import count_distinct_roots

    return count_distinct_roots


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


def _fiber_view(record) -> UniPoly:
    """The fiber of a FiberData or ExtensionCertificate as a UniPoly, built on demand."""
    from .exact.unipoly import UniPoly

    return UniPoly(record.coeffs)


class FiberData(NamedTuple):
    s: Fraction
    t: Fraction
    u: Fraction
    v: Fraction
    # the fiber x^3 + p*x + q as (q, p, 0, 1)
    coeffs: tuple[Fraction, ...]
    disc: Fraction
    sqrt_disc: Fraction

    fiber = property(_fiber_view)


# the fiber's 0 and 1 as UniPoly stores them, so the scan document writes them as strings
_ZERO, _ONE = Fraction(0), Fraction(1)
# theta, the point's x over Q[theta]/(fiber), as a coefficient tuple
_THETA = (_ZERO, _ONE)


@lru_cache(maxsize=64)
def _v_polynomials(curve: WeierstrassCurve) -> tuple[tuple[int, ...], ...]:
    """t, p and q of the fiber as polynomials in v, each as (d, c0, c1, ...):
    integer coefficients over one denominator d.  t = a1*v/3 + c with the
    curve constant c = a1*(2*a1^2/27 - a6/a4), p = a4 - a1*t and
    q = a6 - a3*t - t^2."""
    a1, a3, a4, a6 = curve.a1, curve.a3, curve.a4, curve.a6
    t0, t1 = a1 * (2 * a1**2 / 27 - a6 / a4), a1 / 3
    polys = (t0, t1), (a4 - a1 * t0, -a1 * t1), (a6 - a3 * t0 - t0**2, -(a3 + 2 * t0) * t1, -t1**2)
    out = []
    for cs in polys:
        d = lcm(*(c.denominator for c in cs))
        out.append((d, *(c.numerator * (d // c.denominator) for c in cs)))
    return tuple(out)


def fiber_at_s(curve: WeierstrassCurve, s: Fraction | int) -> FiberData:
    """Specialize the family at the conic parameter s, on integer numerators.

    With s = a/b in lowest terms and den = b^2 + 3a^2, u = (b^2 - 3a^2)/den
    and v = 2ab/den, and u^2 + 3v^2 = 1 is the integer identity
    (b^2 - 3a^2)^2 + 3(2ab)^2 = den^2.  t, solved from the v-equation, p and
    q are polynomials in v (_v_polynomials, once per curve), so each is an
    integer over a known denominator: t over dt*den, p over dp*den and q
    over dq*den^2.  The fiber is x^3 + p*x + q, so its discriminant is
    -4*p^3 - 27*q^2; the family's closed form u^2*p^2, p = a4 - a1*t, is
    checked against it as an integer identity, and sqrt_disc = |u*p|.
    """
    s = Fraction(s)
    a, b = s.numerator, s.denominator
    den, m, n = b * b + 3 * a * a, b * b - 3 * a * a, 2 * a * b  # u = m/den, v = n/den
    if m * m + 3 * n * n != den * den:
        raise VerificationError("(u, v) is off the conic u^2 + 3v^2 = 1")
    (dt, t0, t1), (dp, p0, p1), (dq, q0, q1, q2) = _v_polynomials(curve)
    pn, pd = p0 * den + p1 * n, dp * den
    if pn == 0:
        raise DegenerateFiberError(f"fiber at s={s} degenerates to x^3")
    qn, qd = (q0 * den + q1 * n) * den + q2 * n * n, dq * den * den
    # -4p^3 - 27q^2 = u^2 p^2, both sides times pd^3 qd^2 den^2
    if (-4 * pn**3 * qd**2 - 27 * qn**2 * pd**3) * den**2 != m**2 * pn**2 * pd * qd**2:
        raise VerificationError("fiber discriminant identity failed")
    sqrt_disc = Fraction(abs(m * pn), den * pd)
    coeffs = (Fraction(qn, qd), Fraction(pn, pd), _ZERO, _ONE)
    t = Fraction(t0 * den + t1 * n, dt * den)
    return FiberData(s, t, Fraction(m, den), Fraction(n, den), coeffs, sqrt_disc**2, sqrt_disc)


def _fiber_point(curve: WeierstrassCurve, fd: FiberData) -> tuple:
    """(theta, t) over Q[theta]/(fiber) as nontorsion_certificate takes it:
    the coefficient tuples (x, y, fiber).  The caller has ruled out a
    rational root of the fiber, so Q[theta] is a field.  The point is on the
    curve iff E(x, t) = -fiber(x) in Q[x], that is, iff the fiber's
    coefficients are a6 - a3*t - t^2, a4 - a1*t, a2 and 1: no Q[theta]
    arithmetic."""
    a1, a2, a3, a4, a6 = curve.a_invariants
    t = fd.t
    if fd.coeffs != (a6 - a3 * t - t * t, a4 - a1 * t, a2, 1):
        raise VerificationError(f"(theta, t) at s={fd.s} is off the curve")
    return _THETA, (t,) if t else (), fd.coeffs


# -- torsion bounds ------------------------------------------------------------

# Given a count, torsion_bound adds good primes while the bound exceeds the
# target, up to this many primes in all; more, or a listed prime above the
# last cap, are refused, as each costs an O(p) point count per fiber.
_TORSION_BOUND_TARGET = 30
_MAX_TORSION_PRIMES = 12
_TORSION_PRIME_MAX = 10**5


def _check_torsion_primes(primes: int | Sequence[int]) -> int:
    """The number of torsion primes asked for, after refusing a count or list
    that no fiber can take: scan_family runs this before its first fiber."""
    count, listed = (primes, ()) if isinstance(primes, int) else (len(primes), primes)
    if isinstance(primes, int) and count < 2:
        raise InvalidInputError("at least two torsion primes are required")
    if count < 2 or len(set(listed)) != len(listed):
        raise InvalidInputError("at least two distinct primes are required")
    if count > _MAX_TORSION_PRIMES:
        raise InvalidInputError(f"at most {_MAX_TORSION_PRIMES} torsion primes are allowed")
    if max(listed, default=0) > _TORSION_PRIME_MAX:
        raise InvalidInputError(f"torsion prime {max(listed)} is above {_TORSION_PRIME_MAX}")
    return count


def torsion_bound(
    curve: WeierstrassCurve, fd: FiberData, row: tuple[int, int],
    primes: int | Sequence[int] = 2,
) -> tuple[int, tuple[int, ...]]:
    """(bound, primes): the gcd over the primes of |E(F_{p^d_p})|, d_p the residue degree.

    Torsion over the cubic field injects into each reduced group, so the
    gcd is a multiple of every torsion order, as nontorsion_certificate
    requires.  ``primes`` is a count (>= 2) of the smallest primes > 3 good
    for the curve and unramified for the fiber, or a list of at least two
    distinct such primes, each at most 10^5, used as given; at most twelve
    either way (_check_torsion_primes).  Past a count, more primes join
    while the bound exceeds 30, up to twelve in all: one product per prime
    decides non-torsion at any bound, so this stays only because v1
    documents pin torsion_primes and torsion_bound.  The ramified primes
    come from the discriminant that fiber_at_s proved.  d_p is 3 where the
    fiber is inert and 1 where it splits, as _root_count reads it from row.
    """
    count = _check_torsion_primes(primes)
    bad = _bad_part(fd.coeffs, fd.disc)
    if isinstance(primes, int):
        candidates = (p for p in iter_primes(5) if bad % p and is_good_prime(curve, p))
    else:
        candidates = tuple(primes)
        for p in candidates:
            if not is_good_prime(curve, p):
                raise InvalidInputError(f"{p} is not a good-reduction prime")
            if bad % p == 0:
                raise InvalidInputError(f"{p} ramifies in the fiber cubic")
    used: list[int] = []
    bound = 0
    for p in candidates:
        used.append(p)
        residue_degree = 3 if _root_count(fd.coeffs, row, p) == 0 else 1
        bound = _int_gcd(bound, _group_order(curve, p, residue_degree))
        if len(used) >= count and (
            bound <= _TORSION_BOUND_TARGET or len(used) >= _MAX_TORSION_PRIMES
        ):
            break
    return bound, tuple(used)


# -- certificates and the scan --------------------------------------------------


class ExtensionCertificate(NamedTuple):
    """Audit record for one accepted fiber.  Every accepted fiber is C3:
    it is irreducible, and fiber_at_s has proved its discriminant a square.
    Its point is (theta, t) over Q[theta]/(fiber), as _fiber_point gives it;
    the fiber view builds the UniPoly on demand."""

    galois_class = GaloisClass.C3  # unannotated: a class constant, not a field

    curve: WeierstrassCurve
    s: Fraction
    t: Fraction
    # the fiber as FiberData.coeffs holds it
    coeffs: tuple[Fraction, ...]
    disc: Fraction
    sqrt_disc: Fraction
    torsion_primes: tuple[int, ...]
    torsion_bound: int
    nontorsion_checked_to: int
    # the field's split-type row at cubicfield's head primes
    row: tuple[int, int]
    # for each earlier certificate, in order, the first prime that tells the two fields apart
    witnesses: tuple[int, ...]

    fiber = property(_fiber_view)


def _certificate(curve, fd: FiberData, primes, bound: int, row) -> ExtensionCertificate:
    """The certificate of the fiber fd, with witnesses=() for the fold to fill in."""
    return ExtensionCertificate(
        curve, fd.s, fd.t, fd.coeffs, fd.disc, fd.sqrt_disc,
        torsion_primes=primes,
        torsion_bound=bound,
        nontorsion_checked_to=bound,
        row=row,
        witnesses=(),
    )


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


def _split_primes(fd: FiberData, row: tuple[int, int]) -> Iterator[int]:
    """The primes where the fiber splits completely, ascending, as
    _root_count reads them from its head row and past it."""
    return (p for p in iter_primes() if _root_count(fd.coeffs, row, p) == 3)


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
    denominator (those are bad, so in no row).  The row also gives the
    torsion primes' residue degrees and the split primes where the
    non-torsion check multiplies over F_p.
    """
    first = same_v[0]
    for s in same_v:
        try:
            fd = fiber_at_s(curve, s)
            key = fd.coeffs, fd.sqrt_disc
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
    row = head_row(fd.coeffs, fd.disc)
    if not row[1] and fd.fiber.rational_roots():
        return "reducible"
    point = _fiber_point(curve, fd)
    bound, primes = torsion_bound(curve, fd, row, torsion_primes)
    if not nontorsion_certificate(curve, point, bound, _split_primes(fd, row)):
        return "torsion"
    return _certificate(curve, fd, primes, bound, row)


def _fork_worker(stack: ExitStack, curve: WeierstrassCurve, share, torsion_primes):
    """Fork a child that runs evaluate_fiber on each group of s in share, in
    order; return a function of a group that reads the child's outcome for it.

    The child writes one marshal record per group into a pipe: a skip kind
    ("reducible" or "torsion"), or a certificate's torsion primes, bound and
    head row, from which this process rebuilds the certificate at the
    group's first s through fiber_at_s.  A child's exception crosses as its
    pickle, the one bytes record, and ends the child's records; only then is
    pickle imported, here and in the child.  The child leaves through
    os._exit: it never flushes the inherited stdout or returns into the
    caller's code.  On leaving the stack the child is reaped; on an early
    exit, with records of its share unread, it is first killed (the one use
    of signal), so it stops at once, even mid-fiber or blocked on a full pipe.

    Right before the fork the collector's generations are frozen, as
    CPython documents for a fork without exec: no later collection in
    either process walks the objects that exist at the fork, including the
    collections of this process's exit.  Those objects, the caller's too,
    stay out of cycle collection for the rest of the process.
    """
    import gc
    import marshal

    read_fd, write_fd = os.pipe()
    gc.freeze()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                for same_v in share:
                    try:
                        outcome = evaluate_fiber(curve, same_v, torsion_primes)
                    except Exception as exc:
                        import pickle

                        marshal.dump(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL), out)
                        break
                    if not isinstance(outcome, str):
                        outcome = outcome.torsion_primes, outcome.torsion_bound, outcome.row
                    marshal.dump(outcome, out)
                    out.flush()
        finally:
            os._exit(0)
    unread = len(share)

    def reap():
        if unread:  # an early exit
            import signal

            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

    stack.callback(reap)
    # closed before the next fork, so the child's exit ends the pipe
    os.close(write_fd)
    records = stack.enter_context(open(read_fd, "rb"))

    def outcome_of(same_v):
        nonlocal unread
        try:
            record = marshal.load(records)
        except (EOFError, ValueError):
            raise ChildProcessError(f"a worker exited before evaluating s={same_v[0]}") from None
        if isinstance(record, bytes):
            import pickle

            raise pickle.loads(record)
        unread -= 1
        if isinstance(record, str):
            return record
        primes, bound, row = record
        return _certificate(curve, fiber_at_s(curve, same_v[0]), primes, bound, row)

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
    if jobs < 1:
        raise InvalidInputError("jobs must be >= 1")
    _check_torsion_primes(torsion_primes)
    matrix = SplitTypeMatrix(witness_bound)  # which checks the bound
    s_values = enumerate_s_by_height(s_height_max)
    by_v: dict[Fraction, list[Fraction]] = {}
    for s in s_values:
        by_v.setdefault(2 * s / (1 + 3 * s * s), []).append(s)
    groups = list(by_v.values())
    workers = min(jobs, os.cpu_count() or 1, len(groups)) if hasattr(os, "fork") else 1
    result = ScanResult(curve, fibers_tested=len(s_values))
    with ExitStack() as stack:
        readers = [
            _fork_worker(stack, curve, groups[w::workers], torsion_primes)
            for w in range(1, workers)
        ]
        for same_v, outcome in zip(groups, _outcomes(curve, groups, torsion_primes, readers)):
            skipped = len(same_v)
            if not isinstance(outcome, str):
                witnesses = matrix.admit(outcome.coeffs, outcome.disc, outcome.row)
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
