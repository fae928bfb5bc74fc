"""Period and dynatomic forms, multipliers, and the rational periodic points.

The n-th period form of phi = [F : G] is Phi_n = Y*F_n - X*G_n, whose roots
are the points of period dividing n.  Phi_n is the product of the dynatomic
forms Phi*_k over the divisors k of n, so dividing Phi_n by the Phi*_k of its
proper divisors isolates Phi*_n, whose roots have formal period n.
A point of primitive period m and multiplier lambda is a root of Phi*_n
exactly when n = m, or n = m*r with lambda a primitive r-th root of unity
(Morton and Silverman, "Periodic points, multiplicities, and dynamical
units", 1995; Silverman, The Arithmetic of Dynamical Systems, Sec. 4.1).
Over Q that root of unity can only be -1, so a rational periodic point
carries the formal periods m and, when lambda = -1, 2m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .dynmap import InvariantViolation, RationalMap, apply
from .forms import BinaryForm, exact_divide, iterate_pairs, period_step, rational_roots
from .qarith import ProjPoint


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def mobius(n: int) -> int:
    """The Moebius function of n >= 1, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def formal_period_degree(d: int, n: int) -> int:
    """deg Phi*_n = sum over k | n of mu(n/k) (d^k + 1)."""
    return sum(mobius(n // k) * (d**k + 1) for k in _divisors(n))


def _period_forms(phi: RationalMap, n: int) -> list[BinaryForm]:
    """Phi_k for k = 1..n, from one walk of the iterate chain.

    The walk stops at (F_(n-1), G_(n-1)): each Phi_k = Y*F_k - X*G_k below
    the top is a shift of a pair the walk needs anyway, and Phi_n comes from
    period_step on the last pair, so F_n and G_n, the largest forms, are
    never built.  For n = 1, Phi_1 = Y*F - X*G.
    """
    out = []
    for Fk, Gk in iterate_pairs(phi.F, phi.G, max(n - 1, 1)):
        shifted = BinaryForm((0,) + Fk.coeffs) - BinaryForm(Gk.coeffs + (0,))
        out.append(_primitive_period_form(shifted))
    if n > 1:
        out.append(_primitive_period_form(period_step(phi.F, phi.G, Fk, Gk)))
    return out


def _primitive_period_form(form: BinaryForm) -> BinaryForm:
    if form.is_zero:
        raise InvariantViolation("period form vanished identically")
    return form.primitive()


class DynatomicRecord(NamedTuple):
    """Phi_n = Y*F_n - X*G_n (primitive, degree d^n + 1) and Phi*_n for one n."""

    n: int
    period_form: BinaryForm
    star_form: BinaryForm


def dynatomic_records(phi: RationalMap, n_max: int) -> tuple[DynatomicRecord, ...]:
    """The records for n = 1..n_max, all from one walk of the iterate chain.

    Phi_n is the product of the Phi*_k over the divisors k of n, and all of
    these forms are primitive with a positive first coefficient (Gauss's
    lemma), so Phi*_n is Phi_n divided in turn by the Phi*_k already built
    for its proper divisors k.  Every division must come out exact and
    integral, which is itself a strong self-check.
    """
    records: list[DynatomicRecord] = []
    for n, period in enumerate(_period_forms(phi, n_max), 1):
        star = period
        for k in _divisors(n)[:-1]:
            star = exact_divide(star, records[k - 1].star_form)
        records.append(DynatomicRecord(n=n, period_form=period, star_form=star))
    return tuple(records)


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def _partials(f: BinaryForm) -> tuple[BinaryForm, BinaryForm]:
    """(df/dX, df/dY) of a form of positive degree."""
    d, c = f.degree, f.coeffs
    dx = BinaryForm(tuple((d - i) * c[i] for i in range(d)))
    dy = BinaryForm(tuple(i * c[i] for i in range(1, d + 1)))
    return dx, dy


def multiplier(phi: RationalMap, P: ProjPoint, m: int) -> Fraction:
    """Multiplier of the length-m cycle P_0 = P, ..., P_{m-1}, from the forms.

    Write (F, G)(P_i) = c_i * P_{i+1} in coprime coordinates.  By Euler's
    identity the differential of (F, G) at P_i sends P_i to d * c_i * P_{i+1},
    so with J = F_X * G_Y - F_Y * G_X the derivative along the cycle is
    lambda = prod J(P_i) / (d * c_i^2), the same in every chart; c_i != 0
    because F and G have no common zero, so lambda is a finite rational.
    """
    cycle = _walk_cycle(phi, P, m)
    if cycle is None:
        raise ValueError(f"{P} does not have period {m}")
    if len(cycle) != m:
        raise ValueError(f"{P} has period {len(cycle)}, not {m}")
    return _cycle_multiplier(phi, cycle)


def _walk_cycle(phi: RationalMap, P: ProjPoint, n: int) -> Optional[list[ProjPoint]]:
    """[P, phi(P), ...] up to the step that returns to P, or None if n steps do not."""
    cycle = [P]
    cur = apply(phi, P)
    while cur != P:
        if len(cycle) == n:
            return None
        cycle.append(cur)
        cur = apply(phi, cur)
    return cycle


def _cycle_multiplier(phi: RationalMap, cycle: list[ProjPoint]) -> Fraction:
    """The product lambda of multiplier's docstring over a cycle already walked."""
    (FX, FY), (GX, GY) = _partials(phi.F), _partials(phi.G)
    J = FX * GY - FY * GX
    lam = Fraction(1)
    for Q in cycle:
        c = math.gcd(phi.F.evaluate_point(Q), phi.G.evaluate_point(Q))
        lam *= Fraction(J.evaluate_point(Q), phi.degree * c * c)
    return lam


# ---------------------------------------------------------------------------
# rational periodic points
# ---------------------------------------------------------------------------


class PeriodicPoint(NamedTuple):
    """A rational point of primitive period m.

    formal_periods are the n <= n_max of the search with Phi*_n(point) = 0.
    """

    point: ProjPoint
    primitive_period: int
    multiplier: Fraction
    formal_periods: tuple[int, ...]


class PeriodicSearchResult(NamedTuple):
    """Every rational periodic point of primitive period <= n_max.

    points are sorted by point and hold whole cycles.  Complete relative to
    n_max when roots_complete holds; longer cycles are out of scope by
    definition, which the portrait layer reports.  The portrait walks its
    cycles again from its own point set, so the search lists no cycles.
    """

    points: tuple[PeriodicPoint, ...]
    roots_complete: bool


def _periodic_cycle(
    phi: RationalMap, cycle: list[ProjPoint], n_max: int
) -> tuple[list[PeriodicPoint], tuple[ProjPoint, ...]]:
    """The PeriodicPoints of a cycle already walked, and the cycle from its least point.

    Every point gets the cycle's length m and multiplier lambda; the formal
    periods are m and, when lambda = -1 and 2m <= n_max, 2m (the theorem in
    the module docstring).  This is the one way a walked cycle becomes
    PeriodicPoints, for the Phi*_n search and for the portrait assembler,
    which builds every portrait whichever proof found its points.
    """
    m = len(cycle)
    lam = _cycle_multiplier(phi, cycle)
    formal = (m, 2 * m) if lam == -1 and 2 * m <= n_max else (m,)
    points = [
        PeriodicPoint(point=c, primitive_period=m, multiplier=lam, formal_periods=formal)
        for c in cycle
    ]
    i = min(range(m), key=lambda j: cycle[j].sort_key())
    return points, tuple(cycle[i:] + cycle[:i])


def rational_periodic_points(phi: RationalMap, n_max: int) -> PeriodicSearchResult:
    """Search Phi*_n roots for n <= n_max and verify each by iteration.

    Whole cycles are closed off even if only one member shows up as a root,
    so the result is cycle-closed by construction.  Formal periods are read
    off the multiplier by the theorem in the module docstring.
    """
    if n_max < 1:
        raise ValueError(f"the cycle-length horizon must be at least 1, got {n_max}")
    found: dict[ProjPoint, PeriodicPoint] = {}
    complete = True
    for rec in dynatomic_records(phi, n_max):
        n = rec.n
        rr = rational_roots(rec.star_form)
        complete = complete and rr.complete
        for pt in rr.points():
            if pt in found:
                continue
            cycle = _walk_cycle(phi, pt, n)
            if cycle is None:
                raise InvariantViolation(f"root {pt} of the n={n} dynatomic form is not n-periodic")
            m = len(cycle)
            if n % m != 0:
                raise InvariantViolation(
                    f"primitive period {m} does not divide formal period {n}"
                )
            points, _ = _periodic_cycle(phi, cycle, n_max)
            found.update((pp.point, pp) for pp in points)
    pts = tuple(sorted(found.values(), key=lambda pp: pp.point.sort_key()))
    return PeriodicSearchResult(points=pts, roots_complete=complete)
