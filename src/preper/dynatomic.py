"""Period and dynatomic polynomials, formal periods, multipliers.

The n-th period form of phi = [F : G] is Phi_n = Y*F_n - X*G_n, whose roots
are the points of period dividing n.  Moebius inversion over the divisors of
n isolates the n-th dynatomic form Phi*_n, whose roots have formal period n.
A root's primitive period can still be a proper divisor m of n, but only when
the multiplier at the m-cycle is a root of unity; over Q that means -1, so a
rational periodic point carries at most two formal periods (m and 2m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dynmap import InvariantViolation, RationalMap, apply
from .forms import BinaryForm, exact_divide, iterate_pairs, rational_roots, root_multiplicity
from .qarith import ProjPoint, factor

# Degree/period pairs (n, d) for which a degree-d map may have no point of
# exact period n over the algebraic closure (Baker).  For polynomial maps the
# only genuine exception is (2, 2).
BAKER_EXCEPTIONAL_PAIRS = frozenset({(2, 2), (2, 3), (3, 2), (4, 2)})


def baker_degree_check(d: int, n: int) -> bool:
    """True iff exact-period-n points are guaranteed to exist in degree d."""
    return (n, d) not in BAKER_EXCEPTIONAL_PAIRS


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def mobius(n: int) -> int:
    if n == 1:
        return 1
    fr = factor(n)
    if not fr.complete:
        raise InvariantViolation(f"could not factor the period {n}")
    if any(e > 1 for _, e in fr.factors):
        return 0
    return -1 if len(fr.factors) % 2 else 1


def formal_period_degree(d: int, n: int) -> int:
    """deg Phi*_n = sum over k | n of mu(n/k) (d^k + 1)."""
    return sum(mobius(n // k) * (d**k + 1) for k in _divisors(n))


def _period_forms(phi: RationalMap, n: int) -> list[BinaryForm]:
    """Phi_k for k = 1..n, from one walk of the iterate chain."""
    out = []
    for Fk, Gk in iterate_pairs(phi.F, phi.G, n):
        form = BinaryForm((0,) + Fk.coeffs) - BinaryForm(Gk.coeffs + (0,))
        if form.is_zero:
            raise InvariantViolation("period form vanished identically")
        out.append(form.primitive())
    return out


def period_polynomial(phi: RationalMap, n: int) -> BinaryForm:
    """Phi_n = Y*F_n - X*G_n, content- and sign-normalized, degree d^n + 1."""
    return _period_forms(phi, n)[-1]


@dataclass(frozen=True)
class DynatomicRecord:
    n: int
    period_form: BinaryForm
    star_form: BinaryForm
    degree_expected: int

    @property
    def degree_ok(self) -> bool:
        return self.star_form.degree == self.degree_expected


def _record(phi: RationalMap, periods: list[BinaryForm], n: int) -> DynatomicRecord:
    """Phi*_n from the period forms periods[k - 1] = Phi_k, by one exact division.

    The Moebius factors are grouped into a single numerator and denominator
    product first; the division of those two primitive forms must come out
    exact and integral, which is itself a strong self-check.
    """
    num = periods[n - 1]  # mu(1) = 1
    den: Optional[BinaryForm] = None
    for k in _divisors(n)[:-1]:
        mu = mobius(n // k)
        if mu == 1:
            num = num * periods[k - 1]
        elif mu == -1:
            den = periods[k - 1] if den is None else den * periods[k - 1]
    star = num if den is None else exact_divide(num, den)
    return DynatomicRecord(
        n=n,
        period_form=periods[n - 1],
        star_form=star.primitive(),
        degree_expected=formal_period_degree(phi.degree, n),
    )


def dynatomic_records(phi: RationalMap, n_max: int) -> tuple[DynatomicRecord, ...]:
    """The records for n = 1..n_max, all from one walk of the iterate chain."""
    periods = _period_forms(phi, n_max) if n_max >= 1 else []
    return tuple(_record(phi, periods, n) for n in range(1, n_max + 1))


def dynatomic_record(phi: RationalMap, n: int) -> DynatomicRecord:
    """Phi_n together with Phi*_n."""
    return _record(phi, _period_forms(phi, n), n)


def dynatomic_polynomial(phi: RationalMap, n: int) -> BinaryForm:
    return dynatomic_record(phi, n).star_form


def formal_period_orders(phi: RationalMap, P: ProjPoint, n_max: int) -> dict[int, int]:
    """a*_P(n) = multiplicity of P as a root of Phi*_n, for n = 1..n_max."""
    return {rec.n: root_multiplicity(rec.star_form, P) for rec in dynatomic_records(phi, n_max)}


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def _eval_asc(p: list[int], t: Fraction) -> Fraction:
    r = Fraction(0)
    for c in reversed(p):
        r = r * t + c
    return r


def _ratderiv(u: list[int], v: list[int], t: Fraction) -> Fraction:
    """(u/v)'(t) for ascending integer coefficient lists, v(t) != 0."""
    du = [i * c for i, c in enumerate(u)][1:]
    dv = [i * c for i, c in enumerate(v)][1:]
    vt = _eval_asc(v, t)
    if vt == 0:
        raise InvariantViolation("chart denominator vanished at evaluation point")
    return (_eval_asc(du, t) * vt - _eval_asc(u, t) * _eval_asc(dv, t)) / (vt * vt)


def _local_derivative(phi: RationalMap, P: ProjPoint, Q: ProjPoint) -> Fraction:
    """Derivative of phi at P read in affine charts at P and at Q = phi(P).

    Finite points use the z-chart, infinity uses w = 1/z; with the chart at
    the image chosen by where Q actually lies, every case is a rational
    function with nonvanishing denominator at the base point.
    """
    if not P.is_infinity:
        t = Fraction(P.x, P.y)
        u = list(reversed(phi.F.coeffs))  # F(z, 1), ascending
        v = list(reversed(phi.G.coeffs))
    else:
        t = Fraction(0)
        u = list(phi.F.coeffs)  # F(1, w), ascending
        v = list(phi.G.coeffs)
    if Q.is_infinity:
        u, v = v, u  # image read in the w-chart: w' = G/F
    return _ratderiv(u, v, t)


def multiplier(phi: RationalMap, P: ProjPoint, m: int) -> Fraction:
    """Multiplier of the length-m cycle through P: the cycle's derivative.

    Chain rule along the cycle with chart swaps at infinity; chart choices
    cancel around the loop, so the value is the conjugation invariant.  It is
    always a finite rational here: each local factor has a nonvanishing
    chart denominator by construction.
    """
    cycle = [P]
    cur = apply(phi, P)
    while cur != P:
        cycle.append(cur)
        if len(cycle) > m:
            raise ValueError(f"{P} does not have period {m}")
        cur = apply(phi, cur)
    if len(cycle) != m:
        raise ValueError(f"{P} has period {len(cycle)}, not {m}")
    lam = Fraction(1)
    for i, Pi in enumerate(cycle):
        lam *= _local_derivative(phi, Pi, cycle[(i + 1) % m])
    return lam


# ---------------------------------------------------------------------------
# rational periodic points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicPoint:
    point: ProjPoint
    primitive_period: int
    multiplier: Fraction
    formal_periods: tuple[int, ...]


@dataclass(frozen=True)
class PeriodicSearchResult:
    """Every rational periodic point of primitive period <= n_max.

    Complete relative to n_max when roots_complete holds; longer cycles are
    out of scope by definition, which the portrait layer reports.
    """

    points: tuple[PeriodicPoint, ...]
    n_max: int
    roots_complete: bool

    def by_point(self) -> dict[ProjPoint, PeriodicPoint]:
        return {pp.point: pp for pp in self.points}


def rational_periodic_points(phi: RationalMap, n_max: int) -> PeriodicSearchResult:
    """Search Phi*_n roots for n <= n_max and verify each by iteration.

    Whole cycles are closed off even if only one member shows up as a root,
    so the result is cycle-closed by construction.
    """
    found: dict[ProjPoint, PeriodicPoint] = {}
    complete = True
    records = dynatomic_records(phi, n_max)
    for rec in records:
        n = rec.n
        rr = rational_roots(rec.star_form)
        complete = complete and rr.complete
        for pt in rr.points():
            if pt in found:
                continue
            cycle = [pt]
            cur = apply(phi, pt)
            while cur != pt:
                cycle.append(cur)
                if len(cycle) > n:
                    raise InvariantViolation(
                        f"root {pt} of the n={n} dynatomic form is not n-periodic"
                    )
                cur = apply(phi, cur)
            m = len(cycle)
            if n % m != 0:
                raise InvariantViolation(
                    f"primitive period {m} does not divide formal period {n}"
                )
            lam = multiplier(phi, pt, m)
            for c in cycle:
                formal = tuple(r.n for r in records if r.star_form.evaluate_point(c) == 0)
                found[c] = PeriodicPoint(
                    point=c, primitive_period=m, multiplier=lam, formal_periods=formal
                )
    pts = tuple(sorted(found.values(), key=lambda pp: pp.point.sort_key()))
    return PeriodicSearchResult(points=pts, n_max=n_max, roots_complete=complete)
