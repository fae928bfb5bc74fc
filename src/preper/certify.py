"""S-unit certificates and cardinality bounds for preperiodic portraits.

The certificate machinery turns a qualitative statement into finitely many
integer checks. For a map with good reduction outside S, a tail point R
entering a cycle of length n is S-integral relative to every periodic point
P, with one exception: the single periodic point of the form phi^(mn)(R).
Written in coprime coordinates, S-integrality of the pair means the cross
term x_R*y_P - x_P*y_R is an S-unit. `make_certificates` emits one concrete
certificate per (tail, periodic) pair, flags the excepted pair, and
`CertificateBundle.all_hold` reports whether every covered pair passed.

The bound section evaluates, in exact integer arithmetic where possible, the
cardinality bounds that S-unit and Thue-Mahler counting give for the number
of periodic, tail, and preperiodic points, plus two classical bounds on the
length of a finite orbit. The first orbit bound is far too large to hold as
an integer, so it is reported as a natural logarithm; the refined one is a
moderate Decimal. `check_bounds` compares a portrait's counts against every
bound whose hypothesis it satisfies.
"""

from decimal import Decimal, localcontext
from typing import NamedTuple, Union

from .portrait import Portrait, PortraitCounts, classify
from .qarith import PrimeSet, ProjPoint, is_s_unit

LN_PRECISION = 40


# ---------------------------------------------------------------------------
# S-unit certificates
# ---------------------------------------------------------------------------


class SUnitCertificate(NamedTuple):
    """One checked (tail, periodic) pair.

    cycle_length is the length n of the cycle the tail eventually enters,
    excluded_point is phi^(m0*n)(tail) for the least m0 with m0*n >= depth,
    the unique periodic point the claim does not cover. cross is the integer
    x_R*y_P - x_P*y_R and s_unit_ok records whether it is an S-unit. The
    claim asserts s_unit_ok whenever excluded is False; an excluded pair may
    pass or fail freely.
    """

    tail: ProjPoint
    periodic: ProjPoint
    cycle_length: int
    excluded_point: ProjPoint
    cross: int
    s_unit_ok: bool
    excluded: bool


class CertificateBundle(NamedTuple):
    primes: PrimeSet
    primes_complete: bool
    certificates: tuple[SUnitCertificate, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.s_unit_ok for c in self.certificates if not c.excluded)

    def failures(self) -> list[SUnitCertificate]:
        return [c for c in self.certificates if not c.excluded and not c.s_unit_ok]


def make_certificates(portrait: Portrait) -> CertificateBundle:
    """Check S-integrality between every tail point and every periodic point.

    Each certificate is verified against the certified bad primes; when the
    resultant did not factor completely (primes_complete False), a genuine
    bad prime could be missing from S and a certificate could fail
    spuriously, so the flag travels with the bundle.
    """
    S = portrait.phi.bad_primes
    # phi^(m0*n)(tail) is depth steps back along the cycle from the entry
    place = {P: (cyc, i) for cyc in portrait.cycles for i, P in enumerate(cyc)}
    certs = []
    for t in portrait.tails:
        cyc, i = place[t.entry]
        n = len(cyc)
        q_star = cyc[(i - t.depth) % n]
        for pp in portrait.periodic:
            P = pp.point
            cross = t.point.x * P.y - P.x * t.point.y
            if cross == 0:
                raise ValueError(f"tail {t.point} coincides with periodic {P}")
            certs.append(
                SUnitCertificate(
                    tail=t.point,
                    periodic=P,
                    cycle_length=n,
                    excluded_point=q_star,
                    cross=cross,
                    s_unit_ok=is_s_unit(cross, S),
                    excluded=P == q_star,
                )
            )
    certs.sort(key=lambda c: (c.tail.sort_key(), c.periodic.sort_key()))
    return CertificateBundle(
        primes=S,
        primes_complete=portrait.flags.bad_primes_complete,
        certificates=tuple(certs),
    )


# ---------------------------------------------------------------------------
# solution-count formulas for the underlying equations
# ---------------------------------------------------------------------------


def unit_equation_count(rank: int) -> int:
    """Solutions of x + y = 1 in a rank-r subgroup of (K*)^2, after
    Beukers and Schlickewei: 2^(8(r+1))."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return 2 ** (8 * (rank + 1))


def unit_equation_pair_count(rank: int) -> int:
    """Solutions of ax + by = 1 with x, y from a rank-r subgroup of K*:
    the product group has rank 2r, giving 2^(8(2r+2))."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return 2 ** (8 * (2 * rank + 2))


def thue_mahler_coset_count(form_degree: int, s: int) -> int:
    """Cosets of solutions of F(x, y) an S-unit, after Evertse.

    F must be irreducible of degree at least 3; the count is (5*10^6 r)^s.
    """
    if form_degree < 3:
        raise ValueError("the form must have degree at least 3")
    if s < 1:
        raise ValueError("s counts the archimedean place, so s >= 1")
    return (5 * 10**6 * form_degree) ** s


# ---------------------------------------------------------------------------
# cardinality and orbit-length bounds
# ---------------------------------------------------------------------------


class BoundReport(NamedTuple):
    """Every bound evaluated at a given s = |S| and degree.

    per_bound_tails3 applies when the map has at least three rational tail
    points, tail_bound_periodic4 when it has at least four rational periodic
    points, per_bound_tm when it has at least one rational tail point; the
    rest are unconditional. The orbit-length entries bound the number of
    points in any single finite orbit; orbit_len_ln_bound is the natural
    logarithm of a bound too large to materialize.
    """

    s: int
    degree: int
    per_bound_tails3: int
    tail_bound_periodic4: int
    per_bound_degree: int
    tail_bound_degree: int
    preper_bound_degree: int
    tail_bound_tm: int
    per_bound_tm: int
    orbit_len_ln_bound: Decimal
    orbit_len_bound_refined: Decimal


def tail_bound_tm_terms(s: int, degree: int) -> tuple[int, int]:
    """The two branches inside the Thue-Mahler tail bound, exactly."""
    return thue_mahler_coset_count(degree**3 + 1, s + 4), 4 * 2 ** (64 * (s + 3))


def per_bound_tm_terms(s: int, degree: int) -> tuple[int, int]:
    """The two branches inside the Thue-Mahler periodic bound, exactly."""
    return (5 * 10**6 * (degree - 1)) ** (s + 3), 4 * 2 ** (128 * (s + 2))


# The largest 16*s*d^3 that evaluate_bounds accepts: its degree bounds are
# multiples of 2^(16*s*d^3), and CPython prints an integer in time quadratic
# in its length (s = 2, d = 20: 0.3 s; d = 30: 3.5 s; d = 40: 20 s).
_MAX_BOUND_EXPONENT = 2**18


def evaluate_bounds(s: int, degree: int) -> BoundReport:
    """Evaluate all bounds for a map of the given degree with |S| = s."""
    if s < 1:
        raise ValueError("s counts the archimedean place, so s >= 1")
    if degree < 2:
        raise ValueError("the bounds require degree at least 2")
    if (exponent := 16 * s * degree**3) > _MAX_BOUND_EXPONENT:
        raise ValueError(f"bounds at s = {s}, d = {degree} need 2^{exponent}, too large to print")
    big = 2**exponent
    with localcontext() as ctx:
        ctx.prec = LN_PRECISION
        ln_bound = s * (
            Decimal(10) ** 12
            + 8 * Decimal(s + 1).ln()
            + 8 * Decimal(5 * (s + 1)).ln().ln()
        )
        refined = max(
            (2 ** (16 * s - 8) + 3) * (12 * s * Decimal(5 * s).ln()),
            (12 * (s + 2) * Decimal(5 * s + 5).ln()) ** 4,
        )
    return BoundReport(
        s=s,
        degree=degree,
        per_bound_tails3=unit_equation_pair_count(s - 1) + 3,
        tail_bound_periodic4=4 * unit_equation_pair_count(s - 1),
        per_bound_degree=big + 3,
        tail_bound_degree=4 * big,
        preper_bound_degree=5 * big + 3,
        tail_bound_tm=degree * max(tail_bound_tm_terms(s, degree)),
        per_bound_tm=max(per_bound_tm_terms(s, degree)) + 1,
        orbit_len_ln_bound=ln_bound,
        orbit_len_bound_refined=refined,
    )


class BoundCheckItem(NamedTuple):
    """One bound compared against one portrait.

    applicable is False when the portrait does not satisfy the bound's
    hypothesis, in which case holds is vacuously True. A False holds on an
    applicable item would be a counterexample to the underlying statement.
    """

    name: str
    applicable: bool
    observed: Union[int, Decimal]
    bound: Union[int, Decimal]
    holds: bool


def check_bounds(counts: PortraitCounts, report: BoundReport) -> tuple[BoundCheckItem, ...]:
    """Compare observed portrait statistics against every bound."""
    with localcontext() as ctx:
        ctx.prec = LN_PRECISION
        ln_orbit = Decimal(max(counts.longest_orbit, 1)).ln()
    rows = [
        ("periodic_when_tails3", counts.tails >= 3, counts.periodic, report.per_bound_tails3),
        ("tails_when_periodic4", counts.periodic >= 4, counts.tails, report.tail_bound_periodic4),
        ("periodic_degree", True, counts.periodic, report.per_bound_degree),
        ("tails_degree", True, counts.tails, report.tail_bound_degree),
        ("preperiodic_degree", True, counts.preperiodic, report.preper_bound_degree),
        ("tails_tm", True, counts.tails, report.tail_bound_tm),
        ("periodic_tm", counts.tails >= 1, counts.periodic, report.per_bound_tm),
        ("orbit_len_ln", True, ln_orbit, report.orbit_len_ln_bound),
        ("orbit_len_refined", True, Decimal(counts.longest_orbit), report.orbit_len_bound_refined),
    ]
    return tuple(
        BoundCheckItem(
            name=name,
            applicable=applicable,
            observed=observed,
            bound=bound,
            holds=(not applicable) or observed <= bound,
        )
        for name, applicable, observed, bound in rows
    )


def verify_portrait_bounds(portrait: Portrait) -> tuple[BoundReport, tuple[BoundCheckItem, ...]]:
    """Evaluate and check all bounds for one portrait in one call."""
    counts = classify(portrait)
    report = evaluate_bounds(portrait.phi.bad_primes.s, portrait.phi.degree)
    return report, check_bounds(counts, report)
