"""Two parametric map families with lopsided portraits.

Both families have all their bad reduction at the single prime 2, so the
place count s stays fixed at 2 while the degree grows. The first family
(token "ex51") packs in ever more rational periodic points while keeping a
short tail; the second (token "ex52") grows its rational tail while keeping
exactly one short cycle. Together they show that neither the number of
periodic points nor the number of tail points can be bounded independently
of the degree once the other side of the portrait is small.

`generate` builds the maps, `verify_claims` machine-checks every concrete
statement made about them, point by point, against a computed portrait.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .dynmap import InvariantViolation, RationalMap, apply, build_map
from .forms import _product
from .portrait import Portrait, build_portrait, classify
from .qarith import INFINITY, ProjPoint

FAMILY_TOKENS = ("ex51", "ex52")


@dataclass(frozen=True)
class FamilySpec:
    """A family token plus its integer parameter d.

    ex51 with parameter d >= 1 has degree 2d + 1; ex52 with parameter
    d >= 2 has degree d.
    """

    family: str
    d: int

    def __post_init__(self) -> None:
        if self.family not in FAMILY_TOKENS:
            raise ValueError(f"unknown family {self.family!r}, expected ex51 or ex52")
        floor = 1 if self.family == "ex51" else 2
        if self.d < floor:
            raise ValueError(f"{self.family} requires d >= {floor}, got {self.d}")

    @property
    def degree(self) -> int:
        return 2 * self.d + 1 if self.family == "ex51" else self.d


def _poly_from_roots(roots: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of the monic product of (x - r)."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = _product(coeffs, [-r, 1])
    return coeffs


def generate(spec: FamilySpec) -> RationalMap:
    """Build the family member, checking its defining reduction property.

    ex51: 1/x plus the product of (x - 2^i) for -d <= i <= d, over x^(2d+1).
    ex52: the product of (x - 2^i) for 0 <= i <= d-1, over x^d.
    """
    if spec.family == "ex51":
        num = _poly_from_roots([Fraction(2) ** i for i in range(-spec.d, spec.d + 1)])
        num[2 * spec.d] += 1
        den = [Fraction(0)] * (2 * spec.d + 1) + [Fraction(1)]
    else:
        num = _poly_from_roots([Fraction(2) ** i for i in range(spec.d)])
        den = [Fraction(0)] * spec.d + [Fraction(1)]
    phi = build_map(num, den)
    if phi.degree != spec.degree:
        raise InvariantViolation(
            f"{spec.family} d={spec.d} built degree {phi.degree}, wanted {spec.degree}"
        )
    stray = [p for p in phi.bad_primes if p != 2]
    if stray:
        raise InvariantViolation(
            f"{spec.family} d={spec.d} has bad reduction at {stray} beyond 2"
        )
    return phi


def family_portrait(spec: FamilySpec, n_max: Optional[int] = None) -> Portrait:
    return build_portrait(generate(spec), n_max)


class Claim(NamedTuple):
    name: str
    holds: bool
    detail: str


class ClaimReport(NamedTuple):
    spec: FamilySpec
    claims: tuple[Claim, ...]
    observed_periodic: int
    observed_tails: int

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.claims)

    def failures(self) -> list[Claim]:
        return [c for c in self.claims if not c.holds]


def verify_claims(spec: FamilySpec, portrait: Portrait) -> ClaimReport:
    """Check every pointwise statement the family advertises.

    The portrait should come from generate(spec); results are reported
    claim by claim rather than raised, so a sweep over d can collect them.
    """
    phi = portrait.phi
    claims = []

    def add(name: str, holds: bool, detail: str) -> None:
        claims.append(Claim(name=name, holds=bool(holds), detail=detail))

    primes = set(phi.bad_primes)
    zero, one = ProjPoint(0, 1), ProjPoint(1, 1)
    if spec.family == "ex51":
        add("bad_primes_within_2", primes <= {2}, f"bad primes {sorted(primes)}")
        add("fixed_point_one", apply(phi, one) == one, "f(1) = 1")
        swaps = []
        for i in range(1, spec.d + 1):
            hi, lo = ProjPoint(2**i, 1), ProjPoint(1, 2**i)
            swaps.append(apply(phi, hi) == lo and apply(phi, lo) == hi)
        add(
            "powers_of_two_swap",
            all(swaps),
            f"f(2^i) = 2^-i and back for 1 <= i <= {spec.d}",
        )
        add(
            "orbit_zero_to_fixed",
            apply(phi, zero) == INFINITY and apply(phi, INFINITY) == one,
            "0 -> inf -> 1",
        )
        periodic = {pp.point: pp.primitive_period for pp in portrait.periodic}
        expected_cycles = all(
            periodic.get(P) == 2
            for i in range(1, spec.d + 1)
            for P in (ProjPoint(2**i, 1), ProjPoint(1, 2**i))
        )
        add(
            "portrait_sees_two_cycles",
            expected_cycles and periodic.get(one) == 1,
            f"2d + 1 = {2 * spec.d + 1} claimed periodic points found with right periods",
        )
        tail_points = {t.point for t in portrait.tails}
        add(
            "tails_contain_zero_and_inf",
            {zero, INFINITY} <= tail_points,
            f"tails observed: {sorted(str(t) for t in tail_points)}",
        )
    else:
        add("bad_primes_exactly_2", primes == {2}, f"bad primes {sorted(primes)}")
        chain = (
            apply(phi, zero) == INFINITY
            and apply(phi, INFINITY) == one
            and apply(phi, one) == zero
        )
        add("orbit_chain_0_inf_1_0", chain, "0 -> inf -> 1 -> 0")
        add(
            "three_cycle_in_portrait",
            (INFINITY, one, zero) in portrait.cycles,
            "the cycle appears in the computed portrait",
        )
        tail_points = {t.point for t in portrait.tails}
        expected = {ProjPoint(2**i, 1) for i in range(1, spec.d)}
        add(
            "powers_of_two_are_tails",
            expected <= tail_points,
            f"2^1 .. 2^{spec.d - 1} classified as tail points",
        )
        entries = all(
            t.entry in {zero, INFINITY, one}
            for t in portrait.tails
            if t.point in expected
        )
        add("powers_enter_the_cycle", entries, "their orbits land on the 3-cycle")

    counts = classify(portrait)
    return ClaimReport(
        spec=spec,
        claims=tuple(claims),
        observed_periodic=counts.periodic,
        observed_tails=counts.tails,
    )
