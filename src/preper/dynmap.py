"""Rational self-maps of P^1 over Q with exact reduction data.

A map is a pair of degree-d integer forms [F : G] with joint content 1 and
nonzero resultant.  The primes dividing the resultant are exactly the primes
of bad reduction; they are factored under a budget at construction time, and
any unfactored composite part of the resultant is carried around explicitly
so no downstream claim silently depends on a completed factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .forms import BinaryForm, rational_roots, resultant
from .qarith import InvariantViolation, PrimeSet, ProjPoint, Rat, factor, is_prime, strip_primes

HEIGHT_ESCAPE = 10**40


class DegenerateMapError(ValueError):
    """Input does not define a degree >= 2 endomorphism of P^1."""


@dataclass(frozen=True)
class RationalMap:
    """phi = [F : G], deg >= 2, joint content 1, resultant nonzero."""

    F: BinaryForm
    G: BinaryForm
    res: int
    bad_primes: PrimeSet
    res_cofactor: Optional[int] = None

    @property
    def degree(self) -> int:
        return self.F.degree

    @property
    def bad_primes_complete(self) -> bool:
        return self.res_cofactor is None

    def __str__(self) -> str:
        return f"[{self.F} : {self.G}]"


def _poly_degree(coeffs: Sequence[Rat]) -> int:
    deg = -1
    for i, c in enumerate(coeffs):
        if c != 0:
            deg = i
    return deg


def build_map(num: Sequence[Rat], den: Sequence[Rat]) -> RationalMap:
    """Build phi(z) = num(z)/den(z) from ascending coefficient lists.

    Rational coefficients are cleared to integers, the joint content is
    divided out, and the resultant is computed and factored.  A zero
    resultant (shared factor, proportional forms) or total degree < 2 raises
    DegenerateMapError.
    """
    dn, dd = _poly_degree(num), _poly_degree(den)
    if dn < 0 and dd < 0:
        raise DegenerateMapError("0/0 is not a map")
    d = max(dn, dd)
    if d < 2:
        raise DegenerateMapError(f"map degree {max(d, 0)} < 2")
    lcm = 1
    for c in list(num) + list(den):
        if isinstance(c, Fraction):
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    fc = [0] * (d + 1)
    gc = [0] * (d + 1)
    for i, c in enumerate(num):
        fc[d - i] = int(Fraction(c) * lcm)
    for i, c in enumerate(den):
        gc[d - i] = int(Fraction(c) * lcm)
    joint = math.gcd(*(fc + gc))
    if joint > 1:
        fc = [c // joint for c in fc]
        gc = [c // joint for c in gc]
    F, G = BinaryForm(tuple(fc)), BinaryForm(tuple(gc))
    res = resultant(F, G)
    if res == 0:
        raise DegenerateMapError(
            "zero resultant: numerator and denominator share a factor"
        )
    fr = factor(res)
    bad = PrimeSet(tuple(p for p, _ in fr.factors))
    return RationalMap(F=F, G=G, res=res, bad_primes=bad, res_cofactor=fr.cofactor)


def has_good_reduction(phi: RationalMap, p: int) -> bool:
    """True iff p does not divide the resultant.

    Decidable exactly for any single prime regardless of how much of the
    resultant was factored, since the resultant itself is held exactly.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return phi.res % p != 0


def leftover_factor(phi: RationalMap, g: int) -> int:
    """What is left of g > 0 once the certified bad primes are divided out.

    Whatever g shares with the unfactored part of the resultant goes too.
    Good reduction outside the bad primes makes this 1 for g = gcd(F(P), G(P))
    at any P in coprime coordinates.
    """
    g = strip_primes(g, phi.bad_primes)
    if phi.res_cofactor is not None:
        c = math.gcd(g, phi.res_cofactor)
        while c > 1:
            g //= c
            c = math.gcd(g, phi.res_cofactor)
    return g


def apply(phi: RationalMap, P: ProjPoint) -> ProjPoint:
    """phi(P), with the good-reduction normalization property asserted."""
    fx = phi.F.evaluate_point(P)
    gx = phi.G.evaluate_point(P)
    if fx == 0 and gx == 0:
        raise InvariantViolation(f"common root at {P} despite nonzero resultant")
    stray = leftover_factor(phi, math.gcd(fx, gx))
    if stray != 1:  # an implementation bug, never a property of the map
        raise InvariantViolation(f"gcd of image pair has a factor {stray} outside the bad primes")
    return ProjPoint(fx, gx)


def apply_rational(phi: RationalMap, z: Union[Rat, ProjPoint]) -> ProjPoint:
    """Convenience: accept an affine rational (or point) argument."""
    P = z if isinstance(z, ProjPoint) else ProjPoint.from_rational(z)
    return apply(phi, P)


@dataclass(frozen=True)
class OrbitRecord:
    """Forward orbit of a point until repetition or escape.

    kind 'preperiodic': points lists the m tail points followed by the n
    cycle points, with phi(points[-1]) == points[m].
    kind 'escaped': the orbit left the height box (or the step budget) and
    the point is treated as a wanderer.
    """

    points: tuple[ProjPoint, ...]
    kind: str
    tail_length: Optional[int] = None
    cycle_length: Optional[int] = None

    @property
    def tail_points(self) -> tuple[ProjPoint, ...]:
        return self.points[: self.tail_length or 0]

    @property
    def cycle_points(self) -> tuple[ProjPoint, ...]:
        if self.kind != "preperiodic":
            return ()
        return self.points[self.tail_length :]


def orbit(
    phi: RationalMap,
    P: ProjPoint,
    max_steps: int = 1000,
    height_cap: int = HEIGHT_ESCAPE,
) -> OrbitRecord:
    """Iterate P until a point repeats (preperiodic) or escapes the box.

    Escape is declared once a coordinate height passes height_cap or the step
    budget runs out; preperiodic points over Q have orbits far below either
    limit, so escape is a sound wanderer verdict for portrait work.
    """
    seen = {P: 0}
    seq = [P]
    cur = P
    for _ in range(max_steps):
        cur = apply(phi, cur)
        idx = seen.get(cur)
        if idx is not None:
            return OrbitRecord(
                points=tuple(seq),
                kind="preperiodic",
                tail_length=idx,
                cycle_length=len(seq) - idx,
            )
        if cur.height() > height_cap:
            seq.append(cur)
            return OrbitRecord(points=tuple(seq), kind="escaped")
        seen[cur] = len(seq)
        seq.append(cur)
    return OrbitRecord(points=tuple(seq), kind="escaped")


@dataclass(frozen=True)
class PreimageResult:
    points: frozenset[ProjPoint]
    complete: bool


def preimages(phi: RationalMap, Q: ProjPoint) -> PreimageResult:
    """All rational P with phi(P) = Q.

    Solves y_Q * F - x_Q * G = 0; the form's degree-d root bound caps the
    count.  Completeness mirrors the root finder's certificate.
    """
    H = phi.F.scale(Q.y) - phi.G.scale(Q.x)
    if H.is_zero:
        raise InvariantViolation("preimage form vanished; map must be degenerate")
    rr = rational_roots(H)
    pts = rr.points()
    if len(pts) > phi.degree:
        raise InvariantViolation("more preimages than the degree allows")
    for P in pts:
        if apply(phi, P) != Q:
            raise InvariantViolation(f"claimed preimage {P} of {Q} fails to map over")
    return PreimageResult(points=frozenset(pts), complete=rr.complete)
