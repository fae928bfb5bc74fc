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
from typing import Optional, Sequence

from .forms import BinaryForm, form_from_poly, rational_roots, resultant, resultant_cofactors
from .qarith import (
    InvariantViolation,
    PrimeSet,
    ProjPoint,
    Rat,
    factor,
    integer_root,
    strip_primes,
)


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


def build_map(num: Sequence[Rat], den: Sequence[Rat]) -> RationalMap:
    """Build phi(z) = num(z)/den(z) from ascending coefficient lists.

    Rational coefficients are cleared to integers, the joint content is
    divided out, and the resultant is computed and factored.  A zero
    resultant (shared factor, proportional forms) or total degree < 2 raises
    DegenerateMapError.
    """
    dn, dd = (max((i for i, c in enumerate(poly) if c), default=-1) for poly in (num, den))
    if dn < 0 and dd < 0:
        raise DegenerateMapError("0/0 is not a map")
    d = max(dn, dd)
    if d < 2:
        raise DegenerateMapError(f"map degree {max(d, 0)} < 2")
    num, den = [Fraction(c) for c in num[: dn + 1]], [Fraction(c) for c in den[: dd + 1]]
    lcm = math.lcm(*(c.denominator for c in num + den))
    F, G = (form_from_poly([c * lcm for c in poly], d) for poly in (num, den))
    joint = math.gcd(*F.coeffs, *G.coeffs)
    F, G = (BinaryForm(tuple(c // joint for c in H.coeffs)) for H in (F, G))
    res = resultant(F, G)
    if res == 0:
        raise DegenerateMapError(
            "zero resultant: numerator and denominator share a factor"
        )
    fr = factor(res)
    bad = PrimeSet(tuple(p for p, _ in fr.factors))
    return RationalMap(F=F, G=G, res=res, bad_primes=bad, res_cofactor=fr.cofactor)


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


def image_pair(phi: RationalMap, x: int, y: int) -> tuple[int, int]:
    """The coordinates of phi([x : y]) for coprime x, y, in ProjPoint's normal form.

    F and G are evaluated in one Horner pass in x with a shared running
    power of y.  Good reduction outside the bad primes is checked on the
    way: the pair must not vanish together, and gcd(F, G) must leave
    nothing once the bad primes are divided out.  The gcd is divided out
    and the sign fixed so that y' > 0, or [1 : 0] at infinity.
    """
    f, g = phi.F.coeffs, phi.G.coeffs
    fx, gx = f[0], g[0]
    ypow = 1
    for a, b in zip(f[1:], g[1:]):
        ypow *= y
        fx = fx * x + a * ypow
        gx = gx * x + b * ypow
    if fx == 0 and gx == 0:
        raise InvariantViolation(f"common root at {ProjPoint(x, y)} despite nonzero resultant")
    c = math.gcd(fx, gx)
    if c != 1:  # leftover_factor(phi, 1) is 1, so only c > 1 can fail the check
        stray = leftover_factor(phi, c)
        if stray != 1:  # an implementation bug, never a property of the map
            raise InvariantViolation(
                f"gcd of image pair has a factor {stray} outside the bad primes"
            )
        fx, gx = fx // c, gx // c
    if gx < 0 or (gx == 0 and fx < 0):
        fx, gx = -fx, -gx
    return fx, gx


def apply(phi: RationalMap, P: ProjPoint) -> ProjPoint:
    """phi(P), with the good-reduction normalization property asserted.

    The arithmetic and the checks are image_pair's, the one map-step kernel
    that the brute-force oracle also iterates.
    """
    return ProjPoint(*image_pair(phi, P.x, P.y))


def escape_height(phi: RationalMap) -> int:
    """A height above which phi provably raises the height at every step.

    With R = Res(F, G) and d = deg phi, resultant_cofactors gives integer
    forms of degree d - 1 with A_X*F + B_X*G = R*X^(2d-1) and
    A_Y*F + B_Y*G = R*Y^(2d-1).  Let K be the larger of the coefficient
    1-norm sums |A_X| + |B_X| and |A_Y| + |B_Y|.  For coprime (x, y) of
    height H, gcd(F(x, y), G(x, y)) divides R, so H(phi(P)) >= H^d / K
    (Call and Silverman 1993; Silverman, The Arithmetic of Dynamical
    Systems, Prop. 2.13 and Thm. 3.11).  The result is the largest h with
    h^(d-1) <= K: every P with H(P) > h has H(phi(P)) > H(P), so an orbit
    that passes h never repeats, and every preperiodic point lies at or
    below h.
    """
    d = phi.degree
    K = 0
    for k in (0, 2 * d - 1):
        A, B = resultant_cofactors(phi.F, phi.G, k)
        K = max(K, sum(abs(c) for c in A.coeffs + B.coeffs))
    return integer_root(K, d - 1)


@dataclass(frozen=True)
class OrbitRecord:
    """Forward orbit of a point until it repeats or passes the escape height.

    kind 'preperiodic': points lists the m tail points followed by the n
    cycle points, with phi(points[-1]) == points[m].
    kind 'escaped': points[-1] is the first point of the orbit above
    escape_height(phi), every earlier one is at or below it, and the point
    is proven to wander.
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


def orbit(phi: RationalMap, P: ProjPoint) -> OrbitRecord:
    """Iterate P until a point repeats (preperiodic) or passes escape_height(phi).

    Passing the escape height proves the point wanders.  Only finitely many
    points lie at or below that height, so one of the two always happens.
    """
    cutoff = escape_height(phi)
    seen: dict[ProjPoint, int] = {}
    seq: list[ProjPoint] = []
    cur = P
    while cur.height() <= cutoff:
        idx = seen.get(cur)
        if idx is not None:
            return OrbitRecord(
                points=tuple(seq),
                kind="preperiodic",
                tail_length=idx,
                cycle_length=len(seq) - idx,
            )
        seen[cur] = len(seq)
        seq.append(cur)
        cur = apply(phi, cur)
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
