"""Rational self-maps of P^1 over Q with exact reduction data.

A map is a pair of degree-d integer forms [F : G] with joint content 1 and
nonzero resultant.  The primes dividing the resultant are exactly the primes
of bad reduction; they are factored under a budget at construction time, and
any unfactored composite part of the resultant is carried around explicitly
so no downstream claim silently depends on a completed factorization.

Every map step goes through one kernel, image_row, which takes the images of
a row of points [x : y] that share y: image_pair is its one-element row,
apply wraps image_pair, and the brute-force oracle steps a whole row per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .forms import BinaryForm, form_from_poly, rational_roots, resultant, resultant_cofactors
from .qarith import (
    InvariantViolation,
    PrimeSet,
    ProjPoint,
    Rat,
    factor,
    integer_root,
)


class DegenerateMapError(ValueError):
    """Input does not define a degree >= 2 endomorphism of P^1."""


@dataclass(frozen=True)
class RationalMap:
    """phi = [F : G], deg >= 2, joint content 1, resultant nonzero; built by build_map."""

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
    resultant (shared factor, proportional forms), a zero denominator or
    degree < 2 (0 for a zero numerator) raises DegenerateMapError.
    """
    dn, dd = (max((i for i, c in enumerate(poly) if c), default=-1) for poly in (num, den))
    if dd < 0:
        raise DegenerateMapError("0/0 is not a map" if dn < 0 else "the denominator is zero")
    d = max(dn, dd) if dn >= 0 else 0
    if d < 2:
        raise DegenerateMapError(f"map degree {d} < 2")
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


def image_row(phi: RationalMap, y: int, xs: Sequence[int]) -> list[tuple[int, int]]:
    """The coordinates of phi([x : y]) for each x in xs, in ProjPoint's normal form.

    Each x must be coprime to y.  F's and G's coefficients are scaled by
    the powers of y once for the row, and then F(x, y) and G(x, y) take one
    Horner pass in x each.  For coprime (x, y), gcd(F(x, y), G(x, y))
    divides Res(F, G): the cofactor identities A*F + B*G = Res*X^(2d-1) and
    Res*Y^(2d-1) (Silverman, The Arithmetic of Dynamical Systems,
    Prop. 2.13) make it divide Res*x^(2d-1) and Res*y^(2d-1).  So the gcd
    lives on the bad primes, and a gcd of 0 (a common root) or one that
    does not divide the resultant raises InvariantViolation.  The gcd is
    divided out and the sign fixed so that y' > 0, or [1 : 0] at infinity.
    """
    f, g = phi.F.coeffs, phi.G.coeffs
    f0, g0, res = f[0], g[0], phi.res
    scaled = []
    ypow = 1
    for i in range(1, len(f)):  # indexed, not zipped slices: keeps a one-element row cheap
        ypow *= y
        scaled.append((f[i] * ypow, g[i] * ypow))
    images = []
    for x in xs:
        fx, gx = f0, g0
        for a, b in scaled:
            fx = fx * x + a
            gx = gx * x + b
        c = math.gcd(fx, gx)
        if c != 1:
            if c == 0 or res % c:  # an implementation bug, never a property of the map
                raise InvariantViolation(
                    f"image pair at {ProjPoint(x, y)} has gcd {c}, which does not divide Res(F, G)"
                )
            fx, gx = fx // c, gx // c
        if gx < 0 or (gx == 0 and fx < 0):
            fx, gx = -fx, -gx
        images.append((fx, gx))
    return images


def image_pair(phi: RationalMap, x: int, y: int) -> tuple[int, int]:
    """The coordinates of phi([x : y]) for coprime x, y: the one-element image_row."""
    return image_row(phi, y, (x,))[0]


def apply(phi: RationalMap, P: ProjPoint) -> ProjPoint:
    """phi(P), checked on the way: gcd(F(P), G(P)) divides Res(F, G).

    The arithmetic and the check are image_row's, the one map-step kernel,
    which the brute-force oracle steps a whole row of points at a time.
    """
    return ProjPoint(*image_pair(phi, P.x, P.y))


def escape_height(phi: RationalMap) -> int:
    """A height above which phi provably raises the height at every step.

    With d = deg phi, one resultant_cofactors call gives R = Res(F, G),
    which must equal phi.res, and first and last the integer forms of degree
    d - 1 with A_X*F + B_X*G = R*X^(2d-1) and A_Y*F + B_Y*G = R*Y^(2d-1).
    Let K be the larger of their coefficient 1-norm sums.  For coprime
    (x, y) of height H, gcd(F(x, y), G(x, y)) divides R, so
    H(phi(P)) >= H^d / K (Call and Silverman 1993; Silverman, The
    Arithmetic of Dynamical Systems, Prop. 2.13 and Thm. 3.11).  The result
    is the largest h with h^(d-1) <= K: every P with H(P) > h has
    H(phi(P)) > H(P), so an orbit that passes h never repeats, and every
    preperiodic point lies at or below h.
    """
    res, pairs = resultant_cofactors(phi.F, phi.G)
    if res != phi.res:
        raise InvariantViolation(f"the Sylvester determinant is {res}, but phi.res is {phi.res}")
    K = max(sum(abs(c) for c in A.coeffs + B.coeffs) for A, B in (pairs[0], pairs[-1]))
    return integer_root(K, phi.degree - 1)


def _valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def preperiodic_height_bound(phi: RationalMap) -> int:
    """A height that no preperiodic point of phi exceeds.

    For most maps this is escape_height(phi).  When G = c*Y^d, phi is the
    polynomial (f_0 z^d + f_1 z^(d-1) + ... + f_d) / c, and each place bounds
    its preperiodic points on its own (Call and Goldstine, Canonical heights
    on projective space, 1997); the result is the smaller of the two bounds.
    - At infinity, |z| > R = max(1, (|f_1| + ... + |f_d| + |c|) / |f_0|)
      gives |phi(z)| > |z|^(d-1) >= |z|.
    - At a prime p, |z|_p above every |f_k/f_0|_p^(1/k) and above
      |f_0/c|_p^(-1/(d-1)) gives |phi(z)|_p = |f_0/c|_p * |z|_p^d > |z|_p.
    Either way the orbit grows for ever.  So a preperiodic z = a/b has
    |a| <= R*b, and p^e_p is the most of p in b, with e_p the largest of 0,
    floor((v_p(f_0) - v_p(f_k)) / k) over f_k != 0 and
    floor((v_p(f_0) - v_p(c)) / (d - 1)).  With D = prod p^e_p, its height
    is at most floor(R*D).  Only a p dividing f_0 has e_p > 0, and
    Res(F, G) = +-(c*f_0)^d, so these primes are bad primes and nothing is
    factored; with the bad primes incomplete the bound is escape_height(phi).

    Unlike escape_height, a point above this bound need not climb; the bound
    only says that no preperiodic point lies above it, and so that an orbit
    which passes it wanders.
    """
    h = escape_height(phi)
    *lower, c = phi.G.coeffs
    if any(lower) or not phi.bad_primes_complete:
        return h
    f, d = phi.F.coeffs, phi.degree
    f0 = abs(f[0])
    D = 1
    for p in phi.bad_primes.primes:
        v0 = _valuation(f0, p)
        e = max(0, (v0 - _valuation(c, p)) // (d - 1))
        for k, fk in enumerate(f[1:], 1):
            if fk:
                e = max(e, (v0 - _valuation(fk, p)) // k)
        D *= p**e
    R_num = sum(map(abs, f[1:])) + abs(c)
    return min(h, max(D, R_num * D // f0))


class OrbitRecord(NamedTuple):
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


class PreimageResult(NamedTuple):
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
