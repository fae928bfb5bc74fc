"""Exact arithmetic over Q: primality, factoring, projective points, S-units.

Everything downstream (bad primes, portraits, certificates) reduces to
integer arithmetic done here.  Factoring runs trial division, a primality
test, one Pollard rho attempt and then Lenstra's elliptic-curve method
under a budget of curves, and reports what the budget could not split.
Rationals are stdlib ``fractions.Fraction``; projective points are coprime
integer pairs in a fixed sign normal form, so equality and hashing are
structural.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator, Optional, Union

Rat = Union[Fraction, int]


class InvariantViolation(RuntimeError):
    """A property the mathematics guarantees failed at runtime: a bug."""


# ---------------------------------------------------------------------------
# primality and factoring
# ---------------------------------------------------------------------------

# Strong-pseudoprime witnesses: first 13 primes decide primality below this
# bound (Sorenson-Webster).  Above it the test is probabilistic.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _mr_witness(a: int, d: int, r: int, n: int) -> bool:
    """True if a witnesses compositeness of n = d*2^r + 1, d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality check.

    Deterministic for n below ~3.3e24 via the fixed witness set; for larger n
    the fixed bases are augmented with 25 bases drawn from a PRNG seeded by n,
    so the answer is reproducible and a false positive needs to fool 38
    strong-pseudoprime tests at once.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 43 * 43:  # a composite n < 43^2 has a prime factor below 43
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases: tuple[int, ...] = _MR_BASES
    if n >= _MR_DETERMINISTIC_BOUND:
        rng = random.Random(n)
        bases = bases + tuple(rng.randrange(2, n - 1) for _ in range(25))
    return not any(_mr_witness(a % n, d, r, n) for a in bases if a % n not in (0, 1, n - 1))


def _brent_rho(n: int, seed: int, max_steps: int) -> int:
    """One Brent-cycle Pollard rho attempt; returns a factor or 1 on failure.

    n must be odd composite, not a perfect power of interest here.  Budget is
    the total number of f-iterations.
    """
    rng = random.Random(seed)
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    steps = 0
    x = ys = y
    while g == 1 and steps < max_steps:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            steps += min(m, r - k)
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # backtrack one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g if g != n else 1


# Lenstra's elliptic-curve method (ECM), after Montgomery 1987.  Rows are
# (first curve, B1): curve i of a composite runs stage 1 to the B1 of the
# last row whose first curve is at most i, and stage 2 to 100 * B1.  On
# factors of 40-55 bits, B1 = 3000 finds one in the fewest seconds; 1000
# is as good up to 46 bits, and cheaper when the factor is smaller.
_ECM_B1_SCHEDULE = ((0, 1000), (20, 3000))
_ECM_B2_OVER_B1 = 100
# stage 2 steps through multiples of D: the primes mD +- j pair up on one
# product, and j runs over the 24 residues below D/2 prime to D
_ECM_D = 210


def _ecm_b1(i: int) -> int:
    """Stage 1's bound B1 for curve i of a composite (i from 0)."""
    return [b1 for first, b1 in _ECM_B1_SCHEDULE if first <= i][-1]


@lru_cache(maxsize=len(_ECM_B1_SCHEDULE))
def _ecm_tables(b1: int) -> tuple[int, tuple[int, ...], int, tuple[bytes, ...]]:
    """(k, babies, m0, pairs): what a curve at bound b1 needs beyond its own numbers.

    k, the stage-1 multiplier, is the product of the largest power of each
    prime that is at most b1.  babies are the j < D/2 prime to D.
    pairs[m - m0] lists, as indices into babies, the j with mD + j or mD - j
    a prime in (b1, 100 * b1]; every such prime is one of these.
    """
    b2 = _ECM_B2_OVER_B1 * b1
    sieve = bytearray([0, 0]) + bytearray([1]) * (b2 - 1)  # sieve[k]: is k prime
    for p in range(2, math.isqrt(b2) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, b2 + 1, p)))
    k = 1
    for p in compress(range(b1 + 1), sieve):
        pe = p
        while pe * p <= b1:
            pe *= p
        k *= pe
    babies = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)
    m0 = (b1 + _ECM_D // 2) // _ECM_D
    rows, width = b2 // _ECM_D - m0 + 2, len(babies)
    # stage[D + q]: q is a prime in (b1, b2]; the padding keeps slices in range
    stage = bytes(_ECM_D + b1 + 1) + sieve[b1 + 1 :] + bytes(2 * _ECM_D)
    hit = bytearray(rows * width)  # hit[(m - m0) * width + i]
    for i, j in enumerate(babies):
        # rows m0, m0 + 1, ... of the classes mD + j and mD - j, OR-ed
        plus, minus = (stage[(m0 + 1) * _ECM_D + r :: _ECM_D][:rows] for r in (j, -j))
        either = int.from_bytes(plus, "little") | int.from_bytes(minus, "little")
        hit[i::width] = either.to_bytes(rows, "little")
    pairs = tuple(
        bytes(compress(range(width), hit[r : r + width])) for r in range(0, len(hit), width)
    )
    return k, babies, m0, pairs


def _x_add(
    P: tuple[int, int], Q: tuple[int, int], diff: tuple[int, int], n: int
) -> tuple[int, int]:
    """x(P + Q) on a Montgomery curve mod n, given x(P - Q) = diff, all as (X : Z)."""
    u = (P[0] - P[1]) * (Q[0] + Q[1]) % n
    v = (P[0] + P[1]) * (Q[0] - Q[1]) % n
    return diff[1] * (u + v) ** 2 % n, diff[0] * (u - v) ** 2 % n


def _x_ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """x(kP) as (X : Z) mod n on By^2 = x^3 + Ax^2 + x, for k >= 1, x(P) = x, a24 = (A + 2)/4.

    Montgomery's ladder keeps (jP, (j + 1)P) for j the leading bits of k:
    each bit costs one differential addition, whose difference is P, and
    one doubling.
    """
    s, d = (x + 1) ** 2 % n, (x - 1) ** 2 % n
    e = s - d
    X0, Z0, X1, Z1 = x, 1, s * d % n, e * (d + a24 * e) % n
    for bit in bin(k)[3:]:
        u = (X0 - Z0) * (X1 + Z1) % n
        v = (X0 + Z0) * (X1 - Z1) % n
        Xs, Zs = (u + v) ** 2 % n, x * (u - v) ** 2 % n
        if bit == "1":
            s, d = (X1 + Z1) ** 2 % n, (X1 - Z1) ** 2 % n
            e = s - d
            X0, Z0, X1, Z1 = Xs, Zs, s * d % n, e * (d + a24 * e) % n
        else:
            s, d = (X0 + Z0) ** 2 % n, (X0 - Z0) ** 2 % n
            e = s - d
            X0, Z0, X1, Z1 = s * d % n, e * (d + a24 * e) % n, Xs, Zs
    return X0, Z0


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """One ECM curve on n with Suyama's parameter sigma; returns a factor, or 1 on failure.

    n must be composite and prime to 6.  Suyama's curves have a group order
    divisible by 12 modulo every prime of good reduction.  A prime p | n is
    found when the order of the starting point mod p divides k times one
    prime up to 100 * b1 (k as in _ecm_tables): stage 1 multiplies by k,
    and stage 2 tries each of those primes.
    """
    k, babies, m0, pairs = _ecm_tables(b1)
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    X, Z = u**3 % n, v**3 % n
    # x = u^3 / v^3 and (A + 2)/4 = (v - u)^3 (3u + v) / (16 u^3 v), over one inverse
    den = 16 * X * v * Z % n
    g = math.gcd(den, n)
    if g != 1:
        return g if g != n else 1
    inv = pow(den, -1, n)
    x = X * X % n * 16 * v % n * inv % n
    a24 = pow(v - u, 3, n) * (3 * u + v) % n * Z % n * inv % n
    X, Z = _x_ladder(k, x, a24, n)
    g = math.gcd(Z, n)
    if g != 1:
        return g if g != n else 1
    # stage 2 on Q = kP: with x_j = x(jQ) for the babies j, X_m - x_j Z_m
    # vanishes mod p exactly when (mD + j)Q or (mD - j)Q is the identity mod
    # p, where (X_m : Z_m) = x(mDQ).
    x = X * pow(Z, -1, n) % n
    odd = [(x, 1), _x_ladder(3, x, a24, n)]
    twice = _x_ladder(2, x, a24, n)
    while len(odd) < _ECM_D // 4:
        odd.append(_x_add(odd[-1], twice, odd[-2], n))
    baby = [odd[j // 2] for j in babies]
    g = math.gcd(math.prod(Zj for _, Zj in baby) % n, n)
    if g != 1:
        return g if g != n else 1
    bx = [Xj * pow(Zj, -1, n) % n for Xj, Zj in baby]
    step = _x_ladder(_ECM_D, x, a24, n)
    R, R_next = _x_ladder(m0 * _ECM_D, x, a24, n), _x_ladder((m0 + 1) * _ECM_D, x, a24, n)
    acc = 1
    for row in pairs:
        Xm, Zm = R
        for i in row:
            acc = acc * (Xm - bx[i] * Zm) % n
        R, R_next = R_next, _x_add(R_next, step, R, n)
    g = math.gcd(acc, n)
    return g if g != n else 1


@dataclass(frozen=True)
class FactorResult:
    """Factorization of |n| into certified primes, plus any unfactored rest.

    factors: ((p, e), ...) sorted by p; every p passed is_prime.
    cofactor: composite remainder the budget could not split, or None.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.cofactor is None


def integer_root(n: int, k: int) -> int:
    """The largest h >= 0 with h^k <= n, for n >= 0 and k >= 1 (Newton from above)."""
    if n < 2 or k == 1:
        return n
    h = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * h + n // h ** (k - 1)) // k
        if nxt >= h:
            return h
        h = nxt


# Trial division stops at this bound.  Past it, one is_prime call settles a
# prime remainder and Brent rho splits a composite one, a factor below 10^6
# in about a thousand steps.  On the benchmark's factor calls, bounds from
# 2^8 to 2^11 time alike and larger ones slower.
_TRIAL_BOUND = 1000
_TRIAL_PRIMES = tuple(filter(is_prime, range(2, _TRIAL_BOUND)))


def _perfect_root(m: int) -> Optional[tuple[int, int]]:
    """(r, k) with r^k = m for the least k >= 2, else None.

    No prime below _TRIAL_BOUND may divide m: then r > 2^9, so k is at most
    m.bit_length() // 9 and every exponent is tried.
    """
    for k in range(2, m.bit_length() // 9 + 1):
        r = integer_root(m, k)
        if r**k == m:
            return r, k
    return None


# Steps of the one Brent rho attempt; a composite it leaves goes to ECM.
_RHO_STEPS = 20_000

# ECM's budget of failed curves in one factor call.  Above _ECM_LARGE_BITS one
# curve takes about 0.4 s at B1 = 1000 (1600 bits), so the budget shrinks.
_ECM_CURVES = 120
_ECM_LARGE_BITS = 1500
_ECM_LARGE_CURVES = 6


def factor(n: int) -> FactorResult:
    """Factor |n| with a bounded effort budget, set by what trial division leaves.

    Stages, each on what the one before left:
    - trial division by the primes below _TRIAL_BOUND, which proves a
      remainder below its square prime;
    - is_prime (deterministic below 3.3e24) settles a prime remainder, and
      a perfect power splits into its root, every exponent tried;
    - one Brent-cycle Pollard rho attempt of at most _RHO_STEPS steps, which
      splits off factors up to about 30 bits;
    - Lenstra's elliptic-curve method (Lenstra, "Factoring integers with
      elliptic curves", Ann. Math. 1987) on a composite rho leaves:
      Montgomery curves with Suyama's parametrisation, an x-only ladder for
      stage 1 and a prime-pairing stage 2 (Montgomery, "Speeding the
      Pollard and elliptic curve methods of factorization", Math. Comp.
      1987).  Each curve's parameter depends only on the composite and
      the curve's index, and its stage-1 bound on the index
      (_ECM_B1_SCHEDULE).
    The budget bounds the failed curves over the whole call, and what trial
    division leaves sets it: _ECM_CURVES, which finds factors of 40-55
    bits, or _ECM_LARGE_CURVES when that has more than _ECM_LARGE_BITS
    bits.  A split uses none of it up, and the smaller piece of a split is
    worked on first.  When the budget runs out the composite remainder is
    surfaced as ``cofactor`` rather than silently dropped.

    Examples:
        >>> factor(600851475143).factors
        ((71, 1), (839, 1), (1471, 1), (6857, 1))
        >>> factor(-2**20).factors
        ((2, 20),)
        >>> factor(999983 * 1000003).factors
        ((999983, 1), (1000003, 1))
        >>> factor(35184372088891 * 70368744177679).factors
        ((35184372088891, 1), (70368744177679, 1))
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    found: Counter[int] = Counter()
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            found[p] += 1
            n //= p
    curves_left = _ECM_CURVES if n.bit_length() <= _ECM_LARGE_BITS else _ECM_LARGE_CURVES
    # (m, e): m^e divides what is left, and a perfect power's root is
    # factored once, whatever its exponent
    pending = [(n, 1)] if n > 1 else []
    stuck: list[int] = []
    while pending:
        m, e = pending.pop()
        # every prime factor of m is above _TRIAL_BOUND, so if m is below
        # its square, m is prime
        if m <= _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            found[m] += e
            continue
        pr = _perfect_root(m)
        if pr is not None:
            r, k = pr
            pending.append((r, e * k))
            continue
        # the seed is a function of m alone, so m takes the same walk, and
        # comes out split or stuck alike, in whatever input it was found
        g = _brent_rho(m, seed=m + 23, max_steps=_RHO_STEPS)
        i = 0
        while g == 1 and curves_left > 0:
            sigma = random.Random(m + i).randrange(6, m - 1)
            g = _ecm_curve(m, sigma, _ecm_b1(i))
            if g == 1:
                curves_left -= 1
                i += 1
        if g == 1:
            stuck.append(m**e)
        else:
            # the smaller piece next: easy splits finish before a hard
            # piece can spend the curves
            pending.extend(sorted([(g, e), (m // g, e)], reverse=True))

    pairs = tuple(sorted(found.items()))
    return FactorResult(factors=pairs, cofactor=math.prod(stuck) if stuck else None)


def iter_divisors(factors: tuple[tuple[int, int], ...]) -> Iterator[int]:
    """Yield positive divisors of the factored part, deterministically.

    Order is the mixed-radix order over exponent vectors; callers that cap the
    enumeration get a reproducible prefix.
    """
    if not factors:
        yield 1
        return
    (p, e), rest = factors[0], factors[1:]
    pk = 1
    for _ in range(e + 1):
        for d in iter_divisors(rest):
            yield pk * d
        pk *= p


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=False)
class ProjPoint:
    """A point of P^1(Q) as a coprime integer pair [x : y].

    Normal form: gcd(x, y) = 1 and y > 0, except the point at infinity which
    is stored as [1 : 0].  The constructor normalizes, so ProjPoint(4, -2) is
    the same object as ProjPoint(-2, 1).
    """

    x: int
    y: int

    def __post_init__(self) -> None:
        x, y = self.x, self.y
        if x == 0 and y == 0:
            raise ValueError("[0:0] is not a projective point")
        g = math.gcd(x, y)
        x, y = x // g, y // g
        if y < 0 or (y == 0 and x < 0):
            x, y = -x, -y
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def from_rational(cls, q: Rat) -> "ProjPoint":
        q = Fraction(q)
        return cls(q.numerator, q.denominator)

    def to_rational(self) -> Fraction:
        if self.y == 0:
            raise ZeroDivisionError("point at infinity has no affine value")
        return Fraction(self.x, self.y)

    def height(self) -> int:
        return max(abs(self.x), abs(self.y))

    def sort_key(self) -> tuple[int, int]:
        # fixed (y, x) order used for all deterministic output
        return (self.y, self.x)

    def __str__(self) -> str:
        if self.y == 0:
            return "inf"
        if self.y == 1:
            return str(self.x)
        return f"{self.x}/{self.y}"


INFINITY = ProjPoint(1, 0)


# ---------------------------------------------------------------------------
# prime sets and S-units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeSet:
    """A finite set of rational primes plus the archimedean place.

    The size s counts the archimedean place, so s = len(primes) + 1; the
    bound formulas all consume this s.
    """

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        ps = tuple(sorted(set(self.primes)))
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", ps)

    @property
    def s(self) -> int:
        return len(self.primes) + 1

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)

    def __str__(self) -> str:
        inner = ", ".join(["inf"] + [str(p) for p in self.primes])
        return "{" + inner + "}"


def strip_primes(n: int, primes: Iterable[int]) -> int:
    """Divide all powers of the given primes out of |n|."""
    n = abs(n)
    if n == 0:
        return 0
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def is_s_unit(q: Rat, S: Union[PrimeSet, Iterable[int]]) -> bool:
    """True iff q is nonzero and v_p(q) = 0 away from S's finite primes.

    Examples:
        >>> is_s_unit(Fraction(4, 3), PrimeSet((2, 3)))
        True
        >>> is_s_unit(10, PrimeSet((2,)))
        False
    """
    if q == 0:
        return False
    primes = S.primes if isinstance(S, PrimeSet) else tuple(S)
    num, den = (q.numerator, q.denominator) if isinstance(q, Fraction) else (q, 1)
    return strip_primes(num, primes) == 1 and strip_primes(den, primes) == 1
