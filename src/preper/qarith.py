"""Exact arithmetic over Q: primality, factoring, projective points, S-units.

Everything downstream (bad primes, portraits, certificates) reduces to
integer arithmetic done here.  Rationals are stdlib ``fractions.Fraction``;
projective points are coprime integer pairs in a fixed sign normal form, so
equality and hashing are structural.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
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


def _perfect_root(n: int) -> Optional[tuple[int, int]]:
    """(r, k) with r^k = n for some prime k, else None."""
    for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        r = integer_root(n, k)
        if r > 1 and r**k == n:
            return r, k
    return None


# Trial division stops at this bound.  Past it, one is_prime call settles a
# prime remainder and Brent rho splits a composite one, a factor below 10^6
# in about a thousand steps where the wheel takes up to 166 000.  On the
# benchmark's factor calls, bounds from 2^8 to 2^11 time alike and larger
# ones slower.
_TRIAL_BOUND = 1000


def factor(
    n: int,
    *,
    rho_steps: int = 200_000,
    rho_restarts: int = 24,
) -> FactorResult:
    """Factor |n| with a bounded effort budget.

    Trial division by 2, 3 and a 6k+-1 wheel up to _TRIAL_BOUND, which
    proves a remainder below its square prime.  A larger remainder goes to
    is_prime (deterministic below 3.3e24) and, when composite, to
    Brent-cycle rho of at most rho_steps steps per attempt.  rho_restarts
    bounds the failed attempts over the whole call; a split uses none up,
    and the smaller piece of a split is worked on first.
    When the budget runs out the composite remainder is surfaced as
    ``cofactor`` rather than silently dropped.

    Examples:
        >>> factor(600851475143).factors
        ((71, 1), (839, 1), (1471, 1), (6857, 1))
        >>> factor(-2**20).factors
        ((2, 20),)
        >>> factor(999983 * 1000003).factors
        ((999983, 1), (1000003, 1))
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    found: dict[int, int] = {}

    def push(p: int, e: int = 1) -> None:
        found[p] = found.get(p, 0) + e

    for p in (2, 3):
        while n % p == 0:
            push(p)
            n //= p
    q = 5
    while q <= _TRIAL_BOUND and q * q <= n:
        for cand in (q, q + 2):
            while n % cand == 0:
                push(cand)
                n //= cand
        q += 6
    pending = [n] if n > 1 else []
    restarts_left = rho_restarts
    stuck: list[int] = []
    while pending:
        m = pending.pop()
        # every prime factor of m is above _TRIAL_BOUND, so if m is below
        # its square, m is prime
        if m <= _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            push(m)
            continue
        pr = _perfect_root(m)
        if pr is not None:
            r, k = pr
            pending.extend([r] * k)
            continue
        g = 1
        while g == 1 and restarts_left > 0:
            g = _brent_rho(m, seed=m + restarts_left - 1, max_steps=rho_steps)
            if g == 1:
                restarts_left -= 1
        if g == 1:
            stuck.append(m)
        else:
            # the smaller piece next: easy splits finish before a hard
            # piece can spend the restarts
            pending.extend(sorted((g, m // g), reverse=True))

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
