"""Projective normal form, primality, factoring budget, S-units."""

import math
import random
from fractions import Fraction

import pytest

from preper import qarith
from preper.dynmap import build_map
from preper.qarith import (
    INFINITY,
    FactorResult,
    PrimeSet,
    ProjPoint,
    factor,
    is_prime,
    is_s_unit,
    iter_divisors,
    strip_primes,
)


def test_projpoint_normal_form():
    assert ProjPoint(4, -2) == ProjPoint(-2, 1)
    assert ProjPoint(0, 5) == ProjPoint(0, 1)
    assert ProjPoint(-3, 0) == ProjPoint(1, 0) == INFINITY
    assert str(ProjPoint(2, 3)) == "2/3"
    assert str(ProjPoint(7, 1)) == "7"
    assert str(INFINITY) == "inf"
    with pytest.raises(ValueError):
        ProjPoint(0, 0)


def test_projpoint_normalization_idempotent_and_scaling():
    rng = random.Random(7)
    for _ in range(500):
        x = rng.randrange(-50, 51)
        y = rng.randrange(-50, 51)
        if x == 0 and y == 0:
            continue
        P = ProjPoint(x, y)
        # idempotence
        assert ProjPoint(P.x, P.y) == P
        assert math.gcd(P.x, P.y) == 1
        assert P.y > 0 or (P.y == 0 and P.x == 1)
        # scaling invariance
        lam = rng.choice([-7, -3, -1, 2, 5, 12])
        assert ProjPoint(lam * x, lam * y) == P


def test_projpoint_rational_round_trip():
    assert ProjPoint.from_rational(Fraction(-4, 6)) == ProjPoint(-2, 3)
    assert ProjPoint.from_rational(5) == ProjPoint(5, 1)
    assert ProjPoint(2, 3).to_rational() == Fraction(2, 3)
    with pytest.raises(ZeroDivisionError):
        INFINITY.to_rational()


def test_projpoint_has_no_order():
    # points sort by the canonical (y, x) key only; a tuple's (x, y) order
    # would put 0 = [0 : 1] after [1 : 2] here
    with pytest.raises(TypeError):
        sorted([ProjPoint(1, 2), ProjPoint(0, 1)])
    assert sorted([ProjPoint(1, 2), ProjPoint(0, 1)], key=ProjPoint.sort_key) == [
        ProjPoint(0, 1),
        ProjPoint(1, 2),
    ]


def test_is_prime_small_and_carmichael():
    primes_below_100 = [p for p in range(100) if is_prime(p)]
    assert primes_below_100 == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
                                89, 97]
    for carmichael in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(carmichael)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_is_prime_agrees_with_a_sieve():
    # below 43^2 trial division by the witness primes alone decides; the
    # Miller-Rabin rounds take over above
    N = 20_000
    sieve = [False, False] + [True] * (N - 2)
    for p in range(2, math.isqrt(N) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, N, p))
    assert [n for n in range(N) if is_prime(n)] == [n for n in range(N) if sieve[n]]


def test_factor_remultiplies():
    rng = random.Random(31337)
    for _ in range(200):
        n = rng.randrange(2, 10**9)
        res = factor(n)
        assert res.complete
        assert math.prod(p**e for p, e in res.factors) == n
        for p, e in res.factors:
            assert is_prime(p) and e >= 1


def test_factor_examples():
    assert factor(600851475143).factors == ((71, 1), (839, 1), (1471, 1), (6857, 1))
    assert factor(-(2**20)).factors == ((2, 20),)
    assert factor(1) == FactorResult(factors=())
    with pytest.raises(ValueError):
        factor(0)


def test_factor_splits_semiprime_beyond_trial_bound():
    p, q = 1_000_003, 1_000_033
    res = factor(p * q)
    assert res.factors == ((p, 1), (q, 1))
    assert res.complete


def test_factor_splits_perfect_powers_without_rho(monkeypatch):
    # prime powers beyond the trial bound: the perfect-power branch alone
    # splits them, so with no rho step and no curve they still factor
    # completely.  1009 is the least prime past the trial bound, 41 and 43
    # are exponents above 37, and 9 and 25 are composite exponents
    cases = (
        (10**9 + 7, 5),
        (2**61 - 1, 2),
        (1009, 43),
        (_next_prime(2**40), 41),
        (1009, 9),
        (1013, 25),
    )
    for steps, curves in ((qarith._RHO_STEPS, qarith._ECM_CURVES), (0, 0)):
        monkeypatch.setattr(qarith, "_RHO_STEPS", steps)
        monkeypatch.setattr(qarith, "_ECM_CURVES", curves)
        for p, e in cases:
            res = factor(p**e)
            assert res.factors == ((p, e),)
            assert res.complete


def test_perfect_root_tries_only_prime_exponents(monkeypatch):
    # the least exponent with an exact root is prime, so on a non-power of
    # 1800 bits the roots taken are exactly those for the primes up to 200
    m = (2**521 - 1) * (2**1279 - 1)
    tried = []
    root = qarith.integer_root

    def counting_root(n, k):
        tried.append(k)
        return root(n, k)

    monkeypatch.setattr(qarith, "integer_root", counting_root)
    assert qarith._perfect_root(m) is None
    assert tried == [k for k in range(2, 201) if is_prime(k)]


def _next_prime(n: int) -> int:
    n += 1 + (n % 2)
    while not is_prime(n):
        n += 2
    return n


def test_factor_budget_surfaces_cofactor(monkeypatch):
    # two ~130-bit primes: a starved budget must give up loudly
    p = _next_prime(2**129)
    q = _next_prime(p)
    monkeypatch.setattr(qarith, "_RHO_STEPS", 50)
    monkeypatch.setattr(qarith, "_ECM_CURVES", 2)
    res = factor(p * q)
    assert not res.complete
    assert res.cofactor == p * q
    assert math.prod(f**e for f, e in res.factors) * res.cofactor == p * q


def test_factor_splits_midsize_semiprime():
    # smallest factor ~2^36, past the reach of the rho attempt
    p = _next_prime(2**36)
    q = _next_prime(2**37)
    full = factor(p * q)
    assert full.complete and full.factors == ((p, 1), (q, 1))


def test_factor_splits_semiprimes_of_40_to_55_bits():
    # both primes past rho's reach: the default budget of curves splits
    # them.  N is the resultant's core in the z^2 + 1/N map of test_dynmap
    N = _next_prime(2**45) * _next_prime(2**46)
    rng = random.Random(4055)
    cases = [N]
    for _ in range(2):
        bits = rng.randint(40, 55), rng.randint(40, 55)
        p, q = (_next_prime(rng.getrandbits(b) | 1 << b - 1) for b in bits)
        cases.append(p * q)
    for n in cases:
        res = factor(n)
        assert res.complete and len(res.factors) == 2, n
        assert math.prod(p**e for p, e in res.factors) == n


def _primes_between(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    out: set[int] = set()
    while len(out) < count:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            out.add(p)
    return sorted(out)


def test_factor_returns_planted_factorizations(monkeypatch):
    # primes from below the trial bound, from the trial bound to 10^6 (where
    # rho takes over from trial division) and from 10^6 to 2^40, some to higher
    # powers; the largest products are past the deterministic range of
    # is_prime
    rng = random.Random(1980)
    bands = ((2, qarith._TRIAL_BOUND), (qarith._TRIAL_BOUND, 10**6), (10**6, 2**40))
    powers = past_deterministic = 0
    for _ in range(150):
        planted: dict[int, int] = {}
        for (lo, hi), most in zip(bands, (3, 6, 1)):
            for p in _primes_between(rng, lo, hi, rng.randint(0, most)):
                planted[p] = planted.get(p, 0) + rng.choice((1, 1, 2, 3))
        n = math.prod(p**e for p, e in planted.items())
        want = tuple(sorted(planted.items()))
        # at _ECM_LARGE_BITS 0 every input gets the budget of one above 1500 bits
        for large_bits in (qarith._ECM_LARGE_BITS, 0):
            with monkeypatch.context() as mp:
                mp.setattr(qarith, "_ECM_LARGE_BITS", large_bits)
                res = factor(n)
            assert res.complete and res.factors == want, (n, large_bits)
        powers += any(e > 1 for e in planted.values())
        past_deterministic += n > qarith._MR_DETERMINISTIC_BOUND
    assert powers > 30 and past_deterministic > 30


def test_factor_curves_count_only_failures(monkeypatch):
    # no split uses up the budget.  Rho splits the small primes with no
    # curve at all.  With rho off, curves split primes of 30-34 bits, and
    # a budget of one more curve than failed, for the split that follows
    # the last failure, is enough
    bound = qarith._TRIAL_BOUND
    primes = _primes_between(random.Random(1515), bound, 10 * bound, 30)
    with monkeypatch.context() as mp:
        mp.setattr(qarith, "_ECM_CURVES", 0)
        res = factor(math.prod(primes))
    assert res.complete
    assert res.factors == tuple((p, 1) for p in primes)
    primes = _primes_between(random.Random(1515), 2**30, 2**34, 4)
    outcomes: list[bool] = []
    curve = qarith._ecm_curve

    def recording_curve(n: int, sigma: int, b1: int) -> int:
        g = curve(n, sigma, b1)
        outcomes.append(g != 1)
        return g

    monkeypatch.setattr(qarith, "_RHO_STEPS", 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qarith, "_ecm_curve", recording_curve)
        res = factor(math.prod(primes))
    assert res.complete and outcomes.count(True) >= 3
    monkeypatch.setattr(qarith, "_ECM_CURVES", outcomes.count(False) + 1)
    res = factor(math.prod(primes))
    assert res.complete
    assert res.factors == tuple((p, 1) for p in primes)


def test_factor_curves_do_not_depend_on_earlier_splits(monkeypatch):
    # R is out of reach of this budget; the dozen small primes next to it
    # split first and leave R the rho seed and the curves it gets alone
    R = (2**61 - 1) * (2**89 - 1)
    monkeypatch.setattr(qarith, "_ECM_CURVES", 2)
    bound = qarith._TRIAL_BOUND
    primes = _primes_between(random.Random(1516), bound, 10 * bound, 12)
    calls: list[tuple] = []
    rho, curve = qarith._brent_rho, qarith._ecm_curve

    def recording_rho(n: int, seed: int, max_steps: int) -> int:
        if n == R:
            calls.append(("rho", seed))
        return rho(n, seed, max_steps)

    def recording_curve(n: int, sigma: int, b1: int) -> int:
        if n == R:
            calls.append(("curve", sigma, b1))
        return curve(n, sigma, b1)

    monkeypatch.setattr(qarith, "_brent_rho", recording_rho)
    monkeypatch.setattr(qarith, "_ecm_curve", recording_curve)
    alone = factor(R)
    assert alone.cofactor == R and [c[0] for c in calls] == ["rho", "curve", "curve"]
    first = list(calls)
    calls.clear()
    mixed = factor(R * math.prod(primes))
    assert mixed.cofactor == R and calls == first
    assert mixed.factors == tuple((p, 1) for p in primes)


def test_factor_sets_the_small_budget_above_the_large_input_bits(monkeypatch):
    # a composite past _ECM_LARGE_BITS that rho cannot split gets
    # _ECM_LARGE_CURVES curves, in a factor call and in build_map's factoring
    # of Res, and one below it gets _ECM_CURVES.  No rho step, small budgets
    # and B1 = 20 keep every curve to milliseconds
    M = (2**521 - 1) * (2**1279 - 1)  # two Mersenne primes
    small = (2**89 - 1) * (2**107 - 1)
    assert small.bit_length() <= qarith._ECM_LARGE_BITS < M.bit_length()
    monkeypatch.setattr(qarith, "_RHO_STEPS", 0)
    monkeypatch.setattr(qarith, "_ECM_CURVES", 5)
    monkeypatch.setattr(qarith, "_ECM_LARGE_CURVES", 2)
    monkeypatch.setattr(qarith, "_ECM_B1_SCHEDULE", ((0, 20),))
    curves: list[int] = []
    curve = qarith._ecm_curve

    def recording_curve(n: int, sigma: int, b1: int) -> int:
        curves.append(n)
        return curve(n, sigma, b1)

    monkeypatch.setattr(qarith, "_ecm_curve", recording_curve)
    for n, budget in ((M, 2), (-M, 2), (small, 5)):
        curves.clear()
        assert factor(n) == FactorResult(factors=(), cofactor=abs(n))
        assert curves == [abs(n)] * budget
    # (z^2 + M)/z: Res(X^2 + M*Y^2, X*Y) = -M
    curves.clear()
    phi = build_map([M, 0, 1], [0, 1])
    assert abs(phi.res) == M and phi.res_cofactor == M and phi.bad_primes.primes == ()
    assert curves == [M] * 2


def test_factor_sets_the_budget_from_what_trial_division_leaves(monkeypatch):
    # 2^1600 * M is past _ECM_LARGE_BITS, but trial division leaves the
    # 196-bit M, which gets _ECM_CURVES curves, as it does alone
    M = (2**89 - 1) * (2**107 - 1)
    n = 2**1600 * M
    assert M.bit_length() <= qarith._ECM_LARGE_BITS < n.bit_length()
    monkeypatch.setattr(qarith, "_RHO_STEPS", 0)
    monkeypatch.setattr(qarith, "_ECM_CURVES", 5)
    monkeypatch.setattr(qarith, "_ECM_LARGE_CURVES", 2)
    monkeypatch.setattr(qarith, "_ECM_B1_SCHEDULE", ((0, 20),))
    curves: list[int] = []
    curve = qarith._ecm_curve

    def recording_curve(m: int, sigma: int, b1: int) -> int:
        curves.append(m)
        return curve(m, sigma, b1)

    monkeypatch.setattr(qarith, "_ecm_curve", recording_curve)
    assert factor(n) == FactorResult(factors=((2, 1600),), cofactor=M)
    assert curves == [M] * 5


def test_ecm_tables_match_a_plain_construction():
    # the tables from the primes of one sieve against a construction that
    # shares none of their steps: k is lcm(1, ..., B1), and each stage-2 row
    # m tests mD - j and mD + j for every baby j
    D, ratio = qarith._ECM_D, qarith._ECM_B2_OVER_B1
    for b1 in (1000, 3000):
        b2 = ratio * b1
        prime = [False, False] + [True] * (b2 - 1)
        for p in range(2, math.isqrt(b2) + 1):
            if prime[p]:
                prime[p * p :: p] = [False] * len(range(p * p, b2 + 1, p))

        def in_stage_2(n):
            return b1 < n <= b2 and prime[n]

        babies = tuple(j for j in range(1, D // 2) if math.gcd(j, D) == 1)
        m0 = (b1 + D // 2) // D
        pairs = tuple(
            bytes(i for i, j in enumerate(babies) if in_stage_2(m * D - j) or in_stage_2(m * D + j))
            for m in range(m0, b2 // D + 2)
        )
        assert qarith._ecm_tables(b1) == (math.lcm(*range(1, b1 + 1)), babies, m0, pairs)


def test_iter_divisors():
    fr = factor(360)
    divs = sorted(iter_divisors(fr.factors))
    assert divs == [d for d in range(1, 361) if 360 % d == 0]


def test_prime_set():
    S = PrimeSet((3, 2, 3))
    assert S.primes == (2, 3)
    assert S.s == 3
    assert 2 in S and 5 not in S
    assert str(S) == "{inf, 2, 3}"
    with pytest.raises(ValueError):
        PrimeSet((4,))
    assert PrimeSet(()).s == 1


def test_strip_primes_and_s_units():
    assert strip_primes(360, (2, 3)) == 5
    assert is_s_unit(Fraction(4, 3), PrimeSet((2, 3)))
    assert is_s_unit(-8, PrimeSet((2,)))
    assert not is_s_unit(10, PrimeSet((2,)))
    assert not is_s_unit(0, PrimeSet((2,)))
    assert is_s_unit(1, PrimeSet(()))
    assert not is_s_unit(Fraction(1, 2), PrimeSet(()))


def test_s_unit_defining_property():
    # independent oracle: full factorization of num and den, then check every
    # prime that appears lies in S
    rng = random.Random(99)
    S = PrimeSet((2, 5, 13))
    for _ in range(300):
        num = rng.randrange(1, 10**7) * rng.choice([1, -1])
        den = rng.randrange(1, 10**7)
        q = Fraction(num, den)
        appearing = set()
        if abs(q.numerator) > 1:
            appearing |= {p for p, _ in factor(q.numerator).factors}
        if q.denominator > 1:
            appearing |= {p for p, _ in factor(q.denominator).factors}
        assert is_s_unit(q, S) == appearing.issubset(set(S.primes))
