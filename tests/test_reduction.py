"""Reduction modulo good primes as a standing correctness check of portraits.

Let p >= 5 be a prime with p > d = deg phi and p not dividing Res(F, G), so
phi has good reduction at p.  A rational n-cycle of phi reduces to a cycle
of phi mod p whose length m divides n.  With J = F_X * G_Y - F_Y * G_X and
(F, G)(Q_i) = c_i * Q_(i+1) along the reduced cycle, its multiplier is
lambda-bar = prod J(Q_i) / (d * c_i^2) mod p, and the rational cycle's
multiplier reduces to lambda-bar^(n/m).  When lambda-bar = 0, n = m; and
otherwise n is m, m*r or m*r*p, with r the multiplicative order of
lambda-bar (Morton and Silverman, "Rational periodic points of rational
functions", 1994; Silverman, The Arithmetic of Dynamical Systems, 2007,
Thm. 2.21).  Every cycle of a portrait is checked against these facts at
eight good primes, with J and the reduced map computed here from F's and
G's coefficients, and the check is also run on portraits whose multipliers
are changed, each of which it must catch.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from preper.dynmap import build_map
from preper.portrait import build_portrait

MAPS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "maps.json").read_text())
N_MAX = 4
PRIMES_PER_CYCLE = 8
CUBIC = ([5, -7, 0, 2], [11, 0, 3])  # (2x^3 - 7x + 5) / (3x^2 + 11)


def harness_maps():
    """The benchmark's oracle-small and generic-roots maps, the cubic, and z^2 + a/b."""
    pairs = MAPS["oracle-small"] + MAPS["generic-roots"] + [CUBIC]
    pairs += [
        ([Fraction(a, b), 0, 1], [1]) for a in range(-40, 41) for b in (1, 2, 4, 16)
    ]
    return [build_map(num, den) for num, den in pairs]


@pytest.fixture(scope="module")
def portraits():
    return [build_portrait(phi, N_MAX) for phi in harness_maps()]


def good_primes(phi):
    """The first PRIMES_PER_CYCLE primes p >= max(5, d + 1) that do not divide Res."""
    p = max(5, phi.degree + 1)
    while True:
        if all(p % q for q in range(2, math.isqrt(p) + 1)) and phi.res % p:
            yield p
        p += 1


def reduce_point(x, y, p):
    """[x : y] mod p in normal form: (x/y, 1), or (1, 0) at infinity."""
    x, y = x % p, y % p
    return (x * pow(y, -1, p) % p, 1) if y else (1, 0)


def form_at(coeffs, x, y, p, dx=0, dy=0):
    """A form's value mod p at (x, y), or its partial in X (dx = 1) or Y (dy = 1)."""
    d = len(coeffs) - 1
    total = 0
    for i, c in enumerate(coeffs):
        ex, ey = d - i, i  # c * X^ex * Y^ey
        k = (ex if dx else 1) * (ey if dy else 1)
        if k:
            total += k * c * pow(x, ex - dx, p) * pow(y, ey - dy, p)
    return total % p


def reduced_step(phi, Q, p):
    """(phi mod p)(Q) in normal form, with the scalar c of (F, G)(Q) = c * image."""
    u, v = (form_at(H.coeffs, *Q, p) for H in (phi.F, phi.G))
    if v:
        return (u * pow(v, -1, p) % p, 1), v
    if not u:
        raise AssertionError(f"F and G vanish together at {Q} mod {p}, a good prime")
    return (1, 0), u


def jacobian(phi, Q, p):
    """J = F_X * G_Y - F_Y * G_X at Q, mod p."""
    f, g = phi.F.coeffs, phi.G.coeffs
    FX, FY = form_at(f, *Q, p, dx=1), form_at(f, *Q, p, dy=1)
    GX, GY = form_at(g, *Q, p, dx=1), form_at(g, *Q, p, dy=1)
    return (FX * GY - FY * GX) % p


def order(a, p):
    """The multiplicative order of a nonzero a mod p."""
    r, power = 1, a
    while power != 1:
        power = power * a % p
        r += 1
    return r


def reduction_problems(portrait, cases=None):
    """Where the portrait's cycles break the reduction facts, over eight good primes each.

    cases, when given, counts the checks and the three cases worth seeing:
    lambda-bar = 0, a reduced cycle through infinity, and m < n.
    """
    phi, d = portrait.phi, portrait.phi.degree
    record = {pp.point: pp for pp in portrait.periodic}
    problems = []
    for cycle in portrait.cycles:
        n = len(cycle)
        lam = record[cycle[0]].multiplier
        if any(record[P].multiplier != lam or record[P].primitive_period != n for P in cycle):
            problems.append(f"{cycle}: the points disagree on the multiplier or period")
        for p, _ in zip(good_primes(phi), range(PRIMES_PER_CYCLE)):
            where = f"{cycle} mod {p}"
            walk, factor, Q = [], 1, reduce_point(cycle[0].x, cycle[0].y, p)
            while True:
                walk.append(Q)
                image, c = reduced_step(phi, Q, p)
                factor = factor * jacobian(phi, Q, p) * pow(d * c * c, -1, p) % p
                if image == walk[0] or len(walk) > n:
                    break
                Q = image
            m = len(walk)
            if n % m:
                problems.append(f"{where}: reduced period {m} does not divide {n}")
                continue
            if [reduce_point(P.x, P.y, p) for P in cycle] != walk * (n // m):
                problems.append(f"{where}: the cycle does not reduce to the walk {walk}")
            if lam.denominator % p:
                lam_p = lam.numerator * pow(lam.denominator, -1, p) % p
                if lam_p != pow(factor, n // m, p):
                    problems.append(f"{where}: multiplier {lam} is not lambda-bar^{n // m}")
            else:
                problems.append(f"{where}: multiplier {lam} is not p-integral")
            if factor == 0:
                allowed = {m}
            else:
                r = order(factor, p)
                allowed = {m, m * r, m * r * p}
            if n not in allowed:
                problems.append(f"{where}: period {n} not in {sorted(allowed)}")
            if cases is not None:
                cases["checks"] += 1
                cases["superattracting"] += factor == 0
                cases["through infinity"] += (1, 0) in walk
                cases["shorter"] += m < n
    return problems


def test_cycles_obey_the_reduction_facts(portraits):
    cases = dict.fromkeys(("checks", "superattracting", "through infinity", "shorter"), 0)
    for portrait in portraits:
        assert portrait.flags.closed, portrait.phi
        assert reduction_problems(portrait, cases) == [], portrait.phi
    assert len(portraits) == len(MAPS["oracle-small"]) + len(MAPS["generic-roots"]) + 1 + 324
    # each case is met, not only the plain one
    assert min(cases.values()) > 0, cases


def negate_multipliers(portrait):
    return [pp._replace(multiplier=-pp.multiplier) for pp in portrait.periodic]


def shift_multipliers(portrait):
    return [pp._replace(multiplier=pp.multiplier + 1) for pp in portrait.periodic]


@pytest.mark.parametrize("mutate", [negate_multipliers, shift_multipliers])
def test_harness_catches_changed_multipliers(portraits, mutate):
    changed = caught = 0
    for portrait in portraits:
        periodic = tuple(mutate(portrait))
        if periodic == portrait.periodic:  # every multiplier 0, or no cycle at all
            continue
        changed += 1
        caught += bool(reduction_problems(portrait._replace(periodic=periodic)))
    assert changed > 100 and caught == changed, (changed, caught)
