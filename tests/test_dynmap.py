"""Map construction, reduction data, iteration, preimages."""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from preper import dynmap
from preper.dynmap import (
    DegenerateMapError,
    InvariantViolation,
    OrbitRecord,
    RationalMap,
    apply,
    build_map,
    escape_height,
    image_pair,
    image_row,
    orbit,
    preimages,
    preperiodic_height_bound,
)
from preper.families import FamilySpec, generate
from preper.forms import (
    BinaryForm,
    RootResult,
    iterate_pairs,
    resultant,
    resultant_cofactors,
)
from preper.qarith import INFINITY, PrimeSet, ProjPoint, integer_root, strip_primes


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def product_poly(roots):
    """Ascending coefficients of prod (z - r)."""
    acc = [1]
    for r in roots:
        acc = poly_mul(acc, [-r, 1])
    return acc


def example_d2() -> RationalMap:
    # (z-1)(z-2)/z^2
    return build_map(product_poly([1, 2]), [0, 0, 1])


def test_build_map_frozen_example():
    phi = example_d2()
    assert phi.F == BinaryForm((1, -3, 2))
    assert phi.G == BinaryForm((1, 0, 0))
    assert phi.res == 4
    assert phi.bad_primes == PrimeSet((2,))
    assert phi.bad_primes_complete
    assert phi.degree == 2
    assert str(phi) == "[X^2 - 3*X*Y + 2*Y^2 : X^2]"


def test_build_map_z2_plus_1_good_everywhere():
    phi = build_map([1, 0, 1], [1])
    assert phi.res == 1
    assert phi.bad_primes.primes == ()
    assert phi.bad_primes.s == 1


def test_build_map_finds_bad_primes_past_rhos_reach():
    # z^2 + 1/N with N the product of the primes after 2^45 and 2^46: Res
    # is a power of N, and its primes are found, not left in a cofactor
    p, q = 35184372088891, 70368744177679
    phi = build_map([Fraction(1, p * q), 0, 1], [1])
    assert phi.bad_primes_complete
    assert phi.bad_primes == PrimeSet((p, q))


def test_build_map_finds_a_prime_to_the_power_41():
    # z^41 + 1/p: Res = p^82, a perfect power with an exponent above 37
    p = 1099511627791  # the least prime above 2^40
    phi = build_map([Fraction(1, p)] + [0] * 40 + [1], [1])
    assert phi.res == p**82
    assert phi.bad_primes_complete
    assert phi.bad_primes == PrimeSet((p,))


def test_build_map_clears_denominators_and_content():
    # (z^2/2 + 1/2) / (z/2... ) scaled versions build the same map
    a = build_map([Fraction(1, 2), 0, Fraction(1, 2)], [Fraction(1, 2)])
    b = build_map([1, 0, 1], [1])
    assert a == b
    c = build_map([6, 0, 6], [6])
    assert c == b


def test_build_map_ignores_trailing_zero_coefficients():
    # lists longer than their degree: zero high coefficients change nothing
    assert build_map([1, 0, 1, 0, 0], [1]) == build_map([1, 0, 1], [1])  # z^2 + 1
    assert build_map([0, 0, 1], [1, 0, 0, 0]) == build_map([0, 0, 1], [1])  # z^2
    assert str(build_map([1, 0, 1, 0, 0], [1])) == "[X^2 + Y^2 : Y^2]"


def test_build_map_rejections():
    with pytest.raises(DegenerateMapError):
        build_map([0], [0])  # 0/0
    with pytest.raises(DegenerateMapError):
        build_map([1], [0, 1])  # 1/z has degree 1
    with pytest.raises(DegenerateMapError):
        build_map([0, 0, 1], [0, 1])  # z^2/z shares a factor
    with pytest.raises(DegenerateMapError):
        build_map([0, 0, 2], [0, 0, 3])  # proportional forms
    with pytest.raises(DegenerateMapError):
        build_map([1, 2, 1], [1, 1])  # (z+1)^2 / (z+1)
    with pytest.raises(DegenerateMapError, match="the denominator is zero"):
        build_map([0, 0, 1], [0])  # z^2/0
    with pytest.raises(DegenerateMapError, match="map degree 0 < 2"):
        build_map([0], [1, 0, 1])  # 0/(z^2 + 1), the constant map 0


def test_apply_named_values():
    phi = example_d2()
    assert apply(phi, ProjPoint(2, 1)) == ProjPoint(0, 1)
    assert apply(phi, ProjPoint(0, 1)) == INFINITY
    assert apply(phi, INFINITY) == ProjPoint(1, 1)
    assert apply(phi, ProjPoint(1, 1)) == ProjPoint(0, 1)
    assert apply(phi, ProjPoint.from_rational(Fraction(2, 3))) == ProjPoint(1, 1)


def test_image_pair_matches_form_evaluation():
    # the kernel against ProjPoint(F(P), G(P)) from each form's own
    # evaluate_point, a path that shares no arithmetic with image_row; each
    # denominator has a planted root R so that G(R) = 0 occurs.  Single
    # points go through image_pair, and whole rows through image_row: the
    # row at infinity (y = 0), R's row and a random row, each with every
    # coprime x in [-30, 30]
    rng = random.Random(5151)
    seen = Counter()
    for d in (2, 3, 4, 5):
        built = 0
        while built < 10:
            R = ProjPoint(rng.randrange(-6, 7), rng.randrange(1, 5))
            cofactor = [rng.randrange(-6, 7) for _ in range(d)]
            num = [rng.randrange(-6, 7) for _ in range(d + 1)]
            try:
                phi = build_map(num, poly_mul([-R.x, R.y], cofactor))
            except DegenerateMapError:
                continue
            built += 1
            points = [INFINITY, ProjPoint(0, 1), R]
            points += [ProjPoint(rng.randrange(-30, 31), rng.randrange(1, 31)) for _ in range(20)]
            for P in points:
                fx, gx = phi.F.evaluate_point(P), phi.G.evaluate_point(P)
                expected = ProjPoint(fx, gx)
                assert image_pair(phi, P.x, P.y) == (expected.x, expected.y)
                seen["negative G"] += gx < 0
                seen["zero G, negative F"] += gx == 0 and fx < 0
                seen["gcd > 1"] += math.gcd(fx, gx) > 1
            for y in (0, R.y, rng.randrange(1, 31)):
                xs = [1] if y == 0 else [x for x in range(-30, 31) if math.gcd(x, y) == 1]
                row = [ProjPoint(x, y) for x in xs]
                values = [(phi.F.evaluate_point(P), phi.G.evaluate_point(P)) for P in row]
                expected = [ProjPoint(fx, gx) for fx, gx in values]
                assert image_row(phi, y, xs) == [(Q.x, Q.y) for Q in expected]
                seen["row at infinity"] += y == 0
                seen["row with negative x"] += xs[0] < 0
                seen["row with gcd > 1"] += any(math.gcd(fx, gx) > 1 for fx, gx in values)
    assert len(seen) == 6 and all(seen.values()), seen
    assert image_row(phi, 1, []) == []


def test_orbit_enters_cycle():
    phi = example_d2()
    rec = orbit(phi, ProjPoint(2, 1))
    assert rec.kind == "preperiodic"
    assert rec.tail_points == (ProjPoint(2, 1),)
    assert rec.cycle_points == (ProjPoint(0, 1), INFINITY, ProjPoint(1, 1))
    assert rec.tail_length == 1 and rec.cycle_length == 3


def test_orbit_escapes():
    phi = build_map([1, 0, 1], [1])  # z^2 + 1
    rec = orbit(phi, ProjPoint(1, 1))
    assert rec.kind == "escaped"
    assert rec.points[0] == ProjPoint(1, 1)
    assert rec.points[1] == ProjPoint(2, 1)
    # the last point is the first one above the escape height
    cutoff = escape_height(phi)
    assert rec.points[-1].height() > cutoff
    assert all(P.height() <= cutoff for P in rec.points[:-1])


def test_orbit_of_a_point_above_the_escape_height():
    phi = build_map([1, 0, 1], [1])
    P = ProjPoint(escape_height(phi) + 1, 1)
    assert orbit(phi, P) == OrbitRecord(points=(P,), kind="escaped")


def test_orbit_of_fixed_point():
    phi = build_map([1, 0, 1], [1])
    rec = orbit(phi, INFINITY)
    assert rec.kind == "preperiodic"
    assert rec.tail_length == 0 and rec.cycle_length == 1


def test_preimages_named_values():
    phi = example_d2()
    pre0 = preimages(phi, ProjPoint(0, 1))
    assert pre0.points == {ProjPoint(1, 1), ProjPoint(2, 1)} and pre0.complete
    # the point at infinity maps to 1, so it joins 2/3 as a preimage of 1
    pre1 = preimages(phi, ProjPoint(1, 1))
    assert pre1.points == {INFINITY, ProjPoint(2, 3)} and pre1.complete
    preinf = preimages(phi, INFINITY)
    assert preinf.points == {ProjPoint(0, 1)} and preinf.complete
    pre2 = preimages(phi, ProjPoint(2, 1))
    assert pre2.points == frozenset() and pre2.complete


def test_preimages_check_the_root_finder(monkeypatch):
    # each root the finder returns is checked: more of them than the degree,
    # or one that does not map to Q, raises instead of entering a portrait
    phi = example_d2()
    three = RootResult(roots=tuple((ProjPoint(k, 1), 1) for k in (1, 2, 3)), complete=True)
    monkeypatch.setattr(dynmap, "rational_roots", lambda f: three)
    with pytest.raises(InvariantViolation, match="more preimages than the degree"):
        preimages(phi, ProjPoint(0, 1))
    # (3-1)(3-2)/3^2 = 2/9, not 0
    stray = RootResult(roots=((ProjPoint(3, 1), 1),), complete=True)
    monkeypatch.setattr(dynmap, "rational_roots", lambda f: stray)
    with pytest.raises(InvariantViolation, match="claimed preimage 3 of 0 fails to map over"):
        preimages(phi, ProjPoint(0, 1))


def random_map(rng: random.Random, d: int = 2) -> RationalMap:
    while True:
        num = [rng.randrange(-8, 9) for _ in range(d + 1)]
        den = [rng.randrange(-8, 9) for _ in range(d + 1)]
        try:
            return build_map(num, den)
        except DegenerateMapError:
            continue


def test_preimage_section_property():
    rng = random.Random(814)
    for _ in range(100):
        phi = random_map(rng)
        P = ProjPoint(rng.randrange(-9, 10), rng.randrange(-9, 10) or 1)
        Q = apply(phi, P)
        pre = preimages(phi, Q)
        assert P in pre.points
        assert len(pre.points) <= phi.degree


def test_image_gcd_supported_on_bad_primes():
    # 500+ random (map, point) trials: apply()'s internal reduction assertion
    # must never fire, and the stripped gcd must be exactly 1
    rng = random.Random(2718)
    trials = 0
    while trials < 500:
        phi = random_map(rng, d=rng.choice([2, 2, 3]))
        for _ in range(5):
            P = ProjPoint(rng.randrange(-50, 51), rng.randrange(-50, 51) or 1)
            fx = phi.F.evaluate_point(P)
            gx = phi.G.evaluate_point(P)
            g = math.gcd(fx, gx)
            assert strip_primes(g, phi.bad_primes) == 1 or not phi.bad_primes_complete
            apply(phi, P)  # would raise InvariantViolation on failure
            trials += 1


def test_iterate_resultant_support():
    # prime support of Res(F_n, G_n) stays inside the bad primes, n <= 4
    rng = random.Random(3141)
    maps = [example_d2(), build_map([1, 0, 1], [1]), build_map([0, 0, 1], [1])]
    maps += [random_map(rng) for _ in range(5)]
    for phi in maps:
        assert phi.bad_primes_complete
        for Fn, Gn in list(iterate_pairs(phi.F, phi.G, 4))[1:]:
            rn = resultant(Fn, Gn)
            assert rn != 0
            assert strip_primes(rn, phi.bad_primes) == 1


def test_orbit_record_shapes():
    rec = OrbitRecord(points=(INFINITY,), kind="preperiodic", tail_length=0, cycle_length=1)
    assert rec.cycle_points == (INFINITY,)
    assert rec.tail_points == ()


# ---------------------------------------------------------------------------
# escape height
# ---------------------------------------------------------------------------


def _random_maps(rng, count):
    out = []
    while len(out) < count:
        d = 2 + len(out) % 4
        num = [rng.randrange(-9, 10) for _ in range(d + 1)]
        den = [rng.randrange(-9, 10) for _ in range(d + 1)]
        try:
            out.append(build_map(num, den))
        except DegenerateMapError:
            continue
    return out


def _escape_constant(phi):
    _, pairs = resultant_cofactors(phi.F, phi.G)
    return max(sum(abs(c) for c in A.coeffs + B.coeffs) for A, B in (pairs[0], pairs[-1]))


def _random_point_of_height(rng, H):
    while True:
        other = rng.randrange(-H, H + 1)
        x, y = (H, other) if rng.random() < 0.5 else (other, H)
        if math.gcd(x, y) == 1:
            return ProjPoint(x, y)


def test_integer_root_is_exact():
    rng = random.Random(99)
    for _ in range(300):
        k = rng.randrange(1, 6)
        n = rng.randrange(0, 10 ** rng.randrange(1, 200))
        h = integer_root(n, k)
        assert h**k <= n < (h + 1) ** k
    assert integer_root(10**120, 3) == 10**40
    assert integer_root(10**120 - 1, 3) == 10**40 - 1


def test_escape_height_is_the_root_of_the_cofactor_norm():
    N = 10**41
    maps = _random_maps(random.Random(17), 12) + [build_map([-N * N, 0, 1], [N])]
    for phi in maps:
        h, K, e = escape_height(phi), _escape_constant(phi), phi.degree - 1
        assert h >= 1
        assert h**e <= K < (h + 1) ** e


# (res, escape_height, preperiodic_height_bound), recorded before the
# resultant and its cofactors came from one elimination
PINNED_FAMILY_BOUNDS = {
    ("ex51", 1): (64, 47, 47),
    ("ex51", 2): (1073741824, 1483, 1483),
    ("ex51", 3): (19342813113834066795298816, 226468, 226468),
    ("ex52", 2): (4, 15, 15),
    ("ex52", 3): (512, 50, 50),
    ("ex52", 4): (16777216, 467, 467),
    ("ex52", 5): (1125899906842624, 9427, 9427),
    ("ex52", 6): (1237940039285380274899124224, 393286, 393286),
    ("ex52", 7): (178405961588244985132285746181186892047843328, 33498400, 33498400),
    ("ex52", 8): (
        26959946667150639794667015087019630673637144422540572481103610249216,
        5789439390,
        5789439390,
    ),
}
PINNED_MAP_BOUNDS = [
    # the generic-roots maps of the benchmark, and the cubic
    # (2z^3 - 7z + 5)/(3z^2 + 11)
    (([-9, 18, 3], [15, 3, -4]), (-23976, 13311, 13311)),
    (([0, -15, 7], [7, -6, -17]), (-28784, 13855, 13855)),
    (([-18, 3, 19], [-2, -18, 3]), (-115574, 15349, 15349)),
    (([3, 1, -14], [6, -11, -17]), (-5580, 8034, 8034)),
    (([-14, 17, 10], [-14, -13, 15]), (-156800, 24360, 24360)),
    (([7, 2, 9], [0, 6, -12]), (10332, 3714, 3714)),
    (([5, -7, 0, 2], [11, 0, 3]), (42028, 326, 326)),
    # polynomials: z^2 - 29/16, z^2 - 3/4, z^2 + 1/4, z^3 - z^2 - 9z + 2,
    # 3z^3 - 9/4
    (([Fraction(-29, 16), 0, 1], [1]), (65536, 11520, 11)),
    (([Fraction(-3, 4), 0, 1], [1]), (256, 112, 3)),
    (([Fraction(1, 4), 0, 1], [1]), (256, 80, 2)),
    (([2, -9, -1, 1], [1]), (1, 11, 11)),
    (([Fraction(-9, 4), 0, 0, 3], [1]), (110592, 173, 1)),
    # seeded rational quadratics, random.Random(2201), coefficients in [-9, 9]
    (([-4, 4, -5], [-4, 4, -8]), (144, 216, 216)),
    (([-6, 7, 6], [-1, 4, 6]), (1206, 774, 774)),
    (([4, 6, -3], [-7, 2, 0]), (141, 981, 981)),
    (([-3, -4, 3], [-1, 5, -2]), (-52, 265, 265)),
    (([-9, -8, -1], [4, 2, -5]), (1813, 868, 868)),
    (([6, 1, 2], [-1, 7, 6]), (1788, 825, 825)),
    (([3, -9, 6], [0, -1, 3]), (18, 330, 330)),
    (([-2, 2, 5], [-1, -8, 1]), (-747, 660, 660)),
    (([0, 5, 2], [5, 1, 2]), (300, 275, 275)),
    (([7, -2, 3], [-6, -6, 8]), (5584, 1880, 1880)),
    (([-2, 7, 3], [6, 2, 8]), (3456, 1374, 1374)),
    (([6, 4, 5], [7, 9, 8]), (507, 507, 507)),
]


def test_resultant_and_bounds_pinned():
    maps = [(generate(FamilySpec(*spec)), want) for spec, want in PINNED_FAMILY_BOUNDS.items()]
    maps += [(build_map(num, den), want) for (num, den), want in PINNED_MAP_BOUNDS]
    for phi, want in maps:
        got = (resultant(phi.F, phi.G), escape_height(phi), preperiodic_height_bound(phi))
        assert got == want, phi
        assert phi.res == want[0]


def test_escape_height_checks_the_map_resultant():
    # the elimination that gives the cofactors also gives Res(F, G), and a
    # map carrying another resultant is a bug
    phi = example_d2()
    with pytest.raises(InvariantViolation):
        escape_height(dataclasses.replace(phi, res=phi.res + 1))


def test_points_above_escape_height_climb():
    # every point of height escape_height + 1 .. 4 * escape_height + 5 maps
    # to a strictly higher point
    rng = random.Random(2024)
    named = [build_map([1, 0, 1], [1]), build_map([0, -1, 1], [1]), example_d2()]
    for phi in named + _random_maps(rng, 16):
        h = escape_height(phi)
        for _ in range(300):
            P = _random_point_of_height(rng, rng.randrange(h + 1, 4 * h + 6))
            assert apply(phi, P).height() > P.height()


def _random_polynomials(rng, count, degrees):
    out = []
    while len(out) < count:
        d = degrees[len(out) % len(degrees)]
        num = [rng.randrange(-9, 10) for _ in range(d + 1)]
        try:
            out.append(build_map(num, [rng.randrange(1, 10)]))
        except DegenerateMapError:
            continue
    return out


def _local_bound(phi, monkeypatch):
    # preperiodic_height_bound with escape_height out of the way
    with monkeypatch.context() as m:
        m.setattr(dynmap, "escape_height", lambda _: 10**100)
        return preperiodic_height_bound(phi)


def test_preperiodic_height_bound_of_named_maps(monkeypatch):
    # z^2 - 29/16 = [16X^2 - 29Y^2 : 16Y^2]: R = (29 + 16)/16, and at 2
    # e = floor((4 - 0)/2) = 2, so floor(45/16 * 4) = 11.  z^2/3: R = 3, and
    # 3 divides c but not f_0, so D = 1.  z^2 + 1: R = 2
    for num, den, local, escape in (
        ([-29, 0, 16], [16], 11, 11520),
        ([0, 0, 1], [3], 3, 9),
        ([1, 0, 1], [1], 2, 2),
    ):
        phi = build_map(num, den)
        assert (_local_bound(phi, monkeypatch), escape_height(phi)) == (local, escape)
        assert preperiodic_height_bound(phi) == local
    # not a polynomial, or bad primes not all known: the escape height
    for phi in (example_d2(), dataclasses.replace(build_map([-29, 0, 16], [16]), res_cofactor=91)):
        assert preperiodic_height_bound(phi) == escape_height(phi)


def test_local_bound_against_escape_height(monkeypatch):
    # on the z^2 + a/b grid and on seeded quadratics the local bound is never
    # above the escape height; a cubic or quartic can have it above, so the
    # bound is the smaller of the two
    grid = [build_map([a, 0, b], [b]) for b in range(1, 17) for a in range(-40, 41) if math.gcd(a, b) == 1]
    for phi in grid + _random_polynomials(random.Random(11), 40, (2,)):
        assert _local_bound(phi, monkeypatch) <= escape_height(phi)
    cubic = build_map([2, -9, -1, 1], [1])  # z^3 - z^2 - 9z + 2: local 13, escape 11
    above = 0
    for phi in _random_polynomials(random.Random(11), 60, (3, 4)) + [cubic]:
        local, escape = _local_bound(phi, monkeypatch), escape_height(phi)
        assert preperiodic_height_bound(phi) == min(local, escape)
        above += local > escape
    assert (_local_bound(cubic, monkeypatch), escape_height(cubic)) == (13, 11)
    assert above >= 2
