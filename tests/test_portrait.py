"""Portrait construction, classification, and the brute-force cross-check."""

import dataclasses
import gc
import math
import random
import weakref
from collections import Counter

import pytest

from preper import dynatomic, dynmap, forms, portrait, qarith
from preper.dynmap import (
    DegenerateMapError,
    InvariantViolation,
    apply,
    build_map,
    escape_height,
    image_row,
    orbit,
    preperiodic_height_bound,
)
from preper.families import FamilySpec, generate
from preper.portrait import (
    PortraitOverflowError,
    brute_force_preperiodic,
    build_portrait,
    classify,
    default_period_cap,
    rational_points_up_to,
)
from preper.qarith import INFINITY, ProjPoint, is_prime


def z_squared():
    return build_map([0, 0, 1], [1])


def z_squared_plus_one():
    return build_map([1, 0, 1], [1])


def z_squared_minus_z():
    return build_map([0, -1, 1], [1])


def shifted_product_d2():
    return build_map([2, -3, 1], [0, 0, 1])  # (z-1)(z-2)/z^2


def test_point_enumeration_against_gcd_count():
    for H in (1, 2, 5, 9):
        pts = list(rational_points_up_to(H))
        assert pts[0] == INFINITY
        assert len(pts) == len(set(pts))
        expected = 1 + sum(
            1
            for y in range(1, H + 1)
            for x in range(-H, H + 1)
            if math.gcd(x, y) == 1
        )
        assert len(pts) == expected
        assert pts[1:] == sorted(pts[1:], key=ProjPoint.sort_key)
        for P in pts:
            assert P.height() <= H


def test_point_enumeration_rejects_zero_bound():
    with pytest.raises(ValueError):
        list(rational_points_up_to(0))


def test_portrait_z2():
    port = build_portrait(z_squared())
    assert port.points() == [
        INFINITY,
        ProjPoint(-1, 1),
        ProjPoint(0, 1),
        ProjPoint(1, 1),
    ]
    counts = classify(port)
    assert counts.periodic == 3
    assert counts.tails == 1
    assert counts.preperiodic == 4
    assert counts.cycle_lengths == (1, 1, 1)
    assert counts.max_tail_depth == 1
    assert counts.longest_orbit == 2
    (tail,) = port.tails
    assert tail.point == ProjPoint(-1, 1)
    assert tail.image == tail.entry == ProjPoint(1, 1)
    assert tail.depth == 1


def test_portrait_z2_plus_one():
    # the classic rigid example: infinity is the only rational preperiodic point
    port = build_portrait(z_squared_plus_one())
    assert port.points() == [INFINITY]
    counts = classify(port)
    assert counts == classify(port)  # records compare field by field
    assert (counts.periodic, counts.tails, counts.preperiodic) == (1, 0, 1)
    assert counts.cycle_lengths == (1,)
    assert counts.longest_orbit == 1


def test_portrait_shifted_product():
    port = build_portrait(shifted_product_d2())
    assert port.points() == [
        INFINITY,
        ProjPoint(0, 1),
        ProjPoint(1, 1),
        ProjPoint(2, 1),
        ProjPoint(2, 3),
    ]
    counts = classify(port)
    assert (counts.periodic, counts.tails, counts.preperiodic) == (3, 2, 5)
    assert counts.cycle_lengths == (3,)
    assert counts.max_tail_depth == 1
    assert counts.longest_orbit == 4
    assert port.cycles == ((INFINITY, ProjPoint(1, 1), ProjPoint(0, 1)),)
    t2, t23 = port.tails
    assert (t2.point, t2.image, t2.entry, t2.depth) == (
        ProjPoint(2, 1),
        ProjPoint(0, 1),
        ProjPoint(0, 1),
        1,
    )
    assert (t23.point, t23.image, t23.entry, t23.depth) == (
        ProjPoint(2, 3),
        ProjPoint(1, 1),
        ProjPoint(1, 1),
        1,
    )
    assert port.flags.closed
    assert port.flags.roots_complete
    assert port.flags.preimages_complete
    assert port.flags.bad_primes_complete
    assert port.flags.n_max == 6


def test_portrait_fixed_points_with_tails():
    port = build_portrait(z_squared_minus_z())
    assert port.points() == [
        INFINITY,
        ProjPoint(-1, 1),
        ProjPoint(0, 1),
        ProjPoint(1, 1),
        ProjPoint(2, 1),
    ]
    counts = classify(port)
    assert counts.cycle_lengths == (1, 1, 1)
    assert (counts.tails, counts.max_tail_depth, counts.longest_orbit) == (2, 1, 2)
    by_pt = {t.point: t for t in port.tails}
    assert by_pt[ProjPoint(1, 1)].entry == ProjPoint(0, 1)
    assert by_pt[ProjPoint(-1, 1)].entry == ProjPoint(2, 1)


def test_default_period_cap():
    # the one default horizon, for --map and --family maps alike, at every
    # degree from 2 to 9: ex52 d=2..8 has degree d, ex51 d=1..3 degree 2d + 1
    assert [default_period_cap(degree) for degree in range(2, 10)] == [6, 6, 4, 4, 3, 3, 3, 3]


# a budget of no pairs sends every map to the Phi*_n search, and a budget
# far above every map of the tests sends them all to the scan
SEARCH_ONLY, SCAN_ONLY = 0, 10**9


def test_overflow_guard(monkeypatch):
    # the guard bounds both paths: each builds the portrait of 5 points
    # under the real cap, and refuses it under a cap of 3
    phi, cap = shifted_product_d2(), portrait.MAX_PORTRAIT_POINTS
    for budget in (SEARCH_ONLY, SCAN_ONLY):
        monkeypatch.setattr(portrait, "_SCAN_BUDGET", budget)
        monkeypatch.setattr(portrait, "MAX_PORTRAIT_POINTS", cap)
        assert (build_portrait(phi, 3).flags.scan_height is None) == (budget == SEARCH_ONLY)
        monkeypatch.setattr(portrait, "MAX_PORTRAIT_POINTS", 3)
        with pytest.raises(PortraitOverflowError):
            build_portrait(phi, 3)


def test_horizon_below_one_is_rejected_on_both_paths(monkeypatch):
    for budget in (SEARCH_ONLY, SCAN_ONLY):
        monkeypatch.setattr(portrait, "_SCAN_BUDGET", budget)
        for n_max in (0, -2):
            with pytest.raises(ValueError, match="at least 1, got"):
                build_portrait(z_squared(), n_max)


def test_search_portrait_goes_through_the_assembler(monkeypatch):
    # the search only collects points; the assembler checks that phi maps
    # them into themselves and walks the cycles again from them
    phi, real_preimages = z_squared(), portrait.preimages

    def stray(phi, Q):
        pre = real_preimages(phi, Q)
        if Q == ProjPoint(1, 1):
            return pre._replace(points=pre.points | {ProjPoint(2, 1)})
        return pre

    monkeypatch.setattr(portrait, "preimages", stray)
    with pytest.raises(InvariantViolation, match="2 maps to 4, outside the preperiodic set"):
        portrait._search_portrait(phi, 2)
    monkeypatch.undo()

    # a 3-cycle member the search misses comes back from the closure, and
    # the portrait lists it once, in the cycle and not as a tail
    phi = shifted_product_d2()
    whole = portrait._search_portrait(phi, 3)
    real_search = portrait.rational_periodic_points

    def missing_one(phi, n_max):
        found = real_search(phi, n_max)
        return found._replace(points=tuple(pp for pp in found.points if pp.point != INFINITY))

    monkeypatch.setattr(portrait, "rational_periodic_points", missing_one)
    assert len(missing_one(phi, 3).points) == 2
    assert portrait._search_portrait(phi, 3) == whole
    assert whole.cycles == ((INFINITY, ProjPoint(1, 1), ProjPoint(0, 1)),)


def test_brute_force_against_direct_orbits():
    # the memoized scan on coordinate pairs must agree with one-orbit-at-a-time
    # classification on ProjPoints. The maps cover: bad prime 2 with image
    # pairs whose gcd is divided out (the first and the last), polynomial maps
    # that fix infinity (the last two), and escape heights on both sides of
    # the scan height H = 8 (15, 2 and 11520)
    H = 8
    maps = (
        shifted_product_d2(),
        z_squared_plus_one(),
        build_map([-29, 0, 16], [16]),  # z^2 - 29/16, with a 3-cycle at -1/4
    )
    heights = sorted(escape_height(phi) for phi in maps)
    assert heights[0] < H < heights[-1]
    for phi in maps:
        brute = brute_force_preperiodic(phi, H)
        for P in rational_points_up_to(H):
            rec = orbit(phi, P)
            assert (P in brute) == (rec.kind == "preperiodic")
    for phi in (maps[0], maps[2]):
        assert phi.bad_primes.primes == (2,)
        assert any(
            math.gcd(phi.F.evaluate_point(P), phi.G.evaluate_point(P)) > 1
            for P in rational_points_up_to(H)
        )
    for phi in maps[1:]:
        assert apply(phi, INFINITY) == INFINITY
    assert ProjPoint(-1, 4) in brute_force_preperiodic(maps[2], H)


def test_pair_scan_against_per_point_orbits(monkeypatch):
    # the row scan with its one-step fast path must classify exactly as one
    # orbit at a time does, and orbit climbs to the escape height while the
    # scan stops at the preperiodic height bound. Both the row steps and the
    # single steps of the orbit walks are recorded. The scan never steps a
    # pair above that bound, and only a pair whose first image escapes is
    # stepped twice: no verdict is kept for it, so an orbit that reaches it
    # from a later row steps it again
    import preper.portrait as portrait_module

    H = 12
    steps = []  # (pair, image) in the order stepped
    step_row, step_pair = portrait_module.image_row, portrait_module.image_pair

    def recorded_row(phi, y, xs):
        images = step_row(phi, y, xs)
        steps.extend(((x, y), image) for x, image in zip(xs, images))
        return images

    def recorded_pair(phi, x, y):
        image = step_pair(phi, x, y)
        steps.append(((x, y), image))
        return image

    monkeypatch.setattr(portrait_module, "image_row", recorded_row)
    monkeypatch.setattr(portrait_module, "image_pair", recorded_pair)
    # two planted maps, then 30 seeded ones.  Each planted map has two pairs
    # whose first step escapes and that an orbit from a later row reaches,
    # so that case does not rest on the seeded draw alone
    maps = [build_map([3, 2, 2, 5], [-3, -4]), build_map([2, 0, -4, -5], [-1, 4, -3, -1])]
    rng = random.Random(1103)
    while len(maps) < 32:
        d = rng.choice((2, 3))
        num = [rng.randrange(-5, 6) for _ in range(d + 1)]
        den = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, d + 2))]
        try:
            maps.append(build_map(num, den))
        except DegenerateMapError:
            continue
    seen = Counter()
    for phi in maps:
        cutoff = preperiodic_height_bound(phi)
        steps.clear()
        brute = brute_force_preperiodic(phi, H)
        records = {P: orbit(phi, P) for P in rational_points_up_to(H)}
        assert brute == {P for P, rec in records.items() if rec.kind == "preperiodic"}
        assert all(abs(x) <= cutoff and y <= cutoff for (x, y), _ in steps)
        stepped = set()
        for i, ((x, y), image) in enumerate(steps):
            F, G = phi.F.evaluate_point(ProjPoint(x, y)), phi.G.evaluate_point(ProjPoint(x, y))
            seen["gcd divided out at a bad prime"] += math.gcd(F, G) > 1
            if (x, y) in stepped:
                assert apply(phi, ProjPoint(x, y)).height() > cutoff
                # the orbit came here from the latest pair stepped before
                # whose image (x, y) is, in a row call or a single step
                px, py = next(P for P, Q in reversed(steps[:i]) if Q == (x, y))
                seen["first-step escape reached later"] += max(abs(px), py) <= H
            stepped.add((x, y))
        inf = records[INFINITY]
        seen["cycle through infinity"] += inf.kind == "preperiodic" and INFINITY in inf.points[inf.tail_length :]
        seen["height bound below H"] += cutoff < H
    assert set(seen) == {
        "gcd divided out at a bad prime",
        "first-step escape reached later",
        "cycle through infinity",
        "height bound below H",
    } and all(seen.values()), seen
    assert seen["first-step escape reached later"] >= 3, seen


def test_stray_image_factor_raises_in_apply_and_the_oracle(monkeypatch):
    # gcd(F(P), G(P)) divides Res(F, G) at every P in coprime coordinates, so
    # apply, a row step and the oracle's pair iteration must refuse a
    # tampered map.  z^2/2 recorded with res=1: the gcd 2 at [2 : 1] does
    # not divide it
    z2_half = build_map([0, 0, 1], [2])
    phi = dataclasses.replace(z2_half, res=1)
    with pytest.raises(InvariantViolation, match="gcd 2, which does not divide"):
        apply(phi, ProjPoint(2, 1))
    with pytest.raises(InvariantViolation, match=r"at 2 has gcd 2, which does not divide"):
        image_row(phi, 1, [-1, 1, 2, 3])
    # the oracle's height bound eliminates the Sylvester matrix, whose
    # determinant 4 already refuses the recorded res.  Tampered pairs get
    # the untampered map's bound from here on, so the pair iteration's own
    # check is what refuses them
    with pytest.raises(InvariantViolation, match="Sylvester determinant is 4, but phi.res is 1"):
        brute_force_preperiodic(phi, 5)
    monkeypatch.setattr(portrait, "preperiodic_height_bound", lambda _: preperiodic_height_bound(z2_half))
    with pytest.raises(InvariantViolation, match="gcd 2, which does not divide"):
        brute_force_preperiodic(phi, 5)
    # G replaced by F: a common root at [0 : 1], where the gcd is 0, and a
    # pair with no height bound of its own; scanned to height 1, every other
    # pair has gcd 1
    phi = dataclasses.replace(z2_half, G=z2_half.F)
    with pytest.raises(InvariantViolation, match="at 0 has gcd 0"):
        apply(phi, ProjPoint(0, 1))
    with pytest.raises(InvariantViolation, match="at 0 has gcd 0"):
        image_row(phi, 1, [-1, 0, 1])
    with pytest.raises(InvariantViolation, match="at 0 has gcd 0"):
        brute_force_preperiodic(phi, 1)


@pytest.fixture(scope="module")
def searched_polynomials():
    """(phi, its Phi*_n search portrait at n_max = 4) over the z^2 + a/b grid
    (b <= 16, |a| <= 40) and 30 seeded polynomials of degree 2-4."""
    maps = [build_map([a, 0, b], [b]) for b in range(1, 17) for a in range(-40, 41) if math.gcd(a, b) == 1]
    rng = random.Random(2024)
    while len(maps) < 791 + 30:
        d = 2 + len(maps) % 3
        num = [rng.randrange(-6, 7) for _ in range(d)] + [rng.choice((1, 2, 3, 4, -1, -2))]
        try:
            maps.append(build_map(num, [rng.choice((1, 2, 3, 4, 6, -1))]))
        except DegenerateMapError:
            continue
    return [(phi, portrait._search_portrait(phi, 4)) for phi in maps]


def test_oracle_to_the_height_bound_is_the_whole_portrait(searched_polynomials):
    # no preperiodic point of a polynomial lies above its local bound, so the
    # oracle scanned that far finds every one: on the z^2 + a/b grid and on
    # seeded polynomials of degree 2-4 it returns the closed portrait's
    # points.  The portraits come from the Phi*_n search, so the scan is
    # not compared with itself
    sizes = Counter()
    for phi, port in searched_polynomials:
        assert port.flags.closed
        bound = preperiodic_height_bound(phi)
        assert brute_force_preperiodic(phi, bound) == set(port.points()), phi
        sizes[len(port.points())] += 1
    assert min(sizes) == 1 and max(sizes) >= 6, sizes


def without_scan_height(port):
    return port._replace(flags=port.flags._replace(scan_height=None))


def test_scan_and_search_build_equal_portraits(monkeypatch, searched_polynomials):
    # the scan keeps the cycles of length <= n_max and the tails above them,
    # as the search does, so the two paths give one portrait
    monkeypatch.setattr(portrait, "_SCAN_BUDGET", SCAN_ONLY)
    for phi, searched_at_4 in searched_polynomials:
        height = preperiodic_height_bound(phi)
        for n_max in (1, 2, 4):
            scanned = build_portrait(phi, n_max)
            searched = searched_at_4 if n_max == 4 else portrait._search_portrait(phi, n_max)
            assert scanned.flags.scan_height == height and searched.flags.closed
            assert without_scan_height(scanned) == searched, (phi, n_max)
    # z^2 - 29/16 has a 3-cycle, which the horizons 1 and 2 leave out
    # together with its tails
    phi = build_map([-29, 0, 16], [16])
    cycle_lengths = {n_max: classify(build_portrait(phi, n_max)).cycle_lengths for n_max in (1, 2, 3, 4)}
    assert cycle_lengths == {1: (1,), 2: (1,), 3: (1, 3), 4: (1, 3)}
    assert len(build_portrait(phi, 2).points()) < len(build_portrait(phi, 3).points())


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_small_height_portraits_need_no_root_search_or_factoring(monkeypatch):
    # (11 - z - z^2 - 10z^3 - 5z^4)/2 and 3z^3 - 9/4 took seconds of Pollard
    # rho in the Phi*_n search, and z^2 + 1/N with N a product of two large
    # primes took seconds to factor its end coefficients; each has a height
    # bound of at most 5.  Once the map is built, nothing may factor or
    # search for roots
    N = next_prime(2**15) * next_prime(2**16)
    maps = [build_map([11, -1, -1, -10, -5], [2]), build_map([-9, 0, 0, 12], [4]), build_map([1, 0, N], [N])]

    def refuse(*args):
        raise AssertionError("a root search or factoring ran")

    for module in (forms, dynmap, dynatomic, portrait, qarith):
        for name in ("rational_roots", "factor"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for phi in maps:
        height = preperiodic_height_bound(phi)
        assert height <= 5
        port = build_portrait(phi, 4)
        assert port.flags.closed and port.flags.bad_primes_complete
        assert port.flags.scan_height == height
        assert set(port.points()) == brute_force_preperiodic(phi, height)
        for P in port.points():
            assert apply(phi, P) in port.points()


def test_planted_fixed_points_near_the_height_bound():
    # z^2 + x0 - x0^2 fixes x0 and 1 - x0.  For x0 = (b + k)/b the bound is
    # b + floor(|(b + k) k| / b), so b + k + floor(k^2 / b) for k > 0: x0 lies
    # at most k^2 below it, and on it for k = 1.  The oracle scanned to the
    # bound finds both fixed points
    rng = random.Random(31)
    planted = [(b, 1) for b in range(2, 30)]
    while len(planted) < 60:
        b, k = rng.randrange(2, 30), rng.choice((-3, -2, -1, 1, 2, 3))
        if math.gcd(b, k) == 1:
            planted.append((b, k))
    for b, k in planted:
        a = b + k
        phi = build_map([a * b - a * a, 0, b * b], [b * b])
        bound = preperiodic_height_bound(phi)
        x0 = ProjPoint(a, b)
        assert x0.height() <= bound <= x0.height() + k * k
        assert k != 1 or bound == x0.height()
        assert {x0, ProjPoint(b - a, b)} <= brute_force_preperiodic(phi, bound)


def test_brute_force_keeps_a_cycle_above_any_fixed_cutoff():
    # phi(z) = z^2/N - N has the 2-cycle 0 -> -N -> 0 with N far above
    # 10^40, a height a fixed escape cutoff would call wandering
    N = 10**41
    phi = build_map([-N * N, 0, 1], [N])
    assert escape_height(phi) > N
    assert brute_force_preperiodic(phi, 2) == {ProjPoint(0, 1), INFINITY}
    rec = orbit(phi, ProjPoint(0, 1))
    assert rec.kind == "preperiodic" and rec.cycle_length == 2
    assert rec.points == (ProjPoint(0, 1), ProjPoint(-N, 1))


def test_brute_force_scans_only_up_to_the_escape_height(monkeypatch):
    import preper.portrait as portrait_module

    # the scan walks the rows of bare pairs of _coprime_rows, the generator
    # behind rational_points_up_to, so that is the binding recorded
    phi = z_squared_plus_one()  # escape height 2
    bounds = []
    enumerate_rows = portrait_module._coprime_rows

    def recorded(height_bound):
        bounds.append(height_bound)
        return enumerate_rows(height_bound)

    monkeypatch.setattr(portrait_module, "_coprime_rows", recorded)
    assert brute_force_preperiodic(phi, 25) == {INFINITY}
    assert bounds == [preperiodic_height_bound(phi)] == [escape_height(phi)] == [2]


def test_portrait_matches_brute_force_on_named_maps():
    for phi in (z_squared(), z_squared_plus_one(), shifted_product_d2(), z_squared_minus_z()):
        port = build_portrait(phi)
        assert port.flags.closed
        brute = brute_force_preperiodic(phi, 25)
        mine = {P for P in port.points() if P.height() <= 25}
        assert mine == brute


def test_portrait_matches_brute_force_on_random_maps():
    # equivalence holds up to the period horizon: a brute-force point whose
    # cycle is longer than n_max is legitimately outside the portrait
    rng = random.Random(7071)
    built = 0
    while built < 12:
        num = [rng.randrange(-4, 5) for _ in range(3)]
        den = [rng.randrange(-4, 5) for _ in range(3)]
        try:
            phi = build_map(num, den)
        except DegenerateMapError:
            continue
        built += 1
        n_max = 6
        port = build_portrait(phi, n_max)
        pts = set(port.points())
        brute = brute_force_preperiodic(phi, 10)
        for P in pts:
            if P.height() <= 10:
                assert P in brute
        for P in brute:
            rec = orbit(phi, P)
            assert rec.kind == "preperiodic"
            if rec.cycle_length <= n_max and port.flags.closed:
                assert P in pts


def test_tail_records_match_direct_iteration():
    # every TailRecord against phi itself: image = phi(P), depth = the least
    # k with phi^k(P) periodic, entry = phi^depth(P)
    maps = [generate(FamilySpec("ex51", d)) for d in (1, 2, 3)]
    rng = random.Random(1)
    while len(maps) < 3 + 300:
        deg = rng.choice((2, 3))
        num = [rng.randint(-6, 6) for _ in range(deg + 1)]
        den = [rng.randint(-6, 6) for _ in range(deg + 1)]
        try:
            maps.append(build_map(num, den))
        except DegenerateMapError:
            continue
    depths = Counter()
    for phi in maps:
        port = build_portrait(phi, 3)
        periodic = {pp.point for pp in port.periodic}
        for t in port.tails:
            assert t.image == apply(phi, t.point)
            cur, k = t.point, 0
            while cur not in periodic:
                assert k <= len(port.tails), "orbit never reached a cycle"
                cur, k = apply(phi, cur), k + 1
            assert (t.depth, t.entry) == (k, cur)
            depths[t.depth] += 1
    assert depths[1] and depths[2] and max(depths) >= 3


def test_portrait_releases_its_map():
    # nothing outside the portrait may hold on to the map it was built for
    phi = build_map([2, -3, 1], [0, 0, 1])
    ref = weakref.ref(phi)
    assert len(build_portrait(phi, 4).periodic) == 3
    del phi
    gc.collect()
    assert ref() is None


def test_portrait_points_are_closed_under_the_map():
    # forward images of portrait points stay inside the portrait
    for phi in (z_squared(), shifted_product_d2(), z_squared_minus_z()):
        port = build_portrait(phi)
        pts = set(port.points())
        for P in pts:
            assert apply(phi, P) in pts
