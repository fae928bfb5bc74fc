"""Portrait construction, classification, and the brute-force cross-check."""

import dataclasses
import gc
import math
import random
import weakref
from collections import Counter

import pytest

from preper import portrait
from preper.dynmap import (
    DegenerateMapError,
    InvariantViolation,
    apply,
    build_map,
    escape_height,
    orbit,
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
from preper.qarith import INFINITY, ProjPoint


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
    assert counts == classify(port)  # dataclass equality sanity
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
    assert default_period_cap(2) == 6
    assert default_period_cap(3) == 6
    assert default_period_cap(4) == 4
    assert default_period_cap(9) == 4


def test_overflow_guard(monkeypatch):
    monkeypatch.setattr(portrait, "MAX_PORTRAIT_POINTS", 3)
    with pytest.raises(PortraitOverflowError):
        build_portrait(shifted_product_d2(), 3)


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
    # the pair scan with its one-step fast path must classify exactly as one
    # orbit at a time does. It never steps a pair above the escape height,
    # and only a pair whose first image escapes is stepped twice: no verdict
    # is kept for it, so an orbit that reaches it later steps it again
    import preper.portrait as portrait_module

    H = 12
    steps = []
    step = portrait_module.image_pair

    def recorded(phi, x, y):
        steps.append((x, y))
        return step(phi, x, y)

    monkeypatch.setattr(portrait_module, "image_pair", recorded)
    rng = random.Random(1103)
    seen = Counter()
    built = 0
    while built < 30:
        d = rng.choice((2, 3))
        num = [rng.randrange(-5, 6) for _ in range(d + 1)]
        den = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, d + 2))]
        try:
            phi = build_map(num, den)
        except DegenerateMapError:
            continue
        built += 1
        cutoff = escape_height(phi)
        steps.clear()
        brute = brute_force_preperiodic(phi, H)
        records = {P: orbit(phi, P) for P in rational_points_up_to(H)}
        assert brute == {P for P, rec in records.items() if rec.kind == "preperiodic"}
        assert all(abs(x) <= cutoff and y <= cutoff for x, y in steps)
        stepped = set()
        for i, (x, y) in enumerate(steps):
            F, G = phi.F.evaluate_point(ProjPoint(x, y)), phi.G.evaluate_point(ProjPoint(x, y))
            seen["gcd divided out at a bad prime"] += math.gcd(F, G) > 1
            if (x, y) in stepped:
                assert apply(phi, ProjPoint(x, y)).height() > cutoff
                # steps[i - 1] is the pair whose image (x, y) is
                seen["first-step escape reached later"] += max(abs(steps[i - 1][0]), steps[i - 1][1]) <= H
            stepped.add((x, y))
        inf = records[INFINITY]
        seen["cycle through infinity"] += inf.kind == "preperiodic" and INFINITY in inf.points[inf.tail_length :]
        seen["escape height below H"] += cutoff < H
    assert set(seen) == {
        "gcd divided out at a bad prime",
        "first-step escape reached later",
        "cycle through infinity",
        "escape height below H",
    } and all(seen.values()), seen


def test_stray_image_factor_raises_in_apply_and_the_oracle(monkeypatch):
    # gcd(F(P), G(P)) divides Res(F, G) at every P in coprime coordinates, so
    # both apply and the oracle's pair iteration must refuse a tampered map.
    # z^2/2 recorded with res=1: the gcd 2 at [2 : 1] does not divide it
    z2_half = build_map([0, 0, 1], [2])
    phi = dataclasses.replace(z2_half, res=1)
    with pytest.raises(InvariantViolation, match="gcd 2, which does not divide"):
        apply(phi, ProjPoint(2, 1))
    with pytest.raises(InvariantViolation, match="gcd 2, which does not divide"):
        brute_force_preperiodic(phi, 5)
    # G replaced by F: a common root at [0 : 1], where the gcd is 0.  The
    # tampered pair has no escape height of its own, so the oracle gets the
    # untampered map's; scanned to height 1, every other pair has gcd 1
    phi = dataclasses.replace(z2_half, G=z2_half.F)
    with pytest.raises(InvariantViolation, match="at 0 has gcd 0"):
        apply(phi, ProjPoint(0, 1))
    monkeypatch.setattr(portrait, "escape_height", lambda _: escape_height(z2_half))
    with pytest.raises(InvariantViolation, match="at 0 has gcd 0"):
        brute_force_preperiodic(phi, 1)


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

    # the scan walks the bare pairs of _coprime_pairs_up_to, the generator
    # behind rational_points_up_to, so that is the binding recorded
    phi = z_squared_plus_one()  # escape height 2
    bounds = []
    enumerate_pairs = portrait_module._coprime_pairs_up_to

    def recorded(height_bound):
        bounds.append(height_bound)
        return enumerate_pairs(height_bound)

    monkeypatch.setattr(portrait_module, "_coprime_pairs_up_to", recorded)
    assert brute_force_preperiodic(phi, 25) == {INFINITY}
    assert bounds == [escape_height(phi)] == [2]


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
