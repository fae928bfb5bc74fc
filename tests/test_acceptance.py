"""Acceptance suite: the nine binding criteria, one printed verdict line each.

Two more checks ride on the shared corpus: the brute-force oracle's escape
height lies above every point of those portraits and of ex52 d = 2..5, and
the cycles a portrait keeps from its periodic search are the ones that
walking each periodic point with apply finds, on seeded maps too.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they happen; without -s they still appear in captured output on failure.
"""

import math
import random
import time
from functools import cache

from preper.certify import (
    evaluate_bounds,
    make_certificates,
    tail_bound_tm_terms,
    thue_mahler_coset_count,
    unit_equation_count,
    verify_portrait_bounds,
)
from preper.dynatomic import (
    dynatomic_records,
    formal_period_degree,
    multiplier,
    rational_periodic_points,
)
from preper.dynmap import DegenerateMapError, RationalMap, apply, build_map, escape_height
from preper.families import FamilySpec, family_portrait, generate, verify_claims
from preper.forms import iterate_pairs, resultant, root_multiplicity
from preper.portrait import Portrait, brute_force_preperiodic, build_portrait, classify
from preper.qarith import INFINITY, ProjPoint, strip_primes


def _verdict(number: int, label: str, ok: bool) -> None:
    print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {label}", flush=True)
    assert ok, f"acceptance criterion {number} failed: {label}"


# ---------------------------------------------------------------------------
# shared corpus
# ---------------------------------------------------------------------------


@cache
def named_corpus() -> tuple[tuple[str, RationalMap], ...]:
    built = [
        ("z^2", build_map([0, 0, 1], [1])),
        ("z^2+1", build_map([1, 0, 1], [1])),
        ("z^2-1", build_map([-1, 0, 1], [1])),
        ("z^2-z", build_map([0, -1, 1], [1])),
        ("z^2-2", build_map([-2, 0, 1], [1])),
        ("(z^2-1)/z", build_map([-1, 0, 1], [0, 1])),
        ("(z^2+1)/(2z)", build_map([1, 0, 1], [0, 2])),
    ]
    built.append(("family ex52 d=2", generate(FamilySpec("ex52", 2))))
    built.append(("family ex52 d=3", generate(FamilySpec("ex52", 3))))
    built.append(("family ex51 d=1", generate(FamilySpec("ex51", 1))))
    return tuple(built)


@cache
def corpus_portraits() -> tuple[tuple[str, Portrait], ...]:
    return tuple((label, build_portrait(phi, 6)) for label, phi in named_corpus())


def _planted_quadratics(count: int, seed: int) -> list[RationalMap]:
    """Monic integer quadratics z^2 + a z + b with a planted fixed point t.

    Monic polynomial maps have resultant +-1, hence good reduction at every
    prime. Planting b = t - t^2 - a t guarantees the fixed point t and with
    it the tail point -a - t, so certificates are never vacuous.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randint(-6, 6)
        t = rng.randint(-6, 6)
        if a == -2 * t:  # the second preimage of t would collide with t
            continue
        b = t - t * t - a * t
        out.append(build_map([b, a, 1], [1]))
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_three_cycle_family_reproduction():
    t0 = time.perf_counter()
    ok = True
    for d in range(2, 9):
        spec = FamilySpec("ex52", d)
        portrait = family_portrait(spec)
        report = verify_claims(spec, portrait)
        by_name = {c.name: c.holds for c in report.claims}
        ok = ok and by_name["bad_primes_exactly_2"]
        ok = ok and by_name["three_cycle_in_portrait"]
        ok = ok and by_name["orbit_chain_0_inf_1_0"]
        ok = ok and by_name["powers_of_two_are_tails"]
        tail_points = {t.point for t in portrait.tails}
        ok = ok and all(ProjPoint(2**i, 1) in tail_points for i in range(1, d))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(1, f"three-cycle family d in [2,8], {elapsed:.1f}s", ok)


def test_criterion_2_power_swap_family_reproduction():
    t0 = time.perf_counter()
    ok = True
    for d in range(1, 4):
        spec = FamilySpec("ex51", d)
        portrait = family_portrait(spec)
        report = verify_claims(spec, portrait)
        by_name = {c.name: c.holds for c in report.claims}
        ok = ok and by_name["bad_primes_within_2"]
        ok = ok and by_name["fixed_point_one"]
        ok = ok and by_name["powers_of_two_swap"]
        ok = ok and by_name["orbit_zero_to_fixed"]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _verdict(2, f"power-swap family d in [1,3], {elapsed:.1f}s", ok)


def test_criterion_3_s_unit_certificates():
    family_specs = [FamilySpec("ex52", d) for d in range(2, 5)]
    family_specs += [FamilySpec("ex51", d) for d in (1, 2)]
    portraits = [family_portrait(spec) for spec in family_specs]
    random_maps = _planted_quadratics(20, seed=1234)
    portraits += [build_portrait(phi, 3) for phi in random_maps]
    checked_random = 0
    covered_pairs = 0
    failures = 0
    for portrait in portraits:
        if not portrait.periodic:
            continue
        if portrait.phi in random_maps:
            checked_random += 1
        bundle = make_certificates(portrait)
        for cert in bundle.certificates:
            if cert.excluded:
                continue
            covered_pairs += 1
            if not cert.s_unit_ok:
                failures += 1
    ok = checked_random >= 20 and covered_pairs > 0 and failures == 0
    _verdict(
        3,
        f"{covered_pairs} non-excluded pairs over {checked_random} random maps "
        f"plus both families, {failures} failures",
        ok,
    )


def test_criterion_4_dynatomic_degree_identity():
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}
    ok = True
    # one witness map per degree; the monomial map keeps the largest grid
    # corners cheap since its iterates stay sparse with unit coefficients
    for d in range(2, 7):
        dense = build_map([1] + [0] * (d - 1) + [1], [1])
        sparse = build_map([0] * d + [1], [1])
        for n in range(1, 7):
            expected = sum(
                mu[n // k] * (d**k + 1) for k in range(1, n + 1) if n % k == 0
            )
            ok = ok and formal_period_degree(d, n) == expected
            phi = dense if d**n <= 3200 else sparse
            records = dynatomic_records(phi, n)
            ok = ok and records[n - 1].star_form.degree == expected
            prod = None
            for k in range(1, n + 1):
                if n % k == 0:
                    f = records[k - 1].star_form
                    prod = f if prod is None else prod * f
            target = records[n - 1].period_form
            prod = prod.primitive()
            negated = tuple(-c for c in prod.coeffs)
            ok = ok and (prod.coeffs == target.coeffs or negated == target.coeffs)
    _verdict(4, "degree identity and reconstruction, d in [2,6], n in [1,6]", ok)


def test_criterion_5_at_most_two_formal_periods():
    ok = True
    examined = 0
    for _, portrait in corpus_portraits():
        # the star forms, built once per map, are the reference for the
        # formal periods the search reads off the multipliers
        records = dynatomic_records(portrait.phi, portrait.flags.n_max)
        for pp in portrait.periodic:
            examined += 1
            ok = ok and len(pp.formal_periods) <= 2
            positive = tuple(
                rec.n for rec in records if root_multiplicity(rec.star_form, pp.point) > 0
            )
            ok = ok and positive == pp.formal_periods
            ok = ok and len(positive) <= 2
    ok = ok and examined > 0
    _verdict(5, f"at most two formal periods across {examined} periodic points", ok)


def test_criterion_6_oracle_equivalence_at_height_100():
    ok = True
    for label, portrait in corpus_portraits():
        brute = brute_force_preperiodic(portrait.phi, 100)
        from_portrait = {P for P in portrait.points() if P.height() <= 100}
        ok = ok and brute == from_portrait
    _verdict(6, f"brute force at height 100 agrees on {len(corpus_portraits())} maps", ok)


def test_portrait_points_lie_at_or_below_the_escape_height():
    portraits = [portrait for _, portrait in corpus_portraits()]
    portraits += [family_portrait(FamilySpec("ex52", d)) for d in range(2, 6)]
    for portrait in portraits:
        cutoff = escape_height(portrait.phi)
        assert all(P.height() <= cutoff for P in portrait.points())


def _walked_cycles(portrait: Portrait) -> tuple[tuple[ProjPoint, ...], ...]:
    """The cycles found afresh: walk from the least periodic point not yet
    met until it comes back, with apply, and sort by least points."""
    remaining = {pp.point for pp in portrait.periodic}
    out = []
    while remaining:
        start = min(remaining, key=ProjPoint.sort_key)
        cyc = [start]
        cur = apply(portrait.phi, start)
        while cur != start:
            cyc.append(cur)
            cur = apply(portrait.phi, cur)
        remaining.difference_update(cyc)
        out.append(tuple(cyc))
    out.sort(key=lambda c: c[0].sort_key())
    return tuple(out)


def test_portrait_cycles_are_the_apply_walk():
    portraits = [portrait for _, portrait in corpus_portraits()]
    rng = random.Random(1995)
    while len(portraits) < 70:
        try:
            phi = build_map(
                [rng.randint(-4, 4) for _ in range(3)], [rng.randint(-4, 4) for _ in range(3)]
            )
        except DegenerateMapError:
            continue
        portraits.append(build_portrait(phi, 4))
    through_infinity = 0
    for portrait in portraits:
        assert portrait.cycles == _walked_cycles(portrait), portrait.phi
        through_infinity += any(INFINITY in c and len(c) > 1 for c in portrait.cycles)
    assert through_infinity >= 3


def test_search_multipliers_match_a_fresh_walk():
    # the search takes each multiplier from the cycle it walked; multiplier()
    # walks the cycle itself, from each point of it
    phis = [portrait.phi for _, portrait in corpus_portraits()]
    results = [portrait.periodic for _, portrait in corpus_portraits()]
    seeded = _planted_quadratics(30, 2025)
    rng = random.Random(2025)
    while len(seeded) < 90:
        num, den = ([rng.randint(-5, 5) for _ in range(3)] for _ in range(2))
        try:
            seeded.append(build_map(num, den))
        except DegenerateMapError:
            continue
    phis += seeded
    results += [rational_periodic_points(phi, 3).points for phi in seeded]
    checked = 0
    for phi, periodic in zip(phis, results):
        for pp in periodic:
            assert pp.multiplier == multiplier(phi, pp.point, pp.primitive_period), phi
            checked += 1
    assert checked > 100


def test_criterion_7_bound_inequalities_hold():
    ok = True
    checked = 0
    for _, portrait in corpus_portraits():
        report, items = verify_portrait_bounds(portrait)
        for item in items:
            checked += 1
            ok = ok and item.holds
    # the s = 2 example spelled out: periodic count at most 2^32 + 3
    ex52 = next(p for label, p in corpus_portraits() if label == "family ex52 d=2")
    assert ex52.phi.bad_primes.s == 2
    ok = ok and classify(ex52).periodic <= 2**32 + 3
    _verdict(7, f"{checked} bound checks over {len(corpus_portraits())} portraits", ok)


def test_criterion_8_reduction_property_runs():
    ok = True
    # iterate resultants: support stays inside the bad primes for n <= 4
    for label, phi in named_corpus():
        if phi.degree != 2:
            continue
        for Fn, Gn in iterate_pairs(phi.F, phi.G, 4):
            res_n = resultant(Fn, Gn)
            ok = ok and res_n != 0
            ok = ok and strip_primes(res_n, phi.bad_primes) == 1
    # image pairs of normalized points have gcd supported on bad primes
    rng = random.Random(5150)
    trials = 0
    maps = 0
    while maps < 25:
        num = [rng.randint(-9, 9) for _ in range(rng.choice((3, 4)))]
        den = [rng.randint(-9, 9) for _ in range(len(num))]
        try:
            phi = build_map(num, den)
        except ValueError:
            continue
        if not phi.bad_primes_complete:
            continue
        maps += 1
        for _ in range(20):
            P = ProjPoint(rng.randint(-40, 40), rng.randint(1, 40))
            g = math.gcd(phi.F.evaluate_point(P), phi.G.evaluate_point(P))
            trials += 1
            ok = ok and g != 0 and strip_primes(g, phi.bad_primes) == 1
    ok = ok and trials >= 500
    _verdict(8, f"iterate resultants plus {trials} image-gcd trials", ok)


def test_criterion_9_formula_spot_values():
    ok = unit_equation_count(1) == 65536
    ok = ok and thue_mahler_coset_count(3, 2) == 225_000_000_000_000
    poly_term, expo_term = tail_bound_tm_terms(2, 2)
    ok = ok and expo_term == 4 * 2 ** (64 * 5) == 2**322
    ok = ok and max(poly_term, expo_term) == expo_term
    # the published bound carries a leading factor d on the selected branch
    ok = ok and evaluate_bounds(2, 2).tail_bound_tm == 2 * expo_term
    _verdict(9, "unit-equation, coset-count, and branch-selection spot values", ok)
