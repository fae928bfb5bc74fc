"""Certificates, bound evaluation and checking."""

import math
import random
import tracemalloc
from decimal import Decimal

import pytest

from preper import certify
from preper.certify import (
    BoundCheckItem,
    check_bounds,
    evaluate_bounds,
    make_certificates,
    per_bound_tm_terms,
    tail_bound_tm_terms,
    thue_mahler_coset_count,
    unit_equation_count,
    unit_equation_pair_count,
    verify_portrait_bounds,
)
from preper.dynmap import DegenerateMapError, apply, build_map
from preper.portrait import PortraitCounts, build_portrait
from preper.qarith import INFINITY, PrimeSet, ProjPoint, factor


def shifted_product_d2():
    return build_map([2, -3, 1], [0, 0, 1])  # (z-1)(z-2)/z^2


def chebyshev_like():
    return build_map([-2, 0, 1], [1])  # z^2 - 2, good reduction everywhere


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificates_shifted_product_frozen():
    bundle = make_certificates(build_portrait(shifted_product_d2()))
    assert str(bundle.primes) == "{inf, 2}"
    assert bundle.primes_complete
    assert bundle.all_hold
    assert bundle.failures() == []
    rows = [
        (c.tail, c.periodic, c.cross, c.s_unit_ok, c.excluded, c.excluded_point)
        for c in bundle.certificates
    ]
    two, inf, zero, one = ProjPoint(2, 1), INFINITY, ProjPoint(0, 1), ProjPoint(1, 1)
    two_thirds = ProjPoint(2, 3)
    assert rows == [
        (two, inf, -1, True, False, one),
        (two, zero, 2, True, False, one),
        (two, one, 1, True, True, one),
        (two_thirds, inf, -3, False, True, inf),
        (two_thirds, zero, 2, True, False, inf),
        (two_thirds, one, -1, True, False, inf),
    ]
    assert all(c.cycle_length == 3 for c in bundle.certificates)


def test_certificates_everywhere_good_reduction():
    # with S = {inf} every covered cross term must be a unit, and here all
    # three excluded pairs genuinely fail, so the exclusion is not slack
    bundle = make_certificates(build_portrait(chebyshev_like()))
    assert str(bundle.primes) == "{inf}"
    assert bundle.all_hold
    covered = [c for c in bundle.certificates if not c.excluded]
    assert covered and all(c.cross in (1, -1) for c in covered)
    excluded_failures = [
        c for c in bundle.certificates if c.excluded and not c.s_unit_ok
    ]
    assert len(excluded_failures) == 3
    assert {(c.tail, c.periodic) for c in excluded_failures} == {
        (ProjPoint(0, 1), ProjPoint(2, 1)),
        (ProjPoint(1, 1), ProjPoint(-1, 1)),
        (ProjPoint(-2, 1), ProjPoint(2, 1)),
    }


def test_certificate_excluded_point_uses_full_depth():
    # the depth-2 tail 0 -> -2 -> 2 must exclude 2, not the mid-tail image
    bundle = make_certificates(build_portrait(chebyshev_like()))
    certs = [c for c in bundle.certificates if c.tail == ProjPoint(0, 1)]
    assert certs and all(c.excluded_point == ProjPoint(2, 1) for c in certs)
    assert [c.periodic for c in certs if c.excluded] == [ProjPoint(2, 1)]


def test_certificates_empty_without_tails():
    bundle = make_certificates(build_portrait(build_map([1, 0, 1], [1])))
    assert bundle.certificates == ()
    assert bundle.all_hold


def test_certificates_match_independent_recount():
    # recompute each field from scratch: factor the cross term and compare
    # its support with S, and recompute the excluded point phi^(m0*n)(tail)
    # by iteration, also for tails deeper than their cycle length
    rng = random.Random(2718)
    maps = [build_map([1, 1, 0], [1, -4, -3]), build_map([-2, -2, 0], [2, -1, -4])]
    while len(maps) < 12:
        try:
            maps.append(
                build_map(
                    [rng.randrange(-5, 6) for _ in range(3)],
                    [rng.randrange(-5, 6) for _ in range(3)],
                )
            )
        except DegenerateMapError:
            continue
    deeper = 0
    for phi in maps:
        port = build_portrait(phi, 4)
        if not port.flags.closed or not port.flags.bad_primes_complete:
            continue
        bundle = make_certificates(port)
        assert len(bundle.certificates) == len(port.tails) * len(port.periodic)
        period_of = {pp.point: pp.primitive_period for pp in port.periodic}
        tails = {t.point: t for t in port.tails}
        deeper += sum(t.depth > period_of[t.entry] >= 2 for t in port.tails)
        for c in bundle.certificates:
            assert c.cross == c.tail.x * c.periodic.y - c.periodic.x * c.tail.y
            fr = factor(abs(c.cross))
            assert fr.complete
            support_in_s = all(p in phi.bad_primes for p, _ in fr.factors)
            assert c.s_unit_ok == support_in_s
            if not c.excluded:
                assert c.s_unit_ok  # the covered claim itself
            t = tails[c.tail]
            n = period_of[t.entry]
            Q = c.tail
            for _ in range(-(-t.depth // n) * n):
                Q = apply(phi, Q)
            assert (c.cycle_length, c.excluded_point, c.excluded) == (n, Q, c.periodic == Q)
    assert deeper >= 3


# ---------------------------------------------------------------------------
# solution-count formulas
# ---------------------------------------------------------------------------


def test_count_formulas_frozen_values():
    assert unit_equation_count(1) == 65536
    assert unit_equation_count(0) == 256
    assert unit_equation_pair_count(0) == 65536
    assert thue_mahler_coset_count(3, 2) == 225_000_000_000_000
    assert thue_mahler_coset_count(3, 1) == 15_000_000


def test_count_formulas_reject_bad_input():
    with pytest.raises(ValueError):
        unit_equation_count(-1)
    with pytest.raises(ValueError):
        unit_equation_pair_count(-2)
    with pytest.raises(ValueError):
        thue_mahler_coset_count(2, 1)
    with pytest.raises(ValueError):
        thue_mahler_coset_count(3, 0)


def test_pair_count_matches_headline_bound():
    # the periodic bound is the pair count at the S-unit rank, plus three
    for n_primes in range(5):
        S = PrimeSet(tuple([2, 3, 5, 7, 11][:n_primes]))
        assert S.s - 1 == n_primes
        rep = evaluate_bounds(S.s, 2)
        assert rep.per_bound_tails3 == unit_equation_pair_count(S.s - 1) + 3


# ---------------------------------------------------------------------------
# bound evaluation
# ---------------------------------------------------------------------------


def test_bounds_frozen_s1_d2():
    rep = evaluate_bounds(1, 2)
    assert rep.per_bound_tails3 == 65539
    assert rep.tail_bound_periodic4 == 262144
    assert rep.per_bound_degree == 2**128 + 3
    assert rep.tail_bound_degree == 2**130
    assert rep.preper_bound_degree == 5 * 2**128 + 3
    assert rep.tail_bound_tm == 2**259
    assert rep.per_bound_tm == 2**386 + 1


def test_bounds_frozen_s2_d2():
    rep = evaluate_bounds(2, 2)
    assert rep.per_bound_tails3 == 4294967299
    assert rep.tail_bound_periodic4 == 2**34
    assert rep.tail_bound_tm == 2**323


def test_tm_branch_selection_matches_float_log2():
    # picking the max by exact integers must agree with float log2 sizing
    for s in (1, 2, 3, 4):
        for d in (2, 3, 10, 1000):
            poly, expo = tail_bound_tm_terms(s, d)
            by_exact = poly >= expo
            by_log2 = (s + 4) * math.log2(5 * 10**6 * (d**3 + 1)) >= 2 + 64 * (s + 3)
            assert by_exact == by_log2
            poly2, expo2 = per_bound_tm_terms(s, d)
            assert (poly2 >= expo2) == (
                (s + 3) * math.log2(5 * 10**6 * (d - 1)) >= 2 + 128 * (s + 2)
            )
    # at s = 2, d = 2 the polynomial branch is about 2^152.5, far below 2^322
    poly, expo = tail_bound_tm_terms(2, 2)
    assert abs(math.log2(poly) - 152.5) < 0.1
    assert expo == 2**322


def test_tm_polynomial_branch_wins_for_large_degree():
    # the degree-free report fields explode at degree 1000, so check the
    # crossover at the level of the branch terms themselves
    poly, expo = tail_bound_tm_terms(1, 1000)
    assert poly > expo
    assert tail_bound_tm_terms(1, 800)[0] < tail_bound_tm_terms(1, 800)[1]


def test_orbit_ln_bound_value():
    rep = evaluate_bounds(1, 2)
    excess = float(rep.orbit_len_ln_bound - Decimal(10) ** 12)
    expected = 8 * math.log(2) + 8 * math.log(math.log(10))
    assert abs(excess - expected) < 1e-6
    rep3 = evaluate_bounds(3, 2)
    expected3 = 3 * (1e12 + 8 * math.log(4) + 8 * math.log(math.log(20)))
    assert abs(float(rep3.orbit_len_ln_bound) / expected3 - 1) < 1e-12


def test_orbit_refined_bound_value():
    rep = evaluate_bounds(1, 2)
    expected = (12 * 3 * math.log(10)) ** 4  # the second branch wins at s = 1
    assert abs(float(rep.orbit_len_bound_refined) / expected - 1) < 1e-12
    # for larger s the unit-equation branch takes over
    rep5 = evaluate_bounds(5, 2)
    expected5 = (2**72 + 3) * (60 * math.log(25))
    assert abs(float(rep5.orbit_len_bound_refined) / expected5 - 1) < 1e-12


def test_bounds_monotone_in_s_and_degree():
    int_fields = (
        "per_bound_tails3",
        "tail_bound_periodic4",
        "per_bound_degree",
        "tail_bound_degree",
        "preper_bound_degree",
        "tail_bound_tm",
        "per_bound_tm",
    )
    for d in (2, 5, 8):
        reps = [evaluate_bounds(s, d) for s in range(1, 6)]
        for a, b in zip(reps, reps[1:]):
            for f in int_fields:
                assert getattr(a, f) < getattr(b, f)
            assert a.orbit_len_ln_bound < b.orbit_len_ln_bound
            assert a.orbit_len_bound_refined < b.orbit_len_bound_refined
    for s in (1, 3):
        reps = [evaluate_bounds(s, d) for d in range(2, 9)]
        for a, b in zip(reps, reps[1:]):
            for f in ("per_bound_degree", "tail_bound_degree", "preper_bound_degree", "tail_bound_tm"):
                assert getattr(a, f) < getattr(b, f)
            # the degree-free bounds must not move
            assert a.per_bound_tails3 == b.per_bound_tails3
            assert a.tail_bound_periodic4 == b.tail_bound_periodic4


def test_bounds_reject_bad_input():
    with pytest.raises(ValueError):
        evaluate_bounds(0, 2)
    with pytest.raises(ValueError):
        evaluate_bounds(1, 1)


def test_bounds_refuse_sizes_they_cannot_print():
    # 2^(16*s*d^3) at s = 2, d = 1000 would have 3.2e10 bits; the refusal
    # comes before any of it is allocated.  The largest size in use, s = 5
    # at d = 8, and s = 2 at d = 20 stay within the limit
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            evaluate_bounds(2, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert 16 * 2 * 20**3 <= certify._MAX_BOUND_EXPONENT < 16 * 2 * 21**3
    assert evaluate_bounds(5, 8).per_bound_degree == 2**40960 + 3
    with pytest.raises(ValueError):
        evaluate_bounds(2, 21)


# ---------------------------------------------------------------------------
# bound checking against portraits
# ---------------------------------------------------------------------------


def test_check_bounds_shifted_product():
    report, items = verify_portrait_bounds(build_portrait(shifted_product_d2()))
    assert report.s == 2
    by_name = {i.name: i for i in items}
    assert len(items) == 9
    assert all(i.holds for i in items)
    assert not by_name["periodic_when_tails3"].applicable  # only two tails
    assert not by_name["tails_when_periodic4"].applicable  # only three periodic
    assert by_name["periodic_tm"].applicable
    assert by_name["tails_degree"].observed == 2
    assert by_name["orbit_len_refined"].observed == Decimal(4)


def test_check_bounds_hypothesis_turns_on():
    # z^2 - 2 has three tails, so the tails3 hypothesis is satisfied
    report, items = verify_portrait_bounds(build_portrait(chebyshev_like()))
    assert report.s == 1
    by_name = {i.name: i for i in items}
    assert by_name["periodic_when_tails3"].applicable
    assert by_name["periodic_when_tails3"].observed == 3
    assert all(i.holds for i in items)
    assert by_name["orbit_len_refined"].observed == Decimal(3)  # 0 -> -2 -> 2


def test_check_bounds_flags_fabricated_violation():
    counts = PortraitCounts(
        periodic=10**200,
        tails=3,
        preperiodic=10**200 + 3,
        cycle_lengths=(1,),
        max_tail_depth=1,
        longest_orbit=2,
    )
    items = check_bounds(counts, evaluate_bounds(2, 2))
    by_name = {i.name: i for i in items}
    assert by_name["periodic_when_tails3"].applicable
    assert not by_name["periodic_when_tails3"].holds
    assert not by_name["periodic_degree"].holds
    assert by_name["tails_when_periodic4"].applicable
    assert by_name["tails_when_periodic4"].holds  # 3 <= 4 * 2^32


def test_check_bounds_empty_portrait():
    counts = PortraitCounts(
        periodic=0, tails=0, preperiodic=0, cycle_lengths=(), max_tail_depth=0, longest_orbit=0
    )
    items = check_bounds(counts, evaluate_bounds(1, 2))
    assert all(i.holds for i in items)
    assert all(isinstance(i, BoundCheckItem) for i in items)
