"""Family generators and their machine-checked claims."""

import random
from fractions import Fraction

import pytest

from preper import families
from preper.dynmap import InvariantViolation
from preper.families import (
    FamilySpec,
    family_portrait,
    generate,
    verify_claims,
)
from preper.forms import BinaryForm
from preper.portrait import build_portrait
from preper.dynmap import build_map
from preper.qarith import INFINITY, ProjPoint


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("ex53", 2)
    with pytest.raises(ValueError):
        FamilySpec("ex51", 0)
    with pytest.raises(ValueError):
        FamilySpec("ex52", 1)
    assert FamilySpec("ex51", 3).degree == 7
    assert FamilySpec("ex52", 5).degree == 5


def test_generate_frozen_small_members():
    phi51 = generate(FamilySpec("ex51", 1))
    assert phi51.F == BinaryForm((2, -5, 7, -2))
    assert phi51.G == BinaryForm((2, 0, 0, 0))
    phi52 = generate(FamilySpec("ex52", 2))
    assert phi52.F == BinaryForm((1, -3, 2))
    assert phi52.G == BinaryForm((1, 0, 0))
    assert phi52.res == 4


def test_generate_bad_primes_exactly_two():
    for d in (1, 2, 3):
        assert set(generate(FamilySpec("ex51", d)).bad_primes) == {2}
    for d in range(2, 7):
        phi = generate(FamilySpec("ex52", d))
        assert set(phi.bad_primes) == {2}
        assert phi.degree == d


def test_generate_matches_direct_product_construction():
    # rebuild ex52 numerators from scratch with Fraction arithmetic
    rng = random.Random(99)
    for d in (2, 3, 5):
        phi = generate(FamilySpec("ex52", d))
        for _ in range(20):
            z = Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))
            num = Fraction(1)
            for i in range(d):
                num *= z - 2**i
            if z == 0:
                continue
            expected = num / z**d
            fx = phi.F.evaluate(z.numerator, z.denominator)
            gx = phi.G.evaluate(z.numerator, z.denominator)
            assert Fraction(fx, gx) == expected


def test_generate_rejects_a_member_without_its_defining_data(monkeypatch):
    # generate checks the map it built: the family's degree, and bad
    # reduction at 2 alone
    real = build_map
    monkeypatch.setattr(families, "build_map", lambda num, den: real([0, 0, 1], [1]))
    with pytest.raises(InvariantViolation, match="built degree 2, wanted 3"):
        generate(FamilySpec("ex51", 1))
    # (z^2 + 3)/z^2 has degree 2, as ex52 d=2 does, but bad reduction at 3
    monkeypatch.setattr(families, "build_map", lambda num, den: real([3, 0, 1], [0, 0, 1]))
    with pytest.raises(InvariantViolation, match=r"bad reduction at \[3\] beyond 2"):
        generate(FamilySpec("ex52", 2))


def test_family_n_max_tracks_degree():
    for family, d, n_max in (
        ("ex52", 2, 6),
        ("ex52", 4, 4),
        ("ex52", 7, 3),
        ("ex51", 1, 6),
        ("ex51", 2, 4),
        ("ex51", 3, 3),
    ):
        assert family_portrait(FamilySpec(family, d)).flags.n_max == n_max


def test_claims_ex52_small():
    spec = FamilySpec("ex52", 2)
    port = family_portrait(spec)
    assert port.flags.n_max == 6
    report = verify_claims(spec, port)
    assert report.all_hold, report.failures()
    assert report.observed_periodic == 3
    assert report.observed_tails == 2


def test_claims_ex52_growth_fixed_horizon():
    tails = []
    for d in range(2, 7):
        spec = FamilySpec("ex52", d)
        report = verify_claims(spec, family_portrait(spec, 3))
        assert report.all_hold, report.failures()
        assert report.observed_tails >= d - 1
        tails.append(report.observed_tails)
    assert all(a <= b for a, b in zip(tails, tails[1:]))


def test_claims_ex51_d1():
    spec = FamilySpec("ex51", 1)
    port = family_portrait(spec)
    report = verify_claims(spec, port)
    assert report.all_hold, report.failures()
    assert report.observed_periodic == 3  # the fixed point and one 2-cycle
    tail_points = {t.point for t in port.tails}
    # the preimage closure finds a third tail point beyond 0 and infinity:
    # f(2/5) = 1, so 2/5 hangs off the fixed point
    assert tail_points == {ProjPoint(0, 1), INFINITY, ProjPoint(2, 5)}


def test_claims_ex51_range():
    # degrees 5 and 7: the default horizon is 4, then 3
    for d, n_max in ((2, 4), (3, 3)):
        spec = FamilySpec("ex51", d)
        port = family_portrait(spec)
        assert port.flags.n_max == n_max
        report = verify_claims(spec, port)
        assert report.all_hold, report.failures()
        assert report.observed_periodic >= 2 * d + 1


def test_claims_fail_on_wrong_portrait():
    # handing the verifier a portrait of a different map must be detected
    spec = FamilySpec("ex52", 2)
    wrong = build_portrait(build_map([0, 0, 1], [1]))
    report = verify_claims(spec, wrong)
    assert not report.all_hold
    names = {c.name for c in report.failures()}
    assert "orbit_chain_0_inf_1_0" in names
