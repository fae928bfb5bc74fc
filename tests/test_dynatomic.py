"""Dynatomic forms, formal periods, multipliers, periodic point search."""

import random
from fractions import Fraction

import pytest

from preper import dynatomic, forms
from preper.dynatomic import (
    dynatomic_records,
    formal_period_degree,
    mobius,
    multiplier,
    rational_periodic_points,
)
from preper.dynmap import DegenerateMapError, InvariantViolation, apply, build_map
from preper.families import FamilySpec, generate
from preper.forms import BinaryForm, RootResult, exact_divide, root_multiplicity
from preper.portrait import _search_portrait, default_period_cap
from preper.qarith import INFINITY, ProjPoint

# classical table, frozen independently of the library's mobius()
MU = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 12: 0}


def z_squared():
    return build_map([0, 0, 1], [1])


def z_squared_minus_z():
    return build_map([0, -1, 1], [1])


def shifted_product_d2():
    return build_map([2, -3, 1], [0, 0, 1])  # (z-1)(z-2)/z^2


def reciprocal_family_d1():
    # 1/z + (z - 1/2)(z - 1)(z - 2)/z^3, cleared: degree-3 map
    num = [Fraction(-1), Fraction(7, 2), Fraction(-5, 2), Fraction(1)]
    den = [0, 0, 0, 1]
    return build_map(num, den)


def test_mobius_against_table():
    for n, mu in MU.items():
        assert mobius(n) == mu


def test_period_form_z2():
    records = dynatomic_records(z_squared(), 4)
    assert records[0].period_form == BinaryForm((0, 1, -1, 0))  # XY(X-Y)
    # degree d^n + 1 for every n
    for rec in records:
        assert rec.period_form.degree == 2**rec.n + 1


def test_period_form_roots_are_periodic_points():
    # the 3-cycle 0 -> inf -> 1 vanishes on Phi_3 but not Phi_1
    records = dynatomic_records(shifted_product_d2(), 3)
    phi3 = records[2].period_form
    phi1 = records[0].period_form
    for P in (ProjPoint(0, 1), INFINITY, ProjPoint(1, 1)):
        assert phi3.evaluate_point(P) == 0
        assert phi1.evaluate_point(P) != 0


def test_dynatomic_z2_frozen_forms():
    records = dynatomic_records(z_squared(), 4)
    assert records[1].star_form == BinaryForm((1, 1, 1))  # X^2+XY+Y^2
    assert records[3].star_form == BinaryForm(
        (1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1)
    )  # (X^15-Y^15)/(X^3-Y^3)


def test_dynatomic_baker_pair_degenerates_to_a_square():
    # z^2 - z has multiplier -1 at the fixed point 0; the (n,d) = (2,2)
    # dynatomic form collapses onto it: Phi*_2 = X^2, no exact 2-cycle at all
    assert dynatomic_records(z_squared_minus_z(), 2)[-1].star_form == BinaryForm((1, 0, 0))


def test_degree_identity_grid():
    # deg Phi*_n == sum_{k|n} mu(n/k) (d^k + 1), mu from the frozen table
    for d in range(2, 7):
        phi = build_map([0] * d + [1], [1])  # z^d
        for rec in dynatomic_records(phi, 6):
            n = rec.n
            expected = sum(
                MU[n // k] * (d**k + 1) for k in range(1, n + 1) if n % k == 0
            )
            assert rec.star_form.degree == expected
            assert formal_period_degree(d, n) == expected


def test_dynatomic_reconstruction():
    # product over k | n of Phi*_k equals Phi_n up to sign/content
    maps = [z_squared(), shifted_product_d2(), build_map([1, 0, 1], [1])]
    rng = random.Random(140)
    while len(maps) < 6:
        try:
            maps.append(
                build_map(
                    [rng.randrange(-5, 6) for _ in range(3)],
                    [rng.randrange(-5, 6) for _ in range(3)],
                )
            )
        except DegenerateMapError:
            continue
    for phi in maps:
        records = dynatomic_records(phi, 6)
        for n in (1, 2, 3, 4, 6):
            prod = None
            for k in range(1, n + 1):
                if n % k:
                    continue
                star = records[k - 1].star_form
                prod = star if prod is None else prod * star
            assert prod is not None
            assert prod.primitive() == records[n - 1].period_form.primitive()


def _mobius_quotient(records, n):
    """Phi*_n as Moebius inversion groups it: the Phi_k with mu(n/k) = 1 over
    those with mu(n/k) = -1, by one exact division, made primitive."""
    num = den = BinaryForm((1,))
    for k in range(1, n + 1):
        if n % k == 0 and MU[n // k] == 1:
            num = num * records[k - 1].period_form
        elif n % k == 0 and MU[n // k] == -1:
            den = den * records[k - 1].period_form
    return exact_divide(num, den).primitive()


def test_star_forms_equal_the_mobius_quotient():
    # Phi*_n by division through the lower Phi*_k against the grouped quotient
    rng = random.Random(1995)
    checked = {2: 0, 3: 0, 4: 0}
    while min(checked.values()) < 3:
        d = rng.choice(sorted(checked))
        try:
            phi = build_map(
                [rng.randrange(-4, 5) for _ in range(d + 1)],
                [rng.randrange(-4, 5) for _ in range(d + 1)],
            )
        except DegenerateMapError:
            continue
        n_max = {2: 6, 3: 5, 4: 4}[phi.degree]
        records = dynatomic_records(phi, n_max)
        for rec in records:
            assert rec.star_form == _mobius_quotient(records, rec.n), (phi, rec.n)
            assert rec.star_form.degree == formal_period_degree(phi.degree, rec.n)
        checked[phi.degree] += 1


def _formal_period_cases():
    """(map, n_max) pairs for the formal-period check.

    z^2 - z at n_max 1, 2 and 4 (its fixed point 0 has multiplier -1), z^2,
    and seeded random maps of degree 2 and 3, a third of them with a planted
    fixed point 0 of multiplier -1.
    """
    cases = [(z_squared_minus_z(), n_max) for n_max in (1, 2, 4)]
    cases.append((z_squared(), 4))
    rng = random.Random(2718)
    while len(cases) < 104:
        d = rng.choice([2, 3])
        num = [rng.randint(-4, 4) for _ in range(d + 1)]
        den = [rng.randint(-4, 4) for _ in range(d + 1)]
        if len(cases) % 3 == 0 and den[0]:
            num[0], num[1] = 0, -den[0]  # phi(0) = 0, phi'(0) = num[1]/den[0]
        try:
            cases.append((build_map(num, den), 4 if d == 2 else 3))
        except DegenerateMapError:
            continue
    return cases


def test_formal_periods_follow_the_multiplier():
    # formal periods read off lambda equal the n with Phi*_n(P) = 0
    witnesses = {"2m <= n_max": 0, "2m > n_max": 0}
    points = 0
    for phi, n_max in _formal_period_cases():
        records = dynatomic_records(phi, n_max)
        for pp in _search_portrait(phi, n_max).periodic:
            points += 1
            vanishing = tuple(
                rec.n for rec in records if rec.star_form.evaluate_point(pp.point) == 0
            )
            assert pp.formal_periods == vanishing, (phi, pp)
            if pp.multiplier == -1:
                fits = 2 * pp.primitive_period <= n_max
                witnesses["2m <= n_max" if fits else "2m > n_max"] += 1
    assert all(witnesses.values()), witnesses
    assert points > 80


def _formal_period_orders(phi, point, n_max):
    """n -> order of vanishing of Phi*_n at point, for 1 <= n <= n_max."""
    return {rec.n: root_multiplicity(rec.star_form, point) for rec in dynatomic_records(phi, n_max)}


def test_formal_period_orders_simple_fixed_point():
    phi = z_squared()
    assert _formal_period_orders(phi, ProjPoint(1, 1), 4) == {1: 1, 2: 0, 3: 0, 4: 0}
    found = {pp.point: pp for pp in _search_portrait(phi, 4).periodic}
    assert found[ProjPoint(1, 1)].formal_periods == (1,)


def test_formal_period_orders_multiplier_minus_one():
    # a fixed point with multiplier -1 picks up a second formal period
    phi = z_squared_minus_z()
    assert _formal_period_orders(phi, ProjPoint(0, 1), 4) == {1: 1, 2: 2, 3: 0, 4: 0}
    assert multiplier(phi, ProjPoint(0, 1), 1) == Fraction(-1)
    found = {pp.point: pp for pp in _search_portrait(phi, 4).periodic}
    assert found[ProjPoint(0, 1)].formal_periods == (1, 2)


def test_at_most_two_formal_periods():
    maps = [z_squared(), z_squared_minus_z(), shifted_product_d2(), reciprocal_family_d1()]
    for phi in maps:
        for pp in _search_portrait(phi, 4).periodic:
            assert 1 <= len(pp.formal_periods) <= 2
            assert pp.primitive_period in pp.formal_periods


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def poly_derivative(asc):
    return [i * c for i, c in enumerate(asc)][1:]


def eval_asc(asc, t):
    r = Fraction(0)
    for c in reversed(asc):
        r = r * t + c
    return r


def rational_derivative_oracle(num_asc, den_asc, t):
    """(num/den)'(t) straight from the quotient rule, all Fractions."""
    n, d = eval_asc(num_asc, t), eval_asc(den_asc, t)
    dn, dd = eval_asc(poly_derivative(num_asc), t), eval_asc(poly_derivative(den_asc), t)
    return (dn * d - n * dd) / (d * d)


def test_multiplier_fixed_points_z2():
    phi = z_squared()
    assert multiplier(phi, ProjPoint(0, 1), 1) == 0
    assert multiplier(phi, ProjPoint(1, 1), 1) == 2
    assert multiplier(phi, INFINITY, 1) == 0


def test_multiplier_cycle_through_infinity():
    phi = shifted_product_d2()
    # 0 -> inf -> 1 -> 0: the pole at 0 has local degree 2, so the cycle is
    # superattracting
    lam = multiplier(phi, ProjPoint(0, 1), 3)
    assert lam == 0


def test_multiplier_affine_two_cycle_against_oracle():
    phi = reciprocal_family_d1()
    num = [Fraction(-1), Fraction(7, 2), Fraction(-5, 2), Fraction(1)]
    den = [Fraction(0), 0, 0, 1]
    lam_oracle = rational_derivative_oracle(num, den, Fraction(2)) * rational_derivative_oracle(
        num, den, Fraction(1, 2)
    )
    assert lam_oracle == Fraction(-1, 8)  # frozen from the oracle by hand too
    assert multiplier(phi, ProjPoint(2, 1), 2) == lam_oracle


def test_multiplier_against_oracle_random_fixed_points():
    # fabricate maps with a fixed point at z = 1 by construction, then compare
    # the library's chart chain rule with the direct quotient rule
    rng = random.Random(4096)
    checked = 0
    while checked < 40:
        num = [rng.randrange(-6, 7) for _ in range(3)]
        den = [rng.randrange(-6, 7) for _ in range(3)]
        num[0] = sum(den) - num[1] - num[2]  # forces num(1) = den(1)
        try:
            phi = build_map(num, den)
        except DegenerateMapError:
            continue
        if phi.G.evaluate(1, 1) == 0 or sum(den) == 0:
            continue
        assert multiplier(phi, ProjPoint(1, 1), 1) == rational_derivative_oracle(
            [Fraction(c) for c in num], [Fraction(c) for c in den], Fraction(1)
        )
        checked += 1


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _form_at(coeffs, A, B):
    """sum of coeffs[i] * A^(d-i) * B^i for linear ascending polynomials A, B."""
    d = len(coeffs) - 1
    out = [0] * (d + 1)
    for i, c in enumerate(coeffs):
        term = [c]
        for lin in [A] * (d - i) + [B] * i:
            term = _poly_mul(term, lin)
        for k, t in enumerate(term):
            out[k] += t
    return out


def _conjugate(F, G, a):
    """psi o [F : G] o psi^-1 for psi(z) = 1/(z - a), as ascending num and den in w.

    psi^-1 [w : 1] = [a*w + 1 : w] and psi [x : y] = [y : x - a*y].
    """
    f, g = _form_at(F, [1, a], [0, 1]), _form_at(G, [1, a], [0, 1])
    return g, [x - a * y for x, y in zip(f, g)]


def test_multiplier_matches_quotient_rule_on_random_cycles():
    # every cycle of length <= 3 of random maps of degree 2 and 3; the cycle
    # is moved off infinity by a conjugation psi(z) = 1/(z - a), a not on
    # the cycle, so that each point and its image are finite, and the
    # multiplier is the product of the conjugate's derivatives along it
    rng = random.Random(339)
    seen = {(m, through_inf): 0 for m in (1, 2, 3) for through_inf in (False, True)}
    for _ in range(300):
        d = rng.choice([2, 3])
        F = [rng.randint(-3, 3) for _ in range(d + 1)]
        G = [rng.randint(-3, 3) for _ in range(d + 1)]
        num, den = F[::-1], G[::-1]
        if rng.random() < 0.25:  # plant 0 -> inf -> 1 -> 0 when the values allow
            G[-1], G[0] = 0, F[0]
            F[-1] = -sum(F[:-1])
            num, den = F[::-1], G[::-1]
            if rng.random() < 0.5:  # or its conjugate -1/2 -> 0 -> -1 -> -1/2
                num, den = _conjugate(F, G, 2)
        try:
            phi = build_map(num, den)
        except DegenerateMapError:
            continue
        cycles = {}
        for pp in _search_portrait(phi, 3).periodic:
            cycle = [pp.point]
            for _ in range(pp.primitive_period - 1):
                cycle.append(apply(phi, cycle[-1]))
            cycles.setdefault(frozenset(cycle), cycle)
        for cycle in cycles.values():
            a = next(a for a in range(-9, 10) if ProjPoint(a, 1) not in cycle)
            num, den = _conjugate(phi.F.coeffs, phi.G.coeffs, a)
            lam = Fraction(1)
            for P in cycle:
                lam *= rational_derivative_oracle(num, den, Fraction(P.y, P.x - a * P.y))
            assert multiplier(phi, cycle[0], len(cycle)) == lam
            seen[len(cycle), INFINITY in cycle] += 1
    assert all(seen.values()), seen


def test_multiplier_rejects_wrong_period():
    phi = z_squared()
    with pytest.raises(ValueError):
        multiplier(phi, ProjPoint(2, 1), 1)
    with pytest.raises(ValueError):
        multiplier(phi, ProjPoint(1, 1), 2)


# ---------------------------------------------------------------------------
# periodic point search
# ---------------------------------------------------------------------------


def test_periodic_search_z2():
    res = rational_periodic_points(z_squared(), 4)
    assert res.roots_complete
    assert res.points == {ProjPoint(0, 1), ProjPoint(1, 1), INFINITY}
    periodic = _search_portrait(z_squared(), 4).periodic
    assert {pp.point for pp in periodic} == res.points
    assert all(pp.primitive_period == 1 for pp in periodic)


def test_periodic_search_three_cycle():
    res = rational_periodic_points(shifted_product_d2(), 6)
    assert res.points == {ProjPoint(0, 1), INFINITY, ProjPoint(1, 1)}
    periodic = _search_portrait(shifted_product_d2(), 6).periodic
    assert {pp.point for pp in periodic} == res.points
    for pp in periodic:
        assert pp.primitive_period == 3
        assert pp.multiplier == 0
        assert pp.formal_periods == (3,)


def test_periodic_search_two_cycle():
    res = rational_periodic_points(reciprocal_family_d1(), 4)
    pts = {pp.point: pp for pp in _search_portrait(reciprocal_family_d1(), 4).periodic}
    assert set(pts) == res.points
    assert ProjPoint(1, 1) in pts and pts[ProjPoint(1, 1)].primitive_period == 1
    assert pts[ProjPoint(2, 1)].primitive_period == 2
    assert pts[ProjPoint(1, 2)].primitive_period == 2
    assert pts[ProjPoint(2, 1)].multiplier == Fraction(-1, 8)


def test_periodic_search_closes_cycles():
    # every member of a found cycle appears, not just the root that exposed it
    res = rational_periodic_points(shifted_product_d2(), 3)
    assert len(res.points) == 3


def test_periodic_search_rejects_a_horizon_below_one():
    for n_max in (0, -2):
        with pytest.raises(ValueError):
            rational_periodic_points(z_squared(), n_max)


def test_periodic_search_rejects_a_root_that_is_not_periodic(monkeypatch):
    # the search walks each root's cycle and raises when a root comes back
    # from the root finder that does not return within n steps: 2 under z^2
    # wanders
    wandering = RootResult(roots=((ProjPoint(2, 1), 1),), complete=True)
    monkeypatch.setattr(dynatomic, "rational_roots", lambda f: wandering)
    with pytest.raises(InvariantViolation, match="not n-periodic"):
        rational_periodic_points(z_squared(), 2)


def test_periodic_search_walks_the_iterate_chain_once(monkeypatch):
    # one step kernel call per iterate step, n_max - 1 of them for the whole
    # search: substitute_pair for F_2 .. F_(n_max - 1), then period_step for
    # the top period form
    steps = []

    def counting(module, name):
        step = getattr(module, name)

        def counted(*args):
            steps.append(name)
            return step(*args)

        monkeypatch.setattr(module, name, counted)

    counting(forms, "substitute_pair")
    counting(dynatomic, "period_step")
    res = rational_periodic_points(shifted_product_d2(), 6)
    assert len(res.points) == 3
    assert steps == ["substitute_pair"] * 4 + ["period_step"]


def _random_map(rng, d, *, denominator=None, zero_lead=False):
    """A seeded map of degree d, coefficients in [-9, 9] with some zeros.

    denominator "x^d" gives G = X^d and "1" gives G = Y^d; zero_lead makes
    F(1, 0) = 0.
    """
    while True:
        num = [rng.choice((0, rng.randint(-9, 9))) for _ in range(d)] + [rng.randint(1, 9)]
        if denominator == "x^d":
            den = [0] * d + [1]
        elif denominator == "1":
            den = [1]
        else:
            den = [rng.choice((0, rng.randint(-9, 9))) for _ in range(d + 1)]
            den[d] = den[d] or 1
        if zero_lead:
            num[d], den[d] = 0, rng.randint(1, 9)
        try:
            return build_map(num, den)
        except DegenerateMapError:
            continue


def _period_forms_from_pairs(phi, n):
    return [
        (BinaryForm((0,) + Fk.coeffs) - BinaryForm(Gk.coeffs + (0,))).primitive()
        for Fk, Gk in forms.iterate_pairs(phi.F, phi.G, n)
    ]


def test_period_forms_match_the_full_iterate_pairs():
    # Phi_n from period_step equals (Y*F_n - X*G_n).primitive() from the
    # full pairs, on seeded maps with zero coefficients, G = X^d, G = Y^d
    # (polynomials) and F with a zero leading coefficient; degree 2..5 and
    # n = 1..5 while d^n <= 625 keeps the reference pairs affordable
    rng = random.Random(2016)
    kinds = [{}, {"denominator": "x^d"}, {"denominator": "1"}, {"zero_lead": True}]
    cases = [(d, n) for d in range(2, 6) for n in range(1, 6) if d**n <= 625]
    for i, (d, n) in enumerate(cases):
        for kind in kinds:
            phi = _random_map(rng, d, **kind)
            if "zero_lead" in kind:
                assert phi.F.coeffs[0] == 0
            got = dynatomic._period_forms(phi, n)
            assert got == _period_forms_from_pairs(phi, n), (d, n, kind, i)
            assert got[-1].degree == d**n + 1


@pytest.mark.parametrize(
    "spec",
    [FamilySpec("ex52", d) for d in range(2, 9)] + [FamilySpec("ex51", d) for d in range(1, 4)],
    ids=lambda spec: f"{spec.family}-d{spec.d}",
)
def test_period_forms_match_the_full_iterate_pairs_on_the_families(spec):
    phi = generate(spec)
    n = default_period_cap(spec.degree)
    assert dynatomic._period_forms(phi, n) == _period_forms_from_pairs(phi, n)


def test_baker_exceptional_pairs():
    # the formal degree is positive for every pair, Baker's exceptional ones
    # (n, d) = (2, 2), (2, 3), (3, 2), (4, 2) included: there Phi*_n has
    # roots that need not have exact period n (deg Phi*_2 = 2 at d = 2)
    for d in range(2, 9):
        for n in range(1, 7):
            assert formal_period_degree(d, n) > 0
