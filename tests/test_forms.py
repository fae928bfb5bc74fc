"""Binary forms: evaluation, composition, resultants, roots, exact division.

Derived expected values are frozen from independent oracles implemented here
(Fraction Gaussian elimination for determinants, univariate gcd, brute-force
root scans), not from the library code under test.
"""

import math
import random
from fractions import Fraction

import pytest

from preper import forms, qarith
from preper.forms import (
    _KARATSUBA_CUTOFF,
    _SCREEN_PRIME_COUNT,
    _SCREEN_PRIME_MIN,
    BinaryForm,
    _bareiss,
    _residue_screen,
    _strip_monomials,
    InexactDivisionError,
    exact_divide,
    form_from_poly,
    iterate_pairs,
    period_step,
    rational_roots,
    resultant,
    resultant_cofactors,
    substitute_pair,
)
from preper.qarith import ProjPoint, factor, iter_divisors


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def det_fraction_gauss(rows):
    """Plain Gaussian elimination over Fraction: the determinant oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] * inv
            if factor:
                for j in range(k, n):
                    m[i][j] -= factor * m[k][j]
    return det


def solve_fraction(rows, rhs):
    """x with rows * x = rhs, for a nonsingular matrix, over Fraction."""
    m = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    n = len(m)
    for k in range(n):
        pivot_row = next(i for i in range(k, n) if m[i][k] != 0)
        m[k], m[pivot_row] = m[pivot_row], m[k]
        for i in range(n):
            if i != k and m[i][k]:
                factor = m[i][k] / m[k][k]
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return [m[i][n] / m[i][i] for i in range(n)]


def sylvester_rows(F: BinaryForm, G: BinaryForm):
    m, n = F.degree, G.degree
    f, g = list(F.coeffs), list(G.coeffs)
    rows = [[0] * i + f + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * j + g + [0] * (m - 1 - j) for j in range(m)]
    return rows


def resultant_oracle(F: BinaryForm, G: BinaryForm) -> int:
    d = det_fraction_gauss(sylvester_rows(F, G))
    assert d.denominator == 1
    return d.numerator


def _strip_lead(p):
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _poly_mod(a, b):
    """a mod b on descending Fraction coefficient lists, b nonzero."""
    a = _strip_lead(list(a))
    while len(a) >= len(b):
        c = a[0] / b[0]
        a = [ai - c * bi for ai, bi in zip(a, b)] + a[len(b):]
        a = _strip_lead(a)
    return a


def forms_have_common_factor(F: BinaryForm, G: BinaryForm) -> bool:
    """gcd oracle: univariate Fraction Euclid plus a shared root at infinity."""
    if F.coeffs[0] == 0 and G.coeffs[0] == 0:
        return True  # both divisible by Y
    a = _strip_lead([Fraction(c) for c in F.coeffs])
    b = _strip_lead([Fraction(c) for c in G.coeffs])
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) > 1


def brute_roots(f: BinaryForm, bound: int) -> set:
    out = set()
    for P in (ProjPoint(1, 0), ProjPoint(0, 1)):
        if f.evaluate_point(P) == 0:
            out.add(P)
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if math.gcd(a, b) == 1 and f.evaluate(a, b) == 0:
                out.add(ProjPoint(a, b))
    return out


def schoolbook_product(a, b):
    """Every coefficient product, zeros included: the form-product oracle."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_coeffs(rng, length, bits, zero_share=0.0):
    """Signed coefficients of up to `bits` bits, some of them zero."""
    return [
        0 if rng.random() < zero_share else rng.choice((-1, 1)) * rng.randrange(1, 2**bits + 1)
        for _ in range(length)
    ]


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------


def test_form_basics():
    f = BinaryForm((1, -3, 2))
    assert f.degree == 2
    assert f.evaluate(2, 1) == 4 - 6 + 2
    assert f.evaluate_point(ProjPoint(1, 0)) == 1
    assert str(f) == "X^2 - 3*X*Y + 2*Y^2"
    assert str(BinaryForm((0, 1, -1, 0))) == "X^2*Y - X*Y^2"


@pytest.mark.parametrize("coeffs", [(Fraction(1, 2), 3), (2.7, 1), ("5", 1)])
def test_form_rejects_coefficients_that_are_not_integers(coeffs):
    # int() would truncate the first two to 0 and 2 and parse the string
    with pytest.raises(TypeError):
        BinaryForm(coeffs)


def test_evaluate_against_power_sum():
    rng = random.Random(4)
    for _ in range(200):
        d = rng.randrange(0, 7)
        f = BinaryForm(tuple(rng.randrange(-9, 10) for _ in range(d + 1)))
        x, y = rng.randrange(-20, 21), rng.randrange(-20, 21)
        naive = sum(c * x ** (d - i) * y**i for i, c in enumerate(f.coeffs))
        assert f.evaluate(x, y) == naive


def test_form_from_poly():
    # z^2 - 3z + 2 homogenized to degree 2
    f = form_from_poly([2, -3, 1], 2)
    assert f == BinaryForm((1, -3, 2))
    # constant 1 homogenized to degree 2 is Y^2
    assert form_from_poly([1], 2) == BinaryForm((0, 0, 1))
    with pytest.raises(ValueError):
        form_from_poly([1, 2, 3], 1)
    with pytest.raises(ValueError):
        form_from_poly([Fraction(1, 2)], 1)


def test_content_primitive():
    f = BinaryForm((-4, -6, -2))
    assert f.content() == 2
    assert f.primitive() == BinaryForm((2, 3, 1))
    assert BinaryForm((0, 5, 0)).primitive() == BinaryForm((0, 1, 0))


def test_arithmetic_and_power():
    f = BinaryForm((1, 1))  # X + Y
    g = BinaryForm((1, -1))  # X - Y
    assert f * g == BinaryForm((1, 0, -1))
    assert f.power(3) == BinaryForm((1, 3, 3, 1))
    assert f.power(0) == BinaryForm((1,))
    assert (f + g) == BinaryForm((2, 0))
    with pytest.raises(ValueError):
        f + BinaryForm((1, 0, 0))
    # an integer multiple is f.scale(k); a tuple's repetition would be
    # wrong, and neither order of the product may reach for .coeffs
    with pytest.raises(TypeError, match="unsupported operand"):
        2 * BinaryForm((1, 2))
    with pytest.raises(TypeError, match="unsupported operand"):
        BinaryForm((1, 2)) * 2
    assert BinaryForm((1, 2)).scale(2) == BinaryForm((2, 4))


def test_form_product_matches_schoolbook():
    # lengths 1..300 around the Karatsuba cutoff, unbalanced pairs, runs of
    # zeros and zero ends, coefficients of 1..2000 bits of both signs
    rng = random.Random(8101962)
    c = _KARATSUBA_CUTOFF
    lengths = [(L, L) for L in (c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1)]
    lengths += [(L, 2 * L + k) for L in (c - 1, c, c + 1) for k in (-1, 0, 1, 5)]
    lengths += [(1, 1), (1, 300), (300, 1), (300, 300), (c, 300), (299, c + 1)]
    dense = len(lengths)  # these keep every coefficient nonzero
    while len(lengths) < 300:
        m = int(math.exp(rng.uniform(0, math.log(300))))
        n = m if rng.random() < 0.4 else rng.randrange(1, max(2, m // 2 + 1))
        lengths.append((m, n) if rng.random() < 0.5 else (n, m))
    unbalanced = 0
    for case, (m, n) in enumerate(lengths):
        bits = int(math.exp(rng.uniform(0, math.log(2000)))) if m * n < 20000 else rng.randrange(1, 200)
        a = random_coeffs(rng, m, bits, rng.choice((0.0, 0.0, 0.3, 0.9)) if case >= dense else 0.0)
        b = random_coeffs(rng, n, rng.randrange(1, bits + 1), rng.choice((0.0, 0.3)) if case >= dense else 0.0)
        for coeffs in (a, b) if case >= dense else ():
            if len(coeffs) > 4 and rng.random() < 0.3:
                i = rng.randrange(len(coeffs))
                j = min(len(coeffs), i + rng.randrange(1, len(coeffs)))
                coeffs[i:j] = [0] * (j - i)
            if rng.random() < 0.2:
                coeffs[0] = 0
            if rng.random() < 0.2:
                coeffs[-1] = 0
        product = BinaryForm(tuple(a)) * BinaryForm(tuple(b))
        assert product.degree == m + n - 2
        assert list(product.coeffs) == schoolbook_product(a, b), (m, n, bits)
        unbalanced += min(m, n) >= c and max(m, n) >= 2 * min(m, n)
    assert unbalanced >= 20


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_iterate_pairs_z2_plus_1():
    # z^2 + 1: second iterate numerator (z^2+1)^2 + 1, denominator 1
    F, G = BinaryForm((1, 0, 1)), BinaryForm((0, 0, 1))
    (F1, G1), (F2, G2) = iterate_pairs(F, G, 2)
    assert F2 == BinaryForm((1, 0, 2, 0, 2))
    assert G2 == BinaryForm((0, 0, 0, 0, 1))
    assert (F1, G1) == (F, G)


def test_iterate_pairs_degree_growth():
    F, G = BinaryForm((1, -3, 2)), BinaryForm((1, 0, 0))
    for n, (Fn, Gn) in enumerate(iterate_pairs(F, G, 4), 1):
        assert Fn.degree == Gn.degree == 2**n


def test_compose_matches_affine_iteration():
    # F_n/G_n evaluated at a point equals n-fold affine iteration
    rng = random.Random(12)
    F, G = BinaryForm((1, 1, -1)), BinaryForm((0, 1, 3))
    for _ in range(50):
        z = Fraction(rng.randrange(-8, 9), rng.randrange(1, 7))
        n = rng.randrange(1, 4)
        w = z
        bad = False
        for _ in range(n):
            den = w + 3
            if den == 0:
                bad = True
                break
            w = (w * w + w - 1) / den
        if bad:
            continue
        *_, (Fn, Gn) = iterate_pairs(F, G, n)
        x, y = z.numerator, z.denominator
        assert Fraction(Fn.evaluate(x, y), Gn.evaluate(x, y)) == w


def test_substitute_pair_matches_pointwise_evaluation():
    # F(A, B)(x, y) = F(A(x, y), B(x, y)), the same for G, and period_step
    # gives y*F(a, b) - x*G(a, b), with inner forms long enough to cross the
    # Karatsuba cutoff; outer pairs of degree 2..8
    # with zero first coefficients and G = X^d as in ex51/ex52
    rng = random.Random(1962)
    for case in range(40):
        d = 2 + case % 7
        F = BinaryForm(tuple(random_coeffs(rng, d + 1, rng.randrange(1, 40), 0.2)))
        if case % 4 == 0:
            G = BinaryForm((1,) + (0,) * d)
        else:
            G = BinaryForm(tuple(random_coeffs(rng, d + 1, rng.randrange(1, 40), 0.2)))
        if case % 4 == 1:
            F = BinaryForm((0,) + F.coeffs[1:])
        if case % 4 == 2:
            G = BinaryForm((0,) + G.coeffs[1:])
        e = rng.randrange(_KARATSUBA_CUTOFF - 2, 3 * _KARATSUBA_CUTOFF)
        A = BinaryForm(tuple(random_coeffs(rng, e + 1, rng.randrange(1, 300), 0.1)))
        B = BinaryForm(tuple(random_coeffs(rng, e + 1, rng.randrange(1, 300), 0.1)))
        FA, GA = substitute_pair(F, G, A, B)
        top = period_step(F, G, A, B)
        assert FA.degree == GA.degree == top.degree - 1 == d * e
        for _ in range(4):
            x, y = rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)
            a, b = A.evaluate(x, y), B.evaluate(x, y)
            assert FA.evaluate(x, y) == F.evaluate(a, b)
            assert GA.evaluate(x, y) == G.evaluate(a, b)
            assert top.evaluate(x, y) == y * F.evaluate(a, b) - x * G.evaluate(a, b)


def test_substitute_rejects_degree_mismatch():
    outer = BinaryForm((1, 0))
    for step in (substitute_pair, period_step):
        with pytest.raises(ValueError):
            step(outer, outer, BinaryForm((1, 0)), BinaryForm((1, 0, 0)))
        with pytest.raises(ValueError):
            step(outer, BinaryForm((1, 0, 0)), BinaryForm((1, 0)), BinaryForm((0, 1)))


# ---------------------------------------------------------------------------
# resultant
# ---------------------------------------------------------------------------


def test_resultant_frozen_values():
    assert resultant(BinaryForm((1, 0, 0)), BinaryForm((0, 0, 1))) == 1
    assert resultant(BinaryForm((1, -3, 2)), BinaryForm((1, 0, 0))) == 4


def test_resultant_matches_fraction_gauss_oracle():
    rng = random.Random(271828)
    for _ in range(150):
        dm = rng.randrange(1, 5)
        dn = rng.randrange(1, 5)
        F = BinaryForm(tuple(rng.randrange(-6, 7) for _ in range(dm + 1)))
        G = BinaryForm(tuple(rng.randrange(-6, 7) for _ in range(dn + 1)))
        if F.is_zero or G.is_zero:
            continue
        assert resultant(F, G) == resultant_oracle(F, G)


def test_resultant_zero_iff_common_factor():
    # both directions against the univariate-gcd oracle, plus constructed
    # shared-factor pairs to make sure the zero branch is exercised
    rng = random.Random(5150)
    zero_seen = nonzero_seen = 0
    for _ in range(150):
        A = BinaryForm(tuple(rng.randrange(-5, 6) for _ in range(rng.randrange(2, 5))))
        B = BinaryForm(tuple(rng.randrange(-5, 6) for _ in range(rng.randrange(2, 5))))
        if A.is_zero or B.is_zero:
            continue
        assert (resultant(A, B) == 0) == forms_have_common_factor(A, B)
        L = BinaryForm((rng.randrange(1, 5), rng.randrange(-4, 5)))
        assert resultant(L * A, L * B) == 0
        assert forms_have_common_factor(L * A, L * B)
        zero_seen += 1
        if resultant(A, B) != 0:
            nonzero_seen += 1
    assert zero_seen > 50 and nonzero_seen > 50


def test_resultant_shared_root_at_infinity():
    # both leading coefficients zero: common root [1:0], resultant 0
    F = BinaryForm((0, 1, 2))
    G = BinaryForm((0, 3, -1))
    assert resultant(F, G) == 0


def test_resultant_multiplicativity():
    rng = random.Random(31)
    for _ in range(60):
        A = BinaryForm(tuple(rng.randrange(-4, 5) for _ in range(3)))
        B = BinaryForm(tuple(rng.randrange(-4, 5) for _ in range(2)))
        C = BinaryForm(tuple(rng.randrange(-4, 5) for _ in range(3)))
        if A.is_zero or B.is_zero or C.is_zero:
            continue
        assert resultant(A * B, C) == resultant(A, C) * resultant(B, C)


def test_resultant_cofactors_identities():
    # A_k*F + B_k*G = Res(F, G) * X^(2d-1-k) * Y^k exactly, for every
    # monomial index k, on random map coordinates of degree 2..8.  A third
    # of the maps are polynomials, G = c*Y^d, whose Sylvester rows start
    # with zeros, and a third have F(1, 0) = 0
    rng = random.Random(4242)
    checked = 0
    while checked < 63:
        d, kind = 2 + checked % 7, checked // 7 % 3
        F = [rng.randrange(-9, 10) for _ in range(d + 1)]
        G = [rng.randrange(-9, 10) for _ in range(d + 1)]
        if kind == 1:
            G = [0] * d + [rng.choice((-3, 1, 2, 5))]
        elif kind == 2:
            F[0] = 0
        F, G = BinaryForm(tuple(F)), BinaryForm(tuple(G))
        R = resultant(F, G)
        if R == 0:
            continue
        checked += 1
        res, pairs = resultant_cofactors(F, G)
        assert res == R and len(pairs) == 2 * d
        for k, (A, B) in enumerate(pairs):
            assert A.degree == d - 1 and B.degree == d - 1
            monomial = [0] * (2 * d)
            monomial[k] = R
            assert A * F + B * G == BinaryForm(tuple(monomial))


def test_resultant_cofactors_refuse_a_zero_resultant():
    # X*(X - Y) and X*Y share the root [0:1]; F(1, 0) = G(1, 0) = 0 share [1:0]
    for F, G in (
        (BinaryForm((1, -1, 0)), BinaryForm((0, 1, 0))),
        (BinaryForm((0, 1, 2)), BinaryForm((0, 0, 3))),
    ):
        assert resultant(F, G) == 0
        with pytest.raises(ValueError):
            resultant_cofactors(F, G)


def test_empty_determinant_is_one():
    assert _bareiss([]) == (1, [])
    assert resultant(BinaryForm((5,)), BinaryForm((-3,))) == 1
    assert resultant_cofactors(BinaryForm((5,)), BinaryForm((-3,))) == (1, [])


def test_bareiss_against_fraction_oracle():
    # det M, and adj(M)*c = det(M) * M^-1 * c, on sparse random matrices whose
    # zero pivots force row swaps; singular ones give (0, [])
    rng = random.Random(1968)
    singular = 0
    for _ in range(300):
        n = rng.randrange(1, 7)
        M = [[rng.choice((0, rng.randrange(-5, 6))) for _ in range(n)] for _ in range(n)]
        columns = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(2)]
        det = det_fraction_gauss(M)
        got_det, got_columns = _bareiss(M, columns)
        assert got_det == det == _bareiss(M)[0]
        if det == 0:
            assert got_columns == []
            singular += 1
            continue
        want = [[det * x for x in solve_fraction(M, c)] for c in columns]
        assert got_columns == want
    assert 30 < singular < 200


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_exact_divide_examples():
    X3mY3 = BinaryForm((1, 0, 0, -1))
    XmY = BinaryForm((1, -1))
    assert exact_divide(X3mY3, XmY) == BinaryForm((1, 1, 1))
    f = BinaryForm((3, 1, -2))
    assert exact_divide(f, f) == BinaryForm((1,))
    with pytest.raises(InexactDivisionError):
        exact_divide(BinaryForm((1, 0, 0)), BinaryForm((0, 1)))  # X^2 / Y
    with pytest.raises(InexactDivisionError):
        exact_divide(BinaryForm((1, 0, 1)), BinaryForm((1, -1)))
    with pytest.raises(InexactDivisionError):
        # exact over Q but quotient X/2 not integral
        exact_divide(BinaryForm((1, 1, 0)), BinaryForm((2, 2)))
    with pytest.raises(ZeroDivisionError):
        exact_divide(BinaryForm((1, 0)), BinaryForm((0, 0)))


def test_exact_divide_round_trip():
    rng = random.Random(909)
    for _ in range(200):
        df = rng.randrange(0, 4)
        dg = rng.randrange(0, 4)
        f = BinaryForm(tuple(rng.randrange(-7, 8) for _ in range(df + 1)))
        g = BinaryForm(tuple(rng.randrange(-7, 8) for _ in range(dg + 1)))
        if f.is_zero or g.is_zero:
            continue
        assert exact_divide(f * g, g) == f


def test_exact_divide_monomial_bookkeeping():
    # X^2 Y * (X+Y) divided by XY leaves X(X+Y)
    f = BinaryForm((0, 1, 1, 0))  # X^2 Y + X Y^2
    g = BinaryForm((0, 1, 0))  # XY
    q = exact_divide(f, g)
    assert q == BinaryForm((1, 1))
    with pytest.raises(InexactDivisionError):
        exact_divide(BinaryForm((1, 1)), g)


# ---------------------------------------------------------------------------
# rational roots
# ---------------------------------------------------------------------------


def test_rational_roots_examples():
    # XY(X-Y): the three fixed points of z^2
    f = BinaryForm((0, 1, -1, 0))
    rr = rational_roots(f)
    assert dict(rr.roots) == {
        ProjPoint(1, 0): 1,
        ProjPoint(0, 1): 1,
        ProjPoint(1, 1): 1,
    }
    assert rr.complete


def test_rational_roots_multiplicity():
    # (X - 2Y)^3 (3X + Y) (X^2 + Y^2): exact multiplicities, no fake roots
    f = (
        BinaryForm((1, -2)).power(3)
        * BinaryForm((3, 1))
        * BinaryForm((1, 0, 1))
    )
    rr = rational_roots(f)
    assert dict(rr.roots) == {ProjPoint(2, 1): 3, ProjPoint(-1, 3): 1}
    assert rr.complete


def test_rational_roots_against_brute_scan():
    rng = random.Random(62)
    checked = 0
    for _ in range(250):
        d = rng.randrange(1, 7)
        f = BinaryForm(tuple(rng.randrange(-30, 31) for _ in range(d + 1)))
        if f.is_zero:
            continue
        rr = rational_roots(f)
        assert rr.complete
        bound = max(abs(c) for c in f.coeffs)
        assert rr.points() == brute_roots(f, bound)
        checked += 1
    assert checked > 200


HARD_SEMIPRIME = (2**127 - 1) * (2**89 - 1)
STARVED_CURVES = 1


@pytest.fixture
def starved_budget(monkeypatch):
    # ten rho steps and one curve, at every input size
    monkeypatch.setattr(qarith, "_RHO_STEPS", 10)
    monkeypatch.setattr(qarith, "_ECM_CURVES", STARVED_CURVES)
    monkeypatch.setattr(qarith, "_ECM_LARGE_CURVES", STARVED_CURVES)


def test_rational_roots_incomplete_when_budget_starved(starved_budget):
    # leading and trailing coefficients are a hard semiprime; with a starved
    # factoring budget the finder must degrade its completeness claim.  The
    # core has a root mod every screen prime, so no prime proves it rootless
    core = (HARD_SEMIPRIME, 1, 1, HARD_SEMIPRIME)
    assert all(roots for _, roots in _residue_screen(core))
    rr = rational_roots(BinaryForm(core))
    assert not rr.complete


ROOTLESS_MOD_67 = (HARD_SEMIPRIME, 0, 2, HARD_SEMIPRIME)


@pytest.mark.parametrize(
    "f, want",
    [
        (BinaryForm(ROOTLESS_MOD_67), {}),
        # X^2 * Y * core: the roots [0:1] and [1:0] stay
        (BinaryForm((0,) + ROOTLESS_MOD_67 + (0, 0)), {ProjPoint(1, 0): 1, ProjPoint(0, 1): 2}),
    ],
)
def test_rational_roots_complete_when_a_screen_prime_has_no_root(f, want, starved_budget):
    # the same hard ends and starved budget, but the core has no root mod 67
    # (a screen prime other than the first): no rational root can exist,
    # whatever the factoring did
    assert [p for p, roots in _residue_screen(ROOTLESS_MOD_67) if not roots] == [67]
    rr = rational_roots(f)
    assert rr.complete
    assert dict(rr.roots) == want


def test_rational_roots_respects_candidate_cap(monkeypatch):
    core = (2 * 3 * 5 * 7 * 11 * 13, 1, 1, 2 * 3 * 5 * 7 * 11 * 13)
    assert all(roots for _, roots in _residue_screen(core))
    monkeypatch.setattr(forms, "_CANDIDATE_CAP", 10)
    rr = rational_roots(BinaryForm(core))
    assert not rr.complete


def _divisors_by_trial(n):
    n = abs(n)
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def full_divisor_walk_roots(f: BinaryForm) -> set:
    """Every coprime a/b with a | trail and b | lead, evaluated exactly: the
    rational-root-theorem oracle, with no screen.  Small end coefficients only."""
    out = {P for P in (ProjPoint(1, 0), ProjPoint(0, 1)) if f.evaluate_point(P) == 0}
    core = list(f.coeffs)
    while core[0] == 0:
        core.pop(0)
    while core[-1] == 0:
        core.pop()
    h = BinaryForm(tuple(core))
    for b in _divisors_by_trial(core[0]):
        for a_abs in _divisors_by_trial(core[-1]):
            for a in (a_abs, -a_abs):
                if math.gcd(a, b) == 1 and h.evaluate(a, b) == 0:
                    out.add(ProjPoint(a, b))
    return out


def test_rational_roots_matches_full_divisor_walk():
    # planted linear factors (bX - aY), some with 61 | b so that 61 divides
    # the leading coefficient and drops out of the screen, times a random
    # cofactor; the sparsest screen prime is not always the first one
    rng = random.Random(91)
    sparsest_not_first = lead_61 = with_roots = 0
    for trial in range(150):
        f = BinaryForm(tuple(rng.randrange(-9, 10) or 1 for _ in range(rng.randrange(1, 4))))
        for _ in range(rng.randrange(0, 4)):
            b = 61 * rng.randrange(1, 3) if trial % 4 == 0 else rng.randrange(1, 13)
            f = f * BinaryForm((b, -rng.randrange(-12, 13)))
        if rng.random() < 0.2:
            f = f * BinaryForm((1, 0))
        if f.is_zero:
            continue
        want = full_divisor_walk_roots(f)
        rr = rational_roots(f)
        assert rr.points() == want, f
        assert rr.complete
        _, _, core = _strip_monomials(f.primitive())
        if len(core) > 1:
            screen = _residue_screen(core)
            p0 = min(screen, key=lambda s: len(s[1]) / s[0])[0]
            sparsest_not_first += p0 != screen[0][0]
            lead_61 += core[0] % 61 == 0
        with_roots += bool(want)
    assert sparsest_not_first >= 10 and lead_61 >= 10 and with_roots >= 50


def capped_full_walk(f: BinaryForm, cap: int) -> tuple[set, bool]:
    """The roots among the first `cap` candidates of the rational root theorem
    walk (denominators outer, signed numerators inner, both in iter_divisors
    order), and whether that walk was cut."""
    lead, trail = f.coeffs[0], f.coeffs[-1]
    pairs = [
        (a, b)
        for b in iter_divisors(factor(lead).factors)
        for a_abs in iter_divisors(factor(trail).factors)
        for a in (a_abs, -a_abs)
    ]
    roots = {ProjPoint(a, b) for a, b in pairs[:cap] if math.gcd(a, b) == 1 and f.evaluate(a, b) == 0}
    return roots, len(pairs) > cap


def test_capped_walk_keeps_the_roots_of_a_capped_full_walk(monkeypatch):
    # the screened walk, capped like the full walk, finds at least the full
    # walk's roots, and is cut only if the full walk was
    rng = random.Random(17)
    cores = []
    for _ in range(40):
        f = BinaryForm((1,))
        for _ in range(rng.randrange(2, 6)):
            f = f * BinaryForm((rng.choice((1, 1, 2, 3)), rng.choice((-1, 1)) * rng.randrange(1, 7)))
        cores.append((f.primitive(), rng.randrange(1, 30)))
    # (2X - Y) * g with g = (X^2 - Y^2)(X + Y/2)(X + 2Y) mod 61*67*71 and g(0, 1) = -1:
    # the candidates with b = 2 reach the cap in the middle of their
    # allowed residue classes, and the root 1/2 comes first in divisor order
    M = 61 * 67 * 71
    g = BinaryForm((1, 0, -1)) * BinaryForm((1, pow(2, -1, M))) * BinaryForm((1, 2))
    g = BinaryForm(tuple(c % M for c in g.coeffs[:-1]) + (-1,))
    cores += [(BinaryForm((2, -1)) * g, cap) for cap in range(1, 6)]
    for f, cap in cores:
        want, cut = capped_full_walk(f, cap)
        monkeypatch.setattr(forms, "_CANDIDATE_CAP", cap)
        rr = rational_roots(f)
        assert want <= rr.points(), (f, cap)
        assert rr.complete or cut
    assert ProjPoint(1, 2) in capped_full_walk(cores[-3][0], 3)[0]


def _is_prime_by_trial(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_residue_screen_matches_brute_evaluation():
    # cores of degree below and above the screen primes, so that the fold
    # modulo x^p - x runs; some leading coefficients are divisible by the
    # least primes, so that the screen must skip them
    rng = random.Random(3)
    skip = 61 * 67 * 71
    folded = skipped = 0
    for trial in range(60):
        deg = rng.choice((rng.randrange(1, 40), rng.randrange(90, 220)))
        f = BinaryForm((rng.randrange(1, 10**6),))
        for _ in range(rng.randrange(0, min(deg, 12) + 1)):
            f = f * BinaryForm((rng.randrange(1, 50), rng.randrange(-200, 201)))
        f = f * BinaryForm(
            tuple(rng.randrange(-(10**30), 10**30) for _ in range(deg - f.degree + 1))
        )
        if trial % 3 == 0:
            f = f.scale(skip)
        core = f.coeffs
        if core[0] == 0:
            continue
        want_primes = [
            p for p in range(_SCREEN_PRIME_MIN, 10**4) if _is_prime_by_trial(p) and core[0] % p
        ][:_SCREEN_PRIME_COUNT]
        screen = _residue_screen(core)
        assert [p for p, _ in screen] == want_primes
        for p, roots in screen:
            assert roots == {r for r in range(p) if f.evaluate(r, 1) % p == 0}
        folded += f.degree >= want_primes[-1]
        skipped += want_primes[0] != _SCREEN_PRIME_MIN
    assert folded >= 10 and skipped >= 10


def _roots_by_horner(coeffs, p):
    """The loop the packed sum replaced: Horner's rule at every r, mod p."""
    roots = set()
    for r in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * r + c) % p
        if acc == 0:
            roots.add(r)
    return roots


def test_roots_mod_p_packed_sum_matches_horner():
    # the packed sum against Horner's rule: primes on both sides of the
    # 4-byte slot (p^3 < 2^32 up to p = 1621, 8-byte slots above 2^11),
    # degrees at and above p so that the fold runs, coefficients of p - 1
    # in every column, and forms that vanish mod p at every r
    rng = random.Random(61)
    assert forms._slot_format(1621) == "I" and forms._slot_format(2053) == "Q"
    with pytest.raises(ValueError, match="needs p\\^3 < 2\\^64"):
        forms._slot_format(2**22 + 15)
    cases = [((1,) + (0,) * 59 + (-1, 0), 61), ((1,) + (0,) * 65 + (-1, 0), 67)]  # x^p - x
    cases += [(tuple(61 * rng.randrange(-99, 100) for _ in range(7)), 61)]
    cases += [((-1,) * 200, 61), ((60,) * 150, 71)]
    for p in (2, 3, 61, 67, 71, 1621, 2053, 4099):
        for deg in (1, 2, 5, p - 1, p, p + 1, 3 * p + 2):
            if deg <= 400:
                cases.append((tuple(rng.randrange(-(10**9), 10**9) for _ in range(deg + 1)), p))
    for coeffs, p in cases:
        assert forms._roots_mod_p(coeffs, p) == _roots_by_horner(coeffs, p), (p, len(coeffs))
    # every column against pow, from a cold cache: each builds on lower ones
    forms._power_column.cache_clear()
    for p in (2, 3, 61, 67, 2053):
        for e in reversed(range(min(p, 130))):
            column = forms._slots(p, forms._power_column(p, e))
            assert list(column) == [pow(r, e, p) for r in range(p)], (p, e)
    assert forms._roots_mod_p(cases[0][0], 61) == set(range(61))
    assert forms._roots_mod_p(cases[2][0], 61) == set(range(61))


def test_power_column_cache_stays_bounded():
    # a long-lived process screens forms at many primes; the packed columns
    # and slot typecodes it keeps are capped by the cache sizes, not by the
    # primes it has seen
    maxsize = forms._power_column.cache_info().maxsize
    coeffs = tuple(range(1, 20))
    primes = [p for p in range(101, 10**4) if _is_prime_by_trial(p)][:100]
    assert len(primes) * len(coeffs) > maxsize
    for p in primes:
        assert forms._roots_mod_p(coeffs, p) == _roots_by_horner(coeffs, p)
    assert forms._power_column.cache_info().currsize == maxsize
    formats = forms._slot_format.cache_info()
    assert formats.currsize == formats.maxsize < len(primes)


def test_rational_roots_planted_roots():
    # products of linear forms (bX - aY) with large denominators and
    # multiplicities up to 3, times an Eisenstein (at 2) factor, which has
    # no rational root; its odd leading and trailing parts give the
    # screen many non-roots to reject
    rng = random.Random(44)
    cap = 200_000
    checked = 0
    while checked < 12:
        planted = {}
        lin = BinaryForm((1,))
        for _ in range(rng.randrange(1, 5)):
            b = rng.randrange(1, 10**6 + 1)
            a = rng.randrange(-(10**6), 10**6 + 1)
            if math.gcd(a, b) != 1 or ProjPoint(a, b) in planted:
                continue
            m = rng.randrange(1, 4)
            planted[ProjPoint(a, b)] = m
            lin = lin * BinaryForm((b, -a)).power(m)
        k = rng.randrange(40, 81) - lin.degree
        middle = tuple(2 * rng.randrange(-(10**9), 10**9) for _ in range(k - 1))
        irreducible = BinaryForm((3 * 5 * 7 * 11 * 13,) + middle + (2 * 3 * 5 * 7 * 17,))
        f = lin * irreducible
        core = f.primitive().coeffs
        ends = factor(core[0]).factors + factor(core[-1]).factors
        n_cand = 2 * math.prod(e + 1 for _, e in ends)  # signed divisor-pair candidates
        if n_cand > cap:
            continue
        rr = rational_roots(f)
        assert 40 <= f.degree <= 80
        assert dict(rr.roots) == planted
        assert rr.complete
        checked += 1
