"""Integer binary forms: the polynomial layer under rational maps.

A form of formal degree d is stored as d+1 integer coefficients with
coeffs[i] the coefficient of X^(d-i) Y^i.  The formal degree matters: leading
zeros encode roots at infinity, so they are never stripped implicitly.  Two
views fall out of the indexing for free: f(z, 1) has coefficient list
``coeffs`` read as descending powers of z, and f(1, w) has ``coeffs`` read as
ascending powers of w.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice, zip_longest
from typing import Iterator, NamedTuple, Sequence

from .qarith import (
    InvariantViolation,
    ProjPoint,
    factor,
    is_prime,
    iter_divisors,
)


class InexactDivisionError(ArithmeticError):
    """Raised when a form division leaves a remainder or a non-integer quotient."""


# An operand with fewer nonzero coefficients than this is multiplied by the
# schoolbook loop over nonzero terms; above it, Karatsuba.
_KARATSUBA_CUTOFF = 16


def _product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two coefficient lists.

    Karatsuba (von zur Gathen-Gerhard, Modern Computer Algebra, 8.1) on
    balanced operands; an operand at least twice as long as the other is
    cut into chunks of the shorter one's length.
    """
    if len(a) < len(b):
        a, b = b, a
    m, n = len(a), len(b)
    out = [0] * (m + n - 1)
    if min(m - a.count(0), n - b.count(0)) < _KARATSUBA_CUTOFF:
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    out[i + j] += x * y
    elif m >= 2 * n:
        for s in range(0, m, n):
            for k, c in enumerate(_product(a[s : s + n], b), s):
                out[k] += c
    else:
        h = m // 2
        low, high = _product(a[:h], b[:h]), _product(a[h:], b[h:])
        mid = _product(_add(a[:h], a[h:]), _add(b[:h], b[h:]))
        for k, c in enumerate(low):
            out[k] += c
            mid[k] -= c
        for k, c in enumerate(high):
            out[k + 2 * h] += c
            mid[k] -= c
        for k, c in enumerate(mid, h):
            out[k] += c
    return out


def _add(u: Sequence[int], v: Sequence[int]) -> list[int]:
    return [x + y for x, y in zip_longest(u, v, fillvalue=0)]


def _power(coeffs: Sequence[int], k: int) -> list[int]:
    """Coefficients of the k-th power of a coefficient list, by square-and-multiply."""
    out, base = [1], coeffs
    while k:
        if k & 1:
            out = _product(out, base)
        k >>= 1
        if k:
            base = _product(base, base)
    return out


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous integer form in X, Y of fixed formal degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a form needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(map(operator.index, self.coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def evaluate(self, x: int, y: int) -> int:
        """f(x, y) by Horner in x with a running power of y."""
        r = self.coeffs[0]
        ypow = 1
        for c in self.coeffs[1:]:
            ypow *= y
            r = r * x + c * ypow
        return r

    def evaluate_point(self, P: ProjPoint) -> int:
        return self.evaluate(P.x, P.y)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if len(self.coeffs) > 1 else abs(self.coeffs[0])

    def primitive(self) -> "BinaryForm":
        """Divide out the content; sign fixed so the first nonzero coeff is > 0."""
        c = self.content()
        if c == 0:
            return self
        lead = next(a for a in self.coeffs if a != 0)
        if lead < 0:
            c = -c
        return BinaryForm(tuple(a // c for a in self.coeffs))

    def scale(self, k: int) -> "BinaryForm":
        return BinaryForm(tuple(k * a for a in self.coeffs))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("can only add forms of equal formal degree")
        return BinaryForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("can only subtract forms of equal formal degree")
        return BinaryForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return BinaryForm(tuple(_product(self.coeffs, other.coeffs)))

    def power(self, k: int) -> "BinaryForm":
        if k < 0:
            raise ValueError("negative power of a form")
        return BinaryForm(tuple(_power(self.coeffs, k)))

    def __str__(self) -> str:
        d = self.degree
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            xp, yp = d - i, i
            mon = "*".join(
                ([f"X^{xp}"] if xp > 1 else ["X"] if xp == 1 else [])
                + ([f"Y^{yp}"] if yp > 1 else ["Y"] if yp == 1 else [])
            )
            if not mon:
                term = str(abs(c))
            elif abs(c) == 1:
                term = mon
            else:
                term = f"{abs(c)}*{mon}"
            parts.append(("- " if c < 0 else "+ ") + term)
        if not parts:
            return "0"
        head = parts[0].replace("+ ", "", 1).replace("- ", "-", 1)
        return " ".join([head] + parts[1:])


def form_from_poly(coeffs_ascending: list, degree: int) -> BinaryForm:
    """Homogenize an affine polynomial to a form of the given formal degree.

    coeffs_ascending[i] is the z^i coefficient; entries may be Fraction or
    int, but the result must be integral (clear denominators first).
    """
    if len(coeffs_ascending) - 1 > degree:
        raise ValueError("polynomial degree exceeds target formal degree")
    out = [0] * (degree + 1)
    for i, c in enumerate(coeffs_ascending):
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError("non-integer coefficient; clear denominators first")
            c = c.numerator
        out[degree - i] = int(c)
    return BinaryForm(tuple(out))


def _horner_in_a(
    rows: Sequence[Sequence[tuple[int, ...]]], A: BinaryForm, B: BinaryForm
) -> list[BinaryForm]:
    """sum_i c_i * A^(d-i) * B^i for each row (c_0, ..., c_d) of coefficients.

    Each c_i is the coefficient tuple of a small form, of one degree per row.
    Horner's rule in A: acc <- acc*A + c_i*B^i, starting from acc = c_0, so
    no monomial A^(d-i) B^i is ever formed.  Each power B^i is formed once
    and shared by the rows, so a row pays one form product per coefficient,
    plus d - 1 products for the powers of B in all.  c_i*B^i is a shifted and
    scaled copy of B^i per coefficient of c_i, not a form product.
    """
    if A.degree != B.degree:
        raise ValueError("the forms of a pair must share a degree")
    accs = [BinaryForm(row[0]) for row in rows]
    bpow = B
    for i in range(1, len(rows[0])):
        if i > 1:
            bpow = bpow * B
        b = bpow.coeffs
        for r, row in enumerate(rows):
            acc = list((accs[r] * A).coeffs)
            for shift, c in enumerate(row[i]):
                if c:
                    for k, x in enumerate(b, shift):
                        acc[k] += c * x
            accs[r] = BinaryForm(acc)
    return accs


def substitute_pair(
    F: BinaryForm, G: BinaryForm, A: BinaryForm, B: BinaryForm
) -> tuple[BinaryForm, BinaryForm]:
    """(F(A, B), G(A, B)) by Horner's rule in A, sharing the powers of B.

    acc <- acc*A + f_i*B^i for F and for G: two form products per
    coefficient pair (see _horner_in_a).
    """
    if F.degree != G.degree:
        raise ValueError("the forms of a pair must share a degree")
    f_acc, g_acc = _horner_in_a(
        ([(f,) for f in F.coeffs], [(g,) for g in G.coeffs]), A, B
    )
    return f_acc, g_acc


def period_step(F: BinaryForm, G: BinaryForm, A: BinaryForm, B: BinaryForm) -> BinaryForm:
    """Y*F(A, B) - X*G(A, B), without forming F(A, B) or G(A, B).

    Horner's rule in A with the linear coefficients Y*f_i - X*g_i:
    acc <- acc*A + (Y*f_i - X*g_i)*B^i from acc = Y*f_0 - X*g_0, by the
    Horner loop that substitute_pair runs: one form product per coefficient
    pair where substitute_pair pays two.  With (A, B) = (F_k, G_k) this is
    the period form Y*F_(k+1) - X*G_(k+1), not yet made primitive.
    """
    if F.degree != G.degree:
        raise ValueError("the forms of a pair must share a degree")
    # the form Y*f - X*g has coefficients (-g, f) on (X, Y)
    (acc,) = _horner_in_a(([(-g, f) for f, g in zip(F.coeffs, G.coeffs)],), A, B)
    return acc


def iterate_pairs(F: BinaryForm, G: BinaryForm, n: int) -> Iterator[tuple[BinaryForm, BinaryForm]]:
    """The coordinate forms (F_k, G_k) of the k-th iterate of [F : G], k = 1..n.

    One substitute_pair call per step, and no content division: at good
    primes none is needed.
    """
    if n < 1 or F.degree != G.degree:
        raise ValueError("need n >= 1 and map coordinates of one degree")
    Fk, Gk = F, G
    yield Fk, Gk
    for _ in range(n - 1):
        Fk, Gk = substitute_pair(F, G, Fk, Gk)
        yield Fk, Gk


# ---------------------------------------------------------------------------
# resultant
# ---------------------------------------------------------------------------


def _bareiss(M: Sequence[Sequence[int]], columns: Sequence = ()) -> tuple[int, list[list[int]]]:
    """det M, and adj(M)*c for each column c, from one fraction-free elimination.

    Bareiss (Math. Comp. 1968): step k sets row_i = (pivot*row_i -
    row_i[k]*row_k) / prev, so every entry stays a minor of [M | columns]
    and each division is exact; a row swap flips the sign.  With columns
    this is Gauss-Jordan, which clears the rows above each pivot too and
    ends at det*I beside adj(M)*c; a determinant needs only the rows below.
    A singular M gives (0, []).

    >>> _bareiss([[2, 1], [1, 3]], [[1, 0], [0, 1]])
    (5, [[3, -1], [-1, 2]])
    """
    n, width = len(M), len(M) + len(columns)
    rows = [[*row, *extra] for row, extra in zip_longest(M, zip(*columns), fillvalue=())]
    sign = prev = 1
    for k in range(n):
        if not rows[k][k]:
            p = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if p is None:
                return 0, []
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        row_k = rows[k]
        pivot = row_k[k]
        for row in rows[:k] + rows[k + 1 :] if columns else rows[k + 1 :]:
            head = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - head * row_k[j]) // prev
        prev = pivot
    return sign * prev, [[sign * row[j] for row in rows] for j in range(n, width)]


def _sylvester(F: BinaryForm, G: BinaryForm) -> list[list[int]]:
    """Rows X^(n-1-i) Y^i F (i < n), then X^(m-1-j) Y^j G (j < m).

    Column k holds the coefficient of X^(m+n-1-k) Y^k, for m = deg F and
    n = deg G (formal degrees).
    """
    m, n = F.degree, G.degree
    f, g = list(F.coeffs), list(G.coeffs)
    return [[0] * i + h + [0] * (k - 1 - i) for h, k in ((f, n), (g, m)) for i in range(k)]


def resultant(F: BinaryForm, G: BinaryForm) -> int:
    """Resultant of two forms: the determinant of their Sylvester matrix.

    Formal degrees are used, so common roots at infinity (both leading
    coefficients zero) correctly give 0; two constants give the empty
    determinant 1.
    """
    return _bareiss(_sylvester(F, G))[0]


def resultant_cofactors(
    F: BinaryForm, G: BinaryForm
) -> tuple[int, list[tuple[BinaryForm, BinaryForm]]]:
    """Res(F, G), and for each k < m + n the integer forms (A_k, B_k) of
    degrees n - 1, m - 1 with A_k*F + B_k*G = Res(F, G) * X^(m+n-1-k) * Y^k,
    for m = deg F and n = deg G.

    The coefficients c_k of (A_k, B_k) solve c_k*S = Res(F, G)*e_k for the
    Sylvester matrix S, so c_k = adj(S^T)*e_k: one elimination of S^T beside
    the identity gives Res and every pair.  A zero resultant raises ValueError.
    """
    S = _sylvester(F, G)
    identity = [[int(i == j) for i in range(len(S))] for j in range(len(S))]
    res, adj = _bareiss(list(zip(*S)), identity)
    if res == 0:
        raise ValueError("zero resultant: F and G have a common root")
    n = G.degree
    return res, [(BinaryForm(tuple(c[:n])), BinaryForm(tuple(c[n:]))) for c in adj]


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def _strip_monomials(f: BinaryForm) -> tuple[int, int, tuple[int, ...]]:
    """f = X^a * Y^b * h with h nonzero at both ends; returns (a, b, h-coeffs)."""
    coeffs = f.coeffs
    lead = 0
    while coeffs[lead] == 0:
        lead += 1
    trail = 0
    while coeffs[len(coeffs) - 1 - trail] == 0:
        trail += 1
    core = coeffs[lead : len(coeffs) - trail]
    # coeffs[i] multiplies X^(d-i) Y^i: leading zeros are powers of Y,
    # trailing zeros are powers of X
    return trail, lead, core


def exact_divide(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Quotient f / g in Z[X, Y], or raise InexactDivisionError.

    Integer long division in descending powers of X: a quotient coefficient
    that is not an integer raises, and so does a nonzero remainder.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero form")
    if f.degree < g.degree:
        raise InexactDivisionError("degree of divisor exceeds degree of dividend")
    # leading zeros of g are its powers of Y, and f must have them too
    shift = next(i for i, c in enumerate(g.coeffs) if c)
    if any(f.coeffs[:shift]):
        raise InexactDivisionError("divisor has a power of Y the dividend lacks")
    num = list(f.coeffs[shift:])
    lead, rest = g.coeffs[shift], g.coeffs[shift + 1 :]
    q = []
    for k in range(f.degree - g.degree + 1):
        c, r = divmod(num[k], lead)
        if r:
            raise InexactDivisionError("quotient is not integral")
        q.append(c)
        if c:
            for j, dj in enumerate(rest, k + 1):
                num[j] -= c * dj
    if any(num[len(q) :]):
        raise InexactDivisionError("nonzero remainder")
    return BinaryForm(q)


# ---------------------------------------------------------------------------
# rational roots
# ---------------------------------------------------------------------------

# the residue screen of root candidates uses this many small primes, the
# least ones from _SCREEN_PRIME_MIN up that do not divide the leading
# coefficient; building it costs about p^2 steps per prime, and a non-root
# passes a prime with chance about (roots of the core mod p) / p.  A prime
# with no root at all proves that the core has no rational root.
_SCREEN_PRIME_COUNT = 3
_SCREEN_PRIME_MIN = 61

# the root search lists at most this many signed numerators and tries at most
# this many screened candidates; a search that reaches it is not complete
_CANDIDATE_CAP = 200_000


class RootResult(NamedTuple):
    """Rational roots with multiplicity, and whether the list is certified full.

    complete is True when a screen prime proves that the core has no
    rational root, whatever the factoring did.  Otherwise it degrades to
    False when factor's budget, which the size of each coefficient sets,
    could not fully factor the leading or trailing coefficient, or when the
    candidate walk was capped; the roots returned are still genuine roots.
    The residue screen never rejects a true root.
    """

    roots: tuple[tuple[ProjPoint, int], ...]
    complete: bool

    def points(self) -> set[ProjPoint]:
        return {P for P, _ in self.roots}


def root_multiplicity(f: BinaryForm, P: ProjPoint) -> int:
    """Order of vanishing of f at P, by repeated division by P's linear form."""
    L = BinaryForm((P.y, -P.x))
    m = 0
    while True:
        if f.evaluate_point(P) != 0:
            return m
        f = exact_divide(f, L)
        m += 1


# every _roots_mod_p call reads the slot typecode, so it is cached
@lru_cache(maxsize=64)
def _slot_format(p: int) -> str:
    """The array typecode of the unsigned slots _roots_mod_p packs for p: each holds p^3."""
    for code in "IQ":
        if p**3 < 1 << 8 * array(code).itemsize:
            return code
    raise ValueError(f"no machine word holds {p}^3: the residue screen needs p^3 < 2^64")


def _slots(p: int, packed: int) -> array:
    """The p slots of a packed int, in the typecode of _slot_format(p), slot 0 first."""
    slots = array(_slot_format(p))
    slots.frombytes(packed.to_bytes(p * slots.itemsize, sys.byteorder))
    return slots


# a form needs at most p columns at p, and the screen primes are a few from
# _SCREEN_PRIME_MIN up, so 1024 columns hold them all; the bound keeps a
# long-lived process that meets many primes from growing without end
@lru_cache(maxsize=1024)
def _power_column(p: int, e: int) -> int:
    """r^e mod p for r = 0, ..., p - 1 in slots of _slot_format(p), packed, r = 0 lowest.

    Column 2k is column 2 read at the entries of column k, (r^k)^2, which is
    a gather with no arithmetic; column 2k + 1 is column 2k times r.  So a
    column costs at most one product per residue, where pow(r, e, p) costs
    several, and the columns below e that it needs are about 2*log2(e).
    """
    if e <= 2:
        column = [r**e % p for r in range(p)]
    elif e % 2:
        column = [c * r % p for r, c in enumerate(_slots(p, _power_column(p, e - 1)))]
    else:
        squares = _slots(p, _power_column(p, 2))
        column = operator.itemgetter(*_slots(p, _power_column(p, e // 2)))(squares)
    return int.from_bytes(array(_slot_format(p), column).tobytes(), sys.byteorder)


def _roots_mod_p(coeffs: tuple[int, ...], p: int) -> frozenset[int]:
    """The r in F_p where the polynomial with descending coefficients coeffs vanishes.

    Exponents are first folded modulo x^p - x, which every r in F_p
    satisfies, so at most p power columns enter.  Then every r is evaluated
    at once: the folded coefficients, reduced mod p, weight the packed
    columns r^e mod p in one big-integer sum.  A slot then holds a sum of at
    most p products below p^2, so it stays below p^3 and never carries into
    the next; slot r is read back as the value at r.
    """
    deg = len(coeffs) - 1
    folded = [0] * min(deg + 1, p)
    for i, c in enumerate(coeffs):
        e = deg - i
        if e >= p:
            e = (e - 1) % (p - 1) + 1
        folded[e] += c
    folded = [c % p for c in folded]
    total = sum(c * _power_column(p, e) for e, c in enumerate(folded) if c)
    return frozenset([r for r, v in enumerate(_slots(p, total)) if v % p == 0])


def _residue_screen(core: tuple[int, ...]) -> list[tuple[int, frozenset[int]]]:
    """(p, roots of core(x, 1) mod p) for the screen primes, none dividing core[0]."""
    screen = []
    p = _SCREEN_PRIME_MIN
    while len(screen) < _SCREEN_PRIME_COUNT:
        if core[0] % p and is_prime(p):
            screen.append((p, _roots_mod_p(core, p)))
        p += 1
    return screen


def _screened_candidates(
    lead_factors: tuple[tuple[int, int], ...],
    trail_factors: tuple[tuple[int, int], ...],
    screen: list[tuple[int, frozenset[int]]],
    cap: int,
) -> tuple[list[tuple[int, int]], bool]:
    """The coprime (a, b), a | trail and b | lead, that pass every screen prime.

    Every screen prime must have a root.  The sparsest one, p0, picks the
    candidates: the signed numerators are listed once and bucketed by their
    residue mod p0, and a denominator b visits only the buckets r*b mod p0
    for the roots r mod p0.  Within each b the candidates keep the order of
    the full divisor-pair walk, so a capped walk still covers every root
    that a capped full walk would reach.  Returns the candidates, and False
    when the listing or the walk reached cap, which bounds both.
    """
    p0, roots0 = min(screen, key=lambda s: len(s[1]) / s[0])
    rest = [(p, roots) for p, roots in screen if p != p0]
    signed = (a for a_abs in iter_divisors(trail_factors) for a in (a_abs, -a_abs))
    numerators = list(islice(signed, cap + 1))
    within_cap = len(numerators) <= cap
    del numerators[cap:]
    buckets: dict[int, list[int]] = {}
    for i, a in enumerate(numerators):
        buckets.setdefault(a % p0, []).append(i)
    passed = []
    tried = 0
    for b in iter_divisors(lead_factors):
        checks = [(p, pow(b, -1, p), roots) for p, roots in rest]
        for i in sorted(chain.from_iterable(buckets.get(r * b % p0, ()) for r in roots0)):
            tried += 1
            if tried > cap:
                return passed, False
            a = numerators[i]
            if math.gcd(a, b) != 1:
                continue
            if any(a * b_inv % p not in roots for p, b_inv, roots in checks):
                continue
            passed.append((a, b))
    return passed, within_cap


def rational_roots(f: BinaryForm) -> RootResult:
    """All P in P^1(Q) with f(P) = 0, with multiplicities.

    Method: strip powers of X and Y (roots [0:1] and [1:0]), then run the
    rational root theorem on the remaining core, with candidate numerators
    dividing the trailing coefficient and denominators dividing the leading
    one.  Before any exact evaluation a candidate a/b must reduce, modulo
    each of a few small primes p not dividing the leading coefficient, to a
    root of core(x, 1) mod p; those roots are found once per form.  As b
    divides the leading coefficient it is a unit mod p, and
    core(a, b) = b^deg * core(a/b, 1), so the screen never drops a true root.
    In particular a screen prime with no root proves that the core has no
    rational root: then there is no candidate, and the result is complete.
    factor sets its own curve budget from the size of each end coefficient.
    """
    if f.is_zero:
        raise ValueError("zero form vanishes everywhere")
    work = f.primitive()
    found: list[tuple[ProjPoint, int]] = []
    x_mult, y_mult, core = _strip_monomials(work)
    if y_mult:
        found.append((ProjPoint(1, 0), y_mult))
    if x_mult:
        found.append((ProjPoint(0, 1), x_mult))
    complete = True
    if len(core) > 1:
        lead, trail = core[0], core[-1]
        fr_trail = factor(trail)
        fr_lead = factor(lead)
        screen = _residue_screen(core)
        if all(roots for _, roots in screen):
            candidates, within_cap = _screened_candidates(
                fr_lead.factors, fr_trail.factors, screen, _CANDIDATE_CAP
            )
            complete = fr_trail.complete and fr_lead.complete and within_cap
            core_form = BinaryForm(core)
            for a, b in candidates:
                if core_form.evaluate(a, b) == 0:
                    P = ProjPoint(a, b)
                    found.append((P, root_multiplicity(core_form, P)))
    found.sort(key=lambda pm: pm[0].sort_key())
    if sum(m for _, m in found) > f.degree:
        raise InvariantViolation("root multiplicities exceed the degree")
    return RootResult(roots=tuple(found), complete=complete)
