"""Dynatomic polynomials: how the periodic-point search actually works.

The period-n points of a degree-d map [F : G] are roots of the binary form
Phi_n = Y*F_n - X*G_n of degree d^n + 1. Mobius inversion over divisors
splits off the part belonging to period exactly n (the dynatomic form
Phi*_n), whose roots have FORMAL period n. Formal and primitive period can
disagree, but for each point at most two formal periods ever occur, and the
disagreeing case is tied to a multiplier that is a root of unity.
"""

from preper import ProjPoint, build_map, multiplier
from preper.dynatomic import dynatomic_records, formal_period_degree
from preper.forms import root_multiplicity


def main() -> None:
    phi = build_map([0, 0, 1], [1])  # the squaring map
    print(f"map: {phi}")
    print(f"{'n':>2} {'deg Phi*_n':>11} {'formula':>8} {'matches':>8}")
    for rec in dynatomic_records(phi, 6):
        deg, formula = rec.star_form.degree, formal_period_degree(2, rec.n)
        print(f"{rec.n:>2} {deg:>11} {formula:>8} {str(deg == formula):>8}")
    print()
    print("Phi*_2 for the squaring map is X^2 + XY + Y^2: its roots are the")
    print("primitive sixth roots of unity, the genuine 2-cycle. No rational roots.")
    print()

    # the classical collision: z^2 - z has a fixed point with multiplier -1,
    # so the formal period-2 form vanishes there even though no exact
    # 2-cycle exists; 0 carries formal periods {1, 2}
    psi = build_map([0, -1, 1], [1])
    zero = ProjPoint(0, 1)
    print(f"map: {psi}")
    orders = {rec.n: root_multiplicity(rec.star_form, zero) for rec in dynatomic_records(psi, 4)}
    positive = sorted(n for n, a in orders.items() if a > 0)
    print(f"formal period multiplicities of 0: {orders}")
    print(f"formal periods of 0: {positive} (two of them, never more)")
    print(f"multiplier of 0 as a fixed point: {multiplier(psi, zero, 1)}")
    print("a multiplier of -1 (a second root of unity) is exactly what lets")
    print("the period-2 dynatomic form vanish at a fixed point.")


if __name__ == "__main__":
    main()
