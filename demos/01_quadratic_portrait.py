"""Walk through the complete preperiodic portrait of z^2 - 2.

The map z -> z^2 - 2 is a polynomial with integer coefficients and unit
resultant, so it has good reduction at every prime: the only place of bad
reduction is the archimedean one. Its rational preperiodic points form a
small functional graph that this script computes and prints exactly.
"""

from preper import build_map, build_portrait, classify
from preper.cli import portrait_to_dot


def main() -> None:
    phi = build_map([-2, 0, 1], [1])  # numerator -2 + 0*z + z^2, denominator 1
    print(f"map: {phi}")
    print(f"resultant: {phi.res} (unit, so good reduction everywhere)")
    print(f"bad primes: {phi.bad_primes}")
    print()

    portrait = build_portrait(phi, n_max=6)
    counts = classify(portrait)
    print(f"{counts.preperiodic} rational preperiodic points: "
          f"{counts.periodic} periodic, {counts.tails} in tails")
    print()

    print("cycles (as the periodic search walked them, from the least point):")
    for cycle in portrait.cycles:
        route = " -> ".join(str(P) for P in cycle)
        print(f"  {route} (length {len(cycle)})")
    print()

    print("tail points, with how deep they sit above the cycle:")
    for tail in portrait.tails:
        print(f"  {tail.point} -> {tail.image}   depth {tail.depth}, "
              f"lands on the cycle at {tail.entry}")
    print()

    print("the same graph in GraphViz DOT form (periodic points doubly circled):")
    print(portrait_to_dot(portrait))


if __name__ == "__main__":
    main()
