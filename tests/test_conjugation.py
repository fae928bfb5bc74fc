"""Conjugation as a standing correctness check of portraits.

An integer matrix M = [[a, b], [c, d]] of nonzero determinant acts on P^1 by
[x : y] -> [ax + by : cx + dy].  The conjugate psi = M^-1 o phi o M has
PrePer(psi, Q) = M^-1(PrePer(phi, Q)), and M carries every cycle of psi to
one of phi with the same length and multiplier, and every tail of psi to
one of phi with the same depth (Silverman, The Arithmetic of Dynamical
Systems, 2007, ch. 1 and 4).  So the portrait of psi, carried back by M,
must be phi's.  A change of coordinates moves the height bound, and with it
the path build_portrait takes: z -> 1/z makes a polynomial a rational map,
so conjugates are built by the Phi*_n search where phi was scanned, and the
other way round.  The comparison is also run on seeded mutations of a
portrait, each of which it must catch.
"""

import json
import random
from pathlib import Path

import pytest

from preper.dynmap import build_map, preperiodic_height_bound
from preper.forms import BinaryForm, substitute_pair
from preper.portrait import build_portrait
from preper.qarith import ProjPoint

MAPS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "maps.json").read_text())
N_MAX = 4
SWAP, SHIFT = ((0, 1), (1, 0)), ((1, 1), (0, 1))  # z -> 1/z and z -> z + 1
IDENTITY = ((1, 0), (0, 1))


def seeded_matrices(rng, count):
    out = []
    while len(out) < count:
        (a, b), (c, d) = M = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
        if a * d - b * c:
            out.append(M)
    return out


def conjugate(phi, M):
    """psi = M^-1 o phi o M, with M^-1 taken as the adjugate of M."""
    (a, b), (c, d) = M
    F, G = substitute_pair(phi.F, phi.G, BinaryForm((a, b)), BinaryForm((c, d)))
    Fpsi, Gpsi = F.scale(d) - G.scale(b), G.scale(a) - F.scale(c)
    # a form lists X^deg first, and build_map takes ascending powers of z
    return build_map(Fpsi.coeffs[::-1], Gpsi.coeffs[::-1])


def carried(portrait, M):
    """Each point of the portrait moved by M, with what conjugation keeps of it.

    A periodic point keeps its cycle's length and multiplier; a tail keeps
    its depth, and the length and multiplier of the cycle it enters.  The
    cycles are kept as sets of moved points.
    """
    (a, b), (c, d) = M

    def move(P):
        return ProjPoint(a * P.x + b * P.y, c * P.x + d * P.y)

    cycle_of = {pp.point: (pp.primitive_period, pp.multiplier) for pp in portrait.periodic}
    points = {move(P): (0, kept) for P, kept in cycle_of.items()}
    points.update((move(t.point), (t.depth, cycle_of.get(t.entry))) for t in portrait.tails)
    cycles = sorted(sorted(move(P).sort_key() for P in cyc) for cyc in portrait.cycles)
    return points, cycles


def conjugation_problems(phi_portrait, psi_portrait, M):
    """Where psi's portrait, carried back by M, differs from phi's."""
    mine, theirs = carried(phi_portrait, IDENTITY), carried(psi_portrait, M)
    problems = []
    if mine[0].keys() != theirs[0].keys():
        problems.append(f"points differ: {sorted(mine[0].keys() ^ theirs[0].keys(), key=ProjPoint.sort_key)}")
    changed = [P for P in mine[0].keys() & theirs[0].keys() if mine[0][P] != theirs[0][P]]
    if changed:
        problems.append(f"depth, cycle length or multiplier differ at {changed}")
    if mine[1] != theirs[1]:
        problems.append("cycles differ")
    return problems


def harness_maps():
    """The benchmark's oracle-small and generic-roots maps."""
    return [build_map(num, den) for num, den in MAPS["oracle-small"] + MAPS["generic-roots"]]


def conjugate_pairs(rng):
    """(phi, its portrait, M, psi's portrait) over the harness maps and four M each."""
    for phi in harness_maps():
        portrait = build_portrait(phi, N_MAX)
        for M in [SWAP, SHIFT] + seeded_matrices(rng, 2):
            yield phi, portrait, M, build_portrait(conjugate(phi, M), N_MAX)


def test_conjugate_portraits_carry_back():
    paths = set()
    count = 0
    for phi, portrait, M, psi_portrait in conjugate_pairs(random.Random(1414)):
        assert portrait.flags.closed and psi_portrait.flags.closed, (phi, M)
        assert conjugation_problems(portrait, psi_portrait, M) == [], (phi, M)
        paths.add((portrait.flags.scan_height is None, psi_portrait.flags.scan_height is None))
        count += 1
    assert count == 4 * (len(MAPS["oracle-small"]) + len(MAPS["generic-roots"]))
    # the scan and the search check each other in both directions
    assert {(True, False), (False, True)} <= paths, paths


def test_conjugate_of_a_conjugate_is_the_map():
    phi = build_map([-29, 0, 16], [16])
    assert conjugate(conjugate(phi, SWAP), SWAP) == phi
    assert preperiodic_height_bound(conjugate(phi, SWAP)) > preperiodic_height_bound(phi)


def drop_cycle_point(portrait, rng):
    pp = rng.choice(portrait.periodic)
    return portrait._replace(
        periodic=tuple(q for q in portrait.periodic if q != pp),
        cycles=tuple(tuple(P for P in cyc if P != pp.point) for cyc in portrait.cycles),
    )


def negate_multiplier(portrait, rng):
    i = rng.choice([i for i, pp in enumerate(portrait.periodic) if pp.multiplier])
    periodic = list(portrait.periodic)
    periodic[i] = periodic[i]._replace(multiplier=-periodic[i].multiplier)
    return portrait._replace(periodic=tuple(periodic))


def deepen_tail(portrait, rng):
    i = rng.randrange(len(portrait.tails))
    tails = list(portrait.tails)
    tails[i] = tails[i]._replace(depth=tails[i].depth + 1)
    return portrait._replace(tails=tuple(tails))


@pytest.mark.parametrize("mutate", [drop_cycle_point, negate_multiplier, deepen_tail])
def test_harness_catches_a_mutated_portrait(mutate):
    rng = random.Random(mutate.__name__)
    caught = 0
    for phi, portrait, M, psi_portrait in conjugate_pairs(rng):
        if not psi_portrait.tails or not any(pp.multiplier for pp in psi_portrait.periodic):
            continue
        assert conjugation_problems(portrait, mutate(psi_portrait, rng), M), (phi, M)
        caught += 1
        if caught == 20:
            break
    assert caught == 20
