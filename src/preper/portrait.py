"""Complete rational preperiodic portraits.

A preperiodic point is one with a finite forward orbit: after some number of
steps (its tail depth) it lands on a cycle. The set of rational preperiodic
points is closed under taking rational preimages, and every rational
preperiodic point sits above a rational cycle, so the whole portrait can be
recovered in two stages: find the rational cycles through dynatomic forms,
then saturate under preimages. Both stages report whether their root searches
were exhaustive, and the portrait carries those flags.

`brute_force_preperiodic` is the independent cross-check: it classifies every
point up to a height bound by direct iteration, sharing verdicts along orbits
so large scans stay cheap. No preperiodic point lies above the map's
preperiodic height bound (`dynmap.preperiodic_height_bound`: the
Call-Silverman escape height, or for a polynomial the smaller bound its
places give), so an orbit that passes it wanders, and no point above it is
ever enumerated or iterated further. The scan walks bare coordinate pairs
a row (one y) at a time and steps each row through `dynmap.image_row`, the
one map-step kernel, which checks that gcd(F, G) divides Res(F, G) at every
pair. Nearly every scanned point leaves the bound in one step; such a point
is settled by that one step, with no verdict or path kept, and only the
points returned are made into ProjPoints.
"""

import math
from typing import Iterator, NamedTuple, Optional

from .dynatomic import PeriodicPoint, rational_periodic_points
from .dynmap import RationalMap, image_pair, image_row, preimages, preperiodic_height_bound
from .qarith import ProjPoint

MAX_PORTRAIT_POINTS = 10**5


class PortraitOverflowError(RuntimeError):
    """Raised when preimage saturation exceeds the point budget."""


def default_period_cap(degree: int) -> int:
    """Default search depth for cycle lengths, smaller for costly degrees.

    Every degree keeps the periods 3 and 2 that the ex52 and ex51 claims need.
    """
    if degree <= 3:
        return 6
    return 4 if degree <= 5 else 3


class TailRecord(NamedTuple):
    """A strictly preperiodic point and its route into the cycles.

    depth is the least k >= 1 with phi^k(point) periodic, image is the single
    forward step phi(point), and entry is phi^depth(point), the first periodic
    point the orbit reaches.
    """

    point: ProjPoint
    depth: int
    image: ProjPoint
    entry: ProjPoint


class CompletenessFlags(NamedTuple):
    """What the portrait computation can vouch for.

    roots_complete covers the dynatomic root searches, preimages_complete the
    root searches during preimage saturation, and bad_primes_complete the
    factorization of the resultant. closed means the portrait provably
    contains every rational preperiodic point whose cycle length is at most
    n_max; longer cycles, if any exist, are outside the search horizon.
    """

    n_max: int
    roots_complete: bool
    preimages_complete: bool
    bad_primes_complete: bool

    @property
    def closed(self) -> bool:
        return self.roots_complete and self.preimages_complete


class PortraitCounts(NamedTuple):
    periodic: int
    tails: int
    preperiodic: int
    cycle_lengths: tuple[int, ...]
    max_tail_depth: int
    longest_orbit: int


class Portrait(NamedTuple):
    """All rational preperiodic points of a map, with orbit structure.

    cycles are the ones the periodic search walked: each listed once in
    orbit order from its least point, and the cycles by their least points.
    """

    phi: RationalMap
    periodic: tuple[PeriodicPoint, ...]
    cycles: tuple[tuple[ProjPoint, ...], ...]
    tails: tuple[TailRecord, ...]
    flags: CompletenessFlags

    def points(self) -> list[ProjPoint]:
        """Every preperiodic point, in the canonical (y, x) order."""
        pts = [pp.point for pp in self.periodic] + [t.point for t in self.tails]
        return sorted(pts, key=ProjPoint.sort_key)


def build_portrait(phi: RationalMap, n_max: Optional[int] = None) -> Portrait:
    """Compute the rational preperiodic portrait of phi.

    Cycles of length up to n_max are found first, then the preimage closure
    is taken. Saturation always terminates on genuine inputs because the
    portrait is finite, but a hard cap guards the search anyway.
    """
    if n_max is None:
        n_max = default_period_cap(phi.degree)
    search = rational_periodic_points(phi, n_max)
    periodic_points = {pp.point for pp in search.points}

    # a point first met as a preimage of Q maps to Q, so its depth and entry
    # follow from Q's: a periodic Q has depth 0 and is its own entry
    route = {P: (0, P) for P in periodic_points}
    frontier = sorted(periodic_points, key=ProjPoint.sort_key)
    tails = []
    preimages_complete = True
    while frontier:
        fresh = []
        for Q in frontier:
            pre = preimages(phi, Q)
            preimages_complete = preimages_complete and pre.complete
            depth, entry = route[Q][0] + 1, route[Q][1]
            for P in sorted(pre.points, key=ProjPoint.sort_key):
                if P not in route:
                    route[P] = (depth, entry)
                    tails.append(TailRecord(point=P, depth=depth, image=Q, entry=entry))
                    fresh.append(P)
        if len(route) > MAX_PORTRAIT_POINTS:
            raise PortraitOverflowError(
                f"preimage closure exceeded {MAX_PORTRAIT_POINTS} points"
            )
        frontier = fresh
    tails.sort(key=lambda t: t.point.sort_key())

    flags = CompletenessFlags(
        n_max=n_max,
        roots_complete=search.roots_complete,
        preimages_complete=preimages_complete,
        bad_primes_complete=phi.bad_primes_complete,
    )
    return Portrait(
        phi=phi,
        periodic=search.points,
        cycles=search.cycles,
        tails=tuple(tails),
        flags=flags,
    )


def classify(portrait: Portrait) -> PortraitCounts:
    """Headline statistics of a portrait."""
    period_of = {pp.point: pp.primitive_period for pp in portrait.periodic}
    cycle_lengths = tuple(sorted(len(c) for c in portrait.cycles))
    max_depth = max((t.depth for t in portrait.tails), default=0)
    orbit_lengths = [pp.primitive_period for pp in portrait.periodic]
    orbit_lengths += [t.depth + period_of[t.entry] for t in portrait.tails]
    return PortraitCounts(
        periodic=len(portrait.periodic),
        tails=len(portrait.tails),
        preperiodic=len(portrait.periodic) + len(portrait.tails),
        cycle_lengths=cycle_lengths,
        max_tail_depth=max_depth,
        longest_orbit=max(orbit_lengths, default=0),
    )


def _coprime_rows(height_bound: int) -> Iterator[tuple[int, list[int]]]:
    """The normal-form pairs of rational_points_up_to by rows (y, xs), in its order.

    The row y = 0 holds infinity alone; each row y >= 1 holds the x in
    [-height_bound, height_bound] coprime to y.
    """
    if height_bound < 1:
        raise ValueError("height bound must be at least 1")
    yield 0, [1]
    for y in range(1, height_bound + 1):
        # a non-coprime pair repeats a point already listed
        yield y, [x for x in range(-height_bound, height_bound + 1) if math.gcd(x, y) == 1]


def rational_points_up_to(height_bound: int) -> Iterator[ProjPoint]:
    """All points [x : y] with max(|x|, |y|) <= height_bound, plus infinity."""
    for y, xs in _coprime_rows(height_bound):
        for x in xs:
            yield ProjPoint(x, y)


def brute_force_preperiodic(phi: RationalMap, height_bound: int) -> frozenset[ProjPoint]:
    """Classify every point up to a height bound by direct iteration.

    Orbits share verdicts: once a point is known preperiodic or wandering,
    everything that flowed through it inherits the answer. No preperiodic
    point lies above preperiodic_height_bound(phi), the smaller of the
    escape height and, for a polynomial, its local bound, and every point
    on the orbit of a preperiodic point is preperiodic. So the scan stops
    there: only points up to min(height_bound, preperiodic_height_bound(phi))
    are enumerated, and an orbit that passes the bound settles as wandering.

    The scan walks the rows of bare coordinate pairs of
    rational_points_up_to and steps each row's pairs that have no verdict
    yet with one dynmap.image_row call, the one map-step kernel, so every
    step checks that gcd(F, G) divides Res(F, G). Most points leave in one
    step: a pair whose image is above the bound wanders with no bookkeeping
    at all; no verdict is kept, and an orbit that reaches it from a later
    row steps it again. Otherwise its orbit is followed on from that image,
    and every pair on the path gets the verdict; a pair of the current row
    on the path takes its image from the row's results. Each step is
    followed by one height test, so no pair above the bound is ever
    stepped. ProjPoints are made only for the points returned.
    """
    cutoff = preperiodic_height_bound(phi)
    bound = min(height_bound, cutoff)
    verdict: dict[tuple[int, int], bool] = {}

    def settle(path: set[tuple[int, int]], x: int, y: int) -> None:
        # (x, y) is at or below the cutoff: the image of the pair
        # last added to path
        while True:
            key = (x, y)
            v = verdict.get(key)
            if v is not None:
                break
            if key in path:
                v = True  # the orbit looped, so the whole path is preperiodic
                break
            path.add(key)
            if y == row_y and abs(x) <= bound:
                # a pair of the current row with no verdict, so stepped with
                # the row: its image is in row unless it escaped
                image = row.get(x)
                if image is None:
                    v = False
                    break
                x, y = image
            else:
                x, y = image_pair(phi, x, y)
                if abs(x) > cutoff or y > cutoff:  # y >= 0 in normal form
                    v = False
                    break
        for key in path:
            verdict[key] = v

    for row_y, xs in _coprime_rows(bound):
        todo = [x for x in xs if (x, row_y) not in verdict]
        # the images at or below the cutoff, by x
        row = {
            x: (fx, fy)
            for x, (fx, fy) in zip(todo, image_row(phi, row_y, todo))
            if abs(fx) <= cutoff and fy <= cutoff
        }
        for x, (fx, fy) in row.items():
            if (x, row_y) not in verdict:
                settle({(x, row_y)}, fx, fy)
    return frozenset(
        ProjPoint(x, y) for (x, y), v in verdict.items() if v and abs(x) <= bound and y <= bound
    )
