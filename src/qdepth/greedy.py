"""The randomized greedy heuristic for choosing substitution pairs.

`greedy_cover` repeatedly substitutes a pair covering the most uncovered
clauses, drawing uniformly among the tied pairs in sorted order.  It keeps
every pair's gain exact incrementally, in buckets by gain, so a round costs
the clauses it covers rather than a rescan of all pairs; the tied set and
the rng draws are those of a full rescan.  `greedy_batch` builds the
pair/clause index once and reuses it for every seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Iterable, NamedTuple

from .cnf import Instance
from .gvs import Cover, _max_degree, make_cover
from .product import Pair, covering_graph


class _CoverIndex(NamedTuple):
    """The covering relation of one instance, integer-indexed for greedy.

    Pair ids follow sorted pair order, so a sorted list of ids is a sorted
    list of pairs.
    """

    pairs: tuple[Pair, ...]
    reach: tuple[tuple[int, ...], ...]           # pair id -> its clauses
    clause_pairs: tuple[tuple[int, ...], ...]    # clause -> its 3 pair ids


def _cover_index(instance: Instance) -> _CoverIndex:
    graph = covering_graph(instance)
    pairs = tuple(sorted(graph))
    reach = tuple(graph[p] for p in pairs)
    clause_pairs: list[list[int]] = [[] for _ in range(instance.num_clauses)]
    for i, cs in enumerate(reach):
        for c in cs:
            clause_pairs[c].append(i)
    return _CoverIndex(pairs, reach, tuple(map(tuple, clause_pairs)))


def _greedy_from_index(
    instance: Instance, index: _CoverIndex, rng: random.Random
) -> Cover:
    gain = [len(cs) for cs in index.reach]
    # buckets[g]: ids of the unpicked pairs of gain g, ascending
    buckets: list[list[int]] = [[] for _ in range(max(gain, default=0) + 1)]
    for i, g in enumerate(gain):
        buckets[g].append(i)
    top = len(buckets) - 1
    assignment: list[Pair | None] = [None] * len(index.clause_pairs)
    remaining = len(assignment)
    while remaining:
        while not buckets[top]:
            top -= 1
        bucket = buckets[top]
        pick = rng.choice(bucket)
        del bucket[bisect_left(bucket, pick)]
        pair = index.pairs[pick]
        for c in index.reach[pick]:
            if assignment[c] is not None:
                continue
            assignment[c] = pair
            remaining -= 1
            for q in index.clause_pairs[c]:
                if q == pick:
                    continue
                g = gain[q]
                del buckets[g][bisect_left(buckets[g], q)]
                insort(buckets[g - 1], q)
                gain[q] = g - 1
    return make_cover(instance, assignment)


def greedy_cover(instance: Instance, seed: int | random.Random = 0) -> Cover:
    """Pick the pair covering the most uncovered clauses, repeat, tie-break
    uniformly at random.

    Each round draws `rng.choice` over the tied pairs in sorted order.  The
    gains are kept exact incrementally rather than recounted: unpicked
    pairs sit in buckets by gain, and covering a clause moves its other two
    pairs one bucket down.  The top bucket is then exactly the tied set, so
    a seed always yields the same cover.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return _greedy_from_index(instance, _cover_index(instance), rng)


class GreedySummary(NamedTuple):
    """Median depth and substitution count over a batch of seeded runs."""

    depths: tuple[int, ...]
    substitutions: tuple[int, ...]

    @property
    def median_depth(self) -> int:
        return sorted(self.depths)[(len(self.depths) - 1) // 2]

    @property
    def median_substitutions(self) -> int:
        return sorted(self.substitutions)[(len(self.substitutions) - 1) // 2]


def greedy_batch(
    instance: Instance, seeds: Iterable[int] = range(20)
) -> GreedySummary:
    index = _cover_index(instance)
    depths, subs = [], []
    for seed in seeds:
        cover = _greedy_from_index(instance, index, random.Random(seed))
        depths.append(_max_degree(instance, cover) + 2)
        subs.append(cover.num_substitutions)
    return GreedySummary(tuple(depths), tuple(subs))
