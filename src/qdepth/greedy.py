"""The randomized greedy heuristic for choosing substitution pairs.

`greedy_cover` repeatedly substitutes a pair covering the most uncovered
clauses, drawing uniformly among the tied pairs in sorted order.  It keeps
every pair's gain exact incrementally, in buckets by gain, so a round costs
the clauses it covers rather than a rescan of all pairs; the tied set and
the rng draws are those of a full rescan.  Pairs are numbered by
`product.pair_index`, in sorted pair order, so a sorted list of pair ids is
a sorted list of pairs; `greedy_batch` runs one seed after another over
that shared, memoized index.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from typing import Iterable, NamedTuple

from .cnf import Instance
from .graph import gvs_graph
from .product import Cover, Pair, make_cover, pair_index


def greedy_cover(instance: Instance, seed: int) -> Cover:
    """Pick the pair covering the most uncovered clauses, repeat, tie-break
    uniformly at random.

    Each round draws `rng.choice` over the tied pairs in sorted order.  The
    gains are kept exact incrementally rather than recounted: unpicked
    pairs sit in buckets by gain, and covering a clause moves its other two
    pairs one bucket down.  The top bucket is then exactly the tied set, so
    a seed always yields the same cover.
    """
    rng = random.Random(seed)
    index = pair_index(instance)
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
    depths, subs = [], []
    for seed in seeds:
        cover = greedy_cover(instance, seed)
        depths.append(gvs_graph(instance, cover.pairs).max_degree() + 2)
        subs.append(cover.num_substitutions)
    return GreedySummary(tuple(depths), tuple(subs))
