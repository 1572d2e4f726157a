"""Pairs and covers of the product (cubic) encoding of 3-SAT.

A clause is violated exactly when all three literals are false, so its
violation indicator is a product of three affine factors; summing them
gives the number of violated clauses as a degree-3 polynomial with no
ancillas.  This module holds that encoding's structure, never its
polynomials (`gvs` builds those, as the oracle):

* quadratic pairs: variable pairs that carry a degree-2 term in some
  clause's expansion.  A pair inside a clause gets one exactly when the
  remaining literal is positive (only then does its factor have a constant
  part).  These pairs are collected per clause, before any cross-clause
  cancellation, because each clause is compiled to gates separately.
* candidate pairs: every pair of variables sharing a clause.  Substituting
  such a pair removes that clause's cubic term, so these are the options the
  substitution optimizer chooses from.
* a `Cover`: one substituted pair per clause, checked by `make_cover`.

A pair is a `Pair`: a tuple of two distinct variable indices, smaller
first.  Every pair this module returns, in a set, a `Covering`, a
`PairIndex` or a `Cover`, has that form, so pairs compare, hash and sort
alike everywhere downstream without conversion.

`_pair_sets`, one memoized pass over the clauses, is the only place that
numbers pairs: `pair_index` ids them in sorted order for greedy and the
integer program, and `clause_triples` gives the graph builders each
clause's sorted variables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .cnf import DegenerateClauseError, Instance

Pair = tuple[int, int]  # (i, j) with i < j


class InvalidCoverError(ValueError):
    """A cover assignment does not match the instance's clauses."""


class Cover(NamedTuple):
    """One substituted pair per clause, in clause order."""

    pairs: tuple[Pair, ...]

    @property
    def used(self) -> tuple[Pair, ...]:
        """Distinct pairs, sorted for deterministic iteration."""
        return tuple(sorted(set(self.pairs)))

    @property
    def num_substitutions(self) -> int:
        return len(set(self.pairs))


def make_cover(instance: Instance, pairs: Sequence[Iterable[int]]) -> Cover:
    """Check one pair per clause, each within its clause, and store every
    pair as a sorted tuple."""
    if len(pairs) != instance.num_clauses:
        raise InvalidCoverError(
            f"cover has {len(pairs)} entries for {instance.num_clauses} clauses"
        )
    canon = []
    for c, raw in enumerate(pairs):
        pair = tuple(sorted(set(raw)))
        if len(pair) != 2:
            raise InvalidCoverError(f"clause #{c}: pair must have 2 distinct variables")
        if not instance.clause_vars(c).issuperset(pair):
            raise InvalidCoverError(
                f"clause #{c}: pair {pair} not within "
                f"clause variables {tuple(sorted(instance.clause_vars(c)))}"
            )
        canon.append(pair)
    return Cover(tuple(canon))


class Covering(NamedTuple):
    """Substituting `pair` inside clause `clause` leaves `free` untouched."""

    clause: int
    pair: Pair
    free: int


class PairIndex(NamedTuple):
    """The covering relation over pair ids, id k being sorted pair pairs[k]:
    `reach[k]` lists pair k's clauses, `clause_pairs[c]` clause c's three
    pair ids (its coverings' order), both ascending."""

    pairs: tuple[Pair, ...]
    reach: tuple[tuple[int, ...], ...]
    clause_pairs: tuple[tuple[int, ...], ...]


class _PairSets(NamedTuple):
    candidates: frozenset[Pair]
    quadratic: frozenset[Pair]
    coverings: tuple[Covering, ...]
    triples: tuple[tuple[int, int, int], ...]
    index: PairIndex


@lru_cache(maxsize=8)  # a command works on one instance at a time
def _pair_sets(instance: Instance) -> _PairSets:
    """Every pair set, the coverings, the clause triples and the pair index,
    from one pass over the clauses.  Every caller shares the memoized
    values: keep them immutable."""
    require_three_sat(instance)
    quadratic: set[Pair] = set()
    covs = []
    triples = []
    for c, clause in enumerate(instance.clauses):
        positive = {abs(lit): lit > 0 for lit in clause}
        vs = tuple(sorted(positive))
        triples.append(vs)
        for pair in combinations(vs, 2):
            free = next(v for v in vs if v not in pair)
            covs.append(Covering(c, pair, free))
            # the pair's product keeps a degree-2 term exactly when the
            # remaining literal is positive
            if positive[free]:
                quadratic.add(pair)
    candidates = frozenset(cov.pair for cov in covs)
    pairs = tuple(sorted(candidates))
    pair_id = {pair: k for k, pair in enumerate(pairs)}
    ids = [pair_id[cov.pair] for cov in covs]  # ascending within a clause
    reach: list[list[int]] = [[] for _ in pairs]
    for cov, k in zip(covs, ids):
        reach[k].append(cov.clause)
    index = PairIndex(pairs, tuple(map(tuple, reach)),
                      tuple(zip(ids[0::3], ids[1::3], ids[2::3])))
    return _PairSets(candidates, frozenset(quadratic), tuple(covs),
                     tuple(triples), index)


def quadratic_pairs(instance: Instance) -> frozenset[Pair]:
    """Variable pairs carrying a degree-2 term in some clause expansion."""
    return _pair_sets(instance).quadratic


def candidate_pairs(instance: Instance) -> frozenset[Pair]:
    """All pairs of variables that share a clause."""
    return _pair_sets(instance).candidates


def coverings(instance: Instance) -> tuple[Covering, ...]:
    """Every (clause, pair within it, leftover variable) option, in clause
    order, pairs ascending within a clause."""
    return _pair_sets(instance).coverings


def clause_triples(instance: Instance) -> tuple[tuple[int, int, int], ...]:
    """Each clause's variables, ascending, in clause order."""
    return _pair_sets(instance).triples


def pair_index(instance: Instance) -> PairIndex:
    """The covering relation over integer pair ids, sorted pair order."""
    return _pair_sets(instance).index


def require_three_sat(instance: Instance) -> None:
    for c, clause in enumerate(instance.clauses):
        if len(clause) != 3:
            raise DegenerateClauseError(
                f"clause #{c} has {len(clause)} literals; "
                "this encoding needs exactly 3"
            )
