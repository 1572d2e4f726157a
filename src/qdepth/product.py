"""Product (cubic) encoding of 3-SAT and the pair sets it induces.

A clause is violated exactly when all three literals are false, so its
violation indicator is a product of three affine factors and the
satisfaction indicator is one minus that.  Summing the violations over
clauses gives the number of violated clauses as a degree-3 polynomial in
the problem variables, with no ancillas; minimizing it solves the instance.

Two pair sets drive everything downstream:

* quadratic pairs: variable pairs that carry a degree-2 term in some
  clause's expansion.  A pair inside a clause gets one exactly when the
  remaining literal is positive (only then does its factor have a constant
  part).  These pairs are collected per clause, before any cross-clause
  cancellation, because each clause is compiled to gates separately.
* candidate pairs: every pair of variables sharing a clause.  Substituting
  such a pair removes that clause's cubic term, so these are the options the
  substitution optimizer chooses from.

A pair is a `Pair`: a tuple of two distinct variable indices, smaller
first.  Every pair this module returns, in a set, a `Covering` or a
`PairIndex`, has that form, so pairs compare, hash and sort alike
everywhere downstream without conversion.

`_pair_sets`, one memoized pass over the clauses, is the only place that
numbers pairs: `pair_index` ids them in sorted order for greedy and the
integer program, and `clause_triples` gives the graph builders each
clause's sorted variables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .cnf import DegenerateClauseError, Instance

if TYPE_CHECKING:  # polynomials load only where one is built
    from .pubo import Polynomial

Pair = tuple[int, int]  # (i, j) with i < j


def clause_violation(clause: tuple[int, ...]) -> Polynomial:
    """Product of the literals' falsity indicators, (1 - x) for x and x for
    its negation."""
    from .graph import VarId
    from .pubo import Polynomial

    out = Polynomial.constant(1)
    for lit in clause:
        x = Polynomial.variable(VarId.x(abs(lit)))
        out = out * (1 - x if lit > 0 else x)
    return out


def product_objective(instance: Instance) -> Polynomial:
    """Number of violated clauses, to be minimized. Degree 3, no ancillas.

    The minimum over 0/1 assignments is 0 exactly when the instance is
    satisfiable.
    """
    from .pubo import Polynomial

    require_three_sat(instance)
    total = Polynomial.zero()
    for clause in instance.clauses:
        total = total + clause_violation(clause)
    return total


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
