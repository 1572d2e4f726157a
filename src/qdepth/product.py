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
`covering_graph` key, has that form, so pairs compare, hash and sort alike
everywhere downstream without conversion.  Both pair sets and the coverings
come from one pass over the clauses, memoized per instance.
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


@lru_cache(maxsize=8)  # a command works on one instance at a time
def _pair_sets(
    instance: Instance,
) -> tuple[frozenset[Pair], frozenset[Pair], tuple[Covering, ...]]:
    """Candidate pairs, quadratic pairs and coverings, from one pass over
    the clauses.  Every caller shares the memoized values: keep them immutable."""
    require_three_sat(instance)
    quadratic: set[Pair] = set()
    covs = []
    for c, clause in enumerate(instance.clauses):
        positive = {abs(lit): lit > 0 for lit in clause}
        vs = sorted(positive)
        for pair in combinations(vs, 2):
            free = next(v for v in vs if v not in pair)
            covs.append(Covering(c, pair, free))
            # the pair's product keeps a degree-2 term exactly when the
            # remaining literal is positive
            if positive[free]:
                quadratic.add(pair)
    candidates = frozenset(cov.pair for cov in covs)
    return candidates, frozenset(quadratic), tuple(covs)


def quadratic_pairs(instance: Instance) -> frozenset[Pair]:
    """Variable pairs carrying a degree-2 term in some clause expansion."""
    return _pair_sets(instance)[1]


def candidate_pairs(instance: Instance) -> frozenset[Pair]:
    """All pairs of variables that share a clause."""
    return _pair_sets(instance)[0]


def coverings(instance: Instance) -> tuple[Covering, ...]:
    """Every (clause, pair within it, leftover variable) option, in clause order."""
    return _pair_sets(instance)[2]


def covering_graph(instance: Instance) -> dict[Pair, tuple[int, ...]]:
    """candidate pair -> clauses it can cover (the bipartite covering relation)."""
    out: dict[Pair, list[int]] = {}
    for cov in coverings(instance):
        out.setdefault(cov.pair, []).append(cov.clause)
    return {p: tuple(cs) for p, cs in out.items()}


def require_three_sat(instance: Instance) -> None:
    for c, clause in enumerate(instance.clauses):
        if len(clause) != 3:
            raise DegenerateClauseError(
                f"clause #{c} has {len(clause)} literals; "
                "this encoding needs exactly 3"
            )
