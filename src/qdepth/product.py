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
everywhere downstream without conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cnf import DegenerateClauseError, Instance
from .pubo import InteractionGraph, Polynomial, VarId

Pair = tuple[int, int]  # (i, j) with i < j


def literal_factor(lit: int) -> Polynomial:
    """Indicator that the literal is false: (1 - x) for x, x for its negation."""
    x = Polynomial.variable(VarId.x(abs(lit)))
    return 1 - x if lit > 0 else x


def clause_violation(clause: tuple[int, ...]) -> Polynomial:
    out = Polynomial.constant(1)
    for lit in clause:
        out = out * literal_factor(lit)
    return out


def product_objective(instance: Instance) -> Polynomial:
    """Number of violated clauses, to be minimized. Degree 3, no ancillas.

    The minimum over 0/1 assignments is 0 exactly when the instance is
    satisfiable.
    """
    _require_three_sat(instance)
    total = Polynomial.zero()
    for clause in instance.clauses:
        total = total + clause_violation(clause)
    return total


def quadratic_pairs(instance: Instance) -> frozenset[Pair]:
    """Variable pairs carrying a degree-2 term in some clause expansion."""
    _require_three_sat(instance)
    pairs: set[Pair] = set()
    for clause in instance.clauses:
        for a, b in combinations(clause, 2):
            third = next(l for l in clause if l not in (a, b))
            if third > 0:
                pairs.add(tuple(sorted((abs(a), abs(b)))))
    return frozenset(pairs)


def candidate_pairs(instance: Instance) -> frozenset[Pair]:
    """All pairs of variables that share a clause."""
    _require_three_sat(instance)
    pairs: set[Pair] = set()
    for c in range(instance.num_clauses):
        pairs.update(combinations(sorted(instance.clause_vars(c)), 2))
    return frozenset(pairs)


@dataclass(frozen=True)
class Covering:
    """Substituting `pair` inside clause `clause` leaves `free` untouched."""

    clause: int
    pair: Pair
    free: int


def coverings(instance: Instance) -> tuple[Covering, ...]:
    """Every (clause, pair within it, leftover variable) option, in clause order."""
    _require_three_sat(instance)
    out = []
    for c in range(instance.num_clauses):
        vs = sorted(instance.clause_vars(c))
        for pair in combinations(vs, 2):
            free = next(v for v in vs if v not in pair)
            out.append(Covering(c, pair, free))
    return tuple(out)


def covering_graph(instance: Instance) -> dict[Pair, tuple[int, ...]]:
    """candidate pair -> clauses it can cover (the bipartite covering relation)."""
    out: dict[Pair, list[int]] = {}
    for cov in coverings(instance):
        out.setdefault(cov.pair, []).append(cov.clause)
    return {p: tuple(cs) for p, cs in out.items()}


def native3_hypergraph(instance: Instance) -> InteractionGraph:
    """One hyperedge per distinct clause variable triple.

    Each clause compiles to one three-qubit gate block on its variables; the
    quadratic terms inside a clause act on subsets of the same triple and
    ride along in the same layer, so only triples constrain scheduling.
    """
    _require_three_sat(instance)
    vertices: set[VarId] = set()
    edges: set[frozenset[VarId]] = set()
    for c in range(instance.num_clauses):
        triple = frozenset(VarId.x(v) for v in instance.clause_vars(c))
        vertices.update(triple)
        edges.add(triple)
    return InteractionGraph(frozenset(vertices), frozenset(edges))


def _require_three_sat(instance: Instance) -> None:
    for c, clause in enumerate(instance.clauses):
        if len(clause) != 3:
            raise DegenerateClauseError(
                f"clause #{c} has {len(clause)} literals; "
                "this encoding needs exactly 3"
            )
