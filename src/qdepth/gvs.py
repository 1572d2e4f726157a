"""Pair substitution: reducing the cubic encoding to a quadratic one.

Every clause's cubic term is removed by picking one pair {i,j} of its
variables and replacing the product x_i*x_j with a fresh variable u_{i,j}.
A cover assigns one pair to each clause; distinct pairs may be reused across
clauses and share their ancillas.

Each used pair brings four ancillas (u plus three slacks) and three affine
constraints whose residuals vanish, for some slack values, exactly when
u = x_i*x_j:

    A:  u = x_i + x_j - 1 + d1      (forces u=1 when both are 1)
    B:  u = x_i - d2                (forces u=0 when x_i=0)
    C:  u = x_j - d3                (forces u=0 when x_j=0)

The squared residuals are added to the substituted violation sum with a
positive multiplier.  The default multiplier is |C|+1: when u disagrees with
x_i*x_j, every clause it covers can under-report its violation by at most 1,
so a wrong substitution saves at most |C| from the clause sum while paying
at least the multiplier in penalty.  A multiplier of 1 is not enough: one
wrong u covering two clauses would pay 1 and save 2, driving the minimum
below zero on a satisfiable instance.

The derived graph is again the union of the per-addend graphs;
`graph.gvs_graph` builds it over integers, and `cover_graph` builds it
after checking the cover; `gvs_report` and `gvs_degree_table` read it, and
callers read Δ as `cover_graph(...).max_degree()`.  A used pair's penalty
block gives its u degree 5 and its slacks 3, 2 and 2, and each distinct
(pair, free variable) key adds one u-free edge: clauses on one variable
triple with one pair share it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .cnf import Instance
from .graph import IntGraph, VarId, gvs_ancillas, gvs_graph
from .product import Pair, clause_violation
from .reports import DepthReport, graph_report

if TYPE_CHECKING:  # polynomials load only where one is built
    from .pubo import Polynomial


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


def substitute_clause(clause: tuple[int, ...], pair: Pair) -> Polynomial:
    """Clause violation polynomial with x_i*x_j collapsed to u_{i,j}."""
    from .pubo import Polynomial

    i, j = pair
    if not {i, j} <= {abs(l) for l in clause}:
        raise InvalidCoverError(f"pair {pair} not within clause {clause}")
    xi, xj, u = VarId.x(i), VarId.x(j), VarId.sub(pair)
    terms = {}
    for support, coeff in clause_violation(clause).terms.items():
        vs = set(support)
        if xi in vs and xj in vs:
            vs -= {xi, xj}
            vs.add(u)
        key = tuple(sorted(vs))
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(terms)


def substitution_residuals(pair: Pair) -> tuple[Polynomial, ...]:
    """Residuals of constraints A, B, C for the pair, in that order."""
    from .pubo import Polynomial

    i, j = pair
    u = Polynomial.variable(VarId.sub(pair))
    xi = Polynomial.variable(VarId.x(i))
    xj = Polynomial.variable(VarId.x(j))
    d1 = Polynomial.variable(VarId.sub_slack(pair, 1))
    d2 = Polynomial.variable(VarId.sub_slack(pair, 2))
    d3 = Polynomial.variable(VarId.sub_slack(pair, 3))
    return (u - xi - xj - d1 + 1, u - xi + d2, u - xj + d3)


def substitution_penalty(pair: Pair) -> Polynomial:
    a, b, c = substitution_residuals(pair)
    return a.square() + b.square() + c.square()


def gvs_addends(instance: Instance, cover: Cover, penalty=None) -> tuple[Polynomial, ...]:
    """Substituted clauses (in clause order) then penalty blocks (sorted pairs)."""
    from .linear import checked_penalty

    make_cover(instance, cover.pairs)
    lam = checked_penalty(instance, penalty)
    out = [
        substitute_clause(clause, pair)
        for clause, pair in zip(instance.clauses, cover.pairs)
    ]
    for pair in cover.used:
        out.append(lam * substitution_penalty(pair))
    return tuple(out)


def dualize_gvs(instance: Instance, cover: Cover, penalty=None) -> Polynomial:
    """Quadratic objective, minimized; minimum 0 iff the instance is satisfiable."""
    from .pubo import Polynomial

    total = Polynomial.zero()
    for addend in gvs_addends(instance, cover, penalty):
        total = total + addend
    return total


def gvs_derived_graph(instance: Instance, cover: Cover) -> IntGraph:
    """Union of per-addend interaction graphs; independent of the penalty."""
    from .pubo import derived_graph

    return derived_graph(gvs_addends(instance, cover, 1), instance.num_vars,
                         gvs_ancillas(cover.pairs))


def cover_graph(instance: Instance, cover: Cover) -> IntGraph:
    """The cover's interaction graph, after checking the cover: one made
    for another instance fails here as it would in make_cover."""
    make_cover(instance, cover.pairs)
    return gvs_graph(instance, cover.pairs)


def gvs_degree_table(instance: Instance, cover: Cover) -> dict[VarId, int]:
    """Degrees of every vertex of the substituted model, by name."""
    return cover_graph(instance, cover).degree_table(gvs_ancillas(cover.pairs))


def gvs_report(instance: Instance, cover: Cover) -> DepthReport:
    return graph_report("gvs", cover_graph(instance, cover),
                        substitutions=cover.num_substitutions)
