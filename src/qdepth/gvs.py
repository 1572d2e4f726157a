"""The product encoding and its pair substitution, as exact polynomials.

`product_objective` sums each clause's violation indicator
(`clause_violation`) into the cubic objective, zero exactly on satisfying
assignments.  Every clause's cubic term is removed by picking one pair
{i,j} of its variables and replacing the product x_i*x_j with a fresh
variable u_{i,j}.  A cover assigns one pair to each clause; distinct pairs
may be reused across clauses and share their ancillas.

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

This module is an oracle: covers (`product.Cover`, `make_cover`) and
their graph (`graph.gvs_graph`) need no polynomial, so no command loads
it.  The derived graph is the union of the per-addend graphs;
`gvs_derived_graph` builds it from the polynomials, and `cover_graph` over
integers after checking the cover, for `gvs_report` and
`gvs_degree_table`.  A used pair's penalty block gives its u degree 5 and
its slacks 3, 2 and 2, and each distinct (pair, free variable) key adds
one u-free edge: clauses on one variable triple with one pair share it.
"""

from __future__ import annotations

from .cnf import Instance
from .graph import IntGraph, VarId, gvs_ancillas, gvs_graph
from .linear import checked_penalty
from .product import (Cover, InvalidCoverError, Pair, make_cover,
                      require_three_sat)
from .pubo import Polynomial, derived_graph
from .reports import DepthReport, graph_report


def clause_violation(clause: tuple[int, ...]) -> Polynomial:
    """Product of the literals' falsity indicators, (1 - x) for x and x for
    its negation."""
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
    require_three_sat(instance)
    total = Polynomial.zero()
    for clause in instance.clauses:
        total = total + clause_violation(clause)
    return total


def substitute_clause(clause: tuple[int, ...], pair: Pair) -> Polynomial:
    """Clause violation polynomial with x_i*x_j collapsed to u_{i,j}."""
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
    total = Polynomial.zero()
    for addend in gvs_addends(instance, cover, penalty):
        total = total + addend
    return total


def gvs_derived_graph(instance: Instance, cover: Cover) -> IntGraph:
    """Union of per-addend interaction graphs; independent of the penalty."""
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
