"""Linearized encoding of 3-SAT with per-clause ancillas, and its depth.

Each clause gets an indicator variable z_c and two slack bits.  The clause
residual

    f_c = sum over positive literals (1 - x_i)
        + sum over negated literals  x_j
        + d_c1 + d_c2 - (2 + z_c)

vanishes exactly when the slack bits absorb the literal count implied by
z_c.  The constrained problem max sum(z_c) s.t. all f_c = 0 is dualized as

    max  sum_c ( z_c - penalty * f_c^2 )

which is quadratic, so the depth bound follows from the maximum degree of
its interaction graph.

Degrees are computed on the union of the per-clause interaction graphs.
Each addend z_c - penalty*f_c^2 touches six variables (three problem bits,
two slacks, one indicator) and its square contains every pair of them, so
per clause the graph is a complete K6.  Equal and opposite cross-clause
quadratic terms can cancel in the summed polynomial; those gates still run,
so the union, not the sum, is what the hardware sees.  The closed form per
problem variable is

    deg(x_i) = 5*|C_i| - sum over co-variables j of (|C_ij| - 1)

where C_i are the clauses containing x_i and C_ij those containing both:
five fresh neighbors per clause, minus repeat edges to co-variables seen in
more than one shared clause.  Ancillas live in one clause only, so their
degree is always 5.

For the same reason the edge count is

    |E| = 12*|C| + |candidate pairs|

per clause 3 ancilla-ancilla and 9 ancilla-variable edges, never shared,
while the variable-variable edges are exactly the pairs sharing a clause.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from .cnf import DegenerateClauseError, Instance, clause_incidence
from .graph import InteractionGraph, VarId, graph_union
from .product import candidate_pairs
from .reports import DepthReport

if TYPE_CHECKING:  # exact arithmetic loads only where a polynomial is built
    from fractions import Fraction
    from .pubo import Polynomial


class InvalidPenaltyError(ValueError):
    """The dualization penalty must be strictly positive."""


def default_penalty(instance: Instance) -> Fraction:
    from fractions import Fraction

    # One more than the number of clauses: a single violated residual then
    # costs more than every indicator together can pay.
    return Fraction(instance.num_clauses + 1)


def clause_residual(clause: tuple[int, ...], c: int) -> Polynomial:
    """f_c for the clause at index c. Zero iff slacks balance the literals."""
    from .pubo import Polynomial

    if len(clause) != 3:
        raise DegenerateClauseError(
            f"clause #{c} has {len(clause)} literals; this encoding needs 3"
        )
    total = Polynomial.zero()
    for lit in clause:
        x = Polynomial.variable(VarId.x(abs(lit)))
        total = total + ((1 - x) if lit > 0 else x)
    total = total + Polynomial.variable(VarId.clause_slack(c, 1))
    total = total + Polynomial.variable(VarId.clause_slack(c, 2))
    return total - 2 - Polynomial.variable(VarId.z(c))


def checked_penalty(instance: Instance, penalty) -> Fraction:
    """The given penalty as a Fraction, or the default when it is None."""
    from fractions import Fraction

    if penalty is None:
        return default_penalty(instance)
    p = Fraction(penalty)
    if p <= 0:
        raise InvalidPenaltyError(f"penalty must be positive, got {penalty}")
    return p


def linear_addends(instance: Instance, penalty=None) -> tuple[Polynomial, ...]:
    """Per-clause contributions z_c - penalty * f_c^2, in clause order."""
    from .pubo import Polynomial

    p = checked_penalty(instance, penalty)
    out = []
    for c, clause in enumerate(instance.clauses):
        residual = clause_residual(clause, c)
        out.append(Polynomial.variable(VarId.z(c)) - p * residual.square())
    return tuple(out)


def dualize_linear(instance: Instance, penalty=None) -> Polynomial:
    """The summed quadratic objective, to be maximized."""
    from .pubo import Polynomial

    total = Polynomial.zero()
    for addend in linear_addends(instance, penalty):
        total = total + addend
    return total


def linear_derived_graph(instance: Instance) -> InteractionGraph:
    """Union of per-clause interaction graphs: one K6 per clause, overlapped
    on shared problem variables.  Independent of the penalty value."""
    from .pubo import interaction_graph

    return graph_union(
        interaction_graph(addend) for addend in linear_addends(instance, 1)
    )


def _variable_degree(instance: Instance, var: int, clauses) -> int:
    covar_multiplicity: Counter[int] = Counter()
    for c in clauses:
        for other in instance.clause_vars(c):
            if other != var:
                covar_multiplicity[other] += 1
    repeats = sum(m - 1 for m in covar_multiplicity.values())
    return 5 * len(clauses) - repeats


def linear_degree_table(instance: Instance) -> dict[VarId, int]:
    """Closed-form degrees for every vertex of the derived graph."""
    table: dict[VarId, int] = {}
    for v, clauses in clause_incidence(instance).items():
        table[VarId.x(v)] = _variable_degree(instance, v, clauses)
    for c in range(instance.num_clauses):
        for a in (VarId.clause_slack(c, 1), VarId.clause_slack(c, 2), VarId.z(c)):
            table[a] = 5
    return table


def linear_max_degree(instance: Instance) -> int:
    return max(linear_degree_table(instance).values(), default=0)


def linear_report(instance: Instance) -> DepthReport:
    used = instance.used_variables()
    num_ancillas = 3 * instance.num_clauses
    num_edges = 12 * instance.num_clauses + len(candidate_pairs(instance))
    delta = linear_max_degree(instance)
    return DepthReport(
        formulation="linear",
        num_problem_vars=len(used),
        num_ancillas=num_ancillas,
        num_qubits=len(used) + num_ancillas,
        num_interactions=num_edges,
        max_degree=delta,
        depth_upper=delta + 2,
        depth_lower=delta + 1,
    )
