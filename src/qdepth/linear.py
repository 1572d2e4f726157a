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

Degrees are those of the union of the per-clause interaction graphs.
Each addend z_c - penalty*f_c^2 touches six variables (three problem bits,
two slacks, one indicator) and its square contains every pair of them, so
per clause the graph is a complete K6.  Equal and opposite cross-clause
quadratic terms can cancel in the summed polynomial; those gates still run,
so the union, not the sum, is what the hardware sees.  `graph.linear_graph`
builds that union over integers, and `linear_report` and
`linear_degree_table` read it.  This module is an oracle: it keeps the
polynomials and `linear_derived_graph`, their union built term by term,
and no command loads it.
"""

from __future__ import annotations

from fractions import Fraction

from .cnf import DegenerateClauseError, Instance
from .graph import IntGraph, VarId, linear_ancillas, linear_graph
from .pubo import Polynomial, derived_graph
from .reports import DepthReport, graph_report


class InvalidPenaltyError(ValueError):
    """The dualization penalty must be strictly positive."""


def default_penalty(instance: Instance) -> Fraction:
    # One more than the number of clauses: a single violated residual then
    # costs more than every indicator together can pay.
    return Fraction(instance.num_clauses + 1)


def clause_residual(clause: tuple[int, ...], c: int) -> Polynomial:
    """f_c for the clause at index c. Zero iff slacks balance the literals."""
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
    if penalty is None:
        return default_penalty(instance)
    p = Fraction(penalty)
    if p <= 0:
        raise InvalidPenaltyError(f"penalty must be positive, got {penalty}")
    return p


def linear_addends(instance: Instance, penalty=None) -> tuple[Polynomial, ...]:
    """Per-clause contributions z_c - penalty * f_c^2, in clause order."""
    p = checked_penalty(instance, penalty)
    out = []
    for c, clause in enumerate(instance.clauses):
        residual = clause_residual(clause, c)
        out.append(Polynomial.variable(VarId.z(c)) - p * residual.square())
    return tuple(out)


def dualize_linear(instance: Instance, penalty=None) -> Polynomial:
    """The summed quadratic objective, to be maximized."""
    total = Polynomial.zero()
    for addend in linear_addends(instance, penalty):
        total = total + addend
    return total


def linear_derived_graph(instance: Instance) -> IntGraph:
    """Union of per-clause interaction graphs: one K6 per clause, overlapped
    on shared problem variables.  Independent of the penalty value."""
    return derived_graph(linear_addends(instance, 1), instance.num_vars,
                         linear_ancillas(instance))


def linear_degree_table(instance: Instance) -> dict[VarId, int]:
    """Degrees of every vertex of the derived graph, by name."""
    return linear_graph(instance).degree_table(linear_ancillas(instance))


def linear_report(instance: Instance) -> DepthReport:
    return graph_report("linear", linear_graph(instance))
