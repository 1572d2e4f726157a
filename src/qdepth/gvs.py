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

Degrees of the derived graph (again a union of per-addend graphs) have
closed forms.  With U the used pairs, P the quadratic-pair set, C_u the
clauses covered by u and C'_x the clauses where x survives as the free
variable:

    deg(x_i) = 4*|{u in U : i in u}| - |{u in U ∩ P : i in u}|
             + |{p in P : i in p}| + |C'_{x_i}|
    deg(u)   = 5 + |C_u|
    deg(d1)  = 3,   deg(d2) = deg(d3) = 2

The per-pair count is 4 because the penalty block of a used pair meets x_i
in u, the partner variable, the A slack and x_i's own B/C slack.  The -1
correction removes the double count when the pair's own quadratic edge
already exists in the penalty block.  Cover counts are clause multisets;
with repeated identical variable triples the formulas count a merged edge
twice, so callers wanting exact graph equality should keep triples distinct.

The edge count has a closed form too, exact for every cover:

    |E| = |P ∪ U| + 9*|U| + |{(u, x) : x is free in some clause u covers}|

Variable-variable edges are the quadratic pairs surviving in substituted
clauses plus each used pair's own edge from its penalty block.  Every used
pair's block adds 9 edges at its ancillas (u-x_i, u-x_j, u-d1, u-d2, u-d3,
d1-x_i, d1-x_j, d2-x_i, d3-x_j), and every substituted clause adds a u-free
edge, merged across clauses with the same pair and free variable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .cnf import Instance
from .linear import InvalidPenaltyError, default_penalty
from .product import Pair, clause_violation, quadratic_pairs
from .pubo import (
    InteractionGraph,
    Polynomial,
    VarId,
    graph_union,
    interaction_graph,
)
from .reports import DepthReport


class InvalidCoverError(ValueError):
    """A cover assignment does not match the instance's clauses."""


class InconsistentOverlapDataError(ValueError):
    """Supplied overlap counts disagree with the substitution sets."""


@dataclass(frozen=True)
class Cover:
    """One substituted pair per clause, in clause order."""

    pairs: tuple[Pair, ...]

    @property
    def used(self) -> tuple[Pair, ...]:
        """Distinct pairs, sorted for deterministic iteration."""
        return tuple(
            frozenset(p) for p in sorted({tuple(sorted(p)) for p in self.pairs})
        )

    @property
    def num_substitutions(self) -> int:
        return len({tuple(sorted(p)) for p in self.pairs})

    def clauses_covered_by(self, pair: Iterable[int]) -> tuple[int, ...]:
        key = frozenset(pair)
        return tuple(c for c, p in enumerate(self.pairs) if p == key)


def make_cover(instance: Instance, pairs: Sequence[Iterable[int]]) -> Cover:
    if len(pairs) != instance.num_clauses:
        raise InvalidCoverError(
            f"cover has {len(pairs)} entries for {instance.num_clauses} clauses"
        )
    canon = []
    for c, raw in enumerate(pairs):
        pair = frozenset(raw)
        if len(pair) != 2:
            raise InvalidCoverError(f"clause #{c}: pair must have 2 distinct variables")
        if not pair <= instance.clause_vars(c):
            raise InvalidCoverError(
                f"clause #{c}: pair {tuple(sorted(pair))} not within "
                f"clause variables {tuple(sorted(instance.clause_vars(c)))}"
            )
        canon.append(pair)
    return Cover(tuple(canon))


def cover_free_variables(instance: Instance, cover: Cover) -> tuple[int, ...]:
    """The unsubstituted variable of each clause, in clause order."""
    out = []
    for c, pair in enumerate(cover.pairs):
        (free,) = instance.clause_vars(c) - pair
        out.append(free)
    return tuple(out)


def substitute_clause(clause: tuple[int, ...], pair: Iterable[int]) -> Polynomial:
    """Clause violation polynomial with x_i*x_j collapsed to u_{i,j}."""
    pair = frozenset(pair)
    if not pair <= {abs(l) for l in clause}:
        raise InvalidCoverError(
            f"pair {tuple(sorted(pair))} not within clause {clause}"
        )
    i, j = sorted(pair)
    xi, xj, u = VarId.x(i), VarId.x(j), VarId.sub((i, j))
    terms = {}
    for support, coeff in clause_violation(clause).terms.items():
        vs = set(support)
        if xi in vs and xj in vs:
            vs -= {xi, xj}
            vs.add(u)
        key = tuple(sorted(vs))
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(terms)


def substitution_residuals(pair: Iterable[int]) -> tuple[Polynomial, ...]:
    """Residuals of constraints A, B, C for the pair, in that order."""
    i, j = sorted(frozenset(pair))
    u = Polynomial.variable(VarId.sub((i, j)))
    xi = Polynomial.variable(VarId.x(i))
    xj = Polynomial.variable(VarId.x(j))
    d1 = Polynomial.variable(VarId.sub_slack((i, j), 1))
    d2 = Polynomial.variable(VarId.sub_slack((i, j), 2))
    d3 = Polynomial.variable(VarId.sub_slack((i, j), 3))
    return (u - xi - xj - d1 + 1, u - xi + d2, u - xj + d3)


def substitution_penalty(pair: Iterable[int]) -> Polynomial:
    total = Polynomial.zero()
    for r in substitution_residuals(pair):
        total = total + r.square()
    return total


def _checked_gvs_penalty(instance: Instance, penalty):
    if penalty is None:
        return default_penalty(instance)
    p = Fraction(penalty)
    if p <= 0:
        raise InvalidPenaltyError(f"penalty must be positive, got {penalty}")
    return p


def gvs_addends(instance: Instance, cover: Cover, penalty=None) -> tuple[Polynomial, ...]:
    """Substituted clauses (in clause order) then penalty blocks (sorted pairs)."""
    _validate(instance, cover)
    lam = _checked_gvs_penalty(instance, penalty)
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


def gvs_ancillas(cover: Cover) -> tuple[VarId, ...]:
    out = []
    for pair in cover.used:
        idx = tuple(sorted(pair))
        out.append(VarId.sub(idx))
        for k in (1, 2, 3):
            out.append(VarId.sub_slack(idx, k))
    return tuple(out)


def gvs_derived_graph(instance: Instance, cover: Cover) -> InteractionGraph:
    """Union of per-addend interaction graphs; independent of the penalty."""
    return graph_union(
        interaction_graph(p) for p in gvs_addends(instance, cover, 1)
    )


def _validate(instance: Instance, cover: Cover) -> None:
    if len(cover.pairs) != instance.num_clauses:
        raise InvalidCoverError(
            f"cover has {len(cover.pairs)} entries for "
            f"{instance.num_clauses} clauses"
        )
    for c, pair in enumerate(cover.pairs):
        if not pair <= instance.clause_vars(c):
            raise InvalidCoverError(
                f"clause #{c}: pair {tuple(sorted(pair))} not within clause"
            )


def gvs_degree_table(instance: Instance, cover: Cover) -> dict[VarId, int]:
    """Closed-form degrees for every vertex of the substituted model."""
    _validate(instance, cover)
    P = quadratic_pairs(instance)
    used = cover.used
    free_counts = Counter(cover_free_variables(instance, cover))
    cover_counts = Counter(cover.pairs)

    # per variable: 4 per used pair holding it (3 if that pair is also
    # quadratic), plus 1 per quadratic pair holding it
    pair_terms: Counter[int] = Counter()
    for s in used:
        for v in s:
            pair_terms[v] += 3 if s in P else 4
    for p in P:
        for v in p:
            pair_terms[v] += 1

    table: dict[VarId, int] = {}
    for v in instance.used_variables():
        table[VarId.x(v)] = pair_terms[v] + free_counts[v]
    for pair in used:
        idx = tuple(sorted(pair))
        table[VarId.sub(idx)] = 5 + cover_counts[pair]
        table[VarId.sub_slack(idx, 1)] = 3
        table[VarId.sub_slack(idx, 2)] = 2
        table[VarId.sub_slack(idx, 3)] = 2
    return table


def gvs_max_degree(instance: Instance, cover: Cover) -> int:
    return max(gvs_degree_table(instance, cover).values(), default=0)


def gvs_report(instance: Instance, cover: Cover) -> DepthReport:
    used_vars = instance.used_variables()
    num_subs = cover.num_substitutions
    delta = gvs_max_degree(instance, cover)
    used = set(cover.pairs)
    free_keys = set(zip(cover.pairs, cover_free_variables(instance, cover)))
    num_edges = (len(quadratic_pairs(instance) | used) + 9 * num_subs
                 + len(free_keys))
    return DepthReport(
        formulation="gvs",
        num_problem_vars=len(used_vars),
        num_ancillas=4 * num_subs,
        num_qubits=len(used_vars) + 4 * num_subs,
        num_interactions=num_edges,
        max_degree=delta,
        depth_upper=delta + 2,
        depth_lower=delta + 1,
        substitutions=num_subs,
    )


# -- arbitrary-size substitution calculator ---------------------------------


@dataclass(frozen=True)
class GeneralSubstitution:
    """A substitution over any number of variables, described abstractly.

    variables: the substituted index set (>= 2 distinct indices).
    num_sum_slacks: slack count m of the sum constraint
        u = sum(x) - (|u|-1) + slacks; each member variable additionally
        gets its own two-term constraint u = x - slack.
    covered_clauses: how many clause terms this substitution absorbs, each
        contributing one edge from u to that clause's surviving variable.
    """

    variables: tuple[int, ...]
    num_sum_slacks: int = 1
    covered_clauses: int = 0

    def __post_init__(self):
        vs = tuple(sorted(set(self.variables)))
        if len(vs) < 2:
            raise ValueError("substitution needs at least 2 distinct variables")
        if self.num_sum_slacks < 1:
            raise ValueError("need at least one sum-constraint slack")
        if self.covered_clauses < 0:
            raise ValueError("covered_clauses must be >= 0")
        object.__setattr__(self, "variables", vs)


@dataclass(frozen=True)
class GeneralDegrees:
    variable_degrees: tuple[tuple[int, int], ...]  # (var index, degree)
    substitution_degrees: tuple[int, ...]          # aligned with input order
    sum_slack_degrees: tuple[int, ...]             # per substitution: |u|+m
    member_slack_degree: int                       # always 2
    max_degree: int

    def variable_degree(self, var: int) -> int:
        for v, d in self.variable_degrees:
            if v == var:
                return d
        raise KeyError(var)


def general_substitution_degrees(
    substitutions: Sequence[GeneralSubstitution],
    free_counts: Mapping[int, int] | None = None,
    overlap_counts: Mapping[frozenset[int], int] | None = None,
) -> GeneralDegrees:
    """Degree calculator for substitutions of arbitrary size.

    Stands alone from the pair pipeline: inputs are abstract counts, not an
    instance.  Per variable, each containing substitution u contributes
    |u| + m_u + 1 neighbors (u itself, the other members, the sum slacks and
    the variable's own member slack); co-membership with another variable in
    k > 1 substitutions double-counts that edge k-1 times and is corrected;
    free_counts[i] adds one u-x edge per clause where x_i survives.  Free
    variables are assumed distinct from the substitutions covering them, and
    repeated (substitution, free variable) combinations are counted without
    merging.

    overlap_counts, when given, must map variable pairs to the number of
    substitutions containing both; it is validated against the substitution
    sets and exists so externally tabulated data can be cross-checked.
    """
    computed_overlap: Counter[frozenset[int]] = Counter()
    membership: dict[int, list[int]] = {}
    for k, sub in enumerate(substitutions):
        for v in sub.variables:
            membership.setdefault(v, []).append(k)
        vs = sub.variables
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                computed_overlap[frozenset((vs[a], vs[b]))] += 1

    if overlap_counts is not None:
        keys = set(computed_overlap) | set(overlap_counts)
        for key in keys:
            given = overlap_counts.get(key, 0)
            actual = computed_overlap.get(key, 0)
            if given != actual:
                raise InconsistentOverlapDataError(
                    f"overlap for {tuple(sorted(key))}: given {given}, "
                    f"substitution sets imply {actual}"
                )

    free_counts = dict(free_counts or {})
    var_indices = sorted(set(membership) | set(free_counts))
    var_degrees = []
    for v in var_indices:
        total = 0
        for k in membership.get(v, ()):
            sub = substitutions[k]
            total += len(sub.variables) + sub.num_sum_slacks + 1
        for key, count in computed_overlap.items():
            if v in key and count > 1:
                total -= count - 1
        total += free_counts.get(v, 0)
        var_degrees.append((v, total))

    sub_degrees = tuple(
        2 * len(s.variables) + s.num_sum_slacks + s.covered_clauses
        for s in substitutions
    )
    sum_slack_degrees = tuple(
        len(s.variables) + s.num_sum_slacks for s in substitutions
    )
    candidates = [d for _, d in var_degrees]
    candidates.extend(sub_degrees)
    candidates.extend(sum_slack_degrees)
    if substitutions:
        candidates.append(2)
    return GeneralDegrees(
        variable_degrees=tuple(var_degrees),
        substitution_degrees=sub_degrees,
        sum_slack_degrees=sum_slack_degrees,
        member_slack_degree=2,
        max_degree=max(candidates, default=0),
    )
