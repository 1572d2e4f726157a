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
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .cnf import Instance
from .graph import InteractionGraph, VarId, graph_union
from .linear import checked_penalty
from .product import Pair, clause_violation, quadratic_pairs
from .reports import DepthReport

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


def cover_free_variables(instance: Instance, cover: Cover) -> tuple[int, ...]:
    """The unsubstituted variable of each clause, in clause order."""
    out = []
    for c, pair in enumerate(cover.pairs):
        (free,) = instance.clause_vars(c).difference(pair)
        out.append(free)
    return tuple(out)


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
    _validate(instance, cover)
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


def gvs_derived_graph(instance: Instance, cover: Cover) -> InteractionGraph:
    """Union of per-addend interaction graphs; independent of the penalty."""
    from .pubo import interaction_graph

    return graph_union(
        interaction_graph(p) for p in gvs_addends(instance, cover, 1)
    )


def _validate(instance: Instance, cover: Cover) -> None:
    """A cover made for another instance fails here as it would in make_cover."""
    make_cover(instance, cover.pairs)


def _degree_counts(instance: Instance, cover: Cover) -> tuple[Counter, Counter]:
    """Each problem variable's degree and each used pair's clause count,
    for a cover already checked against the instance."""
    P = quadratic_pairs(instance)
    cover_counts = Counter(cover.pairs)
    # per variable: its free occurrences, 4 per used pair holding it (3 if
    # that pair is also quadratic), plus 1 per quadratic pair holding it
    degrees = Counter(cover_free_variables(instance, cover))
    for s in cover_counts:
        for v in s:
            degrees[v] += 3 if s in P else 4
    for p in P:
        for v in p:
            degrees[v] += 1
    return degrees, cover_counts


def _max_degree(instance: Instance, cover: Cover) -> int:
    """Δ of a cover fresh from `make_cover`, without checking it again."""
    degrees, cover_counts = _degree_counts(instance, cover)
    # a used pair's slacks (3 and 2) never reach its u's 5 + clauses
    return max([*degrees.values(), *(5 + n for n in cover_counts.values())],
               default=0)


def gvs_degree_table(instance: Instance, cover: Cover) -> dict[VarId, int]:
    """Closed-form degrees for every vertex of the substituted model."""
    _validate(instance, cover)
    degrees, cover_counts = _degree_counts(instance, cover)
    table = {VarId.x(v): degrees[v] for v in instance.used_variables()}
    for pair in cover.used:
        table[VarId.sub(pair)] = 5 + cover_counts[pair]
        table[VarId.sub_slack(pair, 1)] = 3
        table[VarId.sub_slack(pair, 2)] = 2
        table[VarId.sub_slack(pair, 3)] = 2
    return table


def gvs_max_degree(instance: Instance, cover: Cover) -> int:
    _validate(instance, cover)
    return _max_degree(instance, cover)


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
