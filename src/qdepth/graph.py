"""Variable identifiers and interaction graphs: the structure, not the algebra.

Degree tables, colorings and the command line need only which variables
exist and which of them interact; they never need coefficient values.  This
module holds that structure with no dependence on `fractions`, so a command
that never builds a polynomial never loads the exact-arithmetic layer
(`qdepth.pubo`, which re-exports `VarId`).

`IntGraph` is the one graph type: vertices are integers, edges sorted int
tuples.  `linear_graph`, `gvs_graph` and `native3_graph` build each
encoding's graph straight from the clause supports, each gate once however
many clauses produce it, and `linear_ancillas` and `gvs_ancillas` name the
ancilla vertices they number.  Every report, degree table, Δ and edge count
is read from these graphs (`qdepth.reports.graph_report`), and
`qdepth.schedule` colors and layers them.  The polynomial route
(`linear_derived_graph`, `gvs_derived_graph`) builds the same graphs,
numbered through the same names, and stays as their check.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .product import quadratic_pairs, require_three_sat

if TYPE_CHECKING:
    from .cnf import Instance
    from .product import Pair

# Kind ranks are chosen so that sorting VarIds agrees with the alphabetical
# order of their rendered names: d... < u... < x... < z...
_KIND_SLACK = 0
_KIND_SUB = 1
_KIND_PROBLEM = 2
_KIND_CLAUSE = 3


class VarId(NamedTuple):
    """Identifier for a polynomial variable.

    kind/key pairs:
      problem variable x_i          -> (PROBLEM, (i,))
      clause indicator z_c          -> (CLAUSE, (c,))   c is 0-based
      clause slack d{c+1}_k         -> (SLACK, (0, c, k))
      substitution u over indices   -> (SUB, indices)
      substitution slack            -> (SLACK, (1, *indices, k))

    The tuple order (kind, key) is the canonical variable order used for
    monomial storage and term printing.
    """

    kind: int
    key: tuple[int, ...]

    @staticmethod
    def x(i: int) -> "VarId":
        if i < 1:
            raise ValueError(f"problem variable index must be >= 1, got {i}")
        return VarId(_KIND_PROBLEM, (i,))

    @staticmethod
    def z(clause: int) -> "VarId":
        if clause < 0:
            raise ValueError(f"clause index must be >= 0, got {clause}")
        return VarId(_KIND_CLAUSE, (clause,))

    @staticmethod
    def clause_slack(clause: int, k: int) -> "VarId":
        if clause < 0 or k not in (1, 2):
            raise ValueError(f"bad clause slack ({clause}, {k})")
        return VarId(_KIND_SLACK, (0, clause, k))

    @staticmethod
    def sub(indices: Iterable[int]) -> "VarId":
        idx = tuple(sorted(indices))
        if len(idx) < 2 or len(set(idx)) != len(idx) or idx[0] < 1:
            raise ValueError(f"substitution needs >= 2 distinct indices, got {idx}")
        return VarId(_KIND_SUB, idx)

    @staticmethod
    def sub_slack(indices: Iterable[int], k: int) -> "VarId":
        idx = tuple(sorted(indices))
        if len(idx) < 2 or k < 1:
            raise ValueError(f"bad substitution slack ({idx}, {k})")
        return VarId(_KIND_SLACK, (1,) + idx + (k,))

    @property
    def name(self) -> str:
        if self.kind == _KIND_PROBLEM:
            return f"x{self.key[0]}"
        if self.kind == _KIND_CLAUSE:
            return f"z{self.key[0] + 1}"
        if self.kind == _KIND_SUB:
            return "u" + _join_indices(self.key)
        # slack
        if self.key[0] == 0:
            _, clause, k = self.key
            return f"d{clause + 1}_{k}"
        indices, k = self.key[1:-1], self.key[-1]
        return "du" + _join_indices(indices) + f"_{k}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VarId({self.name})"


def _join_indices(indices: tuple[int, ...]) -> str:
    # Single digits are concatenated (u13); anything wider is underscored
    # (u10_11) so no two index tuples render alike.
    if all(i <= 9 for i in indices):
        return "".join(str(i) for i in indices)
    return "_".join(str(i) for i in indices)


class IntGraph(NamedTuple):
    """An encoding's interaction graph over integer vertices.

    Vertex i <= num_vars is problem variable i; vertex num_vars + 1 + k is
    the encoding's ancilla k.  Each edge, or native3 hyperedge, is a sorted
    int tuple, held once.
    """

    num_vars: int
    edges: frozenset[tuple[int, ...]]

    def degrees(self) -> Counter[int]:
        return Counter(chain.from_iterable(self.edges))

    def max_degree(self) -> int:
        return max(self.degrees().values(), default=0)

    def is_simple(self) -> bool:
        return all(len(e) == 2 for e in self.edges)

    def degree_table(self, ancillas: Sequence[VarId] = ()) -> dict[VarId, int]:
        """Degrees by name, in vertex order: vertex i <= num_vars is x_i and
        ancilla k is named by ancillas[k]."""
        n = self.num_vars
        return {VarId.x(v) if v <= n else ancillas[v - n - 1]: d
                for v, d in sorted(self.degrees().items())}


def _triples(instance: Instance) -> list[tuple[int, int, int]]:
    require_three_sat(instance)
    return [tuple(sorted(abs(lit) for lit in clause))
            for clause in instance.clauses]


def linear_graph(instance: Instance) -> IntGraph:
    """The dualized linear encoding: one K6 per clause c on its variables
    and its ancillas 3c, 3c+1, 3c+2 (d_c1, d_c2, z_c)."""
    n = instance.num_vars
    edges = set()
    for c, triple in enumerate(_triples(instance)):
        a = n + 1 + 3 * c
        edges.update(combinations(triple + (a, a + 1, a + 2), 2))
    return IntGraph(n, frozenset(edges))


def linear_ancillas(instance: Instance) -> list[VarId]:
    """Ancilla k of `linear_graph`, by name: d_c1, d_c2, z_c per clause c."""
    return [a for c in range(instance.num_clauses)
            for a in (VarId.clause_slack(c, 1), VarId.clause_slack(c, 2),
                      VarId.z(c))]


def gvs_graph(instance: Instance, pairs: Sequence[Pair]) -> IntGraph:
    """The pair-substituted encoding of a cover, pairs[c] within clause c.

    Used pair k (sorted) owns ancillas 4k to 4k+3: u, d1, d2, d3.  Edges:
    the quadratic pairs; per used pair (i, j) its penalty block's i-j, u-i,
    u-j, u-d1, u-d2, u-d3, d1-i, d1-j, d2-i and d3-j; and one u-free edge
    per distinct (pair, free variable) key, shared by its clauses.
    """
    n = instance.num_vars
    # a pair's free variable is the rest of its clause's triple
    keys = {(pair, sum(triple) - sum(pair))
            for pair, triple in zip(pairs, _triples(instance))}
    used = sorted({pair for pair, _ in keys})
    u_of = {pair: n + 1 + 4 * k for k, pair in enumerate(used)}
    edges = set(quadratic_pairs(instance))
    for (i, j), u in u_of.items():
        edges.update(((i, j), (i, u), (j, u), (u, u + 1), (u, u + 2),
                      (u, u + 3), (i, u + 1), (j, u + 1), (i, u + 2),
                      (j, u + 3)))
    edges.update((free, u_of[pair]) for pair, free in keys)
    return IntGraph(n, frozenset(edges))


def gvs_ancillas(pairs: Sequence[Pair]) -> list[VarId]:
    """Ancilla k of `gvs_graph`, by name: u, d1, d2, d3 per used pair."""
    return [a for pair in sorted(set(pairs))
            for a in (VarId.sub(pair), VarId.sub_slack(pair, 1),
                      VarId.sub_slack(pair, 2), VarId.sub_slack(pair, 3))]


def native3_graph(instance: Instance) -> IntGraph:
    """The cubic encoding run directly: one hyperedge per distinct clause
    triple.  A clause is one three-qubit gate block; its quadratic terms act
    on subsets of the triple and ride along in the same layer."""
    return IntGraph(instance.num_vars, frozenset(_triples(instance)))
