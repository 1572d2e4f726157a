"""Variable identifiers and interaction graphs: the structure, not the algebra.

Degree tables, colorings and the command line need only which variables
exist and which of them interact; they never need coefficient values.  This
module holds that structure with no dependence on `fractions`, so a command
that never builds a polynomial never loads the exact-arithmetic layer
(`qdepth.pubo`, which re-exports these names).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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


class UnknownVertexError(KeyError):
    """A degree query named a vertex the graph does not contain."""


class NotSimpleGraphError(ValueError):
    """An operation that needs a simple graph was given hyperedges."""


class InteractionGraph(NamedTuple):
    """Vertices and distinct (hyper)edges derived from monomial supports."""

    vertices: frozenset[VarId]
    edges: frozenset[frozenset[VarId]]

    def degree(self, v: VarId) -> int:
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return sum(1 for e in self.edges if v in e)

    def degrees(self) -> dict[VarId, int]:
        out = {v: 0 for v in self.vertices}
        for e in self.edges:
            for v in e:
                out[v] += 1
        return out

    def max_degree(self) -> int:
        if not self.vertices:
            return 0
        return max(self.degrees().values())

    def is_simple(self) -> bool:
        return all(len(e) == 2 for e in self.edges)


def graph_union(graphs: Iterable[InteractionGraph]) -> InteractionGraph:
    """Union of vertex and edge sets across several interaction graphs."""
    vertices: set[VarId] = set()
    edges: set[frozenset[VarId]] = set()
    for g in graphs:
        vertices |= g.vertices
        edges |= g.edges
    return InteractionGraph(frozenset(vertices), frozenset(edges))
