"""Exact multilinear pseudo-Boolean polynomials and their interaction graphs.

Everything downstream (clause reformulations, dualized objectives, degree
tables) is built on one representation: a polynomial over 0/1 variables is a
map from monomial supports to exact rational coefficients.  Since x^2 = x for
0/1 variables, a monomial is fully described by its support set, kept here as
a sorted tuple of variable identifiers.  The zero polynomial is the empty map
and no zero coefficient is ever stored, so two polynomials are equal iff
their term maps are equal.

Coefficients are `fractions.Fraction`; there is no floating point anywhere in
this module.

The interaction graph of a polynomial has one vertex per variable that occurs
in it and one (hyper)edge per distinct monomial support of size >= 2.  Only
supports matter: scaling coefficients never changes the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Rational = int | Fraction

# Kind ranks are chosen so that sorting VarIds agrees with the alphabetical
# order of their rendered names: d... < u... < x... < z...
_KIND_SLACK = 0
_KIND_SUB = 1
_KIND_PROBLEM = 2
_KIND_CLAUSE = 3

_KIND_LABELS = {
    _KIND_SLACK: "slack",
    _KIND_SUB: "sub",
    _KIND_PROBLEM: "problem",
    _KIND_CLAUSE: "clause-indicator",
}


@dataclass(frozen=True, order=True)
class VarId:
    """Identifier for a polynomial variable.

    kind/key pairs:
      problem variable x_i          -> (PROBLEM, (i,))
      clause indicator z_c          -> (CLAUSE, (c,))   c is 0-based
      clause slack d{c+1}_k         -> (SLACK, (0, c, k))
      substitution u over indices   -> (SUB, indices)
      substitution slack            -> (SLACK, (1, *indices, k))

    The derived total order (kind, key) is the canonical variable order used
    for monomial storage and term printing.
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


Monomial = tuple[VarId, ...]


class Polynomial:
    """Immutable multilinear polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        canon: dict[Monomial, Fraction] = {}
        if terms:
            for support, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                key = tuple(sorted(set(support)))
                acc = canon.get(key)
                if acc is None:
                    canon[key] = c
                else:
                    acc = acc + c
                    if acc == 0:
                        del canon[key]
                    else:
                        canon[key] = acc
        object.__setattr__(self, "_terms", canon)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(value: Rational) -> "Polynomial":
        return Polynomial({(): value})

    @staticmethod
    def variable(v: VarId) -> "Polynomial":
        return Polynomial({(v,): 1})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        return dict(self._terms)

    def coefficient(self, support: Iterable[VarId]) -> Fraction:
        return self._terms.get(tuple(sorted(set(support))), Fraction(0))

    def supports(self) -> frozenset[Monomial]:
        return frozenset(self._terms)

    def variables(self) -> frozenset[VarId]:
        out: set[VarId] = set()
        for support in self._terms:
            out.update(support)
        return frozenset(out)

    def degree(self) -> int:
        return max((len(s) for s in self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in canonical print order: by support size, then support."""
        for support in sorted(self._terms, key=lambda s: (len(s), s)):
            yield support, self._terms[support]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial | Rational") -> "Polynomial":
        other = _coerce(other)
        out = dict(self._terms)
        for support, coeff in other._terms.items():
            acc = out.get(support)
            if acc is None:
                out[support] = coeff
            else:
                acc = acc + coeff
                if acc == 0:
                    del out[support]
                else:
                    out[support] = acc
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _wrap({s: -c for s, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | Rational") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Polynomial | Rational") -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Polynomial | Rational") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial()
            return _wrap({s: c * v for s, v in self._terms.items()})
        out: dict[Monomial, Fraction] = {}
        for s1, c1 in self._terms.items():
            set1 = set(s1)
            for s2, c2 in other._terms.items():
                # x^2 = x: the product support is the set union
                key = tuple(sorted(set1.union(s2)))
                acc = out.get(key)
                if acc is None:
                    out[key] = c1 * c2
                else:
                    acc = acc + c1 * c2
                    if acc == 0:
                        del out[key]
                    else:
                        out[key] = acc
        return _wrap(out)

    __rmul__ = __mul__

    def square(self) -> "Polynomial":
        return self * self

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping[VarId, int]) -> Fraction:
        """Evaluate at a 0/1 point; every occurring variable must be bound."""
        total = Fraction(0)
        for support, coeff in self._terms.items():
            val = coeff
            for v in support:
                if v not in assignment:
                    raise MissingVariableError(
                        f"assignment is missing variable {v.name}"
                    )
                bit = assignment[v]
                if bit not in (0, 1):
                    raise ValueError(f"non-binary value {bit!r} for {v.name}")
                if bit == 0:
                    val = Fraction(0)
                    break
            total += val
        return total

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Debug text form, e.g. '1 - x1 - x2 + x1*x2'."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for support, coeff in self.sorted_terms():
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            if not support:
                body = str(mag)
            else:
                names = "*".join(v.name for v in support)
                body = names if mag == 1 else f"{mag}*{names}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({self.to_text()})"


def _coerce(value: "Polynomial | Rational") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


def _wrap(terms: dict[Monomial, Fraction]) -> Polynomial:
    p = Polynomial()
    object.__setattr__(p, "_terms", terms)
    return p


class MissingVariableError(KeyError):
    """An evaluation point left one of the polynomial's variables unbound."""


class UnknownVertexError(KeyError):
    """A degree query named a vertex the graph does not contain."""


class NotSimpleGraphError(ValueError):
    """An operation that needs a simple graph was given hyperedges."""


@dataclass(frozen=True)
class InteractionGraph:
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


def interaction_graph(p: Polynomial) -> InteractionGraph:
    """One vertex per occurring variable, one edge per support of size >= 2.

    Duplicate supports merge; coefficients are ignored entirely.
    """
    vertices: set[VarId] = set()
    edges: set[frozenset[VarId]] = set()
    for support in p.supports():
        vertices.update(support)
        if len(support) >= 2:
            edges.add(frozenset(support))
    return InteractionGraph(frozenset(vertices), frozenset(edges))


def graph_union(graphs: Iterable[InteractionGraph]) -> InteractionGraph:
    """Union of vertex and edge sets across several interaction graphs."""
    vertices: set[VarId] = set()
    edges: set[frozenset[VarId]] = set()
    for g in graphs:
        vertices |= g.vertices
        edges |= g.edges
    return InteractionGraph(frozenset(vertices), frozenset(edges))
