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

The interaction graph of a sum of polynomials has one (hyper)edge per
distinct monomial support of size >= 2 among its addends.  Only supports
matter: scaling coefficients never changes the graph.  `derived_graph`
builds it as a `qdepth.graph.IntGraph`, numbering each variable as the
encoding's degree table names it.  `VarId` lives in `qdepth.graph`, which
needs no exact arithmetic, and is re-exported here.  This is the base of
the oracle layer (see `qdepth.cli`): `linear` and `gvs` build on it, and
no command loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .graph import IntGraph, VarId

Rational = int | Fraction

Monomial = tuple[VarId, ...]


class Polynomial:
    """Immutable multilinear polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Rational] | None = None):
        canon: dict[Monomial, Fraction] = {}
        if terms:
            for support, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    _add_term(canon, tuple(sorted(set(support))), c)
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

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial | Rational") -> "Polynomial":
        other = _coerce(other)
        out = dict(self._terms)
        for support, coeff in other._terms.items():
            _add_term(out, support, coeff)
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
                _add_term(out, tuple(sorted(set1.union(s2))), c1 * c2)
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
        # canonical print order: by support size, then support
        for support in sorted(self._terms, key=lambda s: (len(s), s)):
            coeff = self._terms[support]
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


def _add_term(terms: dict[Monomial, Fraction], support: Monomial,
              coeff: Fraction) -> None:
    """Add a nonzero coefficient into terms, dropping a sum of zero."""
    acc = terms.get(support)
    if acc is not None:
        coeff += acc
        if not coeff:
            del terms[support]
            return
    terms[support] = coeff


def _wrap(terms: dict[Monomial, Fraction]) -> Polynomial:
    p = Polynomial()
    object.__setattr__(p, "_terms", terms)
    return p


class MissingVariableError(KeyError):
    """An evaluation point left one of the polynomial's variables unbound."""


def derived_graph(addends: Iterable[Polynomial], num_vars: int,
                  ancillas: Sequence[VarId]) -> IntGraph:
    """The union of the addends' interaction graphs, numbered as
    `IntGraph.degree_table` names vertices: x_i is i and ancillas[k] is
    num_vars + 1 + k.  Duplicate supports merge; coefficients are ignored,
    so terms that cancel between addends keep their edges.
    """
    vertex = {a: num_vars + 1 + k for k, a in enumerate(ancillas)}
    vertex.update((VarId.x(i), i) for i in range(1, num_vars + 1))
    return IntGraph(num_vars, frozenset(
        tuple(sorted(vertex[v] for v in support))
        for p in addends for support in p.supports() if len(support) >= 2))
