"""3-SAT instances and DIMACS CNF parsing.

The parser accepts the plain DIMACS format plus the SATLIB benchmark trailer
(a line starting with '%' followed by a stray '0'); everything from the '%'
on is ignored.  Clauses may span lines and are terminated by 0.

Clauses are canonicalized to tuples of literals sorted by variable index, so
(5, -2, 4) is stored as (-2, 4, 5).  Clause order is preserved; clause
indices used throughout the package are positions in that order, 0-based.
"""

from __future__ import annotations

import warnings
from typing import Iterable, NamedTuple, Sequence


class DimacsError(ValueError):
    """Malformed DIMACS input."""


class DegenerateClauseError(ValueError):
    """A clause does not have the shape the caller requires."""


class DuplicateClauseWarning(UserWarning):
    """The instance contains the same clause (as a literal set) twice."""


class Instance(NamedTuple):
    """A CNF instance: variable count and canonicalized clauses."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def clause_vars(self, c: int) -> frozenset[int]:
        return frozenset(abs(lit) for lit in self.clauses[c])

    def used_variables(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for clause in self.clauses:
            seen.update(abs(lit) for lit in clause)
        return tuple(sorted(seen))


def _canonical_clause(literals: Sequence[int], where: str):
    if not literals:
        raise DegenerateClauseError(f"empty clause {where}")
    by_var: dict[int, int] = {}
    for lit in literals:
        v = abs(lit)
        prev = by_var.get(v)
        if prev is None:
            by_var[v] = lit
        elif prev != lit:
            raise DegenerateClauseError(
                f"clause {where} contains both {v} and -{v}"
            )
        # exact duplicate literal: collapse silently
    clause = tuple(by_var[v] for v in sorted(by_var))
    if len(clause) != 3:
        raise DegenerateClauseError(
            f"clause {where} has {len(clause)} distinct variables, expected 3"
        )
    return clause


def make_instance(
    clauses: Iterable[Sequence[int]], num_vars: int | None = None
) -> Instance:
    """Build an Instance from literal sequences, canonicalizing each clause.

    num_vars defaults to the largest variable index used.  Duplicate clauses
    are kept (they change multiset-based degree counts) but warned about.
    """
    canon = []
    for i, literals in enumerate(clauses):
        canon.append(_canonical_clause(literals, f"#{i}"))
    max_used = max((abs(l) for c in canon for l in c), default=0)
    if num_vars is None:
        num_vars = max_used
    elif num_vars < max_used:
        raise DimacsError(
            f"num_vars={num_vars} but a clause mentions variable {max_used}"
        )
    _warn_duplicates(canon)
    return Instance(num_vars, tuple(canon))


def _warn_duplicates(clauses) -> None:
    """Warn once per repeated clause.  Only public entry points call this,
    directly, so stacklevel=3 names the code that called them."""
    seen: dict[frozenset[int], int] = {}
    for i, clause in enumerate(clauses):
        key = frozenset(clause)
        if key in seen:
            warnings.warn(
                f"clause #{i} repeats clause #{seen[key]}: {clause}",
                DuplicateClauseWarning,
                stacklevel=3,
            )
        else:
            seen[key] = i


def parse_dimacs(text: str) -> Instance:
    instance = _read_dimacs(text)
    _warn_duplicates(instance.clauses)
    return instance


def _integer(token: str, lineno: int, within: str = "") -> int:
    """`-?[0-9]+` in ASCII; int() would also take '+2', '1_0', '٣' etc."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise DimacsError(f"line {lineno}: non-integer {within}token {token!r}")
    return int(token)


def _read_dimacs(text: str) -> Instance:
    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break  # SATLIB trailer: '%' then a lone 0, both ignored
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(f"line {lineno}: expected 'p cnf <vars> <clauses>'")
            num_vars, declared_clauses = (
                _integer(token, lineno, "problem line ") for token in fields[2:])
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {lineno}: negative counts")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause data before problem line")
        for token in line.split():
            lit = _integer(token, lineno)
            if lit == 0:
                clauses.append(
                    _canonical_clause(pending, f"#{len(clauses)} (line {lineno})")
                )
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"line {lineno}: literal {lit} exceeds declared "
                        f"variable count {num_vars}"
                    )
                pending.append(lit)

    if num_vars is None:
        raise DimacsError("missing problem line")
    if pending:
        raise DimacsError("last clause is not terminated by 0")
    if declared_clauses is not None and len(clauses) != declared_clauses:
        raise DimacsError(
            f"problem line declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return Instance(num_vars, tuple(clauses))


def load_dimacs(path) -> Instance:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        instance = _read_dimacs(fh.read())
    _warn_duplicates(instance.clauses)
    return instance


def to_dimacs(instance: Instance, comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}".rstrip() for c in comments]
    lines.append(f"p cnf {instance.num_vars} {instance.num_clauses}")
    for clause in instance.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def example1() -> Instance:
    """The worked five-variable, four-clause instance used across the docs."""
    return make_instance([(1, 2, -3), (1, 3, 4), (-2, 4, 5), (1, -2, 5)])
