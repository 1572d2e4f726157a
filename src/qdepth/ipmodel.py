"""The pair-selection integer program and its text form.

`build_ip` writes the covering problem as an integer program whose
objective is the max degree plus a tie-break on the number of substitutions,
scaled by 1/(10 |C|) so it can never outweigh a degree step.  The objective
is held exactly as integers over the common denominator 10 |C| (10 with no
clauses), so building or exporting the program needs no `fractions`.
`export_lp` renders it in CPLEX LP format, the one text form of the
program: `qdepth export` writes it and `optimize.solve_ip_exact` hands it to
HiGHS, so an exported file is exactly the program the solver solved.  It
divides each objective weight by the denominator once, which gives the
correctly rounded double of the exact coefficient.

The degree rows count a u-free edge once per distinct (pair, free) key, as
`graph.gvs_graph` does.  A clause repeating an earlier clause's variable
triple is tied to its pair choice, and each key counts through the first
clause.  The ties lose nothing: moving a repeat onto its twin's pair adds
no edge, so no degree or substitution count rises.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .cnf import Instance
from .product import Covering, Pair, coverings, pair_index, quadratic_pairs


class IpModel(NamedTuple):
    """Pair-selection integer program, held exactly.

    Variables are ordered: obj (the max degree, a nonnegative integer),
    then one binary y per candidate pair, in pair id order
    (`product.pair_index`), then one binary z per covering (clause-major).
    Rows are (name, coeffs, sense, rhs) with int coeffs keyed by variable
    index, int right-hand sides and senses "<=" or "=".
    The objective holds int weights over `denominator`: the denominator on
    obj, 1 on each y and 0 on each z.
    """

    instance: Instance
    names: tuple[str, ...]
    objective: tuple[int, ...]
    rows: tuple[tuple[str, tuple[tuple[int, int], ...], str, int], ...]
    pairs: tuple[Pair, ...]
    covers: tuple[Covering, ...]

    @property
    def num_variables(self) -> int:
        return len(self.names)

    @property
    def denominator(self) -> int:
        return tie_break_denominator(self.instance.num_clauses)


def tie_break_denominator(num_clauses: int) -> int:
    """The objective's common denominator, 10 max(|C|, 1): obj weighs it,
    so obj weighs 1 even in a formula with no clauses."""
    return 10 * max(num_clauses, 1)


def build_ip(instance: Instance) -> IpModel:
    """Assemble the exact degree-minimization program for an instance.

    Per problem variable: the degree it would reach under the selection must
    stay at or below obj.  Per pair: likewise for the pair's substitution
    variable, 5 from its penalty block plus one per distinct free variable
    of the clauses it absorbs.  Per clause: exactly one of its three pairs
    is chosen, the same one as the first clause on its variable triple.
    Choosing a covering requires building its pair's gadget (z <= y).
    """
    m = instance.num_clauses
    pairs = pair_index(instance).pairs
    quad = quadratic_pairs(instance)
    covs = coverings(instance)

    names = ["obj"]
    names += [f"y_{a}_{b}" for a, b in pairs]
    names += [f"z_c{c.clause}_{c.pair[0]}_{c.pair[1]}" for c in covs]

    y_index = {p: 1 + i for i, p in enumerate(pairs)}
    z_base = 1 + len(pairs)

    objective = [tie_break_denominator(m)] + [1] * len(pairs) + [0] * len(covs)

    # one pass over the coverings fills every row's coefficients; indices
    # go in ascending (variable, then pair, then covering) order, so each
    # dict is already sorted
    num_quad = Counter(v for p in quad for v in p)
    var_rows = {a: {0: -1} for a in instance.used_variables()}
    for p in pairs:
        weight = 4 - (p in quad)
        for a in p:
            var_rows[a][y_index[p]] = weight
    pair_rows = {p: {0: -1} for p in pairs}
    clause_rows: list[dict[int, int]] = [{} for _ in range(m)]
    ties, links = [], []
    first: dict[tuple[Pair, int], int] = {}  # (pair, free) -> its first z
    for k, cov in enumerate(covs):
        z, p = z_base + k, cov.pair
        z0 = first.setdefault((p, cov.free), z)
        if z0 == z:
            var_rows[cov.free][z] = 1
            pair_rows[p][z] = 1
        else:
            ties.append((f"repeat_c{cov.clause}_{p[0]}_{p[1]}",
                         ((z0, -1), (z, 1)), "=", 0))
        clause_rows[cov.clause][z] = 1
        links.append((f"link_{p[0]}_{p[1]}_c{cov.clause}",
                      ((y_index[p], -1), (z, 1)), "<=", 0))

    rows = [(f"deg_v_{a}", tuple(coeffs.items()), "<=", -num_quad[a])
            for a, coeffs in var_rows.items()]
    rows += [(f"deg_s_{a}_{b}", tuple(coeffs.items()), "<=", -5)
             for (a, b), coeffs in pair_rows.items()]
    rows += [(f"cover_c{c}", tuple(coeffs.items()), "=", 1)
             for c, coeffs in enumerate(clause_rows)]
    rows += ties
    rows += links

    return IpModel(
        instance=instance,
        names=tuple(names),
        objective=tuple(objective),
        rows=tuple(rows),
        pairs=pairs,
        covers=tuple(covs),
    )


def _coef_text(value: int, denominator: int = 1) -> str:
    """value / denominator: as an integer when it is one, else the repr of
    its correctly rounded float."""
    if value % denominator == 0:
        return str(value // denominator)
    return repr(value / denominator)


def export_lp(model: IpModel) -> str:
    """Render the program in CPLEX LP format.

    HiGHS numbers an LP file's columns by first appearance, so the objective
    lists every column in variable order, each z with weight 0.  Every "<="
    row comes before every "=" row, each group in `model.rows` order: the
    layout `scipy.optimize.milp` hands HiGHS, which the solve is checked
    against."""
    names = model.names

    def terms(coeffs: Sequence[tuple[int, int]], denominator: int = 1) -> str:
        # nonnegative terms first so rows read "degree stuff - obj <= rhs"
        ordered = ([t for t in coeffs if t[1] >= 0]
                   + [t for t in coeffs if t[1] < 0])
        parts = []
        for j, v in ordered:
            mag = abs(v)
            body = (names[j] if mag == denominator
                    else f"{_coef_text(mag, denominator)} {names[j]}")
            parts.append(f"{'-' if v < 0 else '+'} {body}")
        return " ".join(parts).removeprefix("+ ")

    rows = sorted(model.rows, key=lambda row: row[2] == "=")
    objective = terms(list(enumerate(model.objective)), model.denominator)
    lines = ["Minimize", f" total: {objective}", "Subject To"]
    lines += [f" {name}: {terms(coeffs)} {sense} {_coef_text(rhs)}"
              for name, coeffs, sense, rhs in rows]
    lines += ["Bounds", " obj >= 0", "Binary"]
    lines += [f" {name}" for name in names[1:]]
    lines += ["General", " obj", "End"]
    return "\n".join(lines) + "\n"
