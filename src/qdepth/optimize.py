"""Choosing which variable pairs to substitute.

Collapsing a pair of variables that share a clause removes that clause's
cubic term, at the price of a fresh variable and three penalty constraints.
Which pairs to collapse is a covering problem: every clause needs one of its
three pairs substituted, and the choice drives the maximum interaction
degree, hence the depth bound.

Three solvers live here.  `solve_ip_exact` builds an integer program whose
objective is the max degree plus a tie-break on the number of substitutions
(scaled by 1/(10 |C|) so it can never outweigh a degree step) and hands it
to HiGHS through scipy; results are re-scored in exact rational arithmetic,
so the reported optimum never inherits float error.  `greedy_cover` is the
cheap randomized heuristic: repeatedly substitute a pair covering the most
uncovered clauses, drawing uniformly among the tied pairs in sorted order.
It keeps every pair's gain exact incrementally, in buckets by gain, so a
round costs the clauses it covers rather than a rescan of all pairs; the
tied set and the rng draws are those of a full rescan.  `greedy_batch`
builds the pair/clause index once and reuses it for every seed.
`enumerate_exact` brute-forces all 3^|C| covers and exists to cross-check
the integer program on small inputs.

`solve_ip_exact` loads scipy's compiled HiGHS extension,
scipy/optimize/_highspy/_core, straight from its file (`_highs`), never the
`scipy.optimize` package, whose import costs several times the solve on a
uf20-sized instance.  It hands HiGHS the program as a temporary free-format
MPS file (`_mps_text`): the extension's in-memory model takes its vectors as
numpy arrays, and reading a file is what keeps numpy, the largest import
left, from loading at all.  Building or exporting the program and the
heuristics load no part of scipy; on the command line only `gvs-ip` (in
`analyze` and `histogram`) and `compare` do.

The degree model inside the program counts one interaction per clause
occurrence, matching the closed-form degree table rather than the deduped
interaction graph; the two agree whenever no two clauses share all three
variables.
"""

from __future__ import annotations

import importlib.util
import math
import os
import random
import statistics
import sys
import tempfile
import time
from bisect import bisect_left, insort
from collections import Counter
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import combinations, product
from typing import Iterable, NamedTuple, Sequence

from . import DEFAULT_BUDGET_SECS
from .cnf import Instance
from .gvs import Cover, _max_degree, gvs_max_degree, make_cover
from .linear import linear_max_degree
from .product import (
    Covering,
    Pair,
    candidate_pairs,
    coverings,
    covering_graph,
    quadratic_pairs,
)
from .reports import ComparisonRow

# float dual bounds get this much slack before the integer rounding, so a
# last-digit wobble cannot inflate the claimed lower bound
DUAL_BOUND_FUZZ = Fraction(1, 10**9)


class ModelError(RuntimeError):
    """The solver returned something the model rules out (infeasible etc.)."""


class IpModel(NamedTuple):
    """Pair-selection integer program, held exactly.

    Variables are ordered: obj (the max degree, a nonnegative integer),
    then one binary y per candidate pair, then one binary z per covering
    (clause-major).  Rows are (name, coeffs, sense, rhs) with int coeffs
    keyed by variable index, int right-hand sides and senses "<=" or "=".
    Only the objective needs `Fraction`s, for its 1/(10 |C|) tie-break.
    """

    instance: Instance
    names: tuple[str, ...]
    objective: tuple[Fraction, ...]
    rows: tuple[tuple[str, tuple[tuple[int, int], ...], str, int], ...]
    pairs: tuple[Pair, ...]
    covers: tuple[Covering, ...]

    @property
    def num_variables(self) -> int:
        return len(self.names)


def build_ip(instance: Instance) -> IpModel:
    """Assemble the exact degree-minimization program for an instance.

    Per problem variable: the degree it would reach under the selection must
    stay at or below obj.  Per pair: likewise for the pair's substitution
    variable, 5 from its penalty block plus one per clause it absorbs.  Per
    clause: exactly one of its three pairs is chosen.  Choosing a covering
    requires building its pair's gadget (z <= y).
    """
    m = instance.num_clauses
    pairs = sorted(candidate_pairs(instance))
    quad = quadratic_pairs(instance)
    covs = coverings(instance)

    names = ["obj"]
    names += [f"y_{a}_{b}" for a, b in pairs]
    names += [f"z_c{c.clause}_{c.pair[0]}_{c.pair[1]}" for c in covs]

    y_index = {p: 1 + i for i, p in enumerate(pairs)}
    z_base = 1 + len(pairs)

    tiebreak = Fraction(1, 10 * m)
    objective = [Fraction(1)]
    objective += [tiebreak] * len(pairs)
    objective += [Fraction(0)] * len(covs)

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
    links = []
    for k, cov in enumerate(covs):
        z, p = z_base + k, cov.pair
        var_rows[cov.free][z] = 1
        pair_rows[p][z] = 1
        clause_rows[cov.clause][z] = 1
        links.append((f"link_{p[0]}_{p[1]}_c{cov.clause}",
                      ((y_index[p], -1), (z, 1)), "<=", 0))

    rows = [(f"deg_v_{a}", tuple(coeffs.items()), "<=", -num_quad[a])
            for a, coeffs in var_rows.items()]
    rows += [(f"deg_s_{a}_{b}", tuple(coeffs.items()), "<=", -5)
             for (a, b), coeffs in pair_rows.items()]
    rows += [(f"cover_c{c}", tuple(coeffs.items()), "=", 1)
             for c, coeffs in enumerate(clause_rows)]
    rows += links

    return IpModel(
        instance=instance,
        names=tuple(names),
        objective=tuple(objective),
        rows=tuple(rows),
        pairs=tuple(pairs),
        covers=tuple(covs),
    )


class IpSolution(NamedTuple):
    """Outcome of one exact-solver run.

    status is "optimal" when optimality was proven within budget,
    "feasible_bound" when time ran out with an incumbent in hand (then
    lower_bound brackets the true optimum from below), and "timed_out" when
    not even an incumbent was found.  Degree, cover and objective are exact
    values recomputed from the extracted cover, never the solver's floats.
    """

    status: str
    cover: Cover | None
    max_degree: int | None
    num_substitutions: int | None
    objective: Fraction | None
    lower_bound: int | None


def _degree_lower_bound(dual_bound: float, num_pairs: int, m: int) -> int | None:
    if not math.isfinite(dual_bound):
        return None
    # obj >= dual bound minus the largest possible tie-break mass
    slack = Fraction(num_pairs, 10 * m)
    bound = Fraction(dual_bound).limit_denominator(10**12) - slack - DUAL_BOUND_FUZZ
    return max(0, math.ceil(bound))


def _extract_cover(model: IpModel, x: Sequence[float]) -> Cover:
    m = model.instance.num_clauses
    z_base = 1 + len(model.pairs)
    choice: list[Pair | None] = [None] * m
    best = [-1.0] * m
    for k, cov in enumerate(model.covers):
        val = float(x[z_base + k])
        if val > best[cov.clause]:
            best[cov.clause] = val
            choice[cov.clause] = cov.pair
    if any(v < 0.5 for v in best):
        raise ModelError("incumbent leaves a clause uncovered")
    return make_cover(model.instance, choice)


def score_cover(instance: Instance, cover: Cover) -> Fraction:
    """Exact objective value of a cover: max degree plus the tie-break mass."""
    return _score(instance, cover, gvs_max_degree(instance, cover))


def _score(instance: Instance, cover: Cover, degree: int) -> Fraction:
    return degree + Fraction(cover.num_substitutions, 10 * instance.num_clauses)


SCIPY_FLOOR = "1.15"  # first release with scipy/optimize/_highspy/_core
_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs():
    """scipy's compiled HiGHS binding, loaded without `scipy.optimize`.

    It is registered under its real name because pybind11 refuses to
    register its types twice, so a later `import scipy.optimize` reuses it.
    """
    core = sys.modules.get(_HIGHS_CORE)
    if core is None:
        scipy = importlib.util.find_spec("scipy")
        base = os.path.join(scipy.submodule_search_locations[0], "optimize",
                            "_highspy", "_core") if scipy else ""
        path = next((base + suffix for suffix in EXTENSION_SUFFIXES
                     if base and os.path.exists(base + suffix)), None)
        if path is None:
            raise ImportError(f"the exact solver needs scipy>={SCIPY_FLOOR}")
        spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
        core = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_CORE] = core
        spec.loader.exec_module(core)
    return core


def _mps_text(model: IpModel) -> str:
    """The program as a free-format MPS file, laid out as `milp` passed it:
    columns in variable order, every "<=" row before every "=" row, all
    columns integer, obj in [0, inf) and the rest in [0, 1].  Values are
    written as `repr` of their float, which reads back bit for bit."""
    names = model.names
    rows = sorted(model.rows, key=lambda row: row[2] == "=")
    # a column's entries must be contiguous: its cost, then its rows in order
    columns: list[list[tuple[str, Fraction]]] = [
        [("cost", v)] if v else [] for v in model.objective]
    for row, coeffs, _, _ in rows:
        for j, v in coeffs:
            columns[j].append((row, v))
    lines = ["NAME qdepth", "ROWS", " N cost"]
    lines += [f" {'E' if sense == '=' else 'L'} {row}"
              for row, _, sense, _ in rows]
    lines += ["COLUMNS", " MARKER 'MARKER' 'INTORG'"]
    lines += [f" {names[j]} {row} {float(v)!r}"
              for j, column in enumerate(columns) for row, v in column]
    lines += [" MARKER 'MARKER' 'INTEND'", "RHS"]
    lines += [f" rhs {row} {float(rhs)!r}" for row, _, _, rhs in rows]
    lines += ["BOUNDS", f" PL bnd {names[0]}"]
    lines += [f" UP bnd {name} 1.0" for name in names[1:]]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def solve_ip_exact(
    instance: Instance, budget_secs: float = DEFAULT_BUDGET_SECS
) -> IpSolution:
    """Minimize the substituted max degree, exactly, within a time budget."""
    h = _highs()
    model = build_ip(instance)
    highs = h._Highs()
    options = h.HighsOptions()
    options.log_to_console = False
    fd, path = tempfile.mkstemp(suffix=".mps")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_mps_text(model))
        # the MPS reader obeys time_limit, so the budget comes after it
        rejected = (highs.passOptions(options) == h.HighsStatus.kError
                    or highs.readModel(path) == h.HighsStatus.kError)
    finally:
        os.unlink(path)
    options.time_limit = float(budget_secs)
    options.mip_rel_gap = 0.0
    if rejected or highs.passOptions(options) == h.HighsStatus.kError:
        raise ModelError("HiGHS rejected the program or its options")
    highs.run()

    model_status = highs.getModelStatus()
    info = highs.getInfo()
    limited = model_status in (h.HighsModelStatus.kTimeLimit,
                               h.HighsModelStatus.kIterationLimit,
                               h.HighsModelStatus.kSolutionLimit)
    if model_status == h.HighsModelStatus.kOptimal:
        status = "optimal"
    elif limited and math.isfinite(info.objective_function_value):
        status = "feasible_bound"
    elif limited:
        return IpSolution("timed_out", None, None, None, None, None)
    else:
        raise ModelError("solver failed on a feasible model: "
                         + highs.modelStatusToString(model_status))

    cover = _extract_cover(model, highs.getSolution().col_value)
    degree = _max_degree(instance, cover)
    lower = degree if status == "optimal" else _degree_lower_bound(
        info.mip_dual_bound, len(model.pairs), instance.num_clauses)
    return IpSolution(
        status=status,
        cover=cover,
        max_degree=degree,
        num_substitutions=cover.num_substitutions,
        objective=_score(instance, cover, degree),
        lower_bound=lower,
    )


def enumerate_exact(instance: Instance) -> IpSolution:
    """Try every per-clause pair choice; only sensible for small |C|.

    Scores covers with its own inline degree count instead of the shared
    degree-table code, so agreement with the integer program is a genuine
    cross-check.  Ties resolve to the first minimizer in lexicographic
    choice order, making the returned cover deterministic.
    """
    m = instance.num_clauses
    quad = quadratic_pairs(instance)
    p_count = Counter(v for p in quad for v in p)
    variables = instance.used_variables()
    clause_options = []
    for c in range(m):
        vs = sorted(instance.clause_vars(c))
        clause_options.append(
            [(pair, next(v for v in vs if v not in pair))
             for pair in combinations(vs, 2)]
        )

    best: Fraction | None = None
    best_choice = None
    for choice in product(*clause_options):
        used: dict[Pair, int] = {}
        free_counts: Counter = Counter()
        for pair, free in choice:
            used[pair] = used.get(pair, 0) + 1
            free_counts[free] += 1
        delta = 0
        for pair, covered in used.items():
            if 5 + covered > delta:
                delta = 5 + covered
        for a in variables:
            d = p_count[a] + free_counts[a]
            for p in used:
                if a in p:
                    d += 3 if p in quad else 4
            if d > delta:
                delta = d
        value = Fraction(delta) + Fraction(len(used), 10 * m)
        if best is None or value < best:
            best = value
            best_choice = choice

    assert best_choice is not None
    cover = make_cover(instance, [pair for pair, _ in best_choice])
    degree = gvs_max_degree(instance, cover)
    value = _score(instance, cover, degree)
    if value != best:
        raise ModelError("inline degree count disagrees with the degree table")
    return IpSolution(
        status="optimal",
        cover=cover,
        max_degree=degree,
        num_substitutions=cover.num_substitutions,
        objective=value,
        lower_bound=degree,
    )


def _coef_text(value: int | Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return repr(float(value))


def export_lp(model: IpModel) -> str:
    """Render the program in CPLEX LP format (for external solvers)."""
    names = model.names

    def terms(coeffs: Sequence[tuple[int, int | Fraction]]) -> str:
        # positive terms first so rows read "degree stuff - obj <= rhs"
        ordered = [t for t in coeffs if t[1] > 0] + [t for t in coeffs if t[1] < 0]
        parts = []
        for idx, (j, v) in enumerate(ordered):
            mag = abs(v)
            body = names[j] if mag == 1 else f"{_coef_text(mag)} {names[j]}"
            if idx == 0:
                parts.append(body if v > 0 else f"- {body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    obj_coeffs = [(j, v) for j, v in enumerate(model.objective) if v != 0]
    lines = ["Minimize", f" total: {terms(obj_coeffs)}", "Subject To"]
    for name, coeffs, sense, rhs in model.rows:
        op = "<=" if sense == "<=" else "="
        lines.append(f" {name}: {terms(coeffs)} {op} {_coef_text(rhs)}")
    lines.append("Bounds")
    lines.append(" obj >= 0")
    lines.append("Binary")
    for name in names[1:]:
        lines.append(f" {name}")
    lines.append("General")
    lines.append(" obj")
    lines.append("End")
    return "\n".join(lines) + "\n"


class _CoverIndex(NamedTuple):
    """The covering relation of one instance, integer-indexed for greedy.

    Pair ids follow sorted pair order, so a sorted list of ids is a sorted
    list of pairs.
    """

    pairs: tuple[Pair, ...]
    reach: tuple[tuple[int, ...], ...]           # pair id -> its clauses
    clause_pairs: tuple[tuple[int, ...], ...]    # clause -> its 3 pair ids


def _cover_index(instance: Instance) -> _CoverIndex:
    graph = covering_graph(instance)
    pairs = tuple(sorted(graph))
    reach = tuple(graph[p] for p in pairs)
    clause_pairs: list[list[int]] = [[] for _ in range(instance.num_clauses)]
    for i, cs in enumerate(reach):
        for c in cs:
            clause_pairs[c].append(i)
    return _CoverIndex(pairs, reach, tuple(map(tuple, clause_pairs)))


def _greedy_from_index(
    instance: Instance, index: _CoverIndex, rng: random.Random
) -> Cover:
    gain = [len(cs) for cs in index.reach]
    # buckets[g]: ids of the unpicked pairs of gain g, ascending
    buckets: list[list[int]] = [[] for _ in range(max(gain, default=0) + 1)]
    for i, g in enumerate(gain):
        buckets[g].append(i)
    top = len(buckets) - 1
    assignment: list[Pair | None] = [None] * len(index.clause_pairs)
    remaining = len(assignment)
    while remaining:
        while not buckets[top]:
            top -= 1
        bucket = buckets[top]
        pick = rng.choice(bucket)
        del bucket[bisect_left(bucket, pick)]
        pair = index.pairs[pick]
        for c in index.reach[pick]:
            if assignment[c] is not None:
                continue
            assignment[c] = pair
            remaining -= 1
            for q in index.clause_pairs[c]:
                if q == pick:
                    continue
                g = gain[q]
                del buckets[g][bisect_left(buckets[g], q)]
                insort(buckets[g - 1], q)
                gain[q] = g - 1
    return make_cover(instance, assignment)


def greedy_cover(instance: Instance, seed: int | random.Random = 0) -> Cover:
    """Pick the pair covering the most uncovered clauses, repeat, tie-break
    uniformly at random.

    Each round draws `rng.choice` over the tied pairs in sorted order.  The
    gains are kept exact incrementally rather than recounted: unpicked
    pairs sit in buckets by gain, and covering a clause moves its other two
    pairs one bucket down.  The top bucket is then exactly the tied set, so
    a seed always yields the same cover.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return _greedy_from_index(instance, _cover_index(instance), rng)


class GreedySummary(NamedTuple):
    """Median depth and substitution count over a batch of seeded runs."""

    depths: tuple[int, ...]
    substitutions: tuple[int, ...]

    @property
    def median_depth(self) -> int:
        return statistics.median_low(self.depths)

    @property
    def median_substitutions(self) -> int:
        return statistics.median_low(self.substitutions)


def greedy_batch(
    instance: Instance, seeds: Iterable[int] = range(20)
) -> GreedySummary:
    index = _cover_index(instance)
    depths, subs = [], []
    for seed in seeds:
        cover = _greedy_from_index(instance, index, random.Random(seed))
        depths.append(_max_degree(instance, cover) + 2)
        subs.append(cover.num_substitutions)
    return GreedySummary(tuple(depths), tuple(subs))


def compare_instance(
    name: str,
    instance: Instance,
    budget_secs: float = DEFAULT_BUDGET_SECS,
    seeds: Iterable[int] = range(20),
    timings: bool = False,
) -> ComparisonRow:
    """One table row: dualized-linear depth vs exact vs greedy substitution."""
    started = time.perf_counter()
    lin_depth = linear_max_degree(instance) + 2
    ip = solve_ip_exact(instance, budget_secs)
    seeds = tuple(seeds)
    summary = greedy_batch(instance, seeds)
    elapsed = time.perf_counter() - started
    return ComparisonRow(
        name=name,
        num_vars=instance.num_vars,
        num_clauses=instance.num_clauses,
        linear_depth=lin_depth,
        ip_depth=None if ip.max_degree is None else ip.max_degree + 2,
        ip_substitutions=ip.num_substitutions,
        ip_status=ip.status,
        greedy_depth=summary.median_depth,
        greedy_substitutions=summary.median_substitutions,
        num_seeds=len(seeds),
        wall_time=elapsed if timings else None,
    )
