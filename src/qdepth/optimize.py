"""Choosing which variable pairs to substitute.

Collapsing a pair of variables that share a clause removes that clause's
cubic term, at the price of a fresh variable and three penalty constraints.
Which pairs to collapse is a covering problem: every clause needs one of its
three pairs substituted, and the choice drives the maximum interaction
degree, hence the depth bound.

The work is split by what each command runs.  `ipmodel` builds the integer
program and writes it as LP or MPS text (`export` loads it alone);
`greedy` holds the randomized heuristic (`analyze --method gvs-greedy`
loads it alone).  Both number the candidate pairs by `product.pair_index`,
so greedy's seeded draws and the program's y columns follow one sorted
pair order.  This module holds the two exact solvers and the comparison
built on all three, and re-exports `build_ip`, `export_lp`,
`greedy_cover` and `greedy_batch` so callers reach every solver here.
Every solver returns a `product.Cover` and builds its result through
`_solution`, which reads Δ from `graph.gvs_graph`; none needs the
polynomial oracle `gvs`.

`solve_ip_exact` hands the program to HiGHS through scipy; results are
re-scored in exact rational arithmetic, so the reported optimum never
inherits float error.  `enumerate_exact` brute-forces all 3^|C| covers and
exists to cross-check the integer program on small inputs.

`solve_ip_exact` loads scipy's compiled HiGHS extension,
scipy/optimize/_highspy/_core, straight from its file (`_highs`), never the
`scipy.optimize` package, whose import costs several times the solve on a
uf20-sized instance.  It hands HiGHS the program as a temporary free-format
MPS file (`ipmodel._mps_text`): the extension's in-memory model takes its
vectors as numpy arrays, and reading a file is what keeps numpy, the
largest import left, from loading at all.  Building or exporting the
program and the heuristics load no part of scipy; on the command line only
`gvs-ip` (in `analyze` and `histogram`) and `compare` do.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import combinations, product
from typing import Iterable, NamedTuple, Sequence

from . import DEFAULT_BUDGET_SECS
from .cnf import Instance
from .greedy import greedy_batch, greedy_cover  # noqa: F401 - re-exported
from .graph import gvs_graph, linear_graph
from .ipmodel import (IpModel, _mps_text, build_ip,  # noqa: F401 - re-exported
                      export_lp, tie_break_denominator)
from .product import Cover, Pair, make_cover, quadratic_pairs
from .reports import ComparisonRow

# float dual bounds get this much slack before the integer rounding, so a
# last-digit wobble cannot inflate the claimed lower bound
DUAL_BOUND_FUZZ = Fraction(1, 10**9)


class ModelError(RuntimeError):
    """The solver returned something the model rules out (infeasible etc.)."""


class IpSolution(NamedTuple):
    """Outcome of one exact-solver run.

    status is "optimal" when optimality was proven within budget,
    "feasible_bound" when time ran out with an incumbent in hand (then
    lower_bound brackets the true optimum from below), and "timed_out" when
    not even an incumbent was found (`IpSolution("timed_out")`, every other
    field None).  `_solution` builds every other result: degree,
    substitution count and objective are exact values recomputed from the
    cover, never the solver's floats.
    """

    status: str
    cover: Cover | None = None
    max_degree: int | None = None
    num_substitutions: int | None = None
    objective: Fraction | None = None
    lower_bound: int | None = None


def _degree_lower_bound(dual_bound: float, num_pairs: int, m: int) -> int | None:
    if not math.isfinite(dual_bound):
        return None
    # obj >= dual bound minus the largest possible tie-break mass
    slack = Fraction(num_pairs, tie_break_denominator(m))
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


def _solution(instance: Instance, status: str, cover: Cover,
              lower_bound: int | None = None) -> IpSolution:
    """The result for `cover`: Δ read from its graph, and the program's
    objective Δ + substitutions / tie_break_denominator(|C|), exactly.  An
    optimal result is its own lower bound."""
    degree = gvs_graph(instance, cover.pairs).max_degree()
    subs = cover.num_substitutions
    objective = degree + Fraction(subs,
                                  tie_break_denominator(instance.num_clauses))
    lower = degree if status == "optimal" else lower_bound
    return IpSolution(status, cover, degree, subs, objective, lower)


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
        return IpSolution("timed_out")
    else:
        raise ModelError("solver failed on a feasible model: "
                         + highs.modelStatusToString(model_status))

    lower = None if status == "optimal" else _degree_lower_bound(
        info.mip_dual_bound, len(model.pairs), instance.num_clauses)
    return _solution(instance, status,
                     _extract_cover(model, highs.getSolution().col_value),
                     lower)


def enumerate_exact(instance: Instance) -> IpSolution:
    """Try every per-clause pair choice; only sensible for small |C|.

    Scores covers with its own inline degree count, over each choice's
    distinct (pair, free variable) keys, instead of the shared graph
    builder, so agreement with the integer program is a genuine cross-check
    (of its ties between repeated triples too, since every choice is tried).
    Each choice scores as the int pair (Δ, substitutions), which orders
    covers as the program's objective does, since substitutions <= |C| stay
    below its denominator 10 |C|.  Ties resolve to the first minimizer in
    lexicographic choice order, making the returned cover deterministic.
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

    best: tuple[int, int] | None = None
    best_choice = None
    for choice in product(*clause_options):
        keys = set(choice)
        used = Counter(pair for pair, _ in keys)
        free_counts = Counter(free for _, free in keys)
        delta = max((5 + frees for frees in used.values()), default=0)
        for a in variables:
            d = p_count[a] + free_counts[a]
            for p in used:
                if a in p:
                    d += 3 if p in quad else 4
            if d > delta:
                delta = d
        value = (delta, len(used))
        if best is None or value < best:
            best = value
            best_choice = choice

    assert best_choice is not None
    solution = _solution(instance, "optimal", make_cover(
        instance, [pair for pair, _ in best_choice]))
    if (solution.max_degree, solution.num_substitutions) != best:
        raise ModelError("inline degree count disagrees with the graph")
    return solution


def compare_instance(
    name: str,
    instance: Instance,
    budget_secs: float = DEFAULT_BUDGET_SECS,
    seeds: Iterable[int] = range(20),
) -> ComparisonRow:
    """One table row: dualized-linear depth vs exact vs greedy substitution;
    the linear Δ is read from `graph.linear_graph`.  `wall_time` is left
    None for the caller to fill."""
    lin_depth = linear_graph(instance).max_degree() + 2
    ip = solve_ip_exact(instance, budget_secs)
    seeds = tuple(seeds)
    summary = greedy_batch(instance, seeds)
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
    )
