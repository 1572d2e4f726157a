import importlib.util
import os
import random
import sys
import tempfile
import types
from fractions import Fraction
from itertools import accumulate, chain

import pytest

from qdepth.cnf import example1, make_instance
from qdepth.gvs import cover_graph, gvs_derived_graph
from qdepth.product import (
    candidate_pairs,
    coverings,
    make_cover,
    quadratic_pairs,
)
from qdepth import greedy, optimize
from qdepth.optimize import (
    IpSolution,
    ModelError,
    _extract_cover,
    build_ip,
    compare_instance,
    enumerate_exact,
    export_lp,
    greedy_batch,
    greedy_cover,
    _degree_lower_bound,
    _highs,
    solve_ip_exact,
)

from helpers import count_cover_work, random_3sat_instance


def row_by_name(model, name):
    _, coeffs, sense, rhs = next(row for row in model.rows if row[0] == name)
    return {model.names[j]: v for j, v in coeffs}, sense, rhs


def reference_ip(instance):
    """(names, objective, rows) of the pair-selection program, built by the
    plain nested scans over variables, pairs, clauses and coverings.  The
    degree rows count a (pair, free variable) key through its first
    covering only; each later covering with that key is tied to it."""
    m = instance.num_clauses
    pairs = sorted(tuple(sorted(p)) for p in candidate_pairs(instance))
    quad = {tuple(sorted(p)) for p in quadratic_pairs(instance)}
    covs = coverings(instance)

    def tag(pair):
        a, b = sorted(pair)
        return f"{a}_{b}"

    names = ["obj"] + [f"y_{tag(p)}" for p in pairs]
    names += [f"z_c{c.clause}_{tag(c.pair)}" for c in covs]
    y_index = {p: 1 + i for i, p in enumerate(pairs)}
    z_base = 1 + len(pairs)
    # integer weights over the common denominator 10 max(|C|, 1)
    objective = [10 * max(m, 1)] + [1] * len(pairs) + [0] * len(covs)

    def first(k):
        key = (covs[k].pair, covs[k].free)
        return next(j for j, cov in enumerate(covs)
                    if (cov.pair, cov.free) == key)

    rows = []
    for a in instance.used_variables():
        coeffs = {0: Fraction(-1)}
        for p in pairs:
            if a in p:
                coeffs[y_index[p]] = Fraction(4 - (p in quad))
        for k, cov in enumerate(covs):
            if cov.free == a and first(k) == k:
                coeffs[z_base + k] = Fraction(1)
        rhs = Fraction(-sum(1 for p in quad if a in p))
        rows.append((f"deg_v_{a}", tuple(sorted(coeffs.items())), "<=", rhs))
    for p in pairs:
        coeffs = {0: Fraction(-1)}
        for k, cov in enumerate(covs):
            if tuple(sorted(cov.pair)) == p and first(k) == k:
                coeffs[z_base + k] = Fraction(1)
        rows.append((f"deg_s_{tag(p)}", tuple(sorted(coeffs.items())), "<=",
                     Fraction(-5)))
    for c in range(m):
        coeffs = {z_base + k: Fraction(1)
                  for k, cov in enumerate(covs) if cov.clause == c}
        rows.append((f"cover_c{c}", tuple(sorted(coeffs.items())), "=",
                     Fraction(1)))
    for k, cov in enumerate(covs):
        if first(k) != k:
            coeffs = {z_base + first(k): Fraction(-1), z_base + k: Fraction(1)}
            rows.append((f"repeat_c{cov.clause}_{tag(cov.pair)}",
                         tuple(sorted(coeffs.items())), "=", Fraction(0)))
    for k, cov in enumerate(covs):
        coeffs = {z_base + k: Fraction(1),
                  y_index[tuple(sorted(cov.pair))]: Fraction(-1)}
        rows.append((f"link_{tag(cov.pair)}_c{cov.clause}",
                     tuple(sorted(coeffs.items())), "<=", Fraction(0)))
    return tuple(names), tuple(objective), tuple(rows)


class TestModel:
    def test_matches_nested_scan_construction(self):
        rng = random.Random(29)
        repeated_triple = make_instance([(1, 2, 3), (-1, 2, 3), (3, 4, 5)])
        instances = [example1(), repeated_triple]
        for n, m in ((5, 4), (8, 12), (12, 30), (20, 85)):
            instances.append(
                make_instance(random_3sat_instance(rng, n, m), num_vars=n))
        for inst in instances:
            model = build_ip(inst)
            names, objective, rows = reference_ip(inst)
            assert model.names == names
            assert model.objective == objective
            assert model.rows == rows

    def test_example1_shape(self):
        model = build_ip(example1())
        # 9 candidate pairs, 12 coverings
        assert len(model.pairs) == 9
        assert len(model.covers) == 12
        assert model.num_variables == 1 + 9 + 12
        assert model.names[0] == "obj"
        assert model.names[1] == "y_1_2"
        assert model.names[10] == "z_c0_1_2"
        row_names = [r[0] for r in model.rows]
        assert len(row_names) == 5 + 9 + 4 + 12
        assert "deg_v_1" in row_names
        assert "deg_s_4_5" in row_names
        assert "cover_c3" in row_names
        assert "link_2_5_c2" in row_names

    def test_variable_degree_row(self):
        # variable 1 sits in clauses 0, 1, 3; three of its pairs carry a
        # quadratic term so they cost 3, the remaining one costs 4
        model = build_ip(example1())
        coeffs, sense, rhs = row_by_name(model, "deg_v_1")
        assert sense == "<="
        assert rhs == -3
        assert coeffs == {
            "obj": -1,
            "y_1_2": 3,
            "y_1_3": 3,
            "y_1_4": 3,
            "y_1_5": 4,
            "z_c0_2_3": 1,
            "z_c1_3_4": 1,
            "z_c3_2_5": 1,
        }

    def test_pair_degree_row(self):
        model = build_ip(example1())
        coeffs, sense, rhs = row_by_name(model, "deg_s_1_2")
        assert sense == "<="
        assert rhs == -5
        assert coeffs == {"obj": -1, "z_c0_1_2": 1, "z_c3_1_2": 1}

    def test_cover_row(self):
        model = build_ip(example1())
        coeffs, sense, rhs = row_by_name(model, "cover_c0")
        assert sense == "="
        assert rhs == 1
        assert coeffs == {"z_c0_1_2": 1, "z_c0_1_3": 1, "z_c0_2_3": 1}

    def test_link_rows(self):
        model = build_ip(example1())
        coeffs, sense, rhs = row_by_name(model, "link_1_2_c0")
        assert (coeffs, sense, rhs) == ({"z_c0_1_2": 1, "y_1_2": -1}, "<=", 0)

    def test_rows_hold_ints(self):
        # the objective's tie-break is held over an integer denominator
        model = build_ip(example1())
        for _, coeffs, _, rhs in model.rows:
            assert type(rhs) is int
            assert all(type(j) is type(v) is int for j, v in coeffs)
        assert all(type(v) is int for v in model.objective)
        assert type(model.denominator) is int

    def test_objective_coefficients(self):
        # obj weighs 1 and each y 1/(10 |C|) = 1/40, over denominator 40
        model = build_ip(example1())
        assert model.denominator == 40
        assert model.objective[0] == 40
        assert set(model.objective[1:10]) == {1}
        assert set(model.objective[10:]) == {0}


class TestExactSolve:
    def test_example1_optimum(self):
        sol = solve_ip_exact(example1())
        assert sol.status == "optimal"
        assert sol.max_degree == 8
        assert sol.num_substitutions == 2
        assert sol.objective == Fraction(8) + Fraction(2, 40)
        assert sol.lower_bound == 8
        # the cover itself is not pinned (several optima exist) but must
        # actually achieve the reported degree
        assert cover_graph(example1(), sol.cover).max_degree() == 8

    def test_single_clause(self):
        inst = make_instance([(1, 2, 3)])
        sol = solve_ip_exact(inst)
        assert sol.max_degree == 6
        assert sol.num_substitutions == 1
        assert sol.objective == 6 + Fraction(1, 10)

    def test_enumeration_agrees_with_solver(self):
        rng = random.Random(53)
        for _ in range(12):
            n = rng.randint(5, 7)
            m = rng.randint(1, 5)
            inst = make_instance(random_3sat_instance(rng, n, m), num_vars=n)
            by_ip = solve_ip_exact(inst)
            by_enum = enumerate_exact(inst)
            assert by_ip.status == "optimal"
            assert by_ip.objective == by_enum.objective, inst.clauses

    def test_enumeration_deterministic(self):
        inst = example1()
        a = enumerate_exact(inst)
        b = enumerate_exact(inst)
        assert a.cover == b.cover
        assert a.objective == Fraction(8) + Fraction(2, 40)

    def test_tight_budget_reports_honestly(self):
        rng = random.Random(7)
        inst = make_instance(random_3sat_instance(rng, 20, 60), num_vars=20)
        sol = solve_ip_exact(inst, budget_secs=1e-4)
        assert sol.status in ("timed_out", "feasible_bound", "optimal")
        if sol.status == "timed_out":
            assert sol.cover is None
        else:
            assert cover_graph(inst, sol.cover).max_degree() == sol.max_degree
            if sol.lower_bound is not None:
                assert sol.lower_bound <= sol.max_degree

    def test_dual_bound_rounding(self):
        # bound 8.05 on degree + subs/40 with 9 pairs: degree >= ceil(7.825)
        assert _degree_lower_bound(8.05, 9, 4) == 8
        assert _degree_lower_bound(float("-inf"), 9, 4) is None
        # exact multiples must not get bumped up by float fuzz
        assert _degree_lower_bound(8.0, 0, 4) == 8


def reference_cost(model):
    """The objective as `milp` was handed it, from the exact tie-break
    1/(10 |C|) rather than from `model.objective`."""
    m = model.instance.num_clauses
    return ([1.0] + [float(Fraction(1, 10 * m))] * len(model.pairs)
            + [0.0] * len(model.covers))


def reference_solve(instance, budget_secs=300.0):
    """The exact solve through `scipy.optimize.milp`: sparse rows grouped by
    sense, scipy's status codes and result fields."""
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    model = build_ip(instance)
    n = model.num_variables
    ub = np.ones(n)
    ub[0] = np.inf
    constraints = []
    for sense in ("<=", "="):
        rows = [(coeffs, rhs) for _, coeffs, s, rhs in model.rows if s == sense]
        if not rows:
            continue
        entries = [(i, j, float(v)) for i, (coeffs, _) in enumerate(rows)
                   for j, v in coeffs]
        ri, ci, data = zip(*entries)
        mat = sparse.csr_matrix((data, (ri, ci)), shape=(len(rows), n))
        rhs = np.array([float(r) for _, r in rows])
        lower = -np.inf if sense == "<=" else rhs
        constraints.append(LinearConstraint(mat, lower, rhs))
    res = milp(
        np.array(reference_cost(model)),
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(np.zeros(n), ub),
        options={"time_limit": float(budget_secs), "mip_rel_gap": 0.0},
    )
    if res.status == 0:
        status = "optimal"
    elif res.status == 1:
        status = "timed_out" if res.x is None else "feasible_bound"
    else:
        raise ModelError(res.message)
    if res.x is None:  # milp reports no dual bound without an incumbent
        return IpSolution(status)
    cover = _extract_cover(model, res.x)
    degree = cover_graph(instance, cover).max_degree()
    subs = cover.num_substitutions
    objective = degree + Fraction(subs, 10 * max(instance.num_clauses, 1))
    lower = degree if status == "optimal" else _degree_lower_bound(
        res.mip_dual_bound, len(model.pairs), instance.num_clauses)
    return IpSolution(status, cover, degree, subs, objective, lower)


def draw_3sat(n, m, rng):
    """m clauses over three distinct variables of n with fair-coin signs;
    clauses may share a variable triple."""
    clauses = [tuple(v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, n + 1), 3))
               for _ in range(m)]
    return make_instance(clauses, num_vars=n)


def solver_swap_instances():
    """example1, the repeated-triple probe, and seeded draws at ratio 4.26
    whose clauses may share a variable triple."""
    rng = random.Random(61)
    out = [example1(), make_instance([(1, 2, 3), (-1, 2, 3), (3, 4, 5)])]
    for n, draws in ((5, 5), (10, 4), (20, 3), (50, 2)):
        for _ in range(draws):
            out.append(draw_3sat(n, round(4.26 * n), rng))
    return out


class TestSolverSwap:
    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    def test_matches_milp_reference(self):
        for inst in solver_swap_instances():
            assert solve_ip_exact(inst) == reference_solve(inst), inst.clauses

    def test_missing_extension_names_the_scipy_floor(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core",
                            raising=False)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match=r"scipy>=1\.15"):
            _highs()

    def test_zero_budget_times_out_on_both(self):
        inst = make_instance(random_3sat_instance(random.Random(5), 50, 218),
                             num_vars=50)
        expected = IpSolution("timed_out")
        assert reference_solve(inst, 0.0) == expected
        assert solve_ip_exact(inst, 0.0) == expected


def reference_lp(h, model):
    """The program as a HighsLp built in memory, laid out as `milp` passed
    it: column-wise, every "<=" row before every "=" row, all columns
    integer."""
    n = model.num_variables
    rows = sorted(model.rows, key=lambda row: row[2] == "=")
    col_rows = [[] for _ in range(n)]
    col_values = [[] for _ in range(n)]
    for i, (_, coeffs, _, _) in enumerate(rows):
        for j, v in coeffs:
            col_rows[j].append(i)
            col_values[j].append(float(v))

    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(rows)
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.a_matrix_.start_ = list(accumulate(map(len, col_rows), initial=0))
    lp.a_matrix_.index_ = list(chain.from_iterable(col_rows))
    lp.a_matrix_.value_ = list(chain.from_iterable(col_values))
    lp.col_cost_ = reference_cost(model)
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [h.kHighsInf] + [1.0] * (n - 1)
    lp.row_lower_ = [-h.kHighsInf if row[2] == "<=" else float(row[3])
                     for row in rows]
    lp.row_upper_ = [float(row[3]) for row in rows]
    lp.integrality_ = [h.HighsVarType.kInteger] * n
    return lp


def lp_fields(lp):
    a = lp.a_matrix_
    return {
        "shape": (lp.num_col_, lp.num_row_, a.num_col_, a.num_row_),
        "format": a.format_,
        "start": list(a.start_),
        "index": list(a.index_),
        "value": list(a.value_),
        "cost": list(lp.col_cost_),
        "sense": (lp.sense_, lp.offset_),
        "col_lower": list(lp.col_lower_),
        "col_upper": list(lp.col_upper_),
        "row_lower": list(lp.row_lower_),
        "row_upper": list(lp.row_upper_),
        "integrality": list(lp.integrality_),
    }


def use_highs_double(monkeypatch, **overrides):
    """Make `solve_ip_exact` see the HiGHS extension with some of its
    names replaced."""
    double = types.SimpleNamespace(**vars(_highs()))
    for name, value in overrides.items():
        setattr(double, name, value)
    monkeypatch.setattr(optimize, "_highs", lambda: double)


def uf50_draw():
    return draw_3sat(50, 218, random.Random(0))


class TestSolverInput:
    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    def test_read_program_matches_reference_lp(self, monkeypatch):
        h = _highs()
        solved = []

        class Recording(h._Highs):
            def run(self):
                solved.append(self.getLp())
                return super().run()

        use_highs_double(monkeypatch, _Highs=Recording)
        rng = random.Random(67)
        instances = [example1(), make_instance([(1, 2, 3), (-1, 2, 3),
                                                (3, 4, 5)])]
        for n in (5, 5, 20, 20, 50):
            instances.append(draw_3sat(n, round(4.26 * n), rng))
        for inst in instances:
            solve_ip_exact(inst, budget_secs=0.0)
            expected = lp_fields(reference_lp(h, build_ip(inst)))
            got = lp_fields(solved.pop())
            for field, value in expected.items():
                assert got[field] == value, (field, inst.clauses)

    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    def test_millisecond_budget_reads_the_whole_program(self):
        # the MPS reader obeys time_limit; a budget passed before the read
        # makes HiGHS reject the program instead of timing out the solve
        sol = solve_ip_exact(uf50_draw(), budget_secs=0.001)
        assert sol.status in ("timed_out", "feasible_bound")

    @pytest.mark.parametrize("accepted", [True, False],
                             ids=["solved", "rejected"])
    def test_no_mps_file_left_behind(self, tmp_path, monkeypatch, accepted):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        h = _highs()
        read = []

        class Reading(h._Highs):
            def readModel(self, path):
                read.append((os.path.dirname(path), os.path.exists(path)))
                if accepted:
                    return super().readModel(path)
                return h.HighsStatus.kError

        use_highs_double(monkeypatch, _Highs=Reading)
        if accepted:
            assert solve_ip_exact(example1()).status == "optimal"
        else:
            with pytest.raises(ModelError):
                solve_ip_exact(example1())
        assert read == [(str(tmp_path), True)]
        assert list(tmp_path.iterdir()) == []


class TestLimitedSolves:
    """Node and solution limits stop HiGHS at the same point on every
    machine, unlike a time budget, so they pin the limited statuses."""

    @staticmethod
    def preset(monkeypatch, **limits):
        h = _highs()

        def options():
            preset = h.HighsOptions()
            for name, value in limits.items():
                setattr(preset, name, value)
            return preset

        use_highs_double(monkeypatch, HighsOptions=options)

    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    def test_limit_with_incumbent_is_feasible_bound(self, monkeypatch):
        # stops at the first incumbent, 48.06, with dual bound 41.06 (the
        # optimum); the draw repeats triples, and the program that ties them
        # leads HiGHS to another first incumbent than the untied one's 43
        self.preset(monkeypatch, mip_max_improving_sols=1)
        inst = uf50_draw()
        sol = solve_ip_exact(inst)
        assert sol.status == "feasible_bound"
        assert sol.max_degree == 48
        assert sol.lower_bound == 41
        assert cover_graph(inst, sol.cover).max_degree() == 48
        assert sol.objective == 48 + Fraction(
            sol.cover.num_substitutions, 10 * inst.num_clauses)

    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    def test_limit_without_incumbent_times_out(self, monkeypatch):
        self.preset(monkeypatch, mip_max_nodes=0)
        assert solve_ip_exact(uf50_draw()) == IpSolution("timed_out")


class TestExport:
    def test_example1_lp_fragments(self):
        text = export_lp(build_ip(example1()))
        lines = text.splitlines()
        assert lines[0] == "Minimize"
        assert lines[1].startswith(" total: obj + 0.025 y_1_2 + 0.025 y_1_3")
        assert " deg_v_1: 3 y_1_2 + 3 y_1_3 + 3 y_1_4 + 4 y_1_5" \
            " + z_c0_2_3 + z_c1_3_4 + z_c3_2_5 - obj <= -3" in lines
        assert " deg_s_1_2: z_c0_1_2 + z_c3_1_2 - obj <= -5" in lines
        assert " cover_c0: z_c0_1_2 + z_c0_1_3 + z_c0_2_3 = 1" in lines
        assert " link_1_2_c0: z_c0_1_2 - y_1_2 <= 0" in lines
        assert "Binary" in lines
        assert " y_1_2" in lines
        assert lines[-3:] == ["General", " obj", "End"]
        assert text.endswith("End\n")

    def test_lp_is_deterministic(self):
        m1 = export_lp(build_ip(example1()))
        m2 = export_lp(build_ip(example1()))
        assert m1 == m2


def reference_greedy(instance, rng):
    """The greedy cover by plain rescanning: every round recounts each
    available pair's uncovered clauses and draws among the sorted ties."""
    reach = {}
    for cov in coverings(instance):
        reach.setdefault(cov.pair, set()).add(cov.clause)
    uncovered = set(range(instance.num_clauses))
    available = set(reach)
    assignment = [None] * instance.num_clauses
    while uncovered:
        gains = {p: len(reach[p] & uncovered) for p in available}
        top = max(gains.values())
        pick = rng.choice(sorted(p for p, g in gains.items() if g == top))
        for c in reach[pick] & uncovered:
            assignment[c] = pick
        uncovered -= reach[pick]
        available.remove(pick)
    return make_cover(instance, assignment)


def greedy_equivalence_instances():
    """example1, the repeated-triple probe, seeded draws at n = 20 and 50,
    and small instances full of repeated triples."""
    rng = random.Random(41)
    out = [
        example1(),
        make_instance([(1, 2, 3), (-1, 2, 3), (3, 4, 5)]),
        make_instance(random_3sat_instance(rng, 20, 91), num_vars=20),
        make_instance(random_3sat_instance(rng, 50, 218), num_vars=50),
        make_instance([(1, 2, 3), (1, -2, 3), (-1, 2, -3), (2, 3, 4),
                       (-2, 3, 4), (1, 3, 4)]),
        make_instance([(1, 2, 3), (-1, -2, 3), (1, 2, 4), (1, 2, -4),
                       (3, 4, 5), (-3, 4, 5), (-3, -4, -5)]),
    ]
    for n in (4, 5, 6):
        for _ in range(3):
            out.append(draw_3sat(n, rng.randint(3, 10), rng))
    return out


class TestGreedy:
    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    def test_matches_rescanning_reference(self, monkeypatch):
        # greedy's generator is kept, so its state after the run shows that
        # it drew as often as the reference did
        made = []
        monkeypatch.setattr(greedy, "random", types.SimpleNamespace(
            Random=lambda seed: made.append(random.Random(seed)) or made[-1]))
        for inst in greedy_equivalence_instances():
            for seed in range(40):
                rng_ref = random.Random(seed)
                expected = reference_greedy(inst, rng_ref)
                assert greedy_cover(inst, seed) == expected, (inst, seed)
                assert made[-1].getstate() == rng_ref.getstate()

    def test_batch_matches_single_covers(self):
        inst = make_instance(random_3sat_instance(random.Random(3), 20, 80),
                             num_vars=20)
        summary = greedy_batch(inst, range(10))
        covers = [greedy_cover(inst, seed) for seed in range(10)]
        assert summary.depths == tuple(
            cover_graph(inst, c).max_degree() + 2 for c in covers)
        assert summary.substitutions == tuple(
            c.num_substitutions for c in covers)

    def test_valid_cover_every_seed(self):
        inst = example1()
        for seed in range(20):
            cover = greedy_cover(inst, seed)
            assert len(cover.pairs) == inst.num_clauses
            assert cover.num_substitutions in (2, 3)

    def test_deterministic_per_seed(self):
        inst = example1()
        assert greedy_cover(inst, 5) == greedy_cover(inst, 5)

    def test_takes_the_biggest_bite(self):
        # {1,2} covers three clauses; nothing else covers more than one, so
        # every seed must pick it first and assign all three at once
        inst = make_instance([(1, 2, 3), (1, 2, 4), (1, 2, 5), (6, 7, 8)])
        for seed in range(10):
            cover = greedy_cover(inst, seed)
            assert cover.pairs[:3] == ((1, 2), (1, 2), (1, 2))
            assert cover.num_substitutions == 2

    def test_two_sub_covers_exist_among_seeds(self):
        # first pick is uniform among {1,2},{1,3},{2,5}; picking {1,3} or
        # {2,5} forces the 2-substitution optimum
        subs = {greedy_cover(example1(), s).num_substitutions for s in range(20)}
        assert 2 in subs

    def test_batch_medians(self):
        summary = greedy_batch(example1(), range(20))
        assert len(summary.depths) == 20
        assert summary.median_depth == 10
        assert summary.median_substitutions == 2
        assert all(d >= 10 for d in summary.depths)


class TestCompare:
    def test_example1_row(self):
        row = compare_instance("example1", example1(), seeds=range(20))
        assert row.linear_depth == 15
        assert row.ip_depth == 10
        assert row.ip_substitutions == 2
        assert row.ip_status == "optimal"
        assert row.greedy_depth == 10
        assert row.greedy_substitutions == 2
        assert row.num_seeds == 20
        assert row.wall_time is None

    def test_greedy_never_beats_exact(self):
        rng = random.Random(11)
        for _ in range(5):
            inst = make_instance(random_3sat_instance(rng, 7, 6), num_vars=7)
            opt = solve_ip_exact(inst)
            for seed in range(5):
                deg = cover_graph(inst, greedy_cover(inst, seed)).max_degree()
                assert deg >= opt.max_degree


PROBE = [(1, 2, 3), (-1, 2, 3), (3, 4, 5)]


class TestRepeatedTriples:
    """Clauses on one variable triple that get one pair share their u-free
    edge, and every reported Δ counts it once, as the graph has it."""

    def test_probe_optimum(self):
        inst = make_instance(PROBE)
        sol = solve_ip_exact(inst)
        # counting the shared u-x3 edge once per clause gave 7
        assert sol.max_degree == 6
        assert gvs_derived_graph(inst, sol.cover).max_degree() == 6
        assert enumerate_exact(inst).objective == sol.objective

    def test_probe_greedy_reports_its_graph(self):
        inst = make_instance(PROBE)
        covers = [greedy_cover(inst, seed) for seed in range(20)]
        deltas = [gvs_derived_graph(inst, c).max_degree() for c in covers]
        assert [cover_graph(inst, c).max_degree() for c in covers] == deltas
        assert greedy_batch(inst, range(20)).depths == tuple(
            d + 2 for d in deltas)

    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    @pytest.mark.parametrize("n,m,seed,delta", [
        (20, 91, 6, 31), (20, 91, 11, 34), (50, 218, 6, 42)])
    def test_optimum_counts_shared_edges_once(self, n, m, seed, delta):
        # each draw has repeated triples; the per-clause count made every
        # optimum here one higher
        inst = draw_3sat(n, m, random.Random(seed))
        sol = solve_ip_exact(inst)
        assert sol.status == "optimal"
        assert sol.max_degree == delta
        assert gvs_derived_graph(inst, sol.cover).max_degree() == delta


class TestWorkPerCover:
    """A cover fresh from make_cover gets its degrees counted once and is not
    checked against the instance a second time."""

    def test_degrees_counted_once_per_cover(self, monkeypatch):
        calls = count_cover_work(monkeypatch)
        assert solve_ip_exact(example1()).max_degree == 8
        assert calls == {"gvs_graph": 1}
        calls.clear()
        greedy_batch(example1(), range(5))
        assert calls == {"gvs_graph": 5}
