import random
from fractions import Fraction

import pytest

from qdepth.cnf import example1, make_instance
from qdepth.gvs import gvs_max_degree
from qdepth.product import candidate_pairs, coverings, quadratic_pairs
from qdepth.optimize import (
    build_ip,
    compare_instance,
    enumerate_exact,
    export_lp,
    greedy_batch,
    greedy_cover,
    _degree_lower_bound,
    score_cover,
    solve_ip_exact,
)

from helpers import random_3sat_instance


def row_by_name(model, name):
    name_of = model.names
    _, coeffs, sense, rhs = model.row(name)
    return {name_of[j]: v for j, v in coeffs}, sense, rhs


def reference_ip(instance):
    """(names, objective, rows) of the pair-selection program, built by the
    plain nested scans over variables, pairs, clauses and coverings."""
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
    objective = [Fraction(1)] + [Fraction(1, 10 * m)] * len(pairs)
    objective += [Fraction(0)] * len(covs)

    rows = []
    for a in instance.used_variables():
        coeffs = {0: Fraction(-1)}
        for p in pairs:
            if a in p:
                coeffs[y_index[p]] = Fraction(4 - (p in quad))
        for k, cov in enumerate(covs):
            if cov.free == a:
                coeffs[z_base + k] = Fraction(1)
        rhs = Fraction(-sum(1 for p in quad if a in p))
        rows.append((f"deg_v_{a}", tuple(sorted(coeffs.items())), "<=", rhs))
    for p in pairs:
        coeffs = {0: Fraction(-1)}
        for k, cov in enumerate(covs):
            if tuple(sorted(cov.pair)) == p:
                coeffs[z_base + k] = Fraction(1)
        rows.append((f"deg_s_{tag(p)}", tuple(sorted(coeffs.items())), "<=",
                     Fraction(-5)))
    for c in range(m):
        coeffs = {z_base + k: Fraction(1)
                  for k, cov in enumerate(covs) if cov.clause == c}
        rows.append((f"cover_c{c}", tuple(sorted(coeffs.items())), "=",
                     Fraction(1)))
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

    def test_objective_coefficients(self):
        model = build_ip(example1())
        assert model.objective[0] == 1
        assert set(model.objective[1:10]) == {Fraction(1, 40)}
        assert set(model.objective[10:]) == {Fraction(0)}


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
        assert gvs_max_degree(example1(), sol.cover) == 8

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
            assert gvs_max_degree(inst, sol.cover) == sol.max_degree
            if sol.lower_bound is not None:
                assert sol.lower_bound <= sol.max_degree

    def test_dual_bound_rounding(self):
        # bound 8.05 on degree + subs/40 with 9 pairs: degree >= ceil(7.825)
        assert _degree_lower_bound(8.05, 9, 4) == 8
        assert _degree_lower_bound(float("-inf"), 9, 4) is None
        # exact multiples must not get bumped up by float fuzz
        assert _degree_lower_bound(8.0, 0, 4) == 8


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


class TestGreedy:
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
            assert cover.pairs[0] == frozenset((1, 2))
            assert cover.pairs[1] == frozenset((1, 2))
            assert cover.pairs[2] == frozenset((1, 2))
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

    def test_timings_flag(self):
        row = compare_instance("example1", example1(), seeds=range(2),
                               timings=True)
        assert row.wall_time is not None and row.wall_time > 0

    def test_greedy_never_beats_exact(self):
        rng = random.Random(11)
        for _ in range(5):
            inst = make_instance(random_3sat_instance(rng, 7, 6), num_vars=7)
            opt = solve_ip_exact(inst)
            for seed in range(5):
                deg = gvs_max_degree(inst, greedy_cover(inst, seed))
                assert deg >= opt.max_degree


class TestScore:
    def test_score_matches_parts(self):
        inst = example1()
        sol = enumerate_exact(inst)
        assert score_cover(inst, sol.cover) == sol.objective
