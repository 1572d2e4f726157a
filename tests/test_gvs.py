import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdepth.cnf import DegenerateClauseError, Instance, example1, make_instance
from qdepth.graph import gvs_ancillas, linear_graph, native3_graph
from qdepth.gvs import (
    clause_violation,
    cover_graph,
    dualize_gvs,
    gvs_addends,
    gvs_degree_table,
    gvs_derived_graph,
    gvs_report,
    product_objective,
    substitute_clause,
    substitution_penalty,
    substitution_residuals,
)
from qdepth.linear import (
    InvalidPenaltyError,
    linear_derived_graph,
    linear_report,
)
from qdepth.optimize import enumerate_exact, greedy_cover, solve_ip_exact
from qdepth.product import Cover, InvalidCoverError, make_cover, quadratic_pairs
from qdepth.pubo import Polynomial, VarId
from qdepth.schedule import build_schedule, color_edges, native3_report

from helpers import (
    assert_proper_edge_coloring,
    brute_force_argmin,
    brute_force_extrema,
    random_3sat_instance,
    random_cover_choice,
)


def example1_cover() -> Cover:
    return make_cover(example1(), [(1, 3), (1, 3), (2, 5), (2, 5)])


class TestCover:
    def test_example1_cover(self):
        cover = example1_cover()
        assert cover.num_substitutions == 2
        assert cover.pairs == ((1, 3), (1, 3), (2, 5), (2, 5))
        assert cover.used == ((1, 3), (2, 5))
        # the variables left free are 2, 4, 4 and 1, each tied to its u;
        # u13 and u25 are vertices 6 and 10, after x1..x5 and u13's slacks
        edges = gvs_derived_graph(example1(), cover).edges
        u = {(1, 3): 6, (2, 5): 10}
        for pair, free in (((1, 3), 2), ((1, 3), 4), ((2, 5), 4), ((2, 5), 1)):
            assert (free, u[pair]) in edges

    def test_pairs_stored_as_sorted_tuples(self):
        inst = example1()
        cover = make_cover(inst, [(3, 1), [1, 3], {5, 2}, iter((5, 2))])
        assert cover == example1_cover()
        # a set of 9 and 2 iterates 9 first
        assert make_cover(make_instance([(2, 5, 9)]), [{9, 2}]).pairs == ((2, 9),)
        for found in (cover, greedy_cover(inst, 3), enumerate_exact(inst).cover):
            for p in found.pairs:
                assert type(p) is tuple and p[0] < p[1], found.pairs
                assert all(type(v) is int for v in p), found.pairs

    def test_validation(self):
        inst = example1()
        with pytest.raises(InvalidCoverError, match="3 entries"):
            make_cover(inst, [(1, 2), (1, 3), (2, 4)])
        with pytest.raises(InvalidCoverError, match="not within"):
            make_cover(inst, [(1, 4), (1, 3), (2, 5), (2, 5)])
        with pytest.raises(InvalidCoverError, match="2 distinct"):
            make_cover(inst, [(1, 1), (1, 3), (2, 5), (2, 5)])


class TestSubstitution:
    def test_pinned_substituted_clause(self):
        # clause (x1 v x2 v -x3) with pair {1,3}
        got = substitute_clause((1, 2, -3), (1, 3))
        x2, x3 = Polynomial.variable(VarId.x(2)), Polynomial.variable(VarId.x(3))
        u = Polynomial.variable(VarId.sub((1, 3)))
        assert got == x3 - x2 * x3 - u + u * x2
        assert "u13*x2" in got.to_text()

    def test_all_negative_clause(self):
        got = substitute_clause((-1, -2, -3), (1, 2))
        u = Polynomial.variable(VarId.sub((1, 2)))
        assert got == u * Polynomial.variable(VarId.x(3))

    def test_substitution_is_exact_when_u_matches(self):
        # on points with u = xi*xj the substituted clause equals the original
        rng = random.Random(3)
        for _ in range(10):
            (clause,) = random_3sat_instance(rng, 5, 1)
            vs = sorted(abs(l) for l in clause)
            pair = tuple(sorted(rng.sample(vs, 2)))
            original = substitute_clause(clause, pair)  # noqa: F841
            g = clause_violation(clause)
            gs = substitute_clause(clause, pair)
            for bits in itertools.product((0, 1), repeat=3):
                pt = {VarId.x(v): b for v, b in zip(vs, bits)}
                pt[VarId.sub(pair)] = pt[VarId.x(pair[0])] * pt[VarId.x(pair[1])]
                assert gs.evaluate(pt) == g.evaluate(
                    {k: v for k, v in pt.items() if k.name.startswith("x")}
                )

    def test_pair_must_be_inside_clause(self):
        with pytest.raises(InvalidCoverError):
            substitute_clause((1, 2, -3), (1, 4))


class TestConstraints:
    def test_feasible_iff_product(self):
        # exhaustive over u, x_i, x_j and all slack values
        residuals = substitution_residuals((1, 3))
        names = [
            VarId.sub((1, 3)),
            VarId.x(1),
            VarId.x(3),
            VarId.sub_slack((1, 3), 1),
            VarId.sub_slack((1, 3), 2),
            VarId.sub_slack((1, 3), 3),
        ]
        for u, xi, xj in itertools.product((0, 1), repeat=3):
            feasible = False
            for d1, d2, d3 in itertools.product((0, 1), repeat=3):
                pt = dict(zip(names, (u, xi, xj, d1, d2, d3)))
                if all(r.evaluate(pt) == 0 for r in residuals):
                    feasible = True
            assert feasible == (u == xi * xj), (u, xi, xj)

    def test_penalty_minimum_over_slacks(self):
        # 0 when u matches the product, >= 1 otherwise: this gap is what the
        # default multiplier relies on
        pen = substitution_penalty((2, 5))
        names = [
            VarId.sub((2, 5)),
            VarId.x(2),
            VarId.x(5),
            VarId.sub_slack((2, 5), 1),
            VarId.sub_slack((2, 5), 2),
            VarId.sub_slack((2, 5), 3),
        ]
        for u, xi, xj in itertools.product((0, 1), repeat=3):
            best = min(
                pen.evaluate(dict(zip(names, (u, xi, xj, d1, d2, d3))))
                for d1, d2, d3 in itertools.product((0, 1), repeat=3)
            )
            if u == xi * xj:
                assert best == 0
            else:
                assert best >= 1


class TestDualized:
    def test_example1_minimum_zero_and_minimizers_satisfy(self):
        inst = example1()
        obj = dualize_gvs(inst, example1_cover())
        assert obj.degree() == 2
        assert len(obj.variables()) == 13
        lo, _ = brute_force_extrema(obj)
        assert lo == 0
        product = product_objective(inst)
        for pt in brute_force_argmin(obj):
            x_part = {v: b for v, b in pt.items() if v.kind == VarId.x(1).kind}
            assert product.evaluate(x_part) == 0

    def test_single_all_negative_clause_objective(self):
        inst = make_instance([(-1, -2, -3)])
        cover = make_cover(inst, [(1, 2)])
        lam = Fraction(7)
        obj = dualize_gvs(inst, cover, lam)
        u = Polynomial.variable(VarId.sub((1, 2)))
        expected = u * Polynomial.variable(VarId.x(3)) + lam * substitution_penalty(
            (1, 2)
        )
        assert obj == expected

    def test_multiplier_one_is_too_small(self):
        # two clauses covered by one pair: setting u wrong saves 2 from the
        # clause sum and pays only 1 in penalty, so the minimum goes negative
        # even though the instance is satisfiable
        inst = make_instance([(1, 2, 3), (1, 2, 4)])
        cover = make_cover(inst, [(1, 2), (1, 2)])
        lo_bad, _ = brute_force_extrema(dualize_gvs(inst, cover, 1))
        assert lo_bad < 0
        lo_default, _ = brute_force_extrema(dualize_gvs(inst, cover))
        assert lo_default == 0

    def test_penalty_validation(self):
        with pytest.raises(InvalidPenaltyError):
            dualize_gvs(example1(), example1_cover(), 0)

    def test_quadratic_always(self):
        rng = random.Random(31)
        for _ in range(10):
            inst = make_instance(random_3sat_instance(rng, 6, 4), num_vars=6)
            cover = make_cover(inst, random_cover_choice(rng, inst))
            obj = dualize_gvs(inst, cover)
            assert obj.degree() <= 2
            assert gvs_derived_graph(inst, cover).is_simple()


class TestDegrees:
    def test_example1_table(self):
        inst = example1()
        table = gvs_degree_table(inst, example1_cover())
        assert table[VarId.x(1)] == 7
        assert table[VarId.x(2)] == 8
        assert table[VarId.x(3)] == 6
        assert table[VarId.x(4)] == 5
        assert table[VarId.x(5)] == 4
        assert table[VarId.sub((1, 3))] == 7
        assert table[VarId.sub((2, 5))] == 7
        assert table[VarId.sub_slack((1, 3), 1)] == 3
        assert table[VarId.sub_slack((1, 3), 2)] == 2
        assert table[VarId.sub_slack((2, 5), 3)] == 2
        assert cover_graph(inst, example1_cover()).max_degree() == 8

    def test_closed_form_matches_graph(self):
        # the module's central property: the integer graph's degrees vs the
        # union graph of the expanded polynomials
        rng = random.Random(37)
        for trial in range(20):
            n = rng.randint(5, 8)
            m = rng.randint(1, 7)
            inst = make_instance(random_3sat_instance(rng, n, m), num_vars=n)
            cover = make_cover(inst, random_cover_choice(rng, inst))
            graph = gvs_derived_graph(inst, cover).degree_table(
                gvs_ancillas(cover.pairs))
            for v, expected in gvs_degree_table(inst, cover).items():
                assert graph[v] == expected, (trial, v.name)

    def test_slack_degrees_always_2_or_3(self):
        rng = random.Random(41)
        for _ in range(10):
            inst = make_instance(random_3sat_instance(rng, 5, 4), num_vars=5)
            cover = make_cover(inst, random_cover_choice(rng, inst))
            for v, d in gvs_degree_table(inst, cover).items():
                if v.name.startswith("du"):
                    assert d in (2, 3)

    def test_covering_one_more_clause_bumps_u_by_one(self):
        inst1 = make_instance([(1, 2, 3), (1, 2, 4)])
        inst2 = make_instance([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
        c1 = make_cover(inst1, [(1, 2), (1, 2)])
        c2 = make_cover(inst2, [(1, 2), (1, 2), (1, 2)])
        t1 = gvs_degree_table(inst1, c1)
        t2 = gvs_degree_table(inst2, c2)
        u = VarId.sub((1, 2))
        assert t2[u] == t1[u] + 1
        for k in (1, 2, 3):
            d = VarId.sub_slack((1, 2), k)
            assert t1[d] == t2[d]

    def test_ancillas(self):
        table = gvs_degree_table(example1(), example1_cover())
        assert sum(not v.name.startswith("x") for v in table) == 8


def reference_degree_table(instance, cover):
    """gvs_degree_table by per-variable scans over the used and quadratic
    pairs and the cover's distinct (pair, free variable) keys."""
    P = quadratic_pairs(instance)
    used = cover.used
    keys = {(pair, min(instance.clause_vars(c) - set(pair)))
            for c, pair in enumerate(cover.pairs)}
    table = {}
    for v in instance.used_variables():
        in_used = sum(1 for s in used if v in s)
        in_used_quadratic = sum(1 for s in used if v in s and s in P)
        in_quadratic = sum(1 for p in P if v in p)
        free = sum(1 for _, f in keys if f == v)
        table[VarId.x(v)] = (
            4 * in_used - in_used_quadratic + in_quadratic + free
        )
    for pair in used:
        idx = tuple(sorted(pair))
        table[VarId.sub(idx)] = 5 + sum(1 for p, _ in keys if p == pair)
        table[VarId.sub_slack(idx, 1)] = 3
        table[VarId.sub_slack(idx, 2)] = 2
        table[VarId.sub_slack(idx, 3)] = 2
    return table


class TestDegreeTableReference:
    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    def test_matches_per_variable_scans(self):
        rng = random.Random(17)
        instances = [
            example1(),
            make_instance([(1, 2, 3), (-1, 2, 3), (3, 4, 5)]),
            make_instance(random_3sat_instance(rng, 20, 91), num_vars=20),
            make_instance(random_3sat_instance(rng, 50, 218), num_vars=50),
        ]
        for n in (4, 5, 6):
            clauses = [tuple(v if rng.random() < 0.5 else -v
                             for v in rng.sample(range(1, n + 1), 3))
                       for _ in range(8)]
            instances.append(make_instance(clauses, num_vars=n))
        for inst in instances:
            covers = [greedy_cover(inst, seed) for seed in range(5)]
            covers += [make_cover(inst, random_cover_choice(rng, inst))
                       for _ in range(5)]
            for cover in covers:
                got = gvs_degree_table(inst, cover)
                want = reference_degree_table(inst, cover)
                assert list(got.items()) == list(want.items())


@st.composite
def instance_and_cover(draw):
    """A small 3-SAT instance, repeated variable triples allowed, and a
    random cover of it."""
    n = draw(st.integers(3, 6))
    triple = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)
    signed = st.tuples(triple, st.lists(st.booleans(), min_size=3, max_size=3))
    raw = draw(st.lists(signed, min_size=1, max_size=8))
    clauses = [tuple(v if pos else -v for v, pos in zip(vs, signs))
               for vs, signs in raw]
    inst = make_instance(clauses, num_vars=n)
    pairs = [draw(st.sampled_from(list(itertools.combinations(
        sorted(inst.clause_vars(c)), 2)))) for c in range(inst.num_clauses)]
    return inst, make_cover(inst, pairs)


class TestEdgeCounts:
    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    @settings(max_examples=150, deadline=None)
    @given(instance_and_cover())
    def test_reports_match_graphs(self, case):
        inst, cover = case
        assert linear_report(inst).num_interactions == len(
            linear_derived_graph(inst).edges)
        assert gvs_report(inst, cover).num_interactions == len(
            gvs_derived_graph(inst, cover).edges)
        # the qubits read from each graph are those the instance implies:
        # every used variable and every ancilla, unused variables not
        used = len(inst.used_variables())
        for report, ancillas in [
            (linear_report(inst), 3 * inst.num_clauses),
            (gvs_report(inst, cover), 4 * cover.num_substitutions),
            (native3_report(inst), 0),
        ]:
            assert report.num_problem_vars == used
            assert report.num_ancillas == ancillas
            assert report.num_qubits == used + ancillas
            assert report.depth_lower == report.max_degree + 1


class TestMaxDegree:
    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    @settings(max_examples=150, deadline=None)
    @given(instance_and_cover())
    def test_equals_the_table_maximum(self, case):
        # Δ comes from integer-keyed counts, never from the VarId table
        inst, cover = case
        assert cover_graph(inst, cover).max_degree() == max(
            gvs_degree_table(inst, cover).values())


class TestBuilderMatchesPolynomialGraphs:
    """The integer graphs every table, Δ and edge count is read from, against
    the graphs of the expanded polynomials, repeated variable triples
    included; and the exact solver against enumeration on the same draws."""

    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    @settings(max_examples=150, deadline=None)
    @given(instance_and_cover())
    def test_tables_and_edges_match(self, case):
        inst, cover = case
        # full edge sets over the same vertex numbering, so a merged or
        # missing repeated-triple edge shows
        assert linear_derived_graph(inst) == linear_graph(inst)
        assert gvs_derived_graph(inst, cover) == cover_graph(inst, cover)
        # native3: the distinct cubic supports of the clause violations
        cubic = {s for clause in inst.clauses
                 for s in clause_violation(clause).supports() if len(s) == 3}
        assert native3_graph(inst).edges == {
            tuple(v.key[0] for v in s) for s in cubic}

    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    @settings(max_examples=100, deadline=None)
    @given(instance_and_cover())
    def test_ip_optimum_matches_enumeration(self, case):
        inst, _ = case
        by_ip = solve_ip_exact(inst)
        by_enum = enumerate_exact(inst)
        assert by_ip.status == "optimal"
        assert by_ip.objective == by_enum.objective, inst.clauses
        assert by_ip.max_degree == gvs_derived_graph(
            inst, by_ip.cover).max_degree()


class TestColoringTheBuiltGraphs:
    """The graphs every report is read from color within Δ + 1 and schedule
    into vertex-disjoint layers that place each edge once."""

    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    @settings(max_examples=150, deadline=None)
    @given(instance_and_cover())
    def test_color_and_schedule(self, case):
        inst, cover = case
        simple = (linear_graph(inst), cover_graph(inst, cover))
        for graph in simple:
            assert_proper_edge_coloring(graph, color_edges(graph))
        for graph in simple + (native3_graph(inst),):
            sched = build_schedule(graph)
            placed = [e for layer in sched.cost_layers for e in layer]
            assert sorted(placed) == sorted(graph.edges)
            for layer in sched.cost_layers:
                qubits = [v for e in layer for v in e]
                assert len(qubits) == len(set(qubits))


class TestForeignCover:
    """A cover made for another instance is refused, with make_cover's
    messages, by every function that takes one."""

    @pytest.mark.parametrize("fn", [gvs_report, gvs_degree_table, gvs_addends,
                                    cover_graph])
    def test_wrong_clause_count(self, fn):
        inst = make_instance(example1().clauses[:3])
        with pytest.raises(InvalidCoverError, match="4 entries for 3 clauses"):
            fn(inst, example1_cover())

    @pytest.mark.parametrize("fn", [gvs_report, gvs_degree_table, gvs_addends,
                                    cover_graph])
    def test_pair_outside_its_clause(self, fn):
        # example1 with its first and third clauses swapped: (1, 3) is no
        # longer within clause #0
        c = example1().clauses
        inst = make_instance([c[2], c[1], c[0], c[3]])
        with pytest.raises(InvalidCoverError,
                           match=r"clause #0: pair \(1, 3\) not within"):
            fn(inst, example1_cover())


class TestReport:
    def test_example1_report(self):
        r = gvs_report(example1(), example1_cover())
        assert r.formulation == "gvs"
        assert r.max_degree == 8
        assert r.depth_lower == 9
        assert r.depth_upper == 10
        assert r.num_ancillas == 8
        assert r.num_qubits == 13
        assert r.substitutions == 2

    def test_degenerate_clause_rejected(self):
        inst = Instance(4, ((1, 2, 3), (-1, 4)))
        cover = make_cover(inst, [(1, 2), (1, 4)])
        with pytest.raises(DegenerateClauseError):
            gvs_report(inst, cover)
