import random
from fractions import Fraction

import pytest

from qdepth.cnf import DegenerateClauseError, example1, make_instance
from qdepth.graph import linear_ancillas, linear_graph
from qdepth.linear import (
    InvalidPenaltyError,
    clause_residual,
    default_penalty,
    dualize_linear,
    linear_addends,
    linear_degree_table,
    linear_derived_graph,
    linear_report,
)
from qdepth.pubo import VarId

from helpers import (
    brute_force_argmax,
    brute_force_extrema,
    clause_satisfied,
    random_3sat_instance,
)


class TestResidual:
    def test_shape(self):
        f = clause_residual((1, 2, -3), 0)
        assert f.degree() == 1
        assert f.coefficient((VarId.x(1),)) == -1
        assert f.coefficient((VarId.x(3),)) == 1
        assert f.coefficient((VarId.clause_slack(0, 1),)) == 1
        assert f.coefficient((VarId.z(0),)) == -1
        # constant: 2 positive literals contribute 1 each, minus the 2
        assert f.coefficient(()) == 0

    def test_indicator_certifies_a_false_literal(self):
        # f = (#false literals) + d1 + d2 - 2 - z, so z=1 balances iff at
        # least one literal is false and z=0 balances iff at most two are.
        f = clause_residual((1, -2, 3), 4)

        def residuals(x_bits, z):
            out = []
            for d1 in (0, 1):
                for d2 in (0, 1):
                    point = {
                        VarId.x(1): x_bits[0],
                        VarId.x(2): x_bits[1],
                        VarId.x(3): x_bits[2],
                        VarId.clause_slack(4, 1): d1,
                        VarId.clause_slack(4, 2): d2,
                        VarId.z(4): z,
                    }
                    out.append(f.evaluate(point))
            return out

        all_true = (1, 0, 1)
        assert 0 not in residuals(all_true, z=1)
        assert 0 in residuals(all_true, z=0)
        all_false = (0, 1, 0)
        assert 0 in residuals(all_false, z=1)
        assert 0 not in residuals(all_false, z=0)
        one_false = (1, 1, 1)
        assert 0 in residuals(one_false, z=1)
        assert 0 in residuals(one_false, z=0)


class TestDualized:
    def test_default_penalty(self):
        assert default_penalty(example1()) == 5

    def test_rejects_bad_penalty(self):
        with pytest.raises(InvalidPenaltyError):
            dualize_linear(example1(), 0)
        with pytest.raises(InvalidPenaltyError):
            dualize_linear(example1(), Fraction(-1, 2))

    def test_quadratic(self):
        obj = dualize_linear(example1())
        assert obj.degree() == 2
        assert len(obj.variables()) == 5 + 12

    def test_maximum_counts_flip_satisfiable_clauses(self):
        # max over everything of sum(z_c - p*f_c^2) equals the number of
        # clauses when every clause can afford a false literal, and each
        # maximizer then has all residuals zero and all indicators set.
        inst = example1()
        obj = dualize_linear(inst)
        lo, hi = brute_force_extrema(obj)
        assert hi == inst.num_clauses
        for point in brute_force_argmax(obj):
            assert all(point[VarId.z(c)] == 1 for c in range(4))
            for c, clause in enumerate(inst.clauses):
                assert clause_residual(clause, c).evaluate(point) == 0
                # residual 0 with z=1 means one literal is false, i.e. the
                # polarity-flipped clause is satisfied
                flipped = tuple(-l for l in clause)
                bits = {i: point[VarId.x(i)] for i in (1, 2, 3, 4, 5)}
                assert clause_satisfied(flipped, bits)

    def test_penalty_dominates_indicator_payoff(self):
        # with the default penalty, violating any residual costs more than
        # all indicators pay, so no maximizer violates one
        rng = random.Random(23)
        inst = make_instance(random_3sat_instance(rng, 4, 3), num_vars=4)
        for point in brute_force_argmax(dualize_linear(inst)):
            for c, clause in enumerate(inst.clauses):
                assert clause_residual(clause, c).evaluate(point) == 0


class TestDerivedGraph:
    def test_per_clause_k6(self):
        inst = make_instance([(1, -2, 3)])
        g = linear_derived_graph(inst)
        assert len(g.degrees()) == 6
        assert len(g.edges) == 15
        assert g.is_simple()
        assert g.max_degree() == 5

    def test_union_keeps_cancelled_cross_terms(self):
        # clauses 1 and 4 of the worked example produce equal and opposite
        # x1*x2 coefficients, and clauses 1 and 2 do the same for x1*x3;
        # both edges must still be in the derived graph
        inst = example1()
        obj = dualize_linear(inst)
        assert obj.coefficient((VarId.x(1), VarId.x(2))) == 0
        assert obj.coefficient((VarId.x(1), VarId.x(3))) == 0
        g = linear_derived_graph(inst)
        assert (1, 2) in g.edges
        assert (1, 3) in g.edges
        # the graph of the summed polynomial is strictly smaller
        union = {s for p in linear_addends(inst) for s in p.supports()
                 if len(s) >= 2}
        assert len(union) == len(g.edges)
        assert {s for s in obj.supports() if len(s) >= 2} < union

    def test_example1_degrees(self):
        inst = example1()
        assert linear_graph(inst).max_degree() == 13
        table = linear_degree_table(inst)
        assert table[VarId.x(1)] == 13
        assert all(table[a] == 5 for a in table if a.name.startswith(("d", "z")))

    def test_closed_form_matches_graph(self):
        rng = random.Random(29)
        for trial in range(15):
            n = rng.randint(5, 7)
            m = rng.randint(1, 6)
            inst = make_instance(random_3sat_instance(rng, n, m), num_vars=n)
            g = linear_derived_graph(inst).degree_table(linear_ancillas(inst))
            for v, expected in linear_degree_table(inst).items():
                assert g[v] == expected, (trial, v)

    def test_closed_form_with_repeated_triple(self):
        # same variable triple twice: repeat edges between problem variables
        # are discounted exactly once each
        inst = make_instance([(1, 2, 3), (-1, 2, -3)])
        g = linear_derived_graph(inst)
        assert linear_degree_table(inst)[VarId.x(1)] == 10 - 2
        assert g.degrees()[1] == 8

    def test_graph_ignores_penalty(self):
        inst = example1()
        assert linear_derived_graph(inst) == linear_derived_graph(inst)
        a = [{s for s in p.supports() if len(s) >= 2}
             for p in linear_addends(inst, 1)]
        b = [{s for s in p.supports() if len(s) >= 2}
             for p in linear_addends(inst, 99)]
        assert a == b


class TestReport:
    def test_example1_report(self):
        r = linear_report(example1())
        assert r.formulation == "linear"
        assert r.num_problem_vars == 5
        assert r.num_ancillas == 12
        assert r.num_qubits == 17
        assert r.max_degree == 13
        assert r.depth_upper == 15
        assert r.depth_lower == 14
        assert r.wall_time is None

    def test_unused_variables_take_no_qubits(self):
        inst = make_instance([(1, 2, 3)], num_vars=9)
        r = linear_report(inst)
        assert r.num_problem_vars == 3
        assert r.num_qubits == 6

    def test_degenerate_clause_rejected(self):
        inst = make_instance([(1, 2, 3), (-1, 4)], allow_degenerate=True)
        with pytest.raises(DegenerateClauseError):
            linear_report(inst)
