import random
from collections import Counter

import pytest

from qdepth.cnf import DegenerateClauseError, example1, make_instance
from qdepth.product import (
    candidate_pairs,
    clause_violation,
    covering_graph,
    coverings,
    native3_hypergraph,
    product_objective,
    quadratic_pairs,
)
from qdepth.pubo import Polynomial, VarId, graph_union, interaction_graph

from helpers import (
    brute_force_extrema,
    clause_satisfied,
    count_satisfied,
    interpolate_multilinear,
    random_3sat_instance,
)


def pset(*pairs):
    return frozenset(pairs)


class TestClausePolynomials:
    # violation expansions of the four polarity classes, written out by hand
    def test_all_positive(self):
        x1, x2, x3 = (Polynomial.variable(VarId.x(i)) for i in (1, 2, 3))
        expected = (
            1 - x1 - x2 - x3
            + x1 * x2 + x1 * x3 + x2 * x3
            - x1 * x2 * x3
        )
        assert clause_violation((1, 2, 3)) == expected

    def test_one_negative(self):
        x1, x2, x3 = (Polynomial.variable(VarId.x(i)) for i in (1, 2, 3))
        expected = x1 - x1 * x2 - x1 * x3 + x1 * x2 * x3
        assert clause_violation((-1, 2, 3)) == expected

    def test_two_negative(self):
        x1, x2, x3 = (Polynomial.variable(VarId.x(i)) for i in (1, 2, 3))
        assert clause_violation((-1, -2, 3)) == x1 * x2 - x1 * x2 * x3

    def test_all_negative(self):
        x1, x2, x3 = (Polynomial.variable(VarId.x(i)) for i in (1, 2, 3))
        assert clause_violation((-1, -2, -3)) == x1 * x2 * x3

    def test_matches_pointwise_indicator(self):
        rng = random.Random(5)
        for _ in range(20):
            (clause,) = random_3sat_instance(rng, 5, 1)
            variables = [VarId.x(abs(l)) for l in clause]
            oracle = interpolate_multilinear(
                lambda pt: int(
                    clause_satisfied(clause, {v.key[0]: pt[v] for v in variables})
                ),
                variables,
            )
            assert clause_violation(clause) == 1 - oracle


class TestObjective:
    def test_counts_violated_clauses(self):
        rng = random.Random(7)
        clauses = random_3sat_instance(rng, 6, 5)
        inst = make_instance(clauses, num_vars=6)
        obj = product_objective(inst)
        for _ in range(30):
            bits = {i: rng.randint(0, 1) for i in range(1, 7)}
            pt = {VarId.x(i): b for i, b in bits.items()}
            assert obj.evaluate(pt) == len(clauses) - count_satisfied(clauses, bits)

    def test_example1_minimum_is_zero(self):
        lo, _ = brute_force_extrema(product_objective(example1()))
        assert lo == 0

    def test_degree_and_no_ancillas(self):
        obj = product_objective(example1())
        assert obj.degree() == 3
        assert all(v.kind == VarId.x(1).kind for v in obj.variables())

    def test_rejects_short_clauses(self):
        inst = make_instance([(1, 2)], allow_degenerate=True)
        with pytest.raises(DegenerateClauseError):
            product_objective(inst)


class TestPairSets:
    def test_example1_quadratic_pairs(self):
        P = quadratic_pairs(example1())
        assert P == pset((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4))

    def test_example1_membership_counts(self):
        members = Counter(v for p in quadratic_pairs(example1()) for v in p)
        assert members == {1: 3, 2: 4, 3: 3, 4: 3, 5: 1}

    def test_example1_candidate_pairs(self):
        S = candidate_pairs(example1())
        assert len(S) == 9
        assert S == quadratic_pairs(example1()) | pset((1, 5), (4, 5))

    def test_quadratic_pair_needs_positive_third_literal(self):
        # one all-negative clause produces no quadratic term at all
        assert quadratic_pairs(make_instance([(-1, -2, -3)])) == frozenset()
        # all-positive clause produces all three pairs
        assert quadratic_pairs(make_instance([(1, 2, 3)])) == pset(
            (1, 2), (1, 3), (2, 3)
        )

    def test_cancelled_pair_still_present_per_clause(self):
        # In the worked example the x1*x3 terms of clauses 1 and 2 cancel in
        # the summed objective, but both clauses still act on that pair.
        inst = example1()
        x1x3 = (VarId.x(1), VarId.x(3))
        assert product_objective(inst).coefficient(x1x3) == 0
        assert (1, 3) in quadratic_pairs(inst)
        g = graph_union(interaction_graph(clause_violation(c))
                        for c in inst.clauses)
        assert frozenset({VarId.x(1), VarId.x(3)}) in g.edges
        # and the summed graph really is missing edges the union has
        summed = interaction_graph(product_objective(inst))
        assert summed.edges < g.edges


class TestCoverings:
    def test_example1_covering_graph(self):
        cg = covering_graph(example1())
        assert sum(len(cs) for cs in cg.values()) == 12
        assert cg[(1, 3)] == (0, 1)
        assert cg[(2, 5)] == (2, 3)
        assert cg[(4, 5)] == (2,)

    def test_covering_free_variable(self):
        covs = [c for c in coverings(example1()) if c.clause == 0]
        assert {(c.pair, c.free) for c in covs} == {
            ((1, 2), 3),
            ((1, 3), 2),
            ((2, 3), 1),
        }


def is_sorted_pair(p):
    return (type(p) is tuple and len(p) == 2
            and all(type(v) is int for v in p) and p[0] < p[1])


class TestPairContract:
    """Every pair the module hands out is a sorted (i, j) tuple of ints."""

    def test_all_pair_sets_are_sorted_tuples(self):
        rng = random.Random(41)
        # clauses listed with their variables out of order and negated
        instances = [example1(), make_instance([(-3, 1, 2), (5, -4, 3)])]
        instances += [make_instance(random_3sat_instance(rng, 9, 12), num_vars=9)
                      for _ in range(5)]
        for inst in instances:
            pairs = [*candidate_pairs(inst), *quadratic_pairs(inst),
                     *(c.pair for c in coverings(inst)), *covering_graph(inst)]
            assert pairs and all(is_sorted_pair(p) for p in pairs), pairs
            assert quadratic_pairs(inst) <= candidate_pairs(inst)
            assert set(covering_graph(inst)) == candidate_pairs(inst)


class TestNative3:
    def test_example1_hypergraph(self):
        h = native3_hypergraph(example1())
        assert len(h.vertices) == 5
        assert len(h.edges) == 4
        assert all(len(e) == 3 for e in h.edges)
        # every pair of clauses shares a variable, so no two hyperedges are
        # disjoint and any proper coloring needs 4 colors
        edges = list(h.edges)
        assert all(e1 & e2 for e1 in edges for e2 in edges)

    def test_duplicate_triples_merge(self):
        inst = make_instance([(1, 2, 3), (-1, 2, -3)])
        assert len(native3_hypergraph(inst).edges) == 1
