import random
from collections import Counter

import pytest

from qdepth.cnf import DegenerateClauseError, Instance, example1, make_instance
from qdepth.product import (
    candidate_pairs,
    clause_violation,
    clause_triples,
    coverings,
    pair_index,
    product_objective,
    quadratic_pairs,
)
from qdepth.graph import native3_graph
from qdepth.pubo import Polynomial, VarId

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
        inst = Instance(2, ((1, 2),))
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
        union = {s for c in inst.clauses
                 for s in clause_violation(c).supports() if len(s) >= 2}
        assert x1x3 in union
        # and the summed graph really is missing edges the union has
        summed = {s for s in product_objective(inst).supports() if len(s) >= 2}
        assert summed < union


class TestCoverings:
    def test_example1_covering_graph(self):
        index = pair_index(example1())
        cg = dict(zip(index.pairs, index.reach))
        assert sum(len(cs) for cs in cg.values()) == 12
        assert cg[(1, 3)] == (0, 1)
        assert cg[(2, 5)] == (2, 3)
        assert cg[(4, 5)] == (2,)
        assert index.clause_pairs[0] == tuple(
            index.pairs.index(p) for p in [(1, 2), (1, 3), (2, 3)])

    def test_pair_index_matches_coverings(self):
        """Pair ids follow sorted pair order; reach and clause_pairs are the
        coverings, ascending, read from either side."""
        rng = random.Random(47)
        # a repeated triple, and clauses with variables out of order
        instances = [example1(), make_instance([(1, 2, 3), (-1, 2, 3), (3, 4, 5)]),
                     make_instance([(-3, 1, 2), (5, -4, 3)], num_vars=6)]
        instances += [make_instance(random_3sat_instance(rng, 9, 12), num_vars=9)
                      for _ in range(5)]
        for inst in instances:
            index = pair_index(inst)
            assert list(index.pairs) == sorted(candidate_pairs(inst))
            covs = coverings(inst)
            assert [index.pairs[k] for ks in index.clause_pairs for k in ks] \
                == [c.pair for c in covs]
            assert all(list(ks) == sorted(ks) for ks in index.clause_pairs)
            for k, cs in enumerate(index.reach):
                assert cs == tuple(c.clause for c in covs
                                   if c.pair == index.pairs[k])
            assert clause_triples(inst) == tuple(
                tuple(sorted(inst.clause_vars(c)))
                for c in range(inst.num_clauses))

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
                     *(c.pair for c in coverings(inst)), *pair_index(inst).pairs]
            assert pairs and all(is_sorted_pair(p) for p in pairs), pairs
            assert quadratic_pairs(inst) <= candidate_pairs(inst)
            assert set(pair_index(inst).pairs) == candidate_pairs(inst)


class TestPairSetMemo:
    """The pair sets are computed once per instance and shared, so what is
    shared must be equal for equal instances and impossible to change."""

    def test_equal_instances_get_equal_values(self):
        rng = random.Random(43)
        for _ in range(20):
            clauses = random_3sat_instance(rng, 7, 9)
            a = make_instance(clauses, num_vars=7)
            b = make_instance(list(clauses), num_vars=7)
            assert a == b and a is not b
            for fn in (candidate_pairs, quadratic_pairs, coverings,
                       clause_triples, pair_index):
                assert fn(a) == fn(b)
            assert coverings(a) is coverings(b)  # one pass, shared
            assert pair_index(a) is pair_index(b)

    def test_shared_values_cannot_be_changed(self):
        inst = example1()
        with pytest.raises(AttributeError):
            candidate_pairs(inst).add((1, 6))
        with pytest.raises(AttributeError):
            quadratic_pairs(inst).discard((1, 2))
        covs = coverings(inst)
        with pytest.raises(TypeError):
            covs[0] = covs[1]
        with pytest.raises(AttributeError):
            covs[0].free = 9
        # the index and the triples are tuples all the way down
        index = pair_index(inst)
        for seq in (index.pairs, index.reach, index.reach[0],
                    index.clause_pairs, index.clause_pairs[0],
                    clause_triples(inst), clause_triples(inst)[0]):
            assert type(seq) is tuple
        with pytest.raises(AttributeError):
            index.pairs = ()
        assert len(candidate_pairs(inst)) == 9 and len(coverings(inst)) == 12

    def test_rejection_is_not_remembered(self):
        inst = Instance(4, ((1, 2, 3), (-1, 4)))
        for _ in range(2):
            with pytest.raises(DegenerateClauseError):
                candidate_pairs(inst)


class TestNative3:
    def test_example1_hypergraph(self):
        h = native3_graph(example1())
        assert sorted(h.degrees()) == [1, 2, 3, 4, 5]
        assert len(h.edges) == 4
        assert all(len(e) == 3 for e in h.edges)
        # every pair of clauses shares a variable, so no two hyperedges are
        # disjoint and any proper coloring needs 4 colors
        edges = list(h.edges)
        assert all(set(e1) & set(e2) for e1 in edges for e2 in edges)

    def test_duplicate_triples_merge(self):
        inst = make_instance([(1, 2, 3), (-1, 2, -3)])
        assert native3_graph(inst).edges == {(1, 2, 3)}
