import random
from fractions import Fraction

import pytest

from qdepth.graph import IntGraph
from qdepth.pubo import MissingVariableError, Polynomial, VarId, derived_graph

from helpers import brute_force_extrema, interpolate_multilinear

X1, X2, X3 = VarId.x(1), VarId.x(2), VarId.x(3)
U13 = VarId.sub((1, 3))
D = VarId.sub_slack((1, 3), 1)


class TestVarId:
    def test_names(self):
        assert VarId.x(7).name == "x7"
        assert VarId.z(0).name == "z1"
        assert VarId.clause_slack(1, 2).name == "d2_2"
        assert VarId.sub((3, 1)).name == "u13"
        assert VarId.sub((10, 11)).name == "u10_11"
        assert VarId.sub_slack((1, 3), 1).name == "du13_1"
        assert VarId.sub_slack((10, 11), 2).name == "du10_11_2"

    def test_order_matches_rendered_names(self):
        # Sorting VarIds must agree with sorting their names, so printed
        # monomials come out in alphabetical variable order.
        vs = [
            VarId.x(1),
            VarId.x(12),
            VarId.z(0),
            VarId.clause_slack(2, 1),
            VarId.sub((1, 3)),
            VarId.sub_slack((1, 3), 2),
        ]
        assert [v.name[0] for v in sorted(vs)] == sorted(v.name[0] for v in vs)
        # and within the full list: slacks, subs, problem vars, indicators
        assert sorted(vs)[0].name.startswith("d")
        assert sorted(vs)[-1].name.startswith("z")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            VarId.x(0)
        with pytest.raises(ValueError):
            VarId.sub((1,))
        with pytest.raises(ValueError):
            VarId.sub((2, 2))
        with pytest.raises(ValueError):
            VarId.clause_slack(0, 3)


class TestArithmetic:
    def test_complement_product_display(self):
        p = (1 - Polynomial.variable(X1)) * (1 - Polynomial.variable(X2))
        assert p.to_text() == "1 - x1 - x2 + x1*x2"

    def test_idempotent_squaring(self):
        x = Polynomial.variable(X1)
        assert x * x == x
        assert (3 * x).square() == 9 * x

    def test_mixed_term_display(self):
        p = Polynomial({(U13, X2): 1})
        assert p.to_text() == "u13*x2"
        q = Polynomial.variable(X3) + p
        assert q.to_text() == "x3 + u13*x2"

    def test_penalty_square_cross_terms(self):
        # (u - x1 - x3 - d + 1)^2: every distinct pair of the four variables
        # shows up with coefficient +-2 and nothing collapses except squares.
        u, x1, x3, d = (Polynomial.variable(v) for v in (U13, X1, X3, D))
        sq = (u - x1 - x3 - d + 1).square()
        assert sq.coefficient((U13, X1)) == -2
        assert sq.coefficient((U13, X3)) == -2
        assert sq.coefficient((U13, D)) == -2
        assert sq.coefficient((X1, X3)) == 2
        assert sq.coefficient((X1, D)) == 2
        assert sq.coefficient((X3, D)) == 2
        # linear parts: v^2 = v folds into the linear coefficient
        assert sq.coefficient((U13,)) == 1 + 2
        assert sq.coefficient((X1,)) == 1 - 2
        assert sq.coefficient(()) == 1

    def test_zero_is_empty(self):
        x = Polynomial.variable(X1)
        assert (x - x).is_zero()
        assert (x - x) == Polynomial.zero()
        assert (x * 0).to_text() == "0"

    def test_fraction_coefficients(self):
        p = Polynomial({(X1,): Fraction(1, 3)}) + Polynomial({(X1,): Fraction(1, 6)})
        assert p.coefficient((X1,)) == Fraction(1, 2)

    def test_evaluate(self):
        p = (1 - Polynomial.variable(X1)) * (1 - Polynomial.variable(X2))
        assert p.evaluate({X1: 0, X2: 0}) == 1
        assert p.evaluate({X1: 1, X2: 0}) == 0
        with pytest.raises(MissingVariableError):
            p.evaluate({X1: 1})
        with pytest.raises(ValueError):
            p.evaluate({X1: 2, X2: 0})


def random_polynomial(rng, variables, num_terms):
    terms = {}
    for _ in range(num_terms):
        support = tuple(rng.sample(variables, rng.randint(0, len(variables))))
        terms[tuple(sorted(set(support)))] = Fraction(
            rng.randint(-9, 9), rng.randint(1, 4)
        )
    return Polynomial(terms)


class TestOracles:
    def test_product_matches_interpolation(self):
        # Multiply symbolically and, independently, interpolate the pointwise
        # product of the factors. Both routes must produce identical terms.
        rng = random.Random(11)
        variables = [VarId.x(i) for i in range(1, 6)]
        for _ in range(20):
            a = random_polynomial(rng, variables, 4)
            b = random_polynomial(rng, variables, 4)
            symbolic = a * b
            pointwise = interpolate_multilinear(
                lambda pt: a.evaluate(pt) * b.evaluate(pt), variables
            )
            assert symbolic == pointwise

    def test_square_matches_interpolation(self):
        rng = random.Random(13)
        variables = [VarId.x(i) for i in range(1, 5)]
        for _ in range(10):
            p = random_polynomial(rng, variables, 5)
            assert p.square() == interpolate_multilinear(
                lambda pt: p.evaluate(pt) ** 2, variables
            )

    def test_extrema_oracle_agrees_with_direct_evaluation(self):
        rng = random.Random(17)
        variables = [VarId.x(i) for i in range(1, 7)]
        p = random_polynomial(rng, variables, 8)
        lo, hi = brute_force_extrema(p, variables)
        seen = set()
        for mask in range(1 << 6):
            pt = {variables[j]: mask >> j & 1 for j in range(6)}
            seen.add(p.evaluate(pt))
        assert lo == min(seen)
        assert hi == max(seen)


class TestDerivedGraph:
    def test_numbering_and_merging(self):
        # x_i is vertex i and ancillas[k] is num_vars + 1 + k; a support two
        # addends share is one edge, and single-variable terms add none
        p = Polynomial({(X1, U13): 5, (X1, X3): Fraction(-1, 7), (X1,): 3})
        q = Polynomial({(X1, X3): 1, (U13, D, X2): 2})
        g = derived_graph([p, q], 3, (U13, D))
        assert g == IntGraph(3, frozenset({(1, 4), (1, 3), (2, 4, 5)}))
        assert derived_graph([p * Fraction(2, 9), q], 3, (U13, D)) == g

    def test_cancelled_terms_keep_their_edges(self):
        p = Polynomial({(X1, X2): 1})
        assert derived_graph([p, -p], 2, ()).edges == {(1, 2)}
        assert derived_graph([p - p], 2, ()).edges == frozenset()
