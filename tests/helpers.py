"""Shared test oracles, deliberately independent of the package internals.

The brute-force evaluators here tabulate every assignment with a numpy
subset-sum transform and never reuse the package's own polynomial
arithmetic beyond reading term dictionaries, so agreement between the two
routes is meaningful.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from qdepth import graph, greedy, gvs, optimize
from qdepth.graph import IntGraph
from qdepth.pubo import Polynomial


def evaluate_all(poly: Polynomial, variables) -> tuple[np.ndarray, int]:
    """Evaluate poly on every 0/1 assignment, exactly, scaled to int64.

    Index k of the result is the assignment whose bit j is the value of
    variables[j].  The result is (values, denominator): values[k] /
    denominator is the exact rational value at k.  Each term's scaled
    coefficient goes in at its support's bitmask, then a subset-sum (zeta)
    transform adds every mask's entry into all of its supersets.
    """
    n = len(variables)
    if n > 24:
        raise ValueError(f"refusing to enumerate 2^{n} assignments")
    bit = {v: 1 << j for j, v in enumerate(variables)}
    terms = poly.terms
    denom = math.lcm(*(c.denominator for c in terms.values())) if terms else 1
    total = np.zeros(1 << n, dtype=np.int64)
    for support, coeff in terms.items():
        scaled = coeff * denom
        assert scaled.denominator == 1
        total[sum(bit[v] for v in support)] += int(scaled)
    for j in range(n):
        view = total.reshape(-1, 2, 1 << j)
        view[:, 1] += view[:, 0]
    return total, denom


def _assignment(variables, k: int) -> dict:
    return {v: k >> j & 1 for j, v in enumerate(variables)}


def brute_force_extrema(poly: Polynomial, variables=None):
    """Exact (min, max) of poly over all 0/1 assignments, as Fractions."""
    if variables is None:
        variables = sorted(poly.variables())
    values, denom = evaluate_all(poly, variables)
    return Fraction(int(values.min()), denom), Fraction(int(values.max()), denom)


def brute_force_argmax(poly: Polynomial, variables=None):
    """All maximizing assignments as dicts VarId -> 0/1."""
    if variables is None:
        variables = sorted(poly.variables())
    values, _ = evaluate_all(poly, variables)
    rows = np.nonzero(values == values.max())[0]
    return [_assignment(variables, int(r)) for r in rows]


def brute_force_argmin(poly: Polynomial, variables=None):
    if variables is None:
        variables = sorted(poly.variables())
    values, _ = evaluate_all(poly, variables)
    rows = np.nonzero(values == values.min())[0]
    return [_assignment(variables, int(r)) for r in rows]


def interpolate_multilinear(func, variables):
    """Recover the unique multilinear polynomial matching func on {0,1}^n.

    Möbius inversion over subsets: coeff(S) = sum_{T subseteq S} (-1)^{|S|-|T|} f(T).
    This is a from-scratch expansion route used to cross-check symbolic
    arithmetic in the package.
    """
    variables = list(variables)
    n = len(variables)
    coeffs = {}
    for s_mask in range(1 << n):
        s_vars = [variables[j] for j in range(n) if s_mask >> j & 1]
        total = Fraction(0)
        t_mask = s_mask
        while True:
            point = {v: 0 for v in variables}
            popcount = 0
            for j in range(n):
                if t_mask >> j & 1:
                    point[variables[j]] = 1
                    popcount += 1
            sign = -1 if (len(s_vars) - popcount) % 2 else 1
            total += sign * Fraction(func(point))
            if t_mask == 0:
                break
            t_mask = (t_mask - 1) & s_mask
        if total != 0:
            coeffs[tuple(sorted(s_vars))] = total
    return Polynomial(coeffs)


def clause_satisfied(clause, assignment) -> bool:
    """Direct DIMACS-literal check against a {index: bit} assignment."""
    for lit in clause:
        bit = assignment[abs(lit)]
        if (lit > 0 and bit == 1) or (lit < 0 and bit == 0):
            return True
    return False


def count_satisfied(clauses, assignment) -> int:
    return sum(1 for c in clauses if clause_satisfied(c, assignment))


def enumerate_sat_assignments(num_vars, clauses):
    """All satisfying assignments as {index: bit} dicts (index is 1-based)."""
    out = []
    for bits in itertools.product((0, 1), repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if all(clause_satisfied(c, assignment) for c in clauses):
            out.append(assignment)
    return out


def random_3sat_instance(rng: random.Random, num_vars: int, num_clauses: int):
    """Random 3-SAT clauses over pairwise-distinct variable triples.

    Many seeded tests and acceptance criteria draw from this, so its draws
    stay as they are; clauses that share a triple come from the draws in
    `test_gvs` (hypothesis) and `test_optimize` (`draw_3sat`).
    """
    if num_vars < 3:
        raise ValueError("need at least 3 variables")
    max_triples = math.comb(num_vars, 3)
    if num_clauses > max_triples:
        raise ValueError(f"only {max_triples} distinct triples available")
    triples = rng.sample(
        list(itertools.combinations(range(1, num_vars + 1), 3)), num_clauses
    )
    clauses = []
    for triple in triples:
        clause = tuple(v if rng.random() < 0.5 else -v for v in triple)
        clauses.append(clause)
    return clauses


def random_cover_choice(rng: random.Random, instance):
    """A uniformly random pair choice per clause, as pair tuples."""
    out = []
    for c in range(instance.num_clauses):
        vs = sorted(instance.clause_vars(c))
        pairs = [(vs[0], vs[1]), (vs[0], vs[2]), (vs[1], vs[2])]
        out.append(rng.choice(pairs))
    return out


def canonical_instances(num_vars, num_clauses):
    """All 3-SAT instances up to variable relabeling, as sorted clause tuples.

    Enumerates every multiset of num_clauses clauses over num_vars variables
    and keeps one representative per orbit of the symmetric group acting on
    variable indices.  Small inputs only.
    """
    literals = list(range(1, num_vars + 1)) + [-i for i in range(1, num_vars + 1)]
    all_clauses = sorted(
        {
            tuple(sorted(c))
            for c in itertools.combinations(literals, 3)
            if len({abs(l) for l in c}) == 3
        }
    )
    perms = list(itertools.permutations(range(1, num_vars + 1)))

    def relabel(instance, perm):
        mapping = {i + 1: perm[i] for i in range(num_vars)}
        mapped = []
        for clause in instance:
            mapped.append(
                tuple(
                    sorted(
                        mapping[abs(l)] if l > 0 else -mapping[abs(l)]
                        for l in clause
                    )
                )
            )
        return tuple(sorted(mapped))

    seen = set()
    reps = []
    for combo in itertools.combinations_with_replacement(all_clauses, num_clauses):
        inst = tuple(sorted(combo))
        if inst in seen:
            continue
        orbit = {relabel(inst, p) for p in perms}
        seen.update(orbit)
        reps.append(inst)
    return reps


def random_graph(rng: random.Random, max_vertices: int = 60) -> IntGraph:
    """Erdos-Renyi-ish simple graph over vertices 1..n, density drawn per
    graph."""
    n = rng.randint(2, max_vertices)
    p = rng.uniform(0.05, 0.6)
    edges = {
        pair
        for pair in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < p
    }
    return IntGraph(n, frozenset(edges))


def assert_proper_edge_coloring(graph: IntGraph, coloring) -> None:
    """Colored exactly the graph's edges, no clash at any vertex, <= maxdeg+1."""
    assert set(coloring) == set(graph.edges)
    incident: dict = {}
    for e, col in coloring.items():
        for v in e:
            key = (v, col)
            assert key not in incident, f"color {col} repeats at vertex {v}"
            incident[key] = e
    if coloring:
        assert len(set(coloring.values())) <= graph.max_degree() + 1


EXAMPLE1_CLAUSES = [
    (1, 2, -3),
    (1, 3, 4),
    (-2, 4, 5),
    (1, -2, 5),
]


def count_cover_work(monkeypatch) -> Counter:
    """Count the gvs graph builds ("gvs_graph") and the re-checks of a made
    cover ("make_cover") wherever the solvers, the command line and
    `gvs.cover_graph` call them.  The solvers' own make_cover calls, which
    make covers, are not counted."""
    calls = Counter()
    for module, name in [(gvs, "gvs_graph"), (greedy, "gvs_graph"),
                         (optimize, "gvs_graph"), (graph, "gvs_graph"),
                         (gvs, "make_cover")]:
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls
