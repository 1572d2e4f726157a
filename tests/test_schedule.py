import itertools
import random

import pytest

from qdepth.cnf import example1, make_instance
from qdepth.gvs import cover_graph, gvs_derived_graph, product_objective
from qdepth.linear import linear_derived_graph
from qdepth.optimize import greedy_cover
from qdepth.graph import IntGraph, linear_graph, native3_graph
from qdepth.product import make_cover
from qdepth.pubo import Polynomial, derived_graph
from qdepth.schedule import (
    ImproperColoringError,
    NotSimpleGraphError,
    _conflict_adjacency,
    build_schedule,
    color_edges,
    color_hyperedges,
    native3_report,
)

from helpers import (
    assert_proper_edge_coloring,
    random_3sat_instance,
    random_graph,
)


def graph_of(*edges):
    return IntGraph(max((v for e in edges for v in e), default=0),
                    frozenset(tuple(sorted(e)) for e in edges))


def min_conflict_colors(edges):
    # brute-force chromatic number of the conflict graph; test-only oracle
    n = len(edges)
    conflicts = [
        (i, j) for i, j in itertools.combinations(range(n), 2)
        if set(edges[i]) & set(edges[j])
    ]
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for assign in itertools.product(range(k), repeat=n):
            if all(assign[i] != assign[j] for i, j in conflicts):
                return k
    raise AssertionError


def pairwise_conflicts(edges):
    # conflict adjacency by testing every pair of edges; test-only oracle
    adj = [set() for _ in edges]
    for i, j in itertools.combinations(range(len(edges)), 2):
        if set(edges[i]) & set(edges[j]):
            adj[i].add(j)
            adj[j].add(i)
    return adj


def reference_color_edges(graph):
    """Misra-Gries whose every fan step re-sorts the colors around u and
    tests fan membership in a set."""
    used = {v: {} for e in graph.edges for v in e}
    colors = {}
    num_colors = graph.max_degree() + 1

    def set_color(a, b, col):
        old = colors.get(frozenset((a, b)))
        if old is not None:
            del used[a][old]
            del used[b][old]
        colors[frozenset((a, b))] = col
        used[a][col] = b
        used[b][col] = a

    def uncolor(a, b):
        old = colors.pop(frozenset((a, b)))
        del used[a][old]
        del used[b][old]

    def free_color(x):
        return next(c for c in range(num_colors) if c not in used[x])

    def maximal_fan(u, v):
        fan, members = [v], {v}
        while True:
            for col in sorted(used[u]):
                w = used[u][col]
                if w not in members and col not in used[fan[-1]]:
                    fan.append(w)
                    members.add(w)
                    break
            else:
                return fan

    for u, v in sorted(graph.edges):
        fan = maximal_fan(u, v)
        c, d = free_color(u), free_color(fan[-1])
        path, x, col = [], u, d
        while col in used[x]:
            y = used[x][col]
            path.append((x, y, col))
            x, col = y, (c if col == d else d)
        for a, b, _ in path:
            uncolor(a, b)
        for a, b, col in path:
            set_color(a, b, c if col == d else d)
        w_index, prefix_ok = None, True
        for i, w in enumerate(fan):
            if i > 0:
                col = colors.get(frozenset((u, w)))
                prefix_ok = prefix_ok and col is not None and \
                    col not in used[fan[i - 1]]
            if prefix_ok and d not in used[w]:
                w_index = i
                break
        shift = [colors[frozenset((u, fan[j]))] for j in range(1, w_index + 1)]
        for j in range(1, w_index + 1):
            uncolor(u, fan[j])
        for j in range(w_index):
            set_color(u, fan[j], shift[j])
        set_color(u, fan[w_index], d)
    return {tuple(sorted(e)): col for e, col in colors.items()}


class TestEdgeColoring:
    def test_triangle_needs_three(self):
        coloring = color_edges(graph_of((1, 2), (2, 3), (1, 3)))
        assert_proper_edge_coloring(graph_of((1, 2), (2, 3), (1, 3)), coloring)
        assert len(set(coloring.values())) == 3

    def test_path_stays_within_bound(self):
        # maxdeg 2, so at most 3 colors; the construction does not promise
        # hitting the chromatic index exactly
        g = graph_of((1, 2), (2, 3), (3, 4))
        coloring = color_edges(g)
        assert_proper_edge_coloring(g, coloring)
        assert len(set(coloring.values())) <= 3

    def test_star(self):
        g = graph_of(*((10, i) for i in range(1, 6)))
        coloring = color_edges(g)
        assert_proper_edge_coloring(g, coloring)
        assert len(set(coloring.values())) == 5

    def test_complete_graph_even(self):
        # K4 is class 1: colorable with exactly maxdeg colors; the algorithm
        # may use the +1 slack, so only the bound is asserted
        g = graph_of(*itertools.combinations(range(1, 5), 2))
        coloring = color_edges(g)
        assert_proper_edge_coloring(g, coloring)
        assert len(set(coloring.values())) <= 4

    def test_empty_graph(self):
        assert color_edges(IntGraph(1, frozenset())) == {}

    def test_single_edge(self):
        coloring = color_edges(graph_of((1, 2)))
        assert list(coloring.values()) == [0]

    def test_rejects_hyperedges(self):
        with pytest.raises(NotSimpleGraphError):
            color_edges(graph_of((1, 2, 3)))

    def test_random_graphs_proper_within_bound(self):
        rng = random.Random(71)
        for _ in range(60):
            g = random_graph(rng, max_vertices=30)
            assert_proper_edge_coloring(g, color_edges(g))

    def test_deterministic(self):
        rng = random.Random(73)
        g = random_graph(rng, max_vertices=25)
        assert color_edges(g) == color_edges(g)

    def test_matches_reference_construction(self):
        rng = random.Random(79)
        graphs = [linear_derived_graph(example1()),
                  gvs_derived_graph(example1(), greedy_cover(example1(), 0))]
        for n, m in ((8, 20), (12, 40), (20, 85)):
            inst = make_instance(random_3sat_instance(rng, n, m), num_vars=n)
            graphs.append(linear_derived_graph(inst))
            graphs.append(gvs_derived_graph(inst, greedy_cover(inst, n)))
        graphs += [random_graph(rng, max_vertices=30) for _ in range(10)]
        for g in graphs:
            assert color_edges(g) == reference_color_edges(g)

    def test_example1_linear_graph_colors(self):
        g = linear_graph(example1())
        coloring = color_edges(g)
        assert_proper_edge_coloring(g, coloring)
        assert len(set(coloring.values())) <= 14


class TestHyperedgeColoring:
    def test_example1_native_triples_need_four(self):
        coloring = color_hyperedges(native3_graph(example1()))
        assert len(coloring) == 4
        assert len(set(coloring.values())) == 4

    def test_disjoint_edges_share_one_layer(self):
        g = graph_of((1, 2, 3), (4, 5, 6), (7, 8, 9))
        coloring = color_hyperedges(g)
        assert set(coloring.values()) == {0}

    def test_exact_on_small_inputs(self):
        rng = random.Random(79)
        for _ in range(25):
            n = rng.randint(0, 6)
            edges = []
            for _ in range(n):
                size = rng.choice((2, 3))
                edges.append(tuple(sorted(rng.sample(range(1, 8), size))))
            g = IntGraph(7, frozenset(edges))
            coloring = color_hyperedges(g)
            used = len(set(coloring.values()))
            assert used == min_conflict_colors(sorted(g.edges))

    def test_deterministic(self):
        g = native3_graph(example1())
        assert color_hyperedges(g) == color_hyperedges(g)

    @pytest.mark.filterwarnings("ignore::qdepth.cnf.DuplicateClauseWarning")
    def test_conflict_adjacency_matches_pairwise_scan(self):
        # criterion 9's simple graphs, then native3 hypergraphs of formulas
        # whose clauses share variable triples
        rng = random.Random(911)
        graphs = [random_graph(rng, max_vertices=60) for _ in range(40)]
        graphs.append(native3_graph(
            make_instance([(1, 2, 3), (-1, 2, 3), (3, 4, 5)])))
        for n in (4, 5, 8, 20):
            for _ in range(3):
                clauses = [tuple(v if rng.random() < 0.5 else -v
                                 for v in rng.sample(range(1, n + 1), 3))
                           for _ in range(round(4.26 * n))]
                graphs.append(native3_graph(make_instance(clauses)))
        for g in graphs:
            edges = sorted(g.edges)
            assert _conflict_adjacency(edges) == pairwise_conflicts(edges)


class TestSchedule:
    def test_layers_cover_terms_disjointly(self):
        inst = example1()
        cover = make_cover(inst, [(1, 3), (1, 3), (2, 5), (2, 5)])
        graph = cover_graph(inst, cover)
        sched = build_schedule(graph)
        placed = [e for layer in sched.cost_layers for e in layer]
        assert sorted(placed) == sorted(graph.edges)
        for layer in sched.cost_layers:
            qubits = [v for e in layer for v in e]
            assert len(qubits) == len(set(qubits))
        assert sched.depth == sched.num_colors + 1
        # max degree 8, so at most 9 interaction layers
        assert sched.num_colors <= 9

    def test_hypergraph_polynomial_schedules_too(self):
        # the product form mixes pair edges with clause triples
        graph = derived_graph([product_objective(example1())], 5, ())
        assert not graph.is_simple()
        sched = build_schedule(graph)
        placed = [e for layer in sched.cost_layers for e in layer]
        assert sorted(placed) == sorted(graph.edges)

    def test_empty_polynomial(self):
        sched = build_schedule(derived_graph([Polynomial.zero()], 0, ()))
        assert sched.cost_layers == ()
        assert sched.depth == 1

    def test_constant_polynomial(self):
        graph = derived_graph([Polynomial.constant(3)], 0, ())
        assert build_schedule(graph).depth == 1

    def test_missing_color_rejected(self):
        with pytest.raises(ImproperColoringError, match="no color for edge 1-2"):
            build_schedule(graph_of((1, 2)), coloring={})

    def test_extra_color_key_rejected(self):
        with pytest.raises(ImproperColoringError, match="absent edge 8-9"):
            build_schedule(graph_of((1, 2)), coloring={(1, 2): 0, (8, 9): 1})

    def test_clashing_layer_rejected(self):
        graph = graph_of((1, 2), (2, 3))
        with pytest.raises(ImproperColoringError, match="vertex 2 twice"):
            build_schedule(graph, coloring={(1, 2): 0, (2, 3): 0})


class TestNativeReport:
    def test_example1(self):
        r = native3_report(example1())
        assert r.formulation == "native3"
        assert r.num_problem_vars == 5
        assert r.num_ancillas == 0
        assert r.num_qubits == 5
        assert r.num_interactions == 4
        assert r.max_degree == 3
        assert r.depth_upper == 5
        assert r.depth_lower == 4

    def test_disjoint_clauses(self):
        inst = make_instance([(1, 2, 3), (4, 5, 6)])
        r = native3_report(inst)
        assert r.depth_upper == 2
        assert r.depth_lower == 2
