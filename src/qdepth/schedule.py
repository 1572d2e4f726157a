"""Gate layering: edge colorings and the schedules they induce.

Every edge of an interaction graph (an `IntGraph`) is one multi-qubit gate;
gates sharing a qubit cannot fire in the same layer, so a depth-minimal
layering of a simple graph's gates is exactly a proper edge coloring.
`color_edges` implements the Misra-Gries construction, which always lands
within one color of the chromatic index (at most max degree + 1), in
polynomial time and deterministically.  For cubic terms the interaction
structure is a hypergraph; `color_hyperedges` colors its conflict graph,
exactly for small inputs and greedily beyond that.  Colorings and layers
are keyed by the graph's own sorted int-tuple edges.

A schedule adds one mixer layer after the cost layers, so its depth is the
number of colors plus one.  Single-qubit rotations commute with everything
diagonal and fold into neighbouring cost layers; a graph holds none of them.
"""

from __future__ import annotations

from typing import NamedTuple

from .cnf import Instance
from .graph import IntGraph, native3_graph
from .reports import DepthReport, graph_report

Edge = tuple[int, ...]


class NotSimpleGraphError(ValueError):
    """An operation that needs a simple graph was given hyperedges."""


class ImproperColoringError(ValueError):
    """A supplied coloring misses edges or puts clashing gates in one layer."""


def _edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def color_edges(graph: IntGraph) -> dict[Edge, int]:
    """Properly color a simple graph's edges with at most maxdeg+1 colors.

    Misra-Gries: for each uncolored edge, grow a fan around one endpoint,
    flip an alternating two-color path, rotate the fan, and one color slot is
    guaranteed to open up.  Deterministic: edges, fans and colors are always
    scanned in sorted order.
    """
    if not graph.is_simple():
        raise NotSimpleGraphError("edge coloring needs a simple graph")
    if not graph.edges:
        return {}

    num_colors = graph.max_degree() + 1
    # used[x][color] = neighbour reached from x by that color
    used: dict[int, dict[int, int]] = {v: {} for e in graph.edges for v in e}
    colors: dict[Edge, int] = {}

    def set_color(a: int, b: int, col: int) -> None:
        e = _edge(a, b)
        old = colors.get(e)
        if old is not None:
            del used[a][old]
            del used[b][old]
        colors[e] = col
        used[a][col] = b
        used[b][col] = a

    def uncolor(a: int, b: int) -> None:
        old = colors.pop(_edge(a, b))
        del used[a][old]
        del used[b][old]

    def free_color(x: int) -> int:
        for col in range(num_colors):
            if col not in used[x]:
                return col
        raise AssertionError("vertex already has maxdeg+1 incident colors")

    def is_free(col: int, x: int) -> bool:
        return col not in used[x]

    def maximal_fan(u: int, v: int) -> list[int]:
        # used[u] holds no v (the edge u-v is uncolored) and does not change
        # while the fan grows, so sort it once and drop each fan member
        around = sorted(used[u].items())
        fan = [v]
        while True:
            taken = used[fan[-1]]
            for k, (col, w) in enumerate(around):
                if col not in taken:
                    fan.append(w)
                    del around[k]
                    break
            else:
                return fan

    def invert_path(u: int, c: int, d: int) -> None:
        # walk from u along edges alternating d, c, d, ...; c is free on u
        # so the component through u is a path, never a cycle
        path = []
        x, col = u, d
        while col in used[x]:
            y = used[x][col]
            path.append((x, y, col))
            x, col = y, (c if col == d else d)
        for a, b, _ in path:
            uncolor(a, b)
        for a, b, col in path:
            set_color(a, b, c if col == d else d)

    for u, v in sorted(graph.edges):
        fan = maximal_fan(u, v)
        c = free_color(u)
        d = free_color(fan[-1])
        invert_path(u, c, d)
        # after the flip d is free on u; find a fan prefix whose tip also
        # has d free (the construction guarantees one exists)
        w_index = None
        prefix_ok = True
        for i, w in enumerate(fan):
            if i > 0:
                col = colors.get(_edge(u, w))
                prefix_ok = prefix_ok and col is not None and is_free(
                    col, fan[i - 1]
                )
            if prefix_ok and is_free(d, w):
                w_index = i
                break
        if w_index is None:
            raise AssertionError("no rotatable fan prefix; coloring bug")
        # shift each fan edge's color one step toward the new edge, then
        # close the freed slot with d; uncolor first so the incidence maps
        # never hold a stale entry mid-rotation
        shift = [colors[_edge(u, w)] for w in fan[1:w_index + 1]]
        for j in range(1, w_index + 1):
            uncolor(u, fan[j])
        for j in range(w_index):
            set_color(u, fan[j], shift[j])
        set_color(u, fan[w_index], d)

    return colors


def _conflict_adjacency(edges: list[Edge]) -> list[set[int]]:
    # two edges conflict when they share a vertex, so each vertex's incident
    # edges are pairwise adjacent: the cost is the sum of squared degrees,
    # not a test of every pair of edges
    incident: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(i)
    adj: list[set[int]] = [set() for _ in edges]
    for ids in incident.values():
        for i in ids:
            adj[i].update(ids)
    for i, neighbours in enumerate(adj):
        neighbours.discard(i)
    return adj


def _greedy_conflict_coloring(edges: list[Edge], adj) -> list[int]:
    assigned = [-1] * len(edges)
    for i in range(len(edges)):
        taken = {assigned[j] for j in adj[i] if assigned[j] >= 0}
        col = 0
        while col in taken:
            col += 1
        assigned[i] = col
    return assigned


# module-level recursion: a closure calling itself is a reference cycle
def _max_clique_size(size: int, candidates: set[int], adj, best: int) -> int:
    best = max(best, size)
    if size + len(candidates) <= best:
        return best
    for v in sorted(candidates):
        best = _max_clique_size(size + 1, candidates & adj[v], adj, best)
    return best


def _place(pos: int, highest: int, k: int, order, adj, assigned) -> bool:
    if pos == len(order):
        return True
    i = order[pos]
    taken = {assigned[j] for j in adj[i] if assigned[j] >= 0}
    # allowing one brand-new color per step kills permutation symmetry
    for col in range(min(highest + 2, k)):
        if col in taken:
            continue
        assigned[i] = col
        if _place(pos + 1, max(highest, col), k, order, adj, assigned):
            return True
        assigned[i] = -1
    return False


def _exact_conflict_coloring(edges: list[Edge], adj) -> list[int]:
    n = len(edges)
    greedy = _greedy_conflict_coloring(edges, adj)
    upper = max(greedy) + 1 if n else 0
    lower = _max_clique_size(0, set(range(n)), adj, 1 if n else 0)
    order = sorted(range(n), key=lambda i: (-len(adj[i]), i))
    for k in range(lower, upper):
        assigned = [-1] * n
        if _place(0, -1, k, order, adj, assigned):
            return assigned
    return greedy


EXACT_COLORING_LIMIT = 12


def color_hyperedges(graph: IntGraph) -> dict[Edge, int]:
    """Layer hyperedges so that no two sharing a vertex get one color.

    Vertex-colors the conflict graph of the hyperedges: exactly (minimal
    color count) up to EXACT_COLORING_LIMIT edges, greedily above that.
    """
    edges = sorted(graph.edges)
    adj = _conflict_adjacency(edges)
    if len(edges) <= EXACT_COLORING_LIMIT:
        assigned = _exact_conflict_coloring(edges, adj)
    else:
        assigned = _greedy_conflict_coloring(edges, adj)
    return dict(zip(edges, assigned))


class Schedule(NamedTuple):
    """Layered gate plan: cost layers, then one mixer layer.

    Each cost layer is a sorted tuple of mutually vertex-disjoint edges.
    """

    cost_layers: tuple[tuple[Edge, ...], ...]

    @property
    def num_colors(self) -> int:
        return len(self.cost_layers)

    @property
    def depth(self) -> int:
        return len(self.cost_layers) + 1


def _name(edge: Edge) -> str:
    return "-".join(map(str, edge))


def build_schedule(
    graph: IntGraph, coloring: dict[Edge, int] | None = None
) -> Schedule:
    """Group a graph's edges into vertex-disjoint layers.

    With no coloring supplied, one is computed (Misra-Gries when the graph
    is simple).  A supplied coloring must cover exactly the graph's edges,
    keyed as they are; anything else raises ImproperColoringError.
    """
    if coloring is None:
        coloring = (
            color_edges(graph) if graph.is_simple() else color_hyperedges(graph)
        )

    have = set(coloring)
    if graph.edges - have:
        missing = min(graph.edges - have)
        raise ImproperColoringError(f"no color for edge {_name(missing)}")
    if have - graph.edges:
        extra = min(have - graph.edges)
        raise ImproperColoringError(
            f"coloring mentions absent edge {_name(extra)}"
        )

    by_color: dict[int, list[Edge]] = {}
    for e in sorted(graph.edges):
        by_color.setdefault(coloring[e], []).append(e)

    layers = []
    for col in sorted(by_color):
        layer = by_color[col]
        seen: set[int] = set()
        for e in layer:
            if seen.intersection(e):
                clash = min(seen.intersection(e))
                raise ImproperColoringError(
                    f"layer {col} uses vertex {clash} twice"
                )
            seen.update(e)
        layers.append(tuple(layer))

    return Schedule(tuple(layers))


def native3_layers(graph: IntGraph) -> int:
    """Cost layers of running a native3 graph's hyperedges: the colors of
    `color_hyperedges`."""
    return len(set(color_hyperedges(graph).values()))


def native3_report(instance: Instance) -> DepthReport:
    """Depth of running the cubic encoding directly with three-qubit blocks.

    One gate block per distinct clause triple; blocks conflict when clauses
    share a variable.  The block count per variable lower-bounds the colors,
    so depth_lower = maxdeg + 1, with no Vizing-style +1 guarantee above it.
    """
    graph = native3_graph(instance)
    return graph_report("native3", graph, native3_layers(graph) + 1)
