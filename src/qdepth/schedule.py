"""Gate layering: edge colorings and the schedules they induce.

Every interaction term of a cost polynomial is one multi-qubit gate; gates
sharing a qubit cannot fire in the same layer, so a depth-minimal layering
of the quadratic terms is exactly a proper edge coloring of the interaction
graph.  `color_edges` implements the Misra-Gries construction, which always
lands within one color of the chromatic index (at most max degree + 1), in
polynomial time and deterministically.  For cubic terms the interaction
structure is a hypergraph; `color_hyperedges` colors its conflict graph,
exactly for small inputs and greedily beyond that.

A schedule adds one mixer layer after the cost layers, so its depth is the
number of colors plus one.  Single-qubit rotations commute with everything
diagonal and fold into neighbouring cost layers, so they are tracked but
never counted toward depth.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .cnf import Instance
from .graph import InteractionGraph, NotSimpleGraphError, VarId
from .product import native3_hypergraph
from .reports import DepthReport

if TYPE_CHECKING:  # polynomials load only where one is built
    from .pubo import Monomial, Polynomial

Edge = frozenset


class ImproperColoringError(ValueError):
    """A supplied coloring misses terms or puts clashing gates in one layer."""


def color_edges(graph: InteractionGraph) -> dict[Edge, int]:
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

    delta = graph.max_degree()
    num_colors = delta + 1
    # used[x][color] = neighbour reached from x by that color
    used: dict[VarId, dict[int, VarId]] = {v: {} for v in graph.vertices}
    colors: dict[Edge, int] = {}

    def set_color(a: VarId, b: VarId, col: int) -> None:
        e = frozenset((a, b))
        old = colors.get(e)
        if old is not None:
            del used[a][old]
            del used[b][old]
        colors[e] = col
        used[a][col] = b
        used[b][col] = a

    def uncolor(a: VarId, b: VarId) -> None:
        e = frozenset((a, b))
        old = colors.pop(e)
        del used[a][old]
        del used[b][old]

    def free_color(x: VarId) -> int:
        for col in range(num_colors):
            if col not in used[x]:
                return col
        raise AssertionError("vertex already has maxdeg+1 incident colors")

    def is_free(col: int, x: VarId) -> bool:
        return col not in used[x]

    def maximal_fan(u: VarId, v: VarId) -> list[VarId]:
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

    def invert_path(u: VarId, c: int, d: int) -> None:
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

    for e in sorted(graph.edges, key=lambda e: tuple(sorted(e))):
        u, v = sorted(e)
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
                col = colors.get(frozenset((u, fan[i])))
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
        shift = [colors[frozenset((u, fan[j]))] for j in range(1, w_index + 1)]
        for j in range(1, w_index + 1):
            uncolor(u, fan[j])
        for j in range(w_index):
            set_color(u, fan[j], shift[j])
        set_color(u, fan[w_index], d)

    return colors


def _conflict_adjacency(edges: list[Edge]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in edges]
    for i, j in combinations(range(len(edges)), 2):
        if edges[i] & edges[j]:
            adj[i].add(j)
            adj[j].add(i)
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


def color_hyperedges(graph: InteractionGraph) -> dict[Edge, int]:
    """Layer hyperedges so that no two sharing a vertex get one color.

    Vertex-colors the conflict graph of the hyperedges: exactly (minimal
    color count) up to EXACT_COLORING_LIMIT edges, greedily above that.
    """
    edges = sorted(graph.edges, key=lambda e: tuple(sorted(e)))
    adj = _conflict_adjacency(edges)
    if len(edges) <= EXACT_COLORING_LIMIT:
        assigned = _exact_conflict_coloring(edges, adj)
    else:
        assigned = _greedy_conflict_coloring(edges, adj)
    return dict(zip(edges, assigned))


class Schedule(NamedTuple):
    """Layered gate plan: cost layers, then one mixer layer.

    Each cost layer is a tuple of mutually qubit-disjoint interaction terms.
    Single-qubit terms ride along with whichever layer touches their qubit
    and are listed separately; they never add depth.
    """

    cost_layers: tuple[tuple[Monomial, ...], ...]
    single_qubit_terms: tuple[Monomial, ...]

    @property
    def num_colors(self) -> int:
        return len(self.cost_layers)

    @property
    def depth(self) -> int:
        return len(self.cost_layers) + 1


def build_schedule(
    poly: Polynomial, coloring: dict[Edge, int] | None = None
) -> Schedule:
    """Group a polynomial's interaction terms into vertex-disjoint layers.

    With no coloring supplied, one is computed from the polynomial's own
    interaction structure (Misra-Gries when it is a simple graph).  A
    supplied coloring must cover every term of size two or more exactly;
    anything else raises ImproperColoringError.
    """
    from .pubo import interaction_graph

    multi = sorted(s for s in poly.supports() if len(s) >= 2)
    singles = tuple(sorted(s for s in poly.supports() if len(s) == 1))

    if coloring is None:
        graph = interaction_graph(poly)
        coloring = (
            color_edges(graph) if graph.is_simple() else color_hyperedges(graph)
        )

    needed = {frozenset(s) for s in multi}
    have = set(coloring)
    if needed - have:
        missing = sorted(needed - have, key=lambda e: tuple(sorted(e)))[0]
        raise ImproperColoringError(
            f"no color for term {'*'.join(v.name for v in sorted(missing))}"
        )
    if have - needed:
        extra = sorted(have - needed, key=lambda e: tuple(sorted(e)))[0]
        raise ImproperColoringError(
            f"coloring mentions absent term {'*'.join(v.name for v in sorted(extra))}"
        )

    by_color: dict[int, list[Monomial]] = {}
    for s in multi:
        by_color.setdefault(coloring[frozenset(s)], []).append(s)

    layers = []
    for col in sorted(by_color):
        layer = sorted(by_color[col])
        seen: set[VarId] = set()
        for s in layer:
            if seen & set(s):
                clash = sorted(seen & set(s))[0]
                raise ImproperColoringError(
                    f"layer {col} uses qubit {clash.name} twice"
                )
            seen.update(s)
        layers.append(tuple(layer))

    return Schedule(tuple(layers), singles)


def native3_report(instance: Instance) -> DepthReport:
    """Depth of running the cubic encoding directly with three-qubit blocks.

    One gate block per distinct clause triple; blocks conflict when clauses
    share a variable.  The block count per variable lower-bounds the colors,
    so depth_lower = maxdeg + 1, with no Vizing-style +1 guarantee above it.
    """
    graph = native3_hypergraph(instance)
    coloring = color_hyperedges(graph)
    num_colors = len(set(coloring.values())) if coloring else 0
    delta = graph.max_degree() if graph.edges else 0
    return DepthReport(
        formulation="native3",
        num_problem_vars=len(graph.vertices),
        num_ancillas=0,
        num_qubits=len(graph.vertices),
        num_interactions=len(graph.edges),
        max_degree=delta,
        depth_upper=num_colors + 1,
        depth_lower=delta + 1,
    )
