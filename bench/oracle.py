"""The benchmark's own model of each formulation, and the checks built on it.

Everything here is recomputed from the clause list with integer or tuple
vertex ids and plain sets.  Nothing is imported from qdepth, so agreement
between these figures and the program's reports is a real cross-check.

Graphs, as the program describes them:

* linear: one K6 per clause over its three problem variables, two slacks
  and one indicator;
* native3: one hyperedge per distinct clause variable triple;
* substituted (gvs) under a cover: the quadratic-pair edges, one penalty
  block per used pair (u-xi, u-xj, u-d1, xi-xj, xi-d1, xj-d1, u-d2, xi-d2,
  u-d3, xj-d3) and one u-x_free edge per clause, merged where clauses repeat.

The program counts u-x_free edges once per clause, not once per distinct
(pair, free variable); `GvsGraph.occurrence_delta` models that count, so a
reported Δ is checked to lie between the graph's Δ and that count.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations

EXAMPLE1 = ((1, 2, -3), (1, 3, 4), (-2, 4, 5), (1, -2, 5))
# Two clauses on one variable triple: covering both with the same pair
# merges their u-x3 edge, which the program counts twice.
REPEAT3 = ((1, 2, 3), (-1, 2, 3), (3, 4, 5))


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def random_3sat(num_vars: int, num_clauses: int, rng) -> list[tuple[int, ...]]:
    """Three distinct variables and fair-coin signs per clause; repeated
    variable triples across clauses are allowed."""
    clauses = []
    for _ in range(num_clauses):
        triple = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in triple))
    return clauses


def to_dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def degrees(edges) -> Counter:
    out: Counter = Counter()
    for e in edges:
        for v in e:
            out[v] += 1
    return out


def max_degree(edges) -> int:
    return max(degrees(edges).values(), default=0)


class Formula:
    """Clauses canonicalized as the program stores them: sorted by variable."""

    def __init__(self, num_vars: int, clauses):
        self.num_vars = num_vars
        self.clauses = [tuple(sorted(c, key=abs)) for c in clauses]
        self.triples = [tuple(abs(l) for l in c) for c in self.clauses]
        self.used = sorted({v for t in self.triples for v in t})

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def candidate_pairs(self) -> set[tuple[int, int]]:
        return {p for t in self.triples for p in combinations(t, 2)}

    def quadratic_pairs(self) -> set[tuple[int, int]]:
        """Pairs whose clause's remaining literal is positive."""
        out = set()
        for clause in self.clauses:
            for k, third in enumerate(clause):
                if third > 0:
                    a, b = (abs(l) for j, l in enumerate(clause) if j != k)
                    out.add((a, b))
        return out

    def linear_edges(self) -> set[tuple]:
        """One K6 per clause: three problem variables and three ancillas."""
        edges = set()
        for c, t in enumerate(self.triples):
            vertices = [("x", v) for v in t] + [("a", c, k) for k in range(3)]
            edges.update(combinations(vertices, 2))
        return edges

    def native3(self) -> tuple[int, int]:
        """(Δ, hyperedge count): distinct triples through one variable, and
        distinct triples."""
        distinct = set(self.triples)
        return max(degrees(distinct).values(), default=0), len(distinct)

    def lower_bound(self) -> int:
        """A Δ no substituted graph of this formula can go below.

        For a variable a with quadratic partners P_a and used pairs through a
        with partners B: deg(a) >= |P_a| + 3|B| + |B - P_a| + (free edges),
        and the free edges number at least T_a - sum over b in B of t_ab,
        with T_a the distinct triples through a and t_ab those through a and
        b.  Minimizing over B term by term gives the bound; every used pair
        also gives its u at least 5 + 1.
        """
        distinct = set(self.triples)
        quad = self.quadratic_pairs()
        partners: dict[int, set[int]] = {v: set() for v in self.used}
        for a, b in quad:
            partners[a].add(b)
            partners[b].add(a)
        through = Counter(v for t in distinct for v in t)
        saving: Counter = Counter()
        for (x, y), t_xy in Counter(
            p for t in distinct for p in combinations(t, 2)
        ).items():
            for a, b in ((x, y), (y, x)):
                saving[a] += max(0, t_xy - 3 - (b not in partners[a]))
        return max(
            [6 if self.clauses else 0]
            + [len(partners[a]) + through[a] - saving[a] for a in self.used]
        )


class GvsGraph:
    """The substituted interaction graph of a cover (one pair per clause)."""

    def __init__(self, formula: Formula, cover):
        check_cover(formula, cover)
        pairs = [tuple(sorted(p)) for p in cover]
        self.used = sorted(set(pairs))
        edges = {(("x", a), ("x", b)) for a, b in formula.quadratic_pairs()}
        for p in self.used:
            u, xi, xj = ("u", p), ("x", p[0]), ("x", p[1])
            d1, d2, d3 = ("d", p, 1), ("d", p, 2), ("d", p, 3)
            edges.update([(u, xi), (u, xj), (u, d1), (xi, xj), (xi, d1),
                          (xj, d1), (u, d2), (xi, d2), (u, d3), (xj, d3)])
        free_edges = Counter()
        for t, p in zip(formula.triples, pairs):
            (free,) = set(t) - set(p)
            free_edges[(("u", p), ("x", free))] += 1
        edges.update(free_edges)
        self.edges = {tuple(sorted(e)) for e in edges}
        self.num_qubits = len(formula.used) + 4 * len(self.used)
        graph_degrees = degrees(self.edges)
        self.delta = max(graph_degrees.values(), default=0)
        for (u, x), count in free_edges.items():
            graph_degrees[u] += count - 1
            graph_degrees[x] += count - 1
        self.occurrence_delta = max(graph_degrees.values(), default=0)

    def check_reported(self, reported: int) -> bool:
        """True when `reported` is above the graph's Δ (an over-report the
        per-clause count explains); raises when it fits neither."""
        expect(self.delta <= reported <= self.occurrence_delta,
               f"reported Δ {reported} outside [{self.delta}, "
               f"{self.occurrence_delta}] of the cover's graph")
        return reported > self.delta


def check_cover(formula: Formula, cover) -> None:
    expect(len(cover) == formula.num_clauses,
           f"cover has {len(cover)} pairs for {formula.num_clauses} clauses")
    for c, (pair, triple) in enumerate(zip(cover, formula.triples)):
        expect(pair is not None and len(set(pair)) == 2
               and set(pair) <= set(triple),
               f"clause #{c} {triple} is not covered by {pair}")


def check_edge_coloring(edges, coloring) -> int:
    """Every edge colored, no two edges at a vertex alike, at most Δ + 1
    colors.  Returns the number of colors."""
    edges = {frozenset(e) for e in edges}
    colored = {frozenset(e) for e in coloring}
    expect(colored == edges,
           f"coloring covers {len(colored & edges)} of {len(edges)} edges "
           f"and {len(colored - edges)} others")
    seen = set()
    for e, color in coloring.items():
        for v in e:
            expect((v, color) not in seen, f"two edges of color {color} at {v}")
            seen.add((v, color))
    num_colors = len(set(coloring.values()))
    expect(num_colors <= max_degree(edges) + 1,
           f"{num_colors} colors for Δ = {max_degree(edges)}")
    return num_colors


_SUB_NAME = re.compile(r"^u(\d+(?:_\d+)*)$")


def substituted_pairs(degree_names) -> set[tuple[int, int]]:
    """Pairs named by substitution vertices (u13, u10_12) in a report."""
    pairs = set()
    for name in degree_names:
        m = _SUB_NAME.match(name)
        if m:
            text = m.group(1)
            idx = text.split("_") if "_" in text else list(text)
            expect(len(idx) == 2, f"substitution vertex {name} is not a pair")
            pairs.add(tuple(sorted(int(i) for i in idx)))
    return pairs


def cover_from_pairs(formula: Formula, used) -> list | None:
    """The cover the used pairs imply, or None when some clause has more
    than one of its pairs used.  Raises when a clause has none."""
    cover = []
    for c, t in enumerate(formula.triples):
        options = [p for p in combinations(t, 2) if p in used]
        expect(options, f"clause #{c} {t} has none of its pairs substituted")
        cover.append(options[0] if len(options) == 1 else None)
    return None if None in cover else cover


# -- checks of the command line's outputs ------------------------------------


def check_inspect(doc: dict, f: Formula) -> None:
    want = {
        "num_vars": f.num_vars,
        "num_used_vars": len(f.used),
        "num_clauses": f.num_clauses,
        "num_candidate_pairs": len(f.candidate_pairs()),
        "num_quadratic_pairs": len(f.quadratic_pairs()),
        "num_coverings": 3 * f.num_clauses,
    }
    got = {k: doc.get(k) for k in want}
    expect(got == want, f"inspect {got} != {want}")


def check_depths(r: dict) -> int:
    expect(r["depth_upper"] == r["max_degree"] + 2,
           f"depth_upper {r['depth_upper']} != Δ {r['max_degree']} + 2")
    return r["max_degree"]


def check_linear(r: dict, f: Formula) -> int:
    edges = f.linear_edges()
    want = (max_degree(edges), len(edges), len(f.used) + 3 * f.num_clauses)
    got = (r["max_degree"], r["num_interactions"], r["num_qubits"])
    expect(got == want, f"linear (Δ, edges, qubits) {got} != {want}")
    return check_depths(r)


def check_native3(r: dict, f: Formula) -> int:
    want = f.native3()
    got = (r["max_degree"], r["num_interactions"])
    expect(got == want, f"native3 (Δ, hyperedges) {got} != {want}")
    expect(r["depth_lower"] == r["max_degree"] + 1 <= r["depth_upper"],
           f"native3 depths {r['depth_lower']}..{r['depth_upper']} "
           f"for Δ {r['max_degree']}")
    return r["max_degree"]


def check_gvs(r: dict, f: Formula) -> tuple[int, set]:
    """Depth and qubit arithmetic, and a valid cover behind the report.
    Returns (Δ, substituted pairs)."""
    delta = check_depths(r)
    used = substituted_pairs(r["degrees"])
    expect(len(used) == r["substitutions"],
           f"{len(used)} substitution vertices for {r['substitutions']} "
           "substitutions")
    expect(r["num_qubits"] == len(f.used) + 4 * r["substitutions"],
           f"num_qubits {r['num_qubits']} != {len(f.used)} + 4 * "
           f"{r['substitutions']}")
    candidates = f.candidate_pairs()
    expect(used <= candidates,
           f"substituted pairs {sorted(used - candidates)} share no clause")
    cover_from_pairs(f, used)
    return delta, used


def check_ip(r: dict, f: Formula, exit_code: int) -> tuple[int, set]:
    expect(r["solver_status"] == "optimal" and exit_code == 0,
           f"solver status {r['solver_status']}, exit {exit_code}")
    delta, used = check_gvs(r, f)
    expect(delta >= f.lower_bound(),
           f"IP Δ {delta} below the lower bound {f.lower_bound()}")
    return delta, used


def check_export(lp: str, f: Formula) -> None:
    section, cover_rows, z_binaries = None, 0, 0
    for line in lp.splitlines():
        if not line.startswith(" "):
            section = line
        elif section == "Subject To" and line.startswith(" cover_c"):
            cover_rows += 1
        elif section == "Binary" and line.startswith(" z_"):
            z_binaries += 1
    expect((cover_rows, z_binaries) == (f.num_clauses, 3 * f.num_clauses),
           f"LP has {cover_rows} cover rows and {z_binaries} covering "
           f"binaries for {f.num_clauses} clauses")


def check_compare(row: dict, f: Formula, linear_depth: int, ip_depth: int,
                  seeds: int) -> None:
    expect(row["linear_depth"] == linear_depth,
           f"compare linear_depth {row['linear_depth']} != {linear_depth}")
    expect(row["ip_depth"] == ip_depth and row["ip_status"] == "optimal",
           f"compare ip_depth {row['ip_depth']} ({row['ip_status']}) != "
           f"analyze's {ip_depth}")
    expect(row["greedy_depth"] >= ip_depth,
           f"greedy median depth {row['greedy_depth']} below IP {ip_depth}")
    expect((row["num_vars"], row["num_clauses"], row["num_seeds"])
           == (f.num_vars, f.num_clauses, seeds),
           f"compare row shape {row['num_vars']}, {row['num_clauses']}, "
           f"{row['num_seeds']}")
