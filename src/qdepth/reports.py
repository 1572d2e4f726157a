"""Report records, the one builder of depth reports, and their renderings.

`graph_report` reads every count of a `DepthReport` from the interaction
graph that would run: its vertices are the qubits, its edges the
interactions, and its maximum degree Δ gives the depth bracket.  Every
encoding and the command line build their reports through it.

All rendering here is deterministic: fixed key order, no timestamps, and no
timing data unless the caller explicitly filled the wall_time fields in.
Running the same analysis twice must produce byte-identical documents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .graph import IntGraph


class DepthReport(NamedTuple):
    """Depth facts for one formulation of one instance.

    The bounds bracket the depth (cost layers plus one mixer layer) of
    running the formulation's interaction graph, whose maximum degree is
    max_degree = Δ.  The Δ gates at a vertex of degree Δ need Δ layers, so
    every formulation sets depth_lower = Δ + 1.  depth_upper is
      linear, gvs  Δ + 2: simple graphs, which Misra-Gries colors with at
                   most Δ + 1 layers;
      native3      the cost layers of its built schedule, plus one, with
                   no Δ + 2 promise.
    """

    formulation: str
    num_problem_vars: int
    num_ancillas: int
    num_qubits: int
    num_interactions: int
    max_degree: int
    depth_upper: int
    depth_lower: int
    substitutions: int | None = None
    solver_status: str | None = None
    degrees: tuple[tuple[str, int], ...] | None = None
    wall_time: float | None = None

    def to_dict(self) -> dict:
        """The fields in order, except that degrees, when present, come
        last as a name-to-degree dict."""
        d = self._asdict()
        degrees = d.pop("degrees")
        if degrees is not None:
            d["degrees"] = dict(degrees)
        return d


def graph_report(formulation: str, graph: IntGraph,
                 depth_upper: int | None = None, **fields) -> DepthReport:
    """The depth report of running `graph`.

    Its vertices are the qubits, those up to num_vars problem variables and
    the rest ancillas; its edges are the interactions.  depth_lower is
    Δ + 1 and depth_upper Δ + 2 unless given.  `fields` fills the optional
    fields (substitutions, solver_status, degrees).
    """
    degrees = graph.degrees()
    delta = max(degrees.values(), default=0)
    num_problem_vars = sum(v <= graph.num_vars for v in degrees)
    return DepthReport(
        formulation=formulation,
        num_problem_vars=num_problem_vars,
        num_ancillas=len(degrees) - num_problem_vars,
        num_qubits=len(degrees),
        num_interactions=len(graph.edges),
        max_degree=delta,
        depth_upper=delta + 2 if depth_upper is None else depth_upper,
        depth_lower=delta + 1,
        **fields,
    )


class ComparisonRow(NamedTuple):
    """One instance's row in the linear-vs-substituted comparison table."""

    name: str
    num_vars: int
    num_clauses: int
    linear_depth: int
    ip_depth: int | None
    ip_substitutions: int | None
    ip_status: str
    greedy_depth: int
    greedy_substitutions: int
    num_seeds: int
    wall_time: float | None = None


def records_to_json(key: str, records: list | dict, **extra) -> str:
    """A JSON document of `extra`, then `records` (report or row records,
    or a histogram's counts) under `key`."""
    import json

    return json.dumps({**extra, key: records}, indent=2) + "\n"


def rows_to_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=ComparisonRow._fields,
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row._asdict())
    return buf.getvalue()


def depth_report_text(report: DepthReport) -> str:
    lines = [
        f"formulation:   {report.formulation}",
        f"qubits:        {report.num_qubits} "
        f"({report.num_problem_vars} problem + {report.num_ancillas} ancilla)",
        f"interactions:  {report.num_interactions}",
        f"max degree:    {report.max_degree}",
    ]
    if report.substitutions is not None:
        lines.append(f"substitutions: {report.substitutions}")
    if report.solver_status is not None:
        lines.append(f"solver:        {report.solver_status}")
    lines.append(f"depth:         {report.depth_lower}..{report.depth_upper}")
    if report.wall_time is not None:
        lines.append(f"wall time:     {report.wall_time:.3f}s")
    if report.degrees is not None:
        lines.append("degrees:")
        for name, deg in report.degrees:
            lines.append(f"  {name:<12s} {deg}")
    return "\n".join(lines) + "\n"


def comparison_table_text(rows) -> str:
    headers = ["instance", "n", "|C|", "linear", "ip", "subs", "status",
               "greedy", "subs", "seeds"]
    timed = any(r.wall_time is not None for r in rows)
    if timed:
        headers.append("time")
    table = [headers]
    for r in rows:
        cells = [
            r.name,
            str(r.num_vars),
            str(r.num_clauses),
            str(r.linear_depth),
            "-" if r.ip_depth is None else str(r.ip_depth),
            "-" if r.ip_substitutions is None else str(r.ip_substitutions),
            r.ip_status,
            str(r.greedy_depth),
            str(r.greedy_substitutions),
            str(r.num_seeds),
        ]
        if timed:
            cells.append("-" if r.wall_time is None else f"{r.wall_time:.3f}s")
        table.append(cells)
    widths = [max(len(row[j]) for row in table) for j in range(len(headers))]
    out = []
    for i, row in enumerate(table):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out) + "\n"
