"""Report records and their JSON/CSV/text renderings.

All rendering here is deterministic: fixed key order, no timestamps, and no
timing data unless the caller explicitly filled the wall_time fields in.
Running the same analysis twice must produce byte-identical documents.
"""

from __future__ import annotations

from typing import NamedTuple


class DepthReport(NamedTuple):
    """Depth facts for one formulation of one instance.

    depth_upper comes from the scheduling bound for the formulation's
    interaction structure; depth_lower is the matching lower bound when the
    structure admits one (simple graphs), else None.
    """

    formulation: str
    num_problem_vars: int
    num_ancillas: int
    num_qubits: int
    num_interactions: int
    max_degree: int
    depth_upper: int
    depth_lower: int | None = None
    substitutions: int | None = None
    solver_status: str | None = None
    degrees: tuple[tuple[str, int], ...] | None = None
    wall_time: float | None = None

    def with_wall_time(self, seconds: float) -> "DepthReport":
        return self._replace(wall_time=seconds)

    def to_dict(self) -> dict:
        d = {
            "formulation": self.formulation,
            "num_problem_vars": self.num_problem_vars,
            "num_ancillas": self.num_ancillas,
            "num_qubits": self.num_qubits,
            "num_interactions": self.num_interactions,
            "max_degree": self.max_degree,
            "depth_upper": self.depth_upper,
            "depth_lower": self.depth_lower,
            "substitutions": self.substitutions,
            "solver_status": self.solver_status,
            "wall_time": self.wall_time,
        }
        if self.degrees is not None:
            d["degrees"] = {name: deg for name, deg in self.degrees}
        return d


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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "num_vars": self.num_vars,
            "num_clauses": self.num_clauses,
            "linear_depth": self.linear_depth,
            "ip_depth": self.ip_depth,
            "ip_substitutions": self.ip_substitutions,
            "ip_status": self.ip_status,
            "greedy_depth": self.greedy_depth,
            "greedy_substitutions": self.greedy_substitutions,
            "num_seeds": self.num_seeds,
            "wall_time": self.wall_time,
        }


def reports_to_json(reports, **extra) -> str:
    import json

    doc = dict(extra)
    doc["reports"] = [r.to_dict() for r in reports]
    return json.dumps(doc, indent=2) + "\n"


def rows_to_json(rows, **extra) -> str:
    import json

    doc = dict(extra)
    doc["rows"] = [r.to_dict() for r in rows]
    return json.dumps(doc, indent=2) + "\n"


def rows_to_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    fields = [
        "name",
        "num_vars",
        "num_clauses",
        "linear_depth",
        "ip_depth",
        "ip_substitutions",
        "ip_status",
        "greedy_depth",
        "greedy_substitutions",
        "num_seeds",
        "wall_time",
    ]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row.to_dict())
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
    if report.depth_lower is not None:
        lines.append(f"depth:         {report.depth_lower}..{report.depth_upper}")
    else:
        lines.append(f"depth:         <= {report.depth_upper}")
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
