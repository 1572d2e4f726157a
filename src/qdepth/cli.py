"""Command line front end.

Subcommands:

  inspect    instance facts: variables, clauses, pair sets
  analyze    depth report for one formulation of one instance
  compare    dualized-linear vs substituted depth, table across instances
  histogram  interaction-degree histogram for a formulation
  export     write the pair-selection integer program in LP format
  fetch      download SATLIB benchmark instances used in the comparisons

Exit codes: 0 success, 2 solver budget exhausted (with or without an
incumbent), 64 usage errors, 65 unparseable instance files and any OSError
(unreadable inputs, unwritable -o paths, the solver's temporary LP file),
1 fetch/network failures; a 65 prints one `error:` line.

Outputs are deterministic byte-for-byte unless --timings is passed; a
regular file or new path given to -o is written atomically (temp file plus
rename), and a pipe or device is written in place.

The package has two layers.  The structure layer (`cnf`, `product`,
`graph`, `reports`, `schedule`, `greedy`, `ipmodel`, `optimize`, `cli`)
reads every depth from integer graphs; the oracle layer (`pubo`, `linear`,
`gvs`) builds the exact polynomials that check it.  No structure module
imports an oracle module, so no command loads one.  Each command imports
only the modules its path runs: parsing loads `cnf` alone and builds only
the named command's subparser, and `json` and `csv` load only for their
formats.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from pathlib import Path

from . import DEFAULT_BUDGET_SECS
from .cnf import (
    DegenerateClauseError,
    DimacsError,
    DuplicateClauseWarning,
    Instance,
    example1,
    load_dimacs,
    parse_dimacs,
)

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_DATA = 65

COMMANDS = ("inspect", "analyze", "compare", "histogram", "export", "fetch")
METHODS = ("linear", "gvs-ip", "gvs-greedy", "native3")

SATLIB_BASE = "https://www.cs.ubc.ca/~hoos/SATLIB/Benchmarks/SAT/RND3SAT/"
SATLIB_SETS = {
    "uf20-91": "uf20-01.cnf",
    "uf50-218": "uf50-01.cnf",
    "uuf50-218": "uuf50-01.cnf",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; that slot means budget-exhausted here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; with `command` one of COMMANDS, only that
    command's subparser is built, since no other can be reached.  The
    top-level usage names every command either way."""
    parser = _Parser(prog="qdepth", description=__doc__.splitlines()[0])
    wanted = (command,) if command in COMMANDS else COMMANDS
    # with one subparser built, argparse would name only it in the top-level
    # usage; this metavar spells out every command just as argparse would
    metavar = "{" + ",".join(COMMANDS) + "}" if len(wanted) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)

    def add_common(p, formats=("text", "json")):
        p.add_argument("-o", "--output", type=Path, default=None,
                       help="write here instead of stdout (atomic)")
        p.add_argument("--format", choices=formats, default="text")

    if "inspect" in wanted:
        p = sub.add_parser("inspect", help="instance facts")
        p.add_argument("instance")
        add_common(p)
        p.set_defaults(func=cmd_inspect)

    if "analyze" in wanted:
        p = sub.add_parser("analyze", help="depth report for one formulation")
        p.add_argument("instance")
        p.add_argument("--method", choices=METHODS, required=True)
        p.add_argument("--budget", type=budget_secs,
                       default=DEFAULT_BUDGET_SECS,
                       help="solver budget in seconds (gvs-ip)")
        p.add_argument("--seed", type=int, default=0,
                       help="heuristic seed (gvs-greedy)")
        p.add_argument("--timings", action="store_true",
                       help="include wall time (breaks byte-for-byte determinism)")
        add_common(p)
        p.set_defaults(func=cmd_analyze)

    if "compare" in wanted:
        p = sub.add_parser("compare", help="linear vs substituted depth table")
        p.add_argument("instances", nargs="+")
        p.add_argument("--budget", type=budget_secs,
                       default=DEFAULT_BUDGET_SECS)
        p.add_argument("--seeds", type=seed_count, default=20,
                       help="number of heuristic seeds (0, 1, ...)")
        p.add_argument("--timings", action="store_true")
        add_common(p, formats=("text", "json", "csv"))
        p.set_defaults(func=cmd_compare)

    if "histogram" in wanted:
        p = sub.add_parser("histogram", help="interaction-degree histogram")
        p.add_argument("instance")
        p.add_argument("--method", choices=METHODS, required=True)
        p.add_argument("--budget", type=budget_secs,
                       default=DEFAULT_BUDGET_SECS)
        p.add_argument("--seed", type=int, default=0)
        add_common(p, formats=("text", "json", "csv"))
        p.set_defaults(func=cmd_histogram)

    if "export" in wanted:
        p = sub.add_parser("export", help="pair-selection program in LP format")
        p.add_argument("instance")
        p.add_argument("-o", "--output", type=Path, default=None)
        p.set_defaults(func=cmd_export)

    if "fetch" in wanted:
        p = sub.add_parser("fetch", help="download SATLIB benchmark instances")
        p.add_argument("sets", nargs="*", default=None,
                       help=f"which sets (default: all of {', '.join(SATLIB_SETS)})")
        p.add_argument("--dest", type=Path, default=None,
                       help="target directory (default: $QDEPTH_SATLIB_DIR or ./satlib)")
        p.set_defaults(func=cmd_fetch)

    return parser


def budget_secs(text: str) -> float:
    """--budget and QDEPTH_BUDGET_SECS: seconds >= 0, or inf; -0 is 0."""
    try:
        value = float(text)
        if value >= 0:  # false for nan too
            return abs(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"budget must be a number of seconds >= 0, or inf; got {text!r}")


def seed_count(text: str) -> int:
    """--seeds: how many heuristic seeds, at least one."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"seed count must be an integer >= 1; got {text!r}")


def effective_budget(flag_value: float) -> float:
    """QDEPTH_BUDGET_SECS, when set, overrides --budget and obeys its rule."""
    raw = os.environ.get("QDEPTH_BUDGET_SECS")
    if raw is None:
        return flag_value
    try:
        return budget_secs(raw)
    except argparse.ArgumentTypeError as exc:
        print(f"qdepth: error: QDEPTH_BUDGET_SECS: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def read_reporting(read, source) -> Instance:
    """`read(source)`, reporting each repeated clause on stderr as one plain
    line rather than in Python's warning format."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DuplicateClauseWarning)
        instance = read(source)
    for warning in caught:
        print(f"qdepth: warning: {warning.message}", file=sys.stderr)
    return instance


def load_instance(source: str) -> tuple[str, Instance]:
    """Read an instance file, or the bundled example by name."""
    path = Path(source)
    if source == "example1" and not path.exists():
        return "example1", example1()
    return path.stem, read_reporting(load_dimacs, path)


def write_out(text: str, output: Path | None) -> None:
    """Write to stdout, or to `output`.  A regular file, or a path not there
    yet, is written atomically: a temp file beside the file `output` names,
    given the mode `open(output, "w")` would leave, then renamed over that
    file.  Anything else there, such as a pipe or a device, is opened and
    written in place.  A symlink is followed, as `open` follows it: the link
    stays and its target, made if missing, gets the text.  A path `open`
    cannot resolve, such as a symlink loop, is an error.  An error names
    `output`, not the temp file or the link's target."""
    if output is None:
        sys.stdout.write(text)
        return
    import stat
    import tempfile

    umask = os.umask(0)
    os.umask(umask)
    try:
        try:
            # stat the path itself, following links as open does: a pipe's
            # realpath, /proc/<pid>/fd/pipe:[N], names no file
            st = os.stat(output)
        except FileNotFoundError:
            mode = 0o666 & ~umask
        else:
            if not stat.S_ISREG(st.st_mode):
                with open(output, "w") as fh:
                    fh.write(text)
                return
            mode = st.st_mode & 0o777
        target = Path(os.path.realpath(output))
        # a short fixed prefix: the target's own name may fill NAME_MAX
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".qdepth-",
                                   suffix=".tmp")
        try:
            os.fchmod(fd, mode)  # mkstemp makes it 0600
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(output)) from None


def run_method(inst: Instance, args):
    """The one dispatch over METHODS, importing only what the method runs.

    Picks the method's graph, built once (gvs-ip's by the solver), and its
    ancilla names, and reads the degree table and the report from it.
    Returns (degree table, DepthReport, exit code).  Exits with EXIT_BUDGET
    when the exact solve finds no cover within the budget.
    """
    from .graph import (gvs_ancillas, gvs_graph, linear_ancillas,
                         linear_graph, native3_graph)
    from .reports import graph_report

    fields = {}
    ancillas = ()
    exit_code = EXIT_OK
    if args.method == "linear":
        graph = linear_graph(inst)
        ancillas = linear_ancillas(inst)
    elif args.method == "native3":
        from .schedule import build_schedule

        graph = native3_graph(inst)
        fields["depth_upper"] = build_schedule(graph).depth
    else:
        # both solvers make the cover with make_cover, which checks it
        if args.method == "gvs-greedy":
            from .greedy import greedy_cover

            cover = greedy_cover(inst, args.seed)
            graph = gvs_graph(inst, cover.pairs)
        else:
            from .optimize import solve_ip_exact

            sol = solve_ip_exact(inst, args.budget)
            if sol.cover is None:
                print(
                    f"no substitution choice found within {args.budget:g}s; "
                    "raise --budget or QDEPTH_BUDGET_SECS",
                    file=sys.stderr,
                )
                raise SystemExit(EXIT_BUDGET)
            cover, graph = sol.cover, sol.graph
            fields["solver_status"] = sol.status
            if sol.status != "optimal":
                exit_code = EXIT_BUDGET
        ancillas = gvs_ancillas(cover.pairs)
        fields["substitutions"] = cover.num_substitutions
    table = graph.degree_table(ancillas)
    degrees = tuple((v.name, d) for v, d in sorted(table.items()))
    report = graph_report(args.method, graph, degrees=degrees, **fields)
    return table, report, exit_code


def cmd_inspect(args) -> int:
    from .product import candidate_pairs, quadratic_pairs

    name, inst = load_instance(args.instance)
    facts = {
        "command": "inspect",
        "instance": name,
        "num_vars": inst.num_vars,
        "num_used_vars": len(inst.used_variables()),
        "num_clauses": inst.num_clauses,
        "num_candidate_pairs": len(candidate_pairs(inst)),
        "num_quadratic_pairs": len(quadratic_pairs(inst)),
        "num_coverings": 3 * inst.num_clauses,
    }
    if args.format == "json":
        import json

        text = json.dumps(facts, indent=2) + "\n"
    else:
        width = max(len(k) for k in facts)
        text = "".join(
            f"{k.ljust(width)}  {v}\n" for k, v in facts.items()
            if k != "command"
        )
    write_out(text, args.output)
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .reports import depth_report_text, records_to_json

    name, inst = load_instance(args.instance)
    started = time.perf_counter()
    _, report, exit_code = run_method(inst, args)
    if args.timings:
        report = report._replace(wall_time=time.perf_counter() - started)

    if args.format == "json":
        text = records_to_json(
            "reports", [report.to_dict()], command="analyze", instance=name,
            method=args.method,
        )
    else:
        text = depth_report_text(report)
    write_out(text, args.output)
    return exit_code


def cmd_compare(args) -> int:
    from .optimize import compare_instance
    from .reports import comparison_table_text, records_to_json, rows_to_csv

    rows = []
    for source in args.instances:
        name, inst = load_instance(source)
        started = time.perf_counter()
        row = compare_instance(name, inst, args.budget, range(args.seeds))
        if args.timings:
            row = row._replace(wall_time=time.perf_counter() - started)
        rows.append(row)
    if args.format == "json":
        text = records_to_json(
            "rows", [r._asdict() for r in rows], command="compare",
            # JSON has no infinity: an unlimited budget is null
            budget_secs=None if args.budget == float("inf") else args.budget,
            num_seeds=args.seeds,
        )
    elif args.format == "csv":
        text = rows_to_csv(rows)
    else:
        text = comparison_table_text(rows)
    write_out(text, args.output)
    if any(r.ip_status != "optimal" for r in rows):
        return EXIT_BUDGET
    return EXIT_OK


def cmd_histogram(args) -> int:
    from collections import Counter

    name, inst = load_instance(args.instance)
    table, _, exit_code = run_method(inst, args)
    counts = Counter(table.values())
    hist = {str(d): counts[d] for d in sorted(counts)}
    if args.format == "json":
        from .reports import records_to_json

        text = records_to_json("histogram", hist, command="histogram",
                               instance=name, method=args.method)
    elif args.format == "csv":
        lines = ["degree,count"] + [f"{d},{c}" for d, c in hist.items()]
        text = "\n".join(lines) + "\n"
    else:
        width = max(len(d) for d in hist) if hist else 1
        lines = [f"{d.rjust(width)}  {'#' * c} {c}" for d, c in hist.items()]
        text = "\n".join(lines) + "\n"
    write_out(text, args.output)
    return exit_code


def cmd_export(args) -> int:
    from .ipmodel import build_ip, export_lp

    _, inst = load_instance(args.instance)
    write_out(export_lp(build_ip(inst)), args.output)
    return EXIT_OK


def cmd_fetch(args) -> int:
    import io
    import tarfile
    import urllib.request

    wanted = args.sets or sorted(SATLIB_SETS)
    unknown = [s for s in wanted if s not in SATLIB_SETS]
    if unknown:
        print(f"unknown set(s): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(SATLIB_SETS))}", file=sys.stderr)
        return EXIT_USAGE
    dest = args.dest or Path(os.environ.get("QDEPTH_SATLIB_DIR", "satlib"))
    dest.mkdir(parents=True, exist_ok=True)

    failures = []
    for name in wanted:
        member = SATLIB_SETS[name]
        target = dest / member
        if target.exists():
            print(f"{target}: already present")
            continue
        url = f"{SATLIB_BASE}{name}.tar.gz"
        try:
            with urllib.request.urlopen(url, timeout=60) as resp:
                body = io.BytesIO(resp.read())
            with tarfile.open(fileobj=body, mode="r:gz") as tar:
                info = next((i for i in tar.getmembers()
                             if Path(i.name).name == member), None)
                if info is None:
                    raise OSError(f"{member} not in archive")
                found = tar.extractfile(info).read()
            inst = read_reporting(parse_dimacs, found.decode())
        except Exception as exc:  # noqa: BLE001 - report and move on
            failures.append((name, url, exc))
            continue
        write_out(found.decode(), target)
        print(f"{target}: fetched ({inst.num_vars} vars, "
              f"{inst.num_clauses} clauses)")

    if failures:
        print("\ncould not download:", file=sys.stderr)
        for name, url, exc in failures:
            print(f"  {name}: {url} ({exc})", file=sys.stderr)
        print(
            "\nfetch them manually (any mirror of the SATLIB RND3SAT sets)\n"
            f"and place the first instance of each set into {dest}/:\n"
            + "".join(f"  {m}\n" for m in SATLIB_SETS.values())
            + "then point QDEPTH_SATLIB_DIR at that directory.",
            file=sys.stderr,
        )
        return 1
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if "budget" in args:
            args.budget = effective_budget(args.budget)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DimacsError, DegenerateClauseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

