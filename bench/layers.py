"""The traced run: each command's work, split into the layers that do it.

Every operation of the command-line run has a counterpart here, built from
the public functions the command calls, so both runs attempt the same
operations and fail the same ones.  Each function is timed around the call
from outside the program, after one warm-up call on example1; a call under
SHORT_CALL seconds is repeated and its median kept, so no few-millisecond
figure rests on one sample.  Import costs are measured in fresh
interpreters.  Outputs are checked against oracle.py like the command
line's, and every coloring is checked for properness.
"""

import re
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict

import oracle
from oracle import expect

SHORT_CALL = 0.05
REPEAT_SECONDS = 0.25
MAX_REPEATS = 25
IMPORT_REPEATS = 5

LAYER_TIMES = (
    "cnf.load_dimacs_s", "product.pair_sets_s", "linear.degree_table_s",
    "linear.report_s", "gvs.degree_table_s", "gvs.report_s",
    "optimize.greedy_cover_s", "optimize.greedy_batch_s",
    "optimize.build_ip_s", "optimize.solve_ip_exact_s",
    "optimize.export_lp_s", "schedule.native3_report_s",
    "schedule.color_edges_linear_s", "schedule.color_edges_gvs_s",
)
COUNTS = ("linear.edges", "gvs.edges_greedy", "gvs.edges_ip",
          "gvs.substitutions_ip", "ip.variables", "ip.rows", "ip.nonzeros")

_IMPORT_LINE = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$")


class Timer:
    def __init__(self, t0: float):
        self.t0 = t0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[dict] = []

    def __call__(self, name: str, case, fn):
        """Time fn(); only the workload's drawn instances enter the medians,
        so example1 and the probe do not stand in for the workload's size."""
        times = []
        while True:
            start = time.perf_counter()
            result = fn()
            end = time.perf_counter()
            times.append(end - start)
            if (times[0] >= SHORT_CALL or sum(times) >= REPEAT_SECONDS
                    or len(times) >= MAX_REPEATS):
                break
        if case.drawn:
            self.samples[name].append(statistics.median(times))
        self.spans.append({"name": name, "instance": case.name, "calls": len(times),
                           "start": start - self.t0, "end": end - self.t0})
        return result


class LayerRun:
    def __init__(self, warmup, src, env, workdir, greedy_seed, budget,
                 compare_seeds):
        sys.path.insert(0, str(src))
        from qdepth import cnf, gvs, linear, optimize, product, schedule

        warnings.simplefilter("ignore", cnf.DuplicateClauseWarning)
        self.modules = cnf, product, linear, gvs, optimize, schedule
        self.greedy_seed = greedy_seed
        self.budget = budget
        self.compare_seeds = compare_seeds
        self.overreports: list[str] = []
        self.counts: Counter | None = None
        self.imports = measure_imports(env, workdir)
        self.timer = Timer(time.perf_counter())
        self.run_case(warmup, Counter())
        self.timer = Timer(time.perf_counter())

    def round(self, run_cases) -> None:
        """One round through `run_cases`, which calls run_case on every
        instance; the work counts must repeat exactly between rounds."""
        counts = Counter(dict.fromkeys(COUNTS, 0))
        run_cases(lambda case: self.run_case(case, counts))
        if self.counts is None:
            self.counts = counts
        expect(counts == self.counts, f"work counts changed between rounds: "
               f"{counts} != {self.counts}")

    def run_case(self, case, counts) -> int:
        """The seven operations on one instance; returns how many failed."""
        cnf, product, linear, gvs, optimize, schedule = self.modules
        f, name = case.formula, case.name

        def t(layer, fn):
            return self.timer(layer, case, fn)

        # inspect
        inst = t("cnf.load_dimacs_s", lambda: cnf.load_dimacs(case.path))
        expect(list(inst.clauses) == f.clauses, f"{name}: parsed clauses differ")
        cand, quad, covs = t("product.pair_sets_s", lambda: (
            product.candidate_pairs(inst),
            product.quadratic_pairs(inst),
            product.coverings(inst)))
        expect((len(cand), len(quad), len(covs)) == (
            len(f.candidate_pairs()), len(f.quadratic_pairs()),
            3 * f.num_clauses), f"{name}: pair set sizes differ")

        # analyze --method linear
        table = t("linear.degree_table_s", lambda: linear.linear_degree_table(inst))
        report = t("linear.report_s", lambda: linear.linear_report(inst))
        delta = oracle.check_linear(report.to_dict(), f)
        expect(max(table.values()) == delta, f"{name}: linear table Δ")
        graph = linear.linear_derived_graph(inst)
        colors = t("schedule.color_edges_linear_s", lambda: schedule.color_edges(graph))
        oracle.check_edge_coloring(graph.edges, colors)
        counts["linear.edges"] += report.num_interactions

        # analyze --method native3
        report = t("schedule.native3_report_s", lambda: schedule.native3_report(inst))
        oracle.check_native3(report.to_dict(), f)

        # analyze --method gvs-greedy
        cover = t("optimize.greedy_cover_s",
                  lambda: optimize.greedy_cover(inst, self.greedy_seed))
        table = t("gvs.degree_table_s", lambda: gvs.gvs_degree_table(inst, cover))
        report = t("gvs.report_s", lambda: gvs.gvs_report(inst, cover))
        greedy_delta, greedy_over = self.check_cover(case, cover, report)
        expect(max(table.values()) == greedy_delta, f"{name}: gvs table Δ")
        graph = gvs.gvs_derived_graph(inst, cover)
        colors = t("schedule.color_edges_gvs_s", lambda: schedule.color_edges(graph))
        oracle.check_edge_coloring(graph.edges, colors)
        counts["gvs.edges_greedy"] += report.num_interactions
        # the greedy cover depends on --seed, so its over-report is noted only
        if greedy_over:
            self.note(f"greedy seed {self.greedy_seed} on {name}")

        # analyze --method gvs-ip
        sol = t("optimize.solve_ip_exact_s",
                lambda: optimize.solve_ip_exact(inst, self.budget))
        expect(sol.status == "optimal", f"{name}: solver status {sol.status}")
        report = gvs.gvs_report(inst, sol.cover)
        expect(report.max_degree == sol.max_degree, f"{name}: IP Δ differs")
        ip_delta, ip_over = self.check_cover(case, sol.cover, report)
        expect(f.lower_bound() <= ip_delta <= greedy_delta,
               f"{name}: IP Δ {ip_delta} outside [{f.lower_bound()}, "
               f"{greedy_delta}]")
        counts["gvs.edges_ip"] += report.num_interactions
        counts["gvs.substitutions_ip"] += sol.num_substitutions

        # export
        model = t("optimize.build_ip_s", lambda: optimize.build_ip(inst))
        text = t("optimize.export_lp_s", lambda: optimize.export_lp(model))
        oracle.check_export(text, f)
        expect(model.num_variables == 1 + len(f.candidate_pairs())
               + 3 * f.num_clauses, f"{name}: IP variable count")
        counts["ip.variables"] += model.num_variables
        counts["ip.rows"] += len(model.rows)
        counts["ip.nonzeros"] += sum(len(row[1]) for row in model.rows)

        # compare (its greedy batch; the linear and IP parts are timed above)
        seeds = range(self.compare_seeds)
        batch = t("optimize.greedy_batch_s", lambda: optimize.greedy_batch(inst, seeds))
        expect(len(batch.depths) == len(seeds)
               and min(batch.depths) >= ip_delta + 2,
               f"{name}: greedy depths {batch.depths} vs IP {ip_delta + 2}")
        batch_over = False
        if case.probe:
            for s, depth in zip(seeds, batch.depths):
                g = oracle.GvsGraph(f, pairs_of(optimize.greedy_cover(inst, s)))
                batch_over |= g.check_reported(depth - 2)

        if not case.probe:
            if ip_over:
                self.note(f"IP cover on {name}")
            return 0
        return int(ip_over) + int(batch_over)

    def check_cover(self, case, cover, report) -> tuple[int, bool]:
        """Report arithmetic against the benchmark's own graph of the cover.
        Returns (Δ, whether Δ is above the graph's)."""
        f = case.formula
        g = oracle.GvsGraph(f, pairs_of(cover))
        delta = oracle.check_depths(report.to_dict())
        expect((report.num_interactions, report.num_qubits, report.substitutions)
               == (len(g.edges), g.num_qubits, len(g.used)),
               f"{case.name}: gvs report (edges, qubits, substitutions)")
        return delta, g.check_reported(delta)

    def note(self, what: str) -> None:
        if what in self.overreports:
            return
        self.overreports.append(what)
        print(f"note: {what} reports a Δ above its graph's; only the probe "
              "instance counts it as failed", file=sys.stderr)

    def metrics(self) -> dict:
        out = {name: {"value": statistics.median(self.timer.samples[name]),
                      "unit": "s"} for name in LAYER_TIMES}
        out.update({name: {"value": value, "unit": "count"}
                    for name, value in self.counts.items()})
        out.update(self.imports)
        return out


def pairs_of(cover) -> list[tuple[int, int]]:
    return [tuple(sorted(p)) for p in cover.pairs]


def measure_imports(env, workdir) -> dict:
    """import.cli_s over a bare interpreter, import.modules, and
    scipy.optimize's cumulative time under -X importtime; medians."""
    def run(*args):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=60)
        expect(proc.returncode == 0, f"import probe failed: {proc.stderr[-300:]}")
        return time.perf_counter() - start, proc

    bare, full, modules, scipy_opt = [], [], [], []
    probe = ("import sys; n = len(sys.modules); import qdepth.cli; "
             "print(len(sys.modules) - n)")
    for _ in range(IMPORT_REPEATS):
        bare.append(run("-c", "pass")[0])
        full.append(run("-c", "import qdepth.cli")[0])
        _, proc = run("-X", "importtime", "-c", probe)
        modules.append(int(proc.stdout))
        cumulative = [int(m.group(1)) for m in map(_IMPORT_LINE.match,
                                                   proc.stderr.splitlines())
                      if m and m.group(2) == "scipy.optimize"]
        scipy_opt.append(cumulative[0] / 1e6 if cumulative else 0.0)
    return {
        "import.cli_s": {"value": statistics.median(full) - statistics.median(bare),
                         "unit": "s"},
        "import.modules": {"value": statistics.median(modules), "unit": "count"},
        "import.scipy_optimize_s": {"value": statistics.median(scipy_opt),
                                    "unit": "s"},
    }
