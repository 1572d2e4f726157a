"""Benchmark of the qdepth command line, and of its layers, on random 3-SAT.

Run from the repository root:

    python3 bench/run.py --workload uf20 --seed 1 --seconds 50 --trace 0

With --trace 0 every operation is one fresh `python -m qdepth ...` process,
timed from outside, so interpreter start-up and imports count as users pay
them; the end-to-end metrics are medians per call, scaled to a reference
speed of the machine (see CAL_CODE).  With --trace 1 the same
operations are split into the public functions of each layer, timed in this
process (see layers.py), and the per-layer metrics are reported instead.

A run makes whole rounds (every operation on every instance once) for about
--seconds, checks every output against bench/oracle.py, writes
its samples and spans to bench/out/, and prints one JSON object as its last
line: {"correct", "attempted", "failed", "metrics"}.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import oracle
from oracle import CheckFailed, Formula, expect

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BUDGET = 100  # far above every proof time measured on these instances
CALL_TIMEOUT = 150.0
COMPARE_SEEDS = 20

# On a shared 2-vCPU host the processor's speed drifts by 10-30 % over tens
# of seconds to minutes, and a child's CPU time drifts with its wall time, so
# no run length averages it out.  Each instance's commands in a round are
# therefore preceded by one calibration process, a fresh interpreter that
# imports scipy.optimize.  That import is most of the command line's
# start-up (loading compiled extensions and mapping memory, whose cost
# drifts apart from pure-Python work), and nothing in this repository
# changes its cost.  Each end-to-end time is the raw median multiplied by
# CAL_REF_S over the median calibration time of the run, i.e. seconds at
# the speed at which the calibration takes CAL_REF_S.  A change to qdepth
# moves the raw times and leaves the calibration alone.
CAL_CODE = "import scipy.optimize"
CAL_REF_S = 0.9

# Every workload runs fixed draws, so all runs time the same inputs and --seed
# picks the greedy seed.  Seeded draws were tried: HiGHS proof times (and the
# solver's memory) vary several-fold between draws of one shape, and between
# relabelings of one draw, which no run length available here averages out.
WORKLOADS = {
    "uf20": {"n": 20, "m": 91, "draws": (0,), "probes": True},
    "uf50": {"n": 50, "m": 218, "draws": (0,), "probes": False},
}

OPS = ("inspect", "analyze_linear", "analyze_native3", "analyze_greedy",
       "analyze_ip", "export", "compare")
# Operations whose output does not depend on --seed.  On the probe instance
# their over-reported Δ is the fault counted as a failed operation.
FAULT_OPS = ("analyze_ip", "compare")

END_TO_END_UNITS = {f"{op}_s": "s" for op in OPS}
END_TO_END_UNITS.update(setup_s="s", peak_rss_mb="MB")


@dataclass
class Case:
    name: str
    arg: str       # what the command line is given
    path: Path     # the DIMACS file behind it
    formula: Formula
    drawn: bool = False   # one of the workload's random draws
    probe: bool = False   # the repeated-triple instance whose fault is counted


def startup_before_t0() -> float:
    """Seconds the interpreter ran before T0, read from /proc at its 10 ms
    resolution; 0 where unreadable."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    age = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    before = age - (time.perf_counter() - T0)
    return min(max(before, 0.0), 5.0)


STARTUP = startup_before_t0()


def make_cases(workload: str, workdir: Path) -> list[Case]:
    spec = WORKLOADS[workload]
    n, m = spec["n"], spec["m"]
    cases = []
    for s in spec["draws"]:
        clauses = oracle.random_3sat(n, m, random.Random(s))
        path = workdir / f"{workload}-i{s}.cnf"
        path.write_text(oracle.to_dimacs(n, clauses))
        cases.append(Case(path.stem, str(path), path, Formula(n, clauses),
                          drawn=True))
    if spec["probes"]:
        cases.append(example1_case())
        path = workdir / "repeat3.cnf"
        path.write_text(oracle.to_dimacs(5, oracle.REPEAT3))
        cases.append(Case("repeat3", str(path), path,
                          Formula(5, oracle.REPEAT3), probe=True))
    return cases


def example1_case() -> Case:
    """The bundled example; the command line finds it by name."""
    return Case("example1", "example1", SRC / "qdepth" / "data" / "example1.cnf",
                Formula(5, oracle.EXAMPLE1))


def child_env() -> dict:
    env = dict(os.environ)
    # the variable overrides --budget, so a stray value could cut a solve
    env.pop("QDEPTH_BUDGET_SECS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Cli:
    """Runs `python -m qdepth` one process at a time and times each call."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.samples: dict[str, list[float]] = {f"{op}_s": [] for op in OPS}
        self.calibration: list[float] = []
        self.spans: list[dict] = []

    def calibrate(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CAL_CODE],
                              cwd=self.workdir, capture_output=True,
                              timeout=CALL_TIMEOUT)
        self.calibration.append(time.perf_counter() - start)
        expect(proc.returncode == 0, "calibration process exited "
               f"{proc.returncode}: {proc.stderr.strip()[-300:]}")

    def speed_factor(self) -> float:
        """CAL_REF_S over the run's median calibration time."""
        return CAL_REF_S / statistics.median(self.calibration)

    def call(self, op: str, case: Case, args: list[str], timed=True):
        cmd = [sys.executable, "-m", "qdepth"] + args
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CALL_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"{op} on {case.name} ran past "
                              f"{CALL_TIMEOUT:.0f}s") from None
        end = time.perf_counter()
        if timed:
            self.samples[f"{op}_s"].append(end - start)
            self.spans.append({"name": f"cli.{op}", "instance": case.name,
                               "start": start - T0, "end": end - T0})
        return proc

    def json_of(self, op, case, args) -> tuple[dict, int]:
        proc = self.call(op, case, args + ["--format", "json"])
        try:
            return json.loads(proc.stdout), proc.returncode
        except json.JSONDecodeError:
            raise CheckFailed(f"{op} on {case.name} exited {proc.returncode} "
                              f"without JSON: {proc.stderr.strip()[-300:]}")

    def ok_json(self, op, case, args) -> dict:
        doc, code = self.json_of(op, case, args)
        expect(code == 0, f"{op} on {case.name} exited {code}")
        return doc


def cli_round(cli: Cli, case: Case, greedy_seed: int) -> int:
    """All seven commands on one instance, checked.  Returns the number of
    failed operations (the repeated-triple over-report on the probe)."""
    f, arg = case.formula, case.arg
    lp_path = cli.workdir / f"{case.name}.lp"
    cli.calibrate()

    oracle.check_inspect(cli.ok_json("inspect", case, ["inspect", arg]), f)
    r = cli.ok_json("analyze_linear", case,
                    ["analyze", arg, "--method", "linear"])["reports"][0]
    linear_delta = oracle.check_linear(r, f)
    r = cli.ok_json("analyze_native3", case,
                    ["analyze", arg, "--method", "native3"])["reports"][0]
    oracle.check_native3(r, f)
    r = cli.ok_json("analyze_greedy", case,
                    ["analyze", arg, "--method", "gvs-greedy",
                     "--seed", str(greedy_seed)])["reports"][0]
    greedy_delta, _ = oracle.check_gvs(r, f)
    doc, code = cli.json_of("analyze_ip", case,
                            ["analyze", arg, "--method", "gvs-ip",
                             "--budget", str(BUDGET)])
    ip_delta, ip_pairs = oracle.check_ip(doc["reports"][0], f, code)
    expect(ip_delta <= greedy_delta,
           f"IP Δ {ip_delta} above greedy Δ {greedy_delta} on {case.name}")

    proc = cli.call("export", case, ["export", arg, "-o", str(lp_path)])
    expect(proc.returncode == 0, f"export on {case.name} exited "
           f"{proc.returncode}")
    oracle.check_export(lp_path.read_text(), f)
    lp_path.unlink()

    row = cli.ok_json("compare", case,
                      ["compare", arg, "--seeds", str(COMPARE_SEEDS),
                       "--budget", str(BUDGET)])["rows"][0]
    oracle.check_compare(row, f, linear_delta + 2, ip_delta + 2,
                         COMPARE_SEEDS)

    if not case.probe:
        return 0
    cover = oracle.cover_from_pairs(f, ip_pairs)
    expect(cover is not None, f"IP cover on {case.name} is ambiguous")
    over = oracle.GvsGraph(f, cover).check_reported(ip_delta)
    # compare repeats the same IP solve, so it over-reports with it
    return len(FAULT_OPS) if over else 0


def median_metrics(samples: dict, units: dict, scale: dict) -> dict:
    return {name: {"value": statistics.median(values) * scale.get(name, 1.0),
                   "unit": units[name]}
            for name, values in samples.items()}


def run_rounds(deadline: float, one_round) -> None:
    """Whole rounds, at least one, until the next would overrun `deadline` by
    more than half a round.  Stopping at the first overrun instead would
    leave rounds of about half a run split between one round and two."""
    while True:
        began = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now + (now - began) / 2 > deadline:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qdepth" / "cli.py").is_file():
        print(f"error: no qdepth sources under {SRC}", file=sys.stderr)
        return 2

    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    outdir = BENCH / "out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    progress = {"attempted": 0, "failed": 0, "rounds": 0}

    def run_cases(do_case):
        """One round: every operation on every instance."""
        for case in cases:
            progress["attempted"] += len(OPS)
            progress["failed"] += do_case(case)
        progress["rounds"] += 1

    try:
        cases = make_cases(args.workload, workdir)
        record["instances"] = [c.name for c in cases]
        if args.trace:
            import layers

            deadline = time.perf_counter() + args.seconds
            run = layers.LayerRun(example1_case(), SRC, child_env(), workdir,
                                  args.seed, BUDGET, COMPARE_SEEDS)
            run_rounds(deadline, lambda: run.round(run_cases))
            result["metrics"] = run.metrics()
            record.update(samples=run.timer.samples, spans=run.timer.spans,
                          overreports=run.overreports)
        else:
            cli = Cli(workdir)
            cli.call("warmup", example1_case(), ["inspect", "example1"],
                     timed=False)
            setup_s = STARTUP + time.perf_counter() - T0
            run_rounds(time.perf_counter() + args.seconds,
                       lambda: run_cases(lambda c: cli_round(cli, c, args.seed)))
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            samples = dict(cli.samples, setup_s=[setup_s],
                           peak_rss_mb=[peak_kb / 1024])
            factor = cli.speed_factor()
            scale = {name: factor for name, unit in END_TO_END_UNITS.items()
                     if unit == "s"}
            result["metrics"] = median_metrics(samples, END_TO_END_UNITS,
                                               scale)
            record.update(samples=samples, spans=cli.spans,
                          calibration=cli.calibration, speed_factor=factor,
                          raw_medians=median_metrics(samples,
                                                     END_TO_END_UNITS, {}))
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result["correct"] = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] = progress["attempted"]
    result["failed"] = progress["failed"]
    record["rounds"] = progress["rounds"]
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (outdir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
