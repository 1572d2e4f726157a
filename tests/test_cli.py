import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from qdepth.cli import main
from qdepth.cnf import example1, to_dimacs

from helpers import random_3sat_instance
import random

SCHEMA = json.loads(
    resources.files("qdepth").joinpath("report.schema.json").read_text()
)


@pytest.fixture
def example1_path(tmp_path):
    path = tmp_path / "example1.cnf"
    path.write_text(to_dimacs(example1()))
    return path


def run_python(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("QDEPTH_BUDGET_SECS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        env=env,
    )


def run_cli(*argv, env_extra=None):
    return run_python("-m", "qdepth", *argv, env_extra=env_extra)


# runs qdepth.cli.main on argv, then reports on stderr which of the modules
# only a solve or a download needs got imported along the way
HEAVY_PROBE = """
import sys
from qdepth.cli import main
rc = main(sys.argv[1:])
heavy = ("numpy", "scipy", "urllib.request", "tarfile")
print(rc, *(m for m in heavy if m in sys.modules), file=sys.stderr)
"""


class TestInspect:
    def test_text(self, example1_path, capsys):
        assert main(["inspect", str(example1_path)]) == 0
        out = capsys.readouterr().out
        assert "num_clauses" in out and "4" in out
        assert "num_candidate_pairs" in out and "9" in out

    def test_json_validates(self, example1_path, capsys):
        assert main(["inspect", str(example1_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["num_quadratic_pairs"] == 7

    def test_builtin_example_name(self, capsys):
        assert main(["inspect", "example1"]) == 0
        assert "num_clauses" in capsys.readouterr().out


class TestAnalyze:
    @pytest.mark.parametrize(
        "method,max_degree,depth_upper",
        [("linear", 13, 15), ("gvs-ip", 8, 10), ("native3", 3, 5)],
    )
    def test_json_pinned(self, example1_path, capsys, method, max_degree,
                         depth_upper):
        rc = main(
            ["analyze", str(example1_path), "--method", method,
             "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        (report,) = doc["reports"]
        assert report["max_degree"] == max_degree
        assert report["depth_upper"] == depth_upper
        assert report["wall_time"] is None

    def test_gvs_ip_status_and_degrees(self, example1_path, capsys):
        assert main(
            ["analyze", str(example1_path), "--method", "gvs-ip",
             "--format", "json"]
        ) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["formulation"] == "gvs-ip"
        assert report["solver_status"] == "optimal"
        assert report["substitutions"] == 2
        assert len(report["degrees"]) == 13
        assert max(report["degrees"].values()) == 8

    def test_greedy_seeded(self, example1_path, capsys):
        assert main(
            ["analyze", str(example1_path), "--method", "gvs-greedy",
             "--seed", "3", "--format", "json"]
        ) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["formulation"] == "gvs-greedy"
        assert report["substitutions"] in (2, 3)

    def test_text_format(self, example1_path, capsys):
        assert main(["analyze", str(example1_path), "--method", "linear"]) == 0
        out = capsys.readouterr().out
        assert "formulation:   linear" in out
        assert "depth:         14..15" in out

    def test_timings_opt_in(self, example1_path, capsys):
        assert main(
            ["analyze", str(example1_path), "--method", "linear",
             "--timings", "--format", "json"]
        ) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert isinstance(report["wall_time"], float)

    def test_output_file_atomic(self, example1_path, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            ["analyze", str(example1_path), "--method", "linear",
             "--format", "json", "-o", str(out)]
        ) == 0
        assert json.loads(out.read_text())["command"] == "analyze"
        assert list(tmp_path.glob("*.tmp")) == []


class TestCompare:
    def test_json_validates(self, example1_path, capsys):
        rc = main(
            ["compare", str(example1_path), "--seeds", "5",
             "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        (row,) = doc["rows"]
        assert row["linear_depth"] == 15
        assert row["ip_depth"] == 10
        assert row["ip_status"] == "optimal"

    def test_csv(self, example1_path, capsys):
        assert main(
            ["compare", str(example1_path), "--seeds", "3", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("name,num_vars,num_clauses,linear_depth")
        assert lines[1].startswith("example1,5,4,15,10,2,optimal")

    def test_text_table(self, example1_path, capsys):
        assert main(["compare", str(example1_path), "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "instance" in out and "example1" in out


class TestHistogram:
    def test_json(self, example1_path, capsys):
        assert main(
            ["histogram", str(example1_path), "--method", "linear",
             "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        # 12 ancillas of degree 5, plus x degrees 13,13,9,10,9
        assert doc["histogram"] == {"5": 12, "9": 2, "10": 1, "13": 2}

    def test_csv(self, example1_path, capsys):
        assert main(
            ["histogram", str(example1_path), "--method", "gvs-ip",
             "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree,count"
        assert all("," in line for line in lines[1:])


class TestExport:
    def test_lp_to_stdout(self, example1_path, capsys):
        assert main(["export", str(example1_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Minimize")
        assert out.endswith("End\n")
        assert " cover_c0: " in out

    def test_lp_to_file(self, example1_path, tmp_path):
        target = tmp_path / "model.lp"
        assert main(["export", str(example1_path), "-o", str(target)]) == 0
        assert target.read_text().startswith("Minimize")


class TestExitCodes:
    def test_unknown_flag_is_64(self, example1_path):
        proc = run_cli("analyze", example1_path, "--method", "linear",
                       "--nonsense")
        assert proc.returncode == 64

    def test_bad_method_is_64(self, example1_path):
        assert main(["analyze", str(example1_path), "--method", "huh"]) == 64

    def test_missing_subcommand_is_64(self):
        assert main([]) == 64

    def test_malformed_file_is_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf x y\n")
        assert main(["inspect", str(bad)]) == 65
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_65(self, capsys):
        assert main(["inspect", "no-such-file.cnf"]) == 65

    def test_budget_exhaustion_is_2(self, tmp_path):
        rng = random.Random(5)
        inst_path = tmp_path / "big.cnf"
        from qdepth.cnf import make_instance

        inst = make_instance(random_3sat_instance(rng, 25, 90), num_vars=25)
        inst_path.write_text(to_dimacs(inst))
        proc = run_cli("analyze", inst_path, "--method", "gvs-ip",
                       "--budget", "0.0001")
        assert proc.returncode == 2

    def test_env_budget_overrides_flag(self, tmp_path):
        rng = random.Random(6)
        inst_path = tmp_path / "big.cnf"
        from qdepth.cnf import make_instance

        inst = make_instance(random_3sat_instance(rng, 25, 90), num_vars=25)
        inst_path.write_text(to_dimacs(inst))
        proc = run_cli(
            "analyze", inst_path, "--method", "gvs-ip", "--budget", "300",
            env_extra={"QDEPTH_BUDGET_SECS": "0.0001"},
        )
        assert proc.returncode == 2


class TestFetch:
    def test_unknown_set_is_64(self, capsys):
        assert main(["fetch", "uf999", "--dest", "/tmp/nowhere"]) == 64

    def test_already_present_short_circuits(self, tmp_path, capsys):
        (tmp_path / "uf20-01.cnf").write_text(to_dimacs(example1()))
        assert main(["fetch", "uf20-91", "--dest", str(tmp_path)]) == 0
        assert "already present" in capsys.readouterr().out


class TestImportBoundary:
    @pytest.mark.parametrize("argv", [
        ("inspect", "example1"),
        ("analyze", "example1", "--method", "linear"),
        ("analyze", "example1", "--method", "native3"),
        ("analyze", "example1", "--method", "gvs-greedy"),
        ("histogram", "example1", "--method", "linear"),
        ("export", "example1"),
    ], ids=["inspect", "linear", "native3", "gvs-greedy", "histogram-linear",
            "export"])
    def test_non_solving_commands_skip_solver_stack(self, argv):
        proc = run_python("-c", HEAVY_PROBE, *argv)
        assert proc.stdout
        assert proc.stderr.decode().split() == ["0"]

    def test_exact_solve_loads_scipy(self):
        proc = run_python("-c", HEAVY_PROBE, "analyze", "example1",
                          "--method", "gvs-ip")
        rc, *heavy = proc.stderr.decode().split()
        assert rc == "0"
        assert {"numpy", "scipy"} <= set(heavy)
        assert proc.stdout


class TestDeterminism:
    def test_analyze_bytes_identical(self, example1_path):
        a = run_cli("analyze", example1_path, "--method", "gvs-ip",
                    "--format", "json")
        b = run_cli("analyze", example1_path, "--method", "gvs-ip",
                    "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout

    def test_compare_bytes_identical(self, example1_path):
        args = ("compare", example1_path, "--seeds", "5", "--format", "csv")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
