import gc
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qdepth.cli import main
from qdepth.cnf import example1, make_instance, to_dimacs

from helpers import count_cover_work, random_3sat_instance
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
heavy = ("numpy", "scipy", "scipy.optimize", "scipy.sparse",
         "scipy.optimize._highspy._core", "urllib.request", "tarfile")
print(rc, *(m for m in heavy if m in sys.modules), file=sys.stderr)
"""

# runs qdepth.cli.main on argv, then reports on stderr which of the modules
# only polynomial algebra, dataclass records or exact fractions need got
# imported along the way
ALGEBRA_PROBE = """
import sys
from qdepth.cli import main
rc = main(sys.argv[1:])
algebra = ("dataclasses", "qdepth.pubo", "fractions")
print(rc, *(m for m in algebra if m in sys.modules), file=sys.stderr)
"""

# runs qdepth.cli.main on argv, then reports on stderr which qdepth modules,
# and which of the standard modules only some paths need, got imported along
# the way
MODULE_PROBE = """
import sys
from qdepth.cli import main
rc = main(sys.argv[1:])
print(rc, *sorted(m for m in sys.modules if m.startswith("qdepth.")
                  or m in ("statistics", "json", "csv")), file=sys.stderr)
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

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_output_file_mode_is_that_of_a_plain_write(self, umask, tmp_path):
        """A new file gets 0666 less the umask; a replaced one keeps its mode."""
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        old.write_text("stale\n")
        old.chmod(0o640)
        saved = os.umask(umask)
        try:
            for target in (new, old):
                assert main(["analyze", "example1", "--method", "linear",
                             "-o", str(target)]) == 0
        finally:
            os.umask(saved)
        assert new.stat().st_mode & 0o777 == 0o666 & ~umask
        assert old.stat().st_mode & 0o777 == 0o640
        assert old.read_text().startswith("formulation:")

    @pytest.mark.parametrize("existing", [True, False],
                             ids=["link", "dangling-link"])
    def test_output_through_a_symlink_writes_its_target(self, existing,
                                                        tmp_path):
        """-o follows a symlink as open() does: the link stays, and its
        target, made if missing, gets the text."""
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        if existing:
            target.write_text("stale\n")
        link.symlink_to(target.name)
        assert main(["inspect", "example1", "-o", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == "target.txt"
        assert target.read_text().startswith("instance ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.txt", "target.txt"]


class TestCompare:
    def test_json_validates(self, example1_path, capsys):
        rc = main(
            ["compare", str(example1_path), "--seeds", "5",
             "--format", "json"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert '"budget_secs": 300.0,' in out
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        (row,) = doc["rows"]
        assert row["linear_depth"] == 15
        assert row["ip_depth"] == 10
        assert row["ip_status"] == "optimal"

    def test_infinite_budget_is_strict_json_null(self, capsys):
        """RFC 8259 has no Infinity: an unlimited budget is written null."""
        assert main(["compare", "example1", "--seeds", "2", "--budget", "inf",
                     "--format", "json"]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["budget_secs"] is None
        jsonschema.validate(doc, SCHEMA)

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

    def test_timings_flag(self, capsys):
        argv = ["compare", "example1", "--seeds", "2", "--format", "json"]
        assert main(argv + ["--timings"]) == 0
        (timed,) = json.loads(capsys.readouterr().out)["rows"]
        assert isinstance(timed["wall_time"], float) and timed["wall_time"] > 0
        assert main(argv) == 0
        (plain,) = json.loads(capsys.readouterr().out)["rows"]
        assert plain["wall_time"] is None

    def test_text_table_timings(self, example1_path, capsys):
        assert main(["compare", str(example1_path), "--seeds", "2"]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert "time" not in plain[0]
        assert main(["compare", str(example1_path), "--seeds", "2",
                     "--timings"]) == 0
        timed = capsys.readouterr().out.splitlines()
        assert timed[0].split()[-1] == "time"
        # the timed table is the plain one with a trailing time column
        for before, after in zip(plain, timed):
            assert after.startswith(before)
        seconds = timed[2].split()[-1]
        assert seconds.endswith("s") and float(seconds[:-1]) > 0


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

    LOOP = "[Errno 40] Too many levels of symbolic links: 'loop'"

    @pytest.mark.parametrize("argv, error", [
        (("inspect", "a" * 300),
         f"[Errno 36] File name too long: '{'a' * 300}'"),
        (("inspect", "loop"), LOOP),
        (("export", "loop", "-o", "x.lp"), LOOP),
        (("compare", "example1", "loop"), LOOP),
    ], ids=["name-too-long", "inspect-loop", "export-loop", "compare-loop"])
    def test_unreadable_input_is_65_naming_it(self, argv, error, tmp_path,
                                              monkeypatch, capsys):
        """Any OSError on an instance path is one error line and exit 65."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "loop").symlink_to("loop")
        assert main(list(argv)) == 65
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["loop"]

    @pytest.mark.parametrize("where, reason", [
        ("nodir/x.txt", "[Errno 2] No such file or directory"),
        ("adir", "[Errno 21] Is a directory"),
        ("afile/x.txt", "[Errno 20] Not a directory"),
        pytest.param("loop", "[Errno 40] Too many levels of symbolic links",
                     id="symlink-loop"),
        pytest.param("a" * 300, "[Errno 36] File name too long",
                     id="name-too-long"),
    ])
    def test_unwritable_output_is_65_naming_it(self, where, reason, tmp_path,
                                               capsys):
        """The error names the -o path, no temp file is left behind, and a
        symlink loop stays a link."""
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        (tmp_path / "loop").symlink_to("loop")
        target = tmp_path / where
        assert main(["analyze", "example1", "--method", "linear",
                     "-o", str(target)]) == 65
        assert capsys.readouterr().err == f"error: {reason}: '{target}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "adir", "afile", "loop"]
        assert os.readlink(tmp_path / "loop") == "loop"

    def test_link_to_an_unwritable_path_is_65_naming_the_link(self, tmp_path,
                                                             capsys):
        link = tmp_path / "link.txt"
        link.symlink_to(tmp_path / "nodir" / "x.txt")
        assert main(["inspect", "example1", "-o", str(link)]) == 65
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{link}'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["link.txt"]

    DIMACS_TOKENS = st.one_of(
        st.sampled_from(["p", "cnf", "c", "%", "0", "-", "+", "_"]),
        st.from_regex(r"[-+]?[0-9_]{1,3}", fullmatch=True))
    DIMACS_LINES = st.one_of(
        st.lists(st.sampled_from("123456789"), min_size=3, max_size=3).map(
            lambda vs: " ".join(vs[:2] + ["-" + vs[2], "0"])),
        st.lists(DIMACS_TOKENS, max_size=6).map(" ".join))
    DIMACS_LIKE = st.one_of(
        st.text(alphabet="0123456789-+pc%_ \n", max_size=60),
        st.lists(DIMACS_LINES, max_size=8).map("\n".join),
        st.lists(DIMACS_LINES, min_size=1, max_size=6).map(
            lambda lines: "\n".join([f"p cnf 9 {len(lines)}", *lines])))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=DIMACS_LIKE)
    def test_bad_input_maps_to_documented_exit_codes(self, text, tmp_path,
                                                     capsys):
        """Whatever the text, a command exits 0 or 65, and stderr holds at
        most warning lines and one closing error line."""
        path = tmp_path / "any.cnf"
        path.write_text(text)
        for argv in (["inspect"], ["analyze", "--method", "linear"],
                     ["analyze", "--method", "native3"]):
            code = main([argv[0], str(path), *argv[1:]])
            lines = capsys.readouterr().err.splitlines()
            assert code in (0, 65)
            errors = [line for line in lines if line.startswith("error: ")]
            assert errors == ([lines[-1]] if code == 65 else [])
            assert all(line.startswith("qdepth: warning: ")
                       for line in lines[:len(lines) - len(errors)])

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


    @pytest.mark.parametrize("argv", [
        ("analyze", "example1", "--method", "gvs-ip", "--budget", "-1"),
        ("analyze", "example1", "--method", "gvs-ip", "--budget", "nan"),
        ("histogram", "example1", "--method", "gvs-ip", "--budget=-inf"),
        ("compare", "example1", "--budget", "soon"),
        ("compare", "example1", "--seeds", "0"),
        ("compare", "example1", "--seeds", "-3"),
        ("compare", "example1", "--seeds", "2.5"),
    ], ids=["budget-negative", "budget-nan", "budget-minus-inf",
            "budget-word", "seeds-zero", "seeds-negative", "seeds-fraction"])
    def test_bad_budget_or_seed_count_is_64(self, argv, capsys):
        assert main(list(argv)) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert f"qdepth {argv[0]}: error: argument --" in err
        assert "must be" in err

    @pytest.mark.parametrize("value", ["abc", "-1", "nan"])
    def test_bad_env_budget_is_64_with_one_line(self, value, monkeypatch,
                                                capsys):
        monkeypatch.setenv("QDEPTH_BUDGET_SECS", value)
        assert main(["analyze", "example1", "--method", "gvs-ip"]) == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "qdepth: error: QDEPTH_BUDGET_SECS: budget must be a number of "
            f"seconds >= 0, or inf; got {value!r}\n")

    def test_infinite_budget_is_accepted(self, capsys):
        assert main(["analyze", "example1", "--method", "gvs-ip",
                     "--budget", "inf"]) == 0
        assert "solver:        optimal" in capsys.readouterr().out


class TestRepeatedClauses:
    def test_one_plain_warning_line_per_repeat(self, tmp_path, capsys):
        path = tmp_path / "dup.cnf"
        path.write_text("p cnf 4 4\n1 2 3 0\n3 2 1 0\n-1 2 4 0\n1 2 3 0\n")
        assert main(["inspect", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "qdepth: warning: clause #1 repeats clause #0: (1, 2, 3)",
            "qdepth: warning: clause #3 repeats clause #0: (1, 2, 3)",
        ]
        assert "num_clauses          4\n" in out


class TestEmptyFormula:
    """A formula with no clauses has nothing to substitute: Δ 0, and obj
    alone in the program's objective."""

    @pytest.mark.parametrize("method", ["linear", "native3", "gvs-greedy",
                                        "gvs-ip"])
    def test_analyze(self, method, tmp_path, capsys):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 3 0\n")
        assert main(["analyze", str(path), "--method", method,
                     "--format", "json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        # no clause, so no qubit and no layer: the mixer layer alone, which
        # native3's coloring counts exactly
        assert (report["num_problem_vars"], report["num_ancillas"],
                report["num_qubits"], report["num_interactions"],
                report["max_degree"], report["depth_lower"],
                report["depth_upper"]) == (
            0, 0, 0, 0, 0, 1, 1 if method == "native3" else 2)

    def test_histogram(self, tmp_path, capsys):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 3 0\n")
        assert main(["histogram", str(path), "--method", "gvs-ip",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["histogram"] == {}

    def test_compare(self, tmp_path, capsys):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 3 0\n")
        assert main(["compare", str(path), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert (row["linear_depth"], row["ip_depth"], row["greedy_depth"],
                row["ip_status"]) == (2, 2, 2, "optimal")

    def test_export(self, tmp_path, capsys):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 3 0\n")
        assert main(["export", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "Minimize", " total: obj", "Subject To"]


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

    @pytest.mark.parametrize("argv", [
        ("analyze", "example1", "--method", "gvs-ip"),
        ("compare", "example1", "--seeds", "2"),
    ], ids=["gvs-ip", "compare"])
    def test_exact_solve_loads_only_the_highs_extension(self, argv):
        # HiGHS reads the program from an MPS file, so numpy never loads
        proc = run_python("-c", HEAVY_PROBE, *argv)
        assert proc.stderr.decode().split() == [
            "0", "scipy.optimize._highspy._core"]
        assert proc.stdout

    @pytest.mark.parametrize("argv,expected", [
        (("inspect", "example1"),
         ["qdepth.cli", "qdepth.cnf", "qdepth.product"]),
        (("analyze", "example1", "--method", "linear"),
         ["qdepth.cli", "qdepth.cnf", "qdepth.graph", "qdepth.product",
          "qdepth.reports"]),
        (("analyze", "example1", "--method", "native3"),
         ["qdepth.cli", "qdepth.cnf", "qdepth.graph", "qdepth.product",
          "qdepth.reports", "qdepth.schedule"]),
        (("analyze", "example1", "--method", "gvs-greedy"),
         ["qdepth.cli", "qdepth.cnf", "qdepth.graph", "qdepth.greedy",
          "qdepth.product", "qdepth.reports"]),
        (("analyze", "example1", "--method", "gvs-ip"),
         ["qdepth.cli", "qdepth.cnf", "qdepth.graph", "qdepth.greedy",
          "qdepth.ipmodel", "qdepth.optimize", "qdepth.product",
          "qdepth.reports"]),
        (("histogram", "example1", "--method", "linear"),
         ["qdepth.cli", "qdepth.cnf", "qdepth.graph", "qdepth.product",
          "qdepth.reports"]),
        (("export", "example1"),
         ["qdepth.cli", "qdepth.cnf", "qdepth.ipmodel", "qdepth.product"]),
        (("compare", "example1", "--seeds", "2"),
         ["qdepth.cli", "qdepth.cnf", "qdepth.graph", "qdepth.greedy",
          "qdepth.ipmodel", "qdepth.optimize", "qdepth.product",
          "qdepth.reports"]),
    ], ids=["inspect", "linear", "native3", "gvs-greedy", "gvs-ip",
            "histogram-linear", "export", "compare"])
    def test_command_loads_only_the_modules_it_runs(self, argv, expected):
        # text output loads none of statistics, json and csv either
        proc = run_python("-c", MODULE_PROBE, *argv)
        rc, *loaded = proc.stderr.decode().split()
        assert rc == "0" and proc.stdout
        assert loaded == expected

    @pytest.mark.parametrize("fmt,loaded", [
        ("text", set()), ("json", {"json"}),
    ])
    def test_renderers_load_only_their_format(self, fmt, loaded):
        proc = run_python("-c", MODULE_PROBE, "analyze", "example1",
                          "--method", "linear", "--format", fmt)
        rc, *found = proc.stderr.decode().split()
        assert rc == "0" and proc.stdout
        assert {"json", "csv"} & set(found) == loaded

    @pytest.mark.parametrize("argv,loaded", [
        (("inspect", "example1"), []),
        (("analyze", "example1", "--method", "linear"), []),
        (("analyze", "example1", "--method", "native3"), []),
        (("histogram", "example1", "--method", "native3"), []),
        (("analyze", "example1", "--method", "gvs-greedy"), []),
        (("analyze", "example1", "--method", "gvs-ip"), ["fractions"]),
        (("export", "example1"), []),
        (("compare", "example1", "--seeds", "2"), ["fractions"]),
    ], ids=["inspect", "linear", "native3", "histogram-native3", "gvs-greedy",
            "gvs-ip", "export", "compare"])
    def test_no_command_loads_polynomial_algebra(self, argv, loaded):
        # no command builds a polynomial or a dataclass; fractions come in
        # with the exact solvers only
        proc = run_python("-c", ALGEBRA_PROBE, *argv)
        rc, *found = proc.stderr.decode().split()
        assert rc == "0" and proc.stdout
        assert found == loaded

    def test_cli_import_loads_no_polynomial_algebra(self):
        proc = run_python("-c", "import sys, qdepth.cli; print(*(m for m in "
                          "('dataclasses', 'qdepth.pubo', 'fractions') "
                          "if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == []

    @pytest.mark.parametrize("statement,expected", [
        ("import qdepth", []),
        ("import qdepth.cli", ["qdepth.cli", "qdepth.cnf"]),
    ], ids=["package", "cli"])
    def test_import_loads_no_other_module(self, statement, expected):
        proc = run_python("-c", f"import sys; {statement}; print(*sorted("
                          "m for m in sys.modules if m.startswith('qdepth.')))")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == expected

    @pytest.mark.parametrize("first", ["solve", "scipy.optimize"])
    def test_scipy_optimize_imports_around_a_solve(self, first):
        # the extension is registered under its own name, so pybind11 sees
        # its types once whichever of the two loads it first
        solve = ("from qdepth.cnf import example1\n"
                 "from qdepth.optimize import solve_ip_exact\n"
                 "print(solve_ip_exact(example1()).max_degree)\n")
        milp = ("from scipy.optimize import milp\n"
                "print(milp([1.0, 1.0], integrality=[1, 1],\n"
                "           bounds=(0, 1)).status)\n")
        script = solve + milp if first == "solve" else milp + solve
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr.decode()
        expected = ["8", "0"] if first == "solve" else ["0", "8"]
        assert proc.stdout.decode().split() == expected


class TestWorkPerCommand:
    """The CLI builds a gvs cover's graph once for its table and report."""

    @pytest.mark.parametrize("method,expected", [
        ("gvs-greedy", {"gvs_graph": 1}),
        # the solver's exact re-score builds the cover's graph once more
        ("gvs-ip", {"gvs_graph": 2}),
    ])
    def test_cover_counted_once(self, method, expected, monkeypatch, capsys):
        calls = count_cover_work(monkeypatch)
        assert main(["analyze", "example1", "--method", method]) == 0
        assert "max degree:    8" in capsys.readouterr().out
        assert calls == expected


COMMANDS = [
    ("inspect",),
    ("analyze", "--method", "linear"),
    ("analyze", "--method", "native3"),
    ("analyze", "--method", "gvs-greedy"),
    ("analyze", "--method", "gvs-ip", "--format", "json"),
    ("export",),
    ("compare", "--seeds", "20", "--format", "csv"),
    ("histogram", "--method", "gvs-ip"),
]


class TestCollectorPolicy:
    """`python -m qdepth` runs with the cyclic collector off, which is sound
    only while a command makes no cyclic garbage that grows with the input;
    `main` itself leaves the collector as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_collector_state(self, enabled, capsys):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert main(["analyze", "example1", "--method", "gvs-greedy"]) == 0
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_entry_runs_main_with_collector_off(self, monkeypatch):
        from qdepth import __main__ as entry, cli

        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(gc.isenabled()) or 65)
        was = gc.isenabled()
        try:
            with pytest.raises(SystemExit) as exc:
                entry.run()
            frozen = gc.get_freeze_count()
        finally:
            gc.unfreeze()
            gc.enable() if was else gc.disable()
        assert seen == [False]
        assert exc.value.code == 65 and frozen > 0

    @pytest.mark.parametrize("command", COMMANDS, ids=[
        "inspect", "linear", "native3", "gvs-greedy", "gvs-ip-json", "export",
        "compare-csv", "histogram-gvs-ip"])
    def test_garbage_does_not_grow_with_the_instance(self, command, tmp_path,
                                                     capsys):
        uf50 = make_instance(random_3sat_instance(random.Random(0), 50, 218))
        (tmp_path / "uf50.cnf").write_text(to_dimacs(uf50))

        def unreachable(path):
            gc.collect()
            gc.disable()
            try:
                assert main([command[0], str(path), *command[1:]]) == 0
                return gc.collect()
            finally:
                gc.enable()

        unreachable("example1")  # first imports make garbage of their own
        small = unreachable("example1")
        large = unreachable(tmp_path / "uf50.cnf")
        capsys.readouterr()
        assert small == large < 1000


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


GOLDEN = Path(__file__).parent / "golden"
PROBE = [(1, 2, 3), (-1, 2, 3), (3, 4, 5)]
SEEDED = {"linear": (), "native3": (), "gvs-greedy": ("--seed", "3")}
GOLDEN_RUNS = [(f"inspect.{fmt}", ("inspect", "--format", fmt))
               for fmt in ("text", "json")]
GOLDEN_RUNS += [(f"analyze-{m}.{fmt}",
                 ("analyze", "--method", m, *seed, "--format", fmt))
                for m, seed in SEEDED.items() for fmt in ("text", "json")]
GOLDEN_RUNS += [(f"histogram-{m}.{fmt}",
                 ("histogram", "--method", m, *seed, "--format", fmt))
                for m, seed in SEEDED.items() for fmt in ("text", "json", "csv")]
GOLDEN_RUNS.append(("export.lp", ("export",)))


class TestGolden:
    """Every command and format whose output does not depend on the HiGHS
    version, byte for byte against tests/golden/<instance>/<file>, which
    holds the stdout of `qdepth <command> <instance> <options>` (for
    `export`, its -o file).  `gvs-ip` and `compare` stay out: which optimal
    cover HiGHS returns can change with its version."""

    @pytest.mark.parametrize("instance", ["example1", "repeat3"])
    @pytest.mark.parametrize("name,args", GOLDEN_RUNS,
                             ids=[name for name, _ in GOLDEN_RUNS])
    def test_output_matches_golden(self, instance, name, args, tmp_path,
                                   capsys):
        source = "example1"
        if instance == "repeat3":
            source = tmp_path / "repeat3.cnf"
            source.write_text(to_dimacs(make_instance(PROBE)))
        command, *options = args
        argv = [command, str(source), *options]
        lp = tmp_path / "out.lp"
        if command == "export":
            argv += ["-o", str(lp)]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        got = lp.read_text() if command == "export" else out
        assert got == (GOLDEN / instance / name).read_text()
        assert err == ""
