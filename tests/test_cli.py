"""Command-line behaviour: formats, exit codes, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from crosscap import oracle
from crosscap.cli import main
from crosscap.coords import parse_coords
from crosscap.oracle import SelftestReport

# the interpreter's limit on int() of decimal text and str() of an int
# (4300 digits by default; 0 where there is none)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "1" * (DIGIT_LIMIT + 700)


def python(*argv):
    """Run a fresh interpreter with the package on its path."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvert:
    def test_worked_example_json(self, capsys):
        code, out, _ = run(capsys, "invert", "(2; 1,0; -2; 2,0)", "--n", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == [1, 5]
        assert data["beta"] == [6, 4, 4]
        assert data["gamma"] == 4

    def test_human_table(self, capsys):
        code, out, _ = run(capsys, "invert", "(2; 1,0; -2; 2,0)")
        assert code == 0
        assert "beta   6 4 4" in out

    def test_coordinatize_inverse(self, capsys):
        code, out, _ = run(capsys, "coordinatize", "(1,5; 6,4,4; 4; 2,0)")
        assert code == 0
        assert out.strip() == "(2; 1,0; -2; 2,0)"

    def test_json_file_input(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"n": 2, "a": [2], "b": [1, 0], "t": -2, "c": [2, 0]}))
        code, out, _ = run(capsys, "invert", "--file", str(path), "--json")
        assert code == 0
        assert json.loads(out)["beta"] == [6, 4, 4]

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "coordinatize", "(3,1; 4,2,2; 4; 1,1)", "--json")
        assert code == 0
        data = json.loads(out)
        v = parse_coords("(-1; 1,0; 1; 1,1)")
        assert data == v.to_dict()

    def test_python_dash_m(self):
        done = python("-m", "crosscap", "invert", "(2; 1,0; -2; 2,0)")
        assert done.returncode == 0, done.stderr
        assert "beta   6 4 4" in done.stdout

    def test_import_leaves_multiprocessing_out(self):
        # only a parallel selftest sweep needs it
        done = python("-c", "import sys, crosscap.cli; print('multiprocessing' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestIntersect:
    def test_named_curve(self, capsys):
        code, out, _ = run(
            capsys, "intersect", "(-1; 1,0; 1; 1,1)", "--n", "2", "--curve", "D", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"curve": "D", "value": 0}

    def test_catalog(self, capsys):
        code, out, _ = run(capsys, "intersect", "(-1; 1,0; 1; 1,1)", "--all", "--json")
        assert code == 0
        values = {row["curve"]: row["value"] for row in json.loads(out)}
        assert values["Cprime2:2"] == 4
        assert values["C"] == 2
        assert values["D"] == 0

    def test_curve_spec_with_parameters(self, capsys):
        code, out, _ = run(
            capsys, "intersect", "(2; 1,0; -2; 2,0)", "--curve", "Cij:1,2", "--json"
        )
        assert code == 0
        assert json.loads(out)["value"] == 4

    def test_no_curve_selected(self, capsys):
        code, _, err = run(capsys, "intersect", "(2; 1,0; -2; 2,0)")
        assert code == 1
        assert "curve" in err

    def test_curve_and_all_together_exit_one(self, capsys):
        code, out, err = run(capsys, "intersect", "(2; 1,0; -2; 2,0)", "--curve", "C", "--all")
        assert code == 1
        assert out == ""
        assert err == "crosscap: error: use --curve or --all, not both\n"


class TestErrors:
    def test_zero_vector_exits_one(self, capsys):
        code, _, err = run(capsys, "intersect", "(0; 0,0; 0; 0,0)", "--all")
        assert code == 1
        assert "zero vector" in err

    def test_syntax_error_exits_one(self, capsys):
        code, _, err = run(capsys, "invert", "(1; 2,9")
        assert code == 1
        assert "error" in err

    def test_non_ascii_digit_exits_one(self, capsys):
        code, _, err = run(capsys, "invert", "(²; 1,0; -2; 2,0)")
        assert code == 1
        assert err.startswith("crosscap: error:") and "position 1" in err

    def test_wrong_n_exits_one(self, capsys):
        code, _, err = run(capsys, "invert", "(2; 1,0; -2; 2,0)", "--n", "3")
        assert code == 1

    def test_unrealizable_exits_one(self, capsys):
        code, _, err = run(capsys, "invert", "(0; 0,0; 1; 0,0)")
        assert code == 1
        assert "parity" in err

    def test_bad_flag_exits_one(self, capsys):
        code, _, _ = run(capsys, "invert", "(1; 1,0; 0; 0,0)", "--bogus")
        assert code == 1

    def test_json_file_missing_key_exits_one(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"n": 2, "a": [1], "t": 0, "c": [0, 0]}))
        code, _, err = run(capsys, "invert", "--file", str(path), "--json")
        assert code == 1
        assert err.startswith("crosscap: error:") and "missing key" in err

    def test_malformed_json_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"n": 2, "a": [1], "b": [1, 0],')
        code, _, err = run(capsys, "invert", "--file", str(path), "--json")
        assert code == 1
        assert err.startswith("crosscap: error:") and "not valid JSON" in err

    def test_bad_curve_spec_exits_one(self, capsys):
        code, _, err = run(capsys, "intersect", "(-1; 1,0; 1; 1,1)", "--curve", "Cij:x,2")
        assert code == 1
        assert err.startswith("crosscap: error:") and "Cij:x,2" in err

    @pytest.mark.parametrize("spec", ["Cij:1,\u0662", "Cij:1,0_2"])
    def test_non_ascii_curve_index_exits_one(self, capsys, spec):
        code, out, err = run(capsys, "intersect", "(2; 1,0; -2; 2,0)", "--curve", spec)
        assert code == 1 and out == ""
        assert err.startswith("crosscap: error:") and "two integer indices" in err

    def test_non_utf8_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_bytes(b'\xff\xfe{"n": 2}')
        code, _, err = run(capsys, "invert", "--file", str(path))
        assert code == 1
        assert err.startswith("crosscap: error:") and "not UTF-8" in err

    def test_large_range_outside_surface_exits_one(self, capsys):
        code, out, err = run(capsys, "profile", "(2; 1,0; -2; 2,0)", "--large", "5", "1")
        assert code == 1 and out == ""
        assert err.startswith("crosscap: error:") and "--large 5 1" in err

    def test_large_upper_index_outside_surface_exits_one(self, capsys):
        code, out, err = run(capsys, "profile", "(2; 1,0; -2; 2,0)", "--large", "1", "9")
        assert code == 1 and out == ""
        assert err.startswith("crosscap: error:") and "--large 1 9" in err

    def test_large_reversed_pair_gives_crosscap_ranges_only(self, capsys):
        code, out, _ = run(
            capsys, "profile", "(2; 1,0; -2; 2,0)", "--large", "2", "1", "--json"
        )
        assert code == 0
        assert sorted(json.loads(out)["large"]) == ["S'_(2,1)", "S'_(2,2)"]


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no digit limit in this interpreter")
class TestDigitLimit:
    """Integers past the interpreter's text-conversion limit are an input
    error at every entry point, and the limit itself is left as it is."""

    @pytest.fixture(autouse=True)
    def limit_unchanged(self):
        yield
        assert sys.get_int_max_str_digits() == DIGIT_LIMIT

    @pytest.mark.parametrize(
        "cmd, text",
        [
            ("invert", f"({TOO_LONG}; 1,0; 0; 0,0)"),  # valid grammar: the regex path
            ("invert", f"({TOO_LONG}; 1,0; 0; 0,0"),  # invalid: the scanner
            ("coordinatize", f"(1,5; 6,4,4; 4; {TOO_LONG},0)"),
        ],
        ids=["regex", "scanner", "triangle"],
    )
    def test_long_coordinate_text_exits_one(self, capsys, cmd, text):
        code, out, err = run(capsys, cmd, text)
        assert code == 1 and out == ""
        assert err.startswith("crosscap: error: integer has more than") and "digits" in err

    def test_long_curve_index_exits_one(self, capsys):
        code, out, err = run(capsys, "intersect", "(2; 1,0; -2; 2,0)", "--curve", f"Cij:1,{TOO_LONG}")
        assert code == 1 and out == ""
        assert err.startswith("crosscap: error: Cij index has more than")

    def test_long_json_integer_exits_one(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(f'{{"n": 2, "a": [1], "b": [1, 0], "t": {TOO_LONG}, "c": [0, 0]}}')
        code, out, err = run(capsys, "invert", "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"crosscap: error: {path}: an integer has more than")

    @pytest.mark.parametrize("cmd", ["invert", "profile", "intersect"])
    @pytest.mark.parametrize("as_json", [(), ("--json",)])
    def test_output_past_the_limit_exits_one(self, capsys, cmd, as_json):
        # a valid input at the limit whose output has one digit more
        nines = "9" * DIGIT_LIMIT
        extra = ("--all",) if cmd == "intersect" else ()
        code, out, err = run(capsys, cmd, f"({nines}; 1,0; 0; 0,0)", *extra, *as_json)
        assert code == 1 and out == ""
        assert err.startswith("crosscap: error: an output integer has more than")


class TestProfileAndRender:
    def test_profile_json_with_large(self, capsys):
        code, out, _ = run(
            capsys, "profile", "(2; 1,0; -2; 2,0)", "--large", "1", "1", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["s0_loops"] == 3
        assert data["crosscap1"]["straight_cores"] == 2
        assert data["large"]["S_(1,1)"]["right_loops"] == 1

    def test_render_is_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "render", "(-1; 1,0; 1; 1,1)", "--out", str(f1))[0] == 0
        assert run(capsys, "render", "(-1; 1,0; 1; 1,1)", "--out", str(f2))[0] == 0
        svg = f1.read_text()
        assert svg == f2.read_text()
        assert svg.startswith("<?xml")
        assert 'version="1.1"' in svg
        # two crossed circles for the crosscaps, dots for the punctures
        assert svg.count("<circle") >= 4

    def test_render_to_stdout(self, capsys):
        code, out, _ = run(capsys, "render", "(2; 1,0; -2; 2,0)")
        assert code == 0
        assert out.startswith("<?xml") and out.rstrip().endswith("</svg>")


class TestSelftest:
    def test_small_grid_exits_zero(self, capsys):
        code, out, _ = run(capsys, "selftest", "--n", "2", "--bound", "1", "--jobs", "1")
        assert code == 0
        assert "agree" in out

    def test_default_bounds_exit_zero(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "bound=2" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "selftest", "--n", "2", "--bound", "1", "--jobs", "1", "--json"
        )
        assert code == 0
        data = json.loads(out.strip() or "{}")
        assert data["divergences"] == 0
        assert data["points_checked"] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("--bound", "-1", "--cmax", "2"),  # negative bound
            ("--bound", "-1"),  # empty box
            ("--bound", "0"),  # only the zero vector
        ],
    )
    def test_vacuous_sweep_exits_one(self, capsys, argv):
        code, out, err = run(capsys, "selftest", "--jobs", "1", *argv)
        assert code == 1
        assert err.startswith("crosscap: error:") and "agree" not in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("n", ["-1", "0", "1"])
    def test_too_few_punctures_exits_one(self, capsys, n, jobs):
        # rejected before the grid is sized or a worker starts
        code, out, err = run(capsys, "selftest", "--n", n, "--bound", "1", "--jobs", jobs)
        assert code == 1 and out == ""
        assert err == f"crosscap: error: puncture count must be >= 2, got {n}\n"

    def test_negative_jobs_exits_one(self, capsys):
        code, _, err = run(capsys, "selftest", "--bound", "1", "--jobs", "-1")
        assert code == 1
        assert err.startswith("crosscap: error:") and "--jobs" in err

    @pytest.mark.parametrize("as_json", [False, True])
    def test_divergence_prints_a_reproducer(self, capsys, monkeypatch, as_json):
        # a forced divergence on every curve; each reproducer prints the formula's value
        traced_values = oracle._traced_values
        monkeypatch.setattr(
            oracle, "_traced_values", lambda *a: [x + 1 for x in traced_values(*a)]
        )
        argv = ["selftest", "--n", "2", "--bound", "1", "--jobs", "1"]
        code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert code == 2
        if as_json:
            cases = [(d["reproduce"], d["formula"]) for d in json.loads(out)["first_divergences"]]
        else:
            lines = err.splitlines()
            cases = []
            for line, below in zip(lines, lines[1:]):
                if m := re.match(r"DIVERGENCE .* formula=(-?\d+) ", line):
                    assert below.startswith("  reproduce: crosscap intersect ")
                    cases.append((below.removeprefix("  reproduce: "), int(m.group(1))))
        assert len(cases) == 5
        for command, formula in cases:
            crosscap, *args = shlex.split(command)
            assert crosscap == "crosscap" and args[0] == "intersect"
            code, out, _ = run(capsys, *args, "--json")
            assert code == 0
            assert json.loads(out)["value"] == formula

    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        # records the job count instead of sweeping, so no worker starts
        seen = []

        def fake_selftest(n, bound, cmax, jobs):
            seen.append(jobs)
            return SelftestReport(
                n=n, bound=bound, cmax=cmax, points_total=1, points_checked=1
            )

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr("crosscap.cli.run_selftest", fake_selftest)
        for jobs in ("64", "2", "0"):
            assert run(capsys, "selftest", "--jobs", jobs)[0] == 0
        assert seen == [3, 2, 3]
