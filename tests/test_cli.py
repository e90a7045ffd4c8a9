"""Command-line behaviour: formats, exit codes, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from crosscap import cli, oracle
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

    def test_counts_no_multicurve_has_exit_one(self, capsys):
        # they pass every TriangleCoordinates check, but their vector
        # (1; -1,-2; 0; 2,0) inverts to (1,3; 2,4,8; 8; 2,0)
        code, out, err = run(capsys, "coordinatize", "(3,5; 0,2,6; 6; 2,0)")
        assert code == 1 and out == ""
        assert err.startswith("crosscap: error:") and "no multicurve" in err

    def test_bad_flag_exits_one(self, capsys):
        code, _, _ = run(capsys, "invert", "(1; 1,0; 0; 0,0)", "--bogus")
        assert code == 1

    def test_json_file_missing_key_exits_one(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"n": 2, "a": [1], "t": 0, "c": [0, 0]}))
        code, _, err = run(capsys, "invert", "--file", str(path), "--json")
        assert code == 1
        assert err.startswith("crosscap: error:") and "missing key" in err

    def test_json_file_unknown_key_exits_one(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"n": 2, "a": [1], "b": [1, 0], "t": -2, "c1": 2}))
        code, out, err = run(capsys, "invert", "--file", str(path), "--json")
        assert (code, out, err) == (1, "", "crosscap: error: unknown key(s) c1\n")

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

    @pytest.mark.parametrize("spec", ["C:", "D:"])
    def test_c_and_d_with_a_colon_exit_one(self, capsys, spec):
        code, out, err = run(capsys, "intersect", "(2; 1,0; -2; 2,0)", "--curve", spec)
        assert code == 1 and out == ""
        assert err == f"crosscap: error: cannot parse curve spec '{spec}'\n"

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


class TestArgv:
    """``main`` takes ``None`` (``sys.argv``) or an iterable of strings;
    any other argv is an input error: one line, exit 1."""

    @pytest.mark.parametrize(
        "argv", [b"x", 2.0, True, parse_coords("(2; 1,0; -2; 2,0)"), ["invert", 2], [b"invert"]]
    )
    def test_wrong_kind_of_argv_exits_one(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"crosscap: error: expected argv as a list of strings, got {argv!r}\n"

    def test_a_string_is_one_argument_per_character(self, capsys):
        code = main("invert")
        _, err = capsys.readouterr()
        assert code == 1
        last = err.splitlines()[-1]
        assert last.startswith("crosscap: error: argument command: invalid choice: 'i'")

    def test_any_iterable_of_strings(self, capsys):
        assert main(iter(["coordinatize", "(1,5; 6,4,4; 4; 2,0)"])) == 0
        assert capsys.readouterr().out == "(2; 1,0; -2; 2,0)\n"


class TestParsersBuilt:
    """``main`` builds the top-level parser and one for the invoked
    subcommand, none for the others."""

    @pytest.mark.parametrize(
        "argv, progs",
        [
            ([name, *flag], ["crosscap", f"crosscap {name}"])
            for name in cli._NAMES
            for flag in (["--n", "x"], ["--help"])  # a bad --n fails before any work
        ]
        + [
            (["-h", "invert"], ["crosscap", "crosscap invert"]),
            ([], ["crosscap"]),
            (["--help"], ["crosscap"]),
            (["bogus"], ["crosscap"]),
        ],
    )
    def test_parsers_per_call(self, capsys, monkeypatch, argv, progs):
        built = []
        init = cli._Parser.__init__

        def counting_init(parser, **kwargs):
            built.append(kwargs["prog"])
            init(parser, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        main(argv)
        assert built == progs


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


EXAMPLE = "(2; 1,0; -2; 2,0)"

# every integer flag: the arguments before it, and the flag; the selftest
# box is kept tiny, so a value wrongly read as 2 still runs in moments
SMALL_SWEEP = ("selftest", "--bound", "0", "--cmax", "0", "--jobs", "1")
INTEGER_FLAGS = [
    ("invert", EXAMPLE, "--n"),
    ("profile", EXAMPLE, "--large"),
    ("render", EXAMPLE, "--width"),
    ("render", EXAMPLE, "--height"),
    ("render", EXAMPLE, "--spacing"),
    (*SMALL_SWEEP, "--n"),
    (*SMALL_SWEEP, "--bound"),
    (*SMALL_SWEEP, "--cmax"),
    (*SMALL_SWEEP, "--jobs"),
]


class TestIntegerFlags:
    """Integer flags take ASCII digits only, as coordinates and curve
    indices do: argparse's ``type=int`` would also read other Unicode
    digits and underscores."""

    @pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=lambda argv: f"{argv[0]} {argv[-1]}")
    @pytest.mark.parametrize("value", ["\u0662", "0_2"], ids=["arabic-indic", "underscore"])
    def test_other_digits_exit_one(self, capsys, argv, value):
        *head, flag = argv
        rest = ("1",) if flag == "--large" else ()  # --large takes two
        code, out, err = run(capsys, *head, flag, value, *rest)
        assert code == 1 and out == ""
        assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")

    def test_second_large_bound_is_checked_too(self, capsys):
        code, out, err = run(capsys, "profile", EXAMPLE, "--large", "1", "1_0")
        assert code == 1 and out == ""
        assert err.endswith("error: argument --large: invalid int value: '1_0'\n")

    def test_signed_and_padded_ascii_still_read(self, capsys):
        assert run(capsys, "render", EXAMPLE, "--spacing", " +90 ") == run(
            capsys, "render", EXAMPLE, "--spacing", "90"
        )
        code, out, _ = run(capsys, "invert", EXAMPLE, "--n", "+2", "--json")
        assert code == 0 and json.loads(out)["n"] == 2

    @pytest.mark.skipif(not DIGIT_LIMIT, reason="no digit limit in this interpreter")
    def test_value_past_the_digit_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "render", EXAMPLE, "--width", TOO_LONG)
        assert code == 1 and out == ""
        assert "error: argument --width: invalid int value:" in err


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


    @pytest.mark.parametrize(
        "argv",
        [
            ("(2; 1,0; -2; 2,0)", "--spacing", str(10**400)),
            ("(2; 1,0; -2; 2,0)", "--width", str(10**400)),
            ("(2; 1,0; -2; 2,0)", "--height", str(10**400)),
            (f"({'9' * 309}; 1,0; -2; 2,0)",),
        ],
    )
    def test_render_past_a_float_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, "render", *argv)
        assert code == 1 and out == ""
        assert err == "crosscap: error: the picture is too large to draw\n"


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
        assert data["points_per_second"] > 0

    def test_text_report_gives_throughput(self, capsys, monkeypatch):
        report = SelftestReport(n=2, bound=1, cmax=1, points_total=9, points_checked=6, elapsed=0.5)
        monkeypatch.setattr("crosscap.cli.run_selftest", lambda **_: report)
        code, out, _ = run(capsys, "selftest", "--jobs", "1")
        assert code == 0
        assert "in 0.5s (12 points/s)" in out.splitlines()[0]
        code, out, _ = run(capsys, "selftest", "--jobs", "1", "--json")
        assert json.loads(out)["points_per_second"] == 12.0

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
