"""Command-line behaviour: formats, exit codes, determinism."""

import json
import os

import pytest

from crosscap.cli import main
from crosscap.coords import parse_coords
from crosscap.oracle import SelftestReport


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

    def test_negative_jobs_exits_one(self, capsys):
        code, _, err = run(capsys, "selftest", "--bound", "1", "--jobs", "-1")
        assert code == 1
        assert err.startswith("crosscap: error:") and "--jobs" in err

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
