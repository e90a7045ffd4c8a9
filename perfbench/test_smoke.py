"""Fast smoke test of the benchmark harness.

    python3 -m pytest perfbench/test_smoke.py      (or: python3 perfbench/test_smoke.py)

Runs every workload at a tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json is reported with its unit, that a
planted wrong value, a raise on valid input or a negative D counts as a
failure, that a planted divergence from the oracle ends the run with exit
code 2, and that the benchmark refuses to run without the program's sources.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import CatalogN64, CatalogN64Wide, CliMixed, OracleMagnitude, SelftestBox  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 0.2

TINY = {
    "catalog-n64": lambda: CatalogN64(n=4, magnitude=10),
    "catalog-n64-wide": lambda: CatalogN64Wide(n=4, magnitude=10),
    "selftest-box": lambda: SelftestBox(bound=1, cmax=1),
    "oracle-magnitude": lambda: OracleMagnitude(magnitude=10),
    "cli-mixed": lambda: CliMixed(pool=6),
}


class PlantedCatalog(CatalogN64):
    def op(self, inp):
        coords, values = super().op(inp)
        curve, value = values[0]
        return coords, [(curve, value + 1)] + values[1:]


class PlantedOracle(OracleMagnitude):
    def op(self, inp):
        values, traced = super().op(inp)
        return values, [traced[0] + 1] + traced[1:]


class PlantedEvenCatalog(CatalogN64):
    """Wrong but even, non-negative values: only the oracle can tell."""

    def op(self, inp):
        coords, values = super().op(inp)
        return coords, [(curve, value + 2) for curve, value in values]


class PlantedRaisingCli(CliMixed):
    """A valid call that raises out of main."""

    def _call(self, argv):
        return RuntimeError("planted") if argv[0] == "coordinatize" else super()._call(argv)


class HarnessSmokeTest(unittest.TestCase):
    def test_workloads_match_the_spec(self):
        names = {w["name"] for w in SPEC["workloads"]}
        self.assertLessEqual(names, set(run.WORKLOADS))
        self.assertEqual(set(run.WORKLOADS), set(TINY))

    def test_every_metric_is_reported_with_its_unit(self):
        for name, make in TINY.items():
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, lines = run.run_workload(make(), 1, SECONDS, trace)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[key]},
                    )
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertTrue(any("failed_share" in ln for ln in lines))
                    if trace:
                        self.assertEqual(result["metrics"]["oracle.divergences"]["value"], 0)

    def test_cli_escapes_are_listed_by_input(self):
        result, lines = run.run_workload(TINY["cli-mixed"](), 1, SECONDS, False)
        raised = [ln for ln in lines if "raised out of the program" in ln]
        self.assertEqual(result["failed"], sum(int(ln.split(":", 1)[1].split()[0]) for ln in raised))
        self.assertTrue(all("crosscap " in ln for ln in raised))

    def test_planted_wrong_values_count_as_failures(self):
        for wl in (PlantedCatalog(n=4, magnitude=10), PlantedOracle(magnitude=10)):
            with self.subTest(workload=wl.name):
                result, _ = run.run_workload(wl, 1, SECONDS, False)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_a_divergence_from_the_oracle_fails_the_run(self):
        wl = PlantedEvenCatalog(n=4, magnitude=10)
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.run_and_print(wl, 1, SECONDS, False)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 2)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], wl.oracle_ops)
        self.assertGreaterEqual(wl.divergences, wl.oracle_ops)

    def test_a_raise_on_valid_input_is_a_wrong_output(self):
        result, lines = run.run_workload(PlantedRaisingCli(pool=6), 1, SECONDS, False)
        self.assertFalse(result["correct"])
        self.assertTrue(any(ln.startswith("  wrong output") and "coordinatize" in ln
                            for ln in lines))

    def test_a_negative_d_is_a_wrong_output(self):
        # The two-case D rule past its domain (c2 = 3): the library gives D = -1.
        wl = CatalogN64Wide(n=2, magnitude=3)
        wl.prepare(run.load_crosscap(), 1, run.WORK_DIR)
        inp = (((-3,), (-3, -3), -2, 0, 3), "(-3; -3,-3; -2; 0,3)")
        self.assertEqual(wl.check(inp, wl.op(inp)), "D = -1 is negative or odd")
        self.assertEqual(CatalogN64().cmax, 1)

    def test_refuses_to_run_without_sources(self):
        run.WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "catalog-n64",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
