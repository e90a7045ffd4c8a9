"""crosscap benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload catalog-n64 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout, never from an installed copy.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it spends half of
``--seconds`` untraced and half with spans around every call into the
traced crosscap functions, and reports the per-layer metrics.  Either way
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``failed`` counts operations whose output failed a check or that raised
out of the program; ``correct`` is false when any output failed a check or
an op on valid input raised.  Only a malformed CLI call that raises instead
of exiting 1 leaves ``correct`` alone.  When the closed formulas and the
strand-tracing oracle disagree on any curve, the run prints its report and
result and exits with code 2.
Everything runs in this one process, single-threaded.
"""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from tracing import SPANNED, Tracer  # noqa: E402
from workloads import SUBCOMMANDS, WORKLOADS  # noqa: E402

MODULES = ("errors", "coords", "inversion", "components", "large", "intersect", "oracle", "render", "cli")
# setup_s: one timed set-up after each of SETUP_ROUNDS equal slices of the
# untraced run (see ``end_to_end``).
SETUP_ROUNDS = 30


def load_crosscap() -> SimpleNamespace:
    """Import every crosscap module afresh from ``src/``."""
    if not (SRC / "crosscap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no crosscap package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "crosscap" or m.startswith("crosscap.")]:
        del sys.modules[name]
    pkg = importlib.import_module("crosscap")
    if Path(pkg.__file__).resolve().parent != SRC / "crosscap":
        raise SystemExit(f"perfbench: crosscap imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"crosscap.{m}") for m in MODULES})


class Run:
    """Latencies and work of the ops of one measured stretch."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.work = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class Failures:
    """Failed ops by input label: ``label -> [count, problem]``.

    ``wrong`` holds outputs that failed a check and ops on valid input that
    raised; ``raised`` holds malformed inputs that raised out of the program
    instead of being rejected with an error.
    """

    def __init__(self):
        self.wrong: dict[str, list] = {}
        self.raised: dict[str, list] = {}

    @staticmethod
    def add(table: dict, label: str, problem: str):
        table.setdefault(label, [0, problem])[0] += 1

    def count(self) -> int:
        return sum(c for c, _ in self.wrong.values()) + sum(c for c, _ in self.raised.values())


def set_up(wl, seed: int) -> float:
    """Import crosscap afresh and prepare ``wl`` for ``seed``; the seconds taken."""
    t0 = time.perf_counter()
    cc = load_crosscap()
    wl.prepare(cc, seed, WORK_DIR)
    return time.perf_counter() - t0


def timed_set_up(wl, seed: int) -> float:
    """Time one more set-up without disturbing the run: a copy of ``wl`` is
    prepared, and the run's own crosscap modules go back into place."""
    own = {k: m for k, m in sys.modules.items() if k == "crosscap" or k.startswith("crosscap.")}
    try:
        return set_up(copy.copy(wl), seed)
    finally:
        sys.modules.update(own)


def measure(wl, run: Run, until: float, failures: Failures, tracer: Tracer | None = None,
            probes: int = 3) -> Run:
    """Closed loop: run ops until ``run`` holds ``until`` seconds of op time.

    The loop stops only at a multiple of ``wl.batch`` ops.  Checks, input
    generation and probes sit outside the timed region.
    """
    gc.collect()
    clock = time.perf_counter
    while run.busy < until or run.attempted % wl.batch:
        inp = wl.next_input()
        out = error = None
        if tracer is not None:
            tracer.op = run.attempted
            tracer.active = True
            with tracer.span("op"):
                t0 = clock()
                try:
                    out = wl.op(inp)
                except Exception as exc:
                    error = exc
                dt = clock() - t0
            if error is None and run.attempted < probes:
                wl.probe(inp, out, tracer)
            tracer.active = False
        else:
            t0 = clock()
            try:
                out = wl.op(inp)
            except Exception as exc:
                error = exc
            dt = clock() - t0
        run.latencies.append(dt)
        run.busy += dt
        if error is not None:
            table = failures.raised if wl.malformed(inp) else failures.wrong
            failures.add(table, wl.label(inp), f"raised {type(error).__name__}: {error}")
            continue
        run.work += wl.work(inp, out)
        problem = wl.check(inp, out)
        if problem is not None:
            failures.add(failures.wrong, wl.label(inp), problem)
    return run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], k: int) -> float:
    """The ``k``-th percentile, interpolated within the samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def end_to_end(setup: list[float], run: Run, rss: float, failed: int) -> dict:
    """The gated metrics.

    The machine's speed switches between levels for seconds at a time.  The
    median latency of ops that straddle two levels flips between them from
    run to run, and the mean (work per second) moves with the share of slow
    stretches in the run; both are printed but not gated.  The 90th
    percentile stays put as long as some stretch of the run is slow.

    A set-up takes about 40 ms, so a burst of them all sits in one speed
    level and their median flips the same way.  ``setup`` holds set-ups
    spread evenly over the whole run, and ``setup_s`` is their minimum: the
    set-up time at the run's fastest level.  The machine only ever slows a
    set-up down, so the minimum is the steadiest reading of it.
    """
    return {
        "setup_s": (min(setup), "s"),
        "op_ms_p90": (percentile(run.latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "ok_share": ((run.attempted - failed) / run.attempted, "share"),
    }


def per_layer(tracer: Tracer, base: Run, traced: Run, divergences: int) -> dict:
    times = tracer.layer_times()
    ops = max(traced.attempted, 1)

    def self_us(name):
        calls, self_s, _ = times.get(name, (0, 0.0, 0.0))
        return self_s / calls * 1e6 if calls else 0.0

    def inclusive(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    out = {f"{name}.{fn}_us": (self_us(f"{name}.{fn}"), "us") for name, fn in SPANNED}
    curves = tracer.counts["intersect.curves"]
    ev_self = times.get("intersect.elementary_values", (0, 0.0, 0.0))[1]
    out["intersect.us_per_curve"] = (ev_self / curves * 1e6 if curves else 0.0, "us")
    for name in ("intersect.curves", "components.slots", "inversion.unrealizable",
                 "cli.exit_nonzero", "cli.uncaught"):
        out[name] = (tracer.counts[name] / ops, "count/op")
    renders = times.get("render.render_svg", (0,))[0]
    out["render.svg_bytes"] = (tracer.counts["render.svg_bytes"] / renders if renders else 0.0, "B")
    for sub in SUBCOMMANDS:
        out[f"cli.main_us.{sub}"] = (self_us(f"cli.main.{sub}"), "us")
    out["oracle.divergences"] = (divergences, "count")
    op_total = inclusive("op") or 1.0
    out["split.trace_pct"] = (100 * inclusive("oracle.count_crossings") / op_total, "%")
    out["split.formula_pct"] = (100 * inclusive("intersect.elementary_values") / op_total, "%")
    out["split.diagram_pct"] = (100 * inclusive("oracle.build_diagram") / op_total, "%")
    out["split.invert_pct"] = (100 * times.get("inversion.invert", (0, 0.0))[1] / op_total, "%")
    untraced = statistics.median(base.latencies)
    overhead = statistics.median(traced.latencies) - untraced
    out["trace.overhead_ms_per_op"] = (overhead * 1e3, "ms")
    out["trace.overhead_pct"] = (100 * overhead / untraced, "%")
    return out


# Shares of a serial selftest sweep under cProfile, from ROADMAP.md's baseline.
ROADMAP_SPLIT = {"trace": 42, "formula": 31, "diagram": 17, "invert": 12}

# Each workload's own names for the generic metrics, shown beside them.
WORKLOAD_NAMES = {
    "catalog-n64": {"op_ms_p50": "catalog_ms_p50", "op_ms_p90": "catalog_ms_p90", "work_per_s": "curves_per_s"},
    "catalog-n64-wide": {"op_ms_p50": "catalog_ms_p50", "op_ms_p90": "catalog_ms_p90", "work_per_s": "curves_per_s"},
    "selftest-box": {"op_ms_p50": "sweep_ms_p50", "op_ms_p90": "sweep_ms_p90", "work_per_s": "selftest_points_per_s"},
    "oracle-magnitude": {"op_ms_p50": "oracle_ms_p50", "op_ms_p90": "oracle_ms_p90", "work_per_s": "curves_checked_per_s"},
    "cli-mixed": {"op_ms_p50": "cli_us_p50 / 1000", "op_ms_p90": "cli_us_p90 / 1000", "work_per_s": "calls_per_s"},
}


def run_workload(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Set up, warm up, measure and check one workload.

    Returns the result object and human-readable report lines.
    """
    WORK_DIR.mkdir(exist_ok=True)
    set_up(wl, seed)
    tracer = Tracer()
    wl.tracer = tracer
    wl.warm_up()
    failures = Failures()
    base = Run()
    if trace:
        measure(wl, base, seconds / 2, failures)
        tracer.install()
        try:
            traced = measure(wl, Run(), seconds / 2, failures, tracer)
        finally:
            tracer.restore()
        attempted = base.attempted + traced.attempted
    else:
        setup = []
        for k in range(1, SETUP_ROUNDS + 1):
            measure(wl, base, seconds * k / SETUP_ROUNDS, failures)
            setup.append(timed_set_up(wl, seed))
        rss = peak_rss_mb()
        attempted = base.attempted
    for label, problem in wl.finish():
        failures.add(failures.wrong, label, problem)
    failed = min(attempted, failures.count())

    lines = [
        f"workload {wl.name}  seed {seed}  {'traced' if trace else 'untraced'}  "
        f"closed loop, one caller",
        f"  sizes {json.dumps(wl.sizes())}",
        f"  {attempted} ops, {failed} failed (failed_share {failed / attempted:.4f}), "
        f"{wl.divergences} formula/oracle divergences",
    ]
    for title, table in (("wrong output", failures.wrong),
                         ("malformed input raised out of the program", failures.raised)):
        for label, (count, problem) in sorted(table.items(), key=lambda kv: -kv[1][0]):
            lines.append(f"  {title}: {count} x {label}  ->  {problem}")
    if trace:
        metrics = per_layer(tracer, base, traced, wl.divergences)
        dump = WORK_DIR / f"spans-{wl.name}.tsv"
        tracer.dump(dump)
        lines.append(f"  {len(tracer.spans)} spans written to {dump.relative_to(ROOT)}")
        split = {k: metrics[f"split.{k}_pct"][0] for k in ROADMAP_SPLIT}
        lines.append(
            "  traced split of op time: "
            + ", ".join(f"{k} {v:.1f}% (ROADMAP cProfile {ROADMAP_SPLIT[k]}%)" for k, v in split.items())
        )
    else:
        metrics = end_to_end(setup, base, rss, failed)
        aliases = WORKLOAD_NAMES[wl.name]
        shown = dict(
            metrics,
            op_ms_p50=(statistics.median(base.latencies) * 1e3, "ms"),
            work_per_s=(base.work / base.busy, "1/s"),
        )
        for name, (value, unit) in shown.items():
            alias = f"  (= {aliases[name]})" if name in aliases else ""
            gate = "" if name in metrics else "  (not gated)"
            lines.append(f"  {name:<14} {value:.6g} {unit}{alias}{gate}")
        lines.append(f"  work unit: {wl.work_unit}; {base.attempted} latency samples")
    result = {
        "correct": not failures.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_and_print(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))


def run_and_print(wl, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its report and result; the exit code."""
    result, lines = run_workload(wl, seed, seconds, trace)
    print("\n".join(lines))
    print(json.dumps(result))
    if wl.divergences:
        print(f"perfbench: the formulas and the oracle disagree on {wl.divergences} "
              f"curve(s); the inputs are listed under 'wrong output'", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
