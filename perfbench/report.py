"""Run every workload over several seeds and print all metrics by name.

    python3 perfbench/report.py                    # one run per workload
    python3 perfbench/report.py --runs 10 --sets 2 --trace --out perfbench/results/baseline.json

Each run is a separate ``run.py`` process, exactly as a single benchmark run.
For each workload the report gives every end-to-end metric (also under the
name the workload's design uses, such as ``catalog_ms_p50``), the failed
share and the failures by input.  With several runs it adds the median, the
quartiles and their distance as a share of the median (the spread), next to
the metric's bound from ``BENCHMARK.json``.  With ``--sets 2`` the seeds are
run twice and the two medians compared against the bound.  ``--trace`` adds
one traced run per workload with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES, ROADMAP_SPLIT  # noqa: E402


def machine_info() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "system": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark process; its result object plus its report lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["lines"] = lines
    return result


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def summarize(spec: dict, runs: list[dict]) -> dict:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    metrics = {}
    for name, m in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": m["unit"], "bound": m["bound"], "values": values, **spread(values)}
    failed = [r["failed"] / r["attempted"] for r in runs]
    return {
        "metrics": metrics,
        "failed_share": {"values": failed, **spread(failed)},
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": [r["correct"] for r in runs],
        "failures_first_run": [ln.strip() for ln in runs[0]["lines"]
                               if ln.startswith(("  wrong output", "  malformed input raised"))],
    }


def print_summary(workload: str, summary: dict, header: str):
    aliases = WORKLOAD_NAMES[workload]
    print(f"\n== {workload} {header}")
    print(f"   attempted {summary['attempted']}  failed {summary['failed']}")
    for name, m in summary["metrics"].items():
        alias = f" = {aliases[name]}" if name in aliases else ""
        text = f"   {name + alias:<40} {m['median']:>12.6g} {m['unit']:<6}"
        if m.get("spread") is not None:
            third = "ok" if m["spread"] < m["bound"] / 3 else ("within bound" if m["spread"] <= m["bound"] else "OVER BOUND")
            text += f" q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.4f} (bound {m['bound']}: {third})"
        print(text)
    fs = summary["failed_share"]
    print(f"   {'failed_share':<40} {fs['median']:>12.6g} share")
    for line in summary["failures_first_run"][:12]:
        print(f"   {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run all crosscap benchmark workloads")
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload and set")
    parser.add_argument("--sets", type=int, default=1, help="repeat the seeds this many times")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the report as JSON to this file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seconds = spec["run_seconds"]
    seeds = list(range(args.seed, args.seed + args.runs))

    sets: list[dict[str, list]] = []
    for k in range(args.sets):
        runs = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                runs[name].append(run_once(name, seed, seconds, False))
                print(f"set {k + 1} seed {seed} {name}: done", file=sys.stderr, flush=True)
        sets.append(runs)

    report = {"machine": machine_info(), "run_seconds": seconds, "seeds": seeds,
              "roadmap_cprofile_split_pct": ROADMAP_SPLIT, "workloads": {}}
    print(f"machine: {json.dumps(report['machine'])}")
    for name in names:
        first = sets[0][name][0]
        sizes = next((ln.split("sizes", 1)[1].strip() for ln in first["lines"] if ln.startswith("  sizes")), "{}")
        entry = {
            "why": why.get(name),  # None for a workload that is not gated
            "loop": "closed, one caller",
            "sizes": json.loads(sizes),
            "sets": [summarize(spec, runs[name]) for runs in sets],
        }
        for k, summary in enumerate(entry["sets"]):
            print_summary(name, summary, f"set {k + 1}: seeds {seeds[0]}..{seeds[-1]}, {seconds} s runs")
        if len(sets) > 1:
            entry["set_agreement"] = {}
            for m in spec["end_to_end"]:
                metric = m["name"]
                a = entry["sets"][0]["metrics"][metric]["median"]
                b = entry["sets"][-1]["metrics"][metric]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                entry["set_agreement"][metric] = {"first": a, "last": b, "worse_by": worse,
                                                  "within_bound": worse <= m["bound"]}
                print(f"   {metric:<40} set medians {a:.6g} -> {b:.6g}: worse by {worse:+.4f} "
                      f"(bound {m['bound']})")
        if args.trace:
            traced = run_once(name, seeds[0], seconds, True)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_units"] = {k: v["unit"] for k, v in traced["metrics"].items()}
            print(f"\n-- {name} traced run, seed {seeds[0]}")
            for k, v in traced["metrics"].items():
                print(f"   {k:<40} {v['value']:>14.6g} {v['unit']}")
            split = [ln.strip() for ln in traced["lines"] if "traced split" in ln]
            print("   " + (split[0] if split else ""))
        report["workloads"][name] = entry
    if args.out:
        out = Path(args.out)
        out = out if out.is_absolute() else ROOT / out
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
