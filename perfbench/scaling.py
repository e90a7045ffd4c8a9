"""Scaling report for crosscap's two computation paths.  It does not gate.

    python3 perfbench/scaling.py [--seed 1] [--out perfbench/results/scaling.json]

Along two ladders, one seeded realizable vector per rung:

* coordinate magnitude ``s`` in {1, 10, 10^2, 10^3, 10^4} at ``n = 3``;
* puncture count ``n`` in {2, 4, 8, 16, 32, 64} at magnitude 10;

it times the formula path (``elementary_values`` over the whole catalog)
and the oracle path (``invert`` -> ``profile`` -> ``build_diagram``, then
``count_crossings`` on every catalog curve), and checks that the two agree.
A rung is repeated until it has spent ``BUDGET_S`` seconds (at most
``MAX_REPEATS`` times) and reports the median.  A rung whose first run takes
longer than ``BUDGET_S`` is run once and marked ``single``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from report import machine_info  # noqa: E402
from run import ROOT, load_crosscap  # noqa: E402
from workloads import random_vector  # noqa: E402

MAGNITUDES = (1, 10, 100, 1000, 10_000)
PUNCTURES = (2, 4, 8, 16, 32, 64)
BUDGET_S = 1.0
MAX_REPEATS = 50


def timed(fn) -> tuple[float, int, bool]:
    """Median seconds per call, the number of calls, and whether it ran once."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    if first > BUDGET_S:
        return first, 1, True
    samples = [first]
    while sum(samples) < BUDGET_S and len(samples) < MAX_REPEATS:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(samples), False


def rung(cc, rng: random.Random, n: int, magnitude: int) -> dict:
    a, b, t, c1, c2 = random_vector(rng, n, magnitude, magnitude)
    coords = cc.coords.DynnikovCoordinates(n=n, a=a, b=b, t=t, c1=c1, c2=c2)
    values = cc.intersect.elementary_values(coords)

    def formula():
        cc.intersect.elementary_values(coords)

    traced = []

    def oracle():
        prof = cc.components.profile(cc.inversion.invert(coords))
        diagram = cc.oracle.build_diagram(prof)
        traced[:] = [cc.oracle.count_crossings(diagram, curve) for curve, _ in values]

    f_s, f_calls, _ = timed(formula)
    o_s, o_calls, single = timed(oracle)
    return {
        "n": n,
        "magnitude": magnitude,
        "coords": cc.coords.format_coords(coords),
        "sum_beta": sum(cc.inversion.invert(coords).beta),
        "curves": len(values),
        "formula_ms": f_s * 1e3,
        "formula_calls": f_calls,
        "oracle_ms": o_s * 1e3,
        "oracle_calls": o_calls,
        "oracle_single": single,
        "divergences": sum(v != t for (_, v), t in zip(values, traced)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crosscap scaling report (not gated)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="also write the report as JSON to this file")
    args = parser.parse_args(argv)
    cc = load_crosscap()
    rng = random.Random(args.seed)
    ladders = {
        "magnitude": [rung(cc, rng, 3, s) for s in MAGNITUDES],
        "punctures": [rung(cc, rng, n, 10) for n in PUNCTURES],
    }
    print(f"machine: {json.dumps(machine_info())}")
    print(f"{'ladder':<10} {'n':>3} {'s':>6} {'sum_beta':>9} {'curves':>6} "
          f"{'formula_ms':>11} {'oracle_ms':>11}  divergences")
    for ladder, rows in ladders.items():
        for r in rows:
            mark = " (single run)" if r["oracle_single"] else ""
            print(f"{ladder:<10} {r['n']:>3} {r['magnitude']:>6} {r['sum_beta']:>9} "
                  f"{r['curves']:>6} {r['formula_ms']:>11.3f} {r['oracle_ms']:>11.3f}  "
                  f"{r['divergences']}{mark}")
    if args.out:
        report = {"machine": machine_info(), "seed": args.seed, "ladders": ladders}
        out = Path(args.out)
        out = out if out.is_absolute() else ROOT / out
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if any(r["divergences"] for rows in ladders.values() for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
