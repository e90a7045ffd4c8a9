"""The workloads: the gated ones and the two run only on request.

Each is a closed loop with one caller: the next operation starts only when
the previous one has returned.  Inputs come from ``random.Random(seed)``
and are made by the benchmark itself; the program only sees the generated
inputs.  Checks run outside the timed region, with tracing paused.

A workload calls crosscap through module attributes (``cc.intersect.
elementary_values``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import heapq
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def random_vector(rng: random.Random, n: int, magnitude: int, cmax: int):
    """A realizable nonzero ``(a, b, t, c1, c2)`` with ``|x| <= magnitude``.

    ``t`` is nudged by one where needed so that it agrees mod 2 with the
    straight-core count ``max(c1 - |b_n|, 0)``, the one condition a nonzero
    vector with ``c >= 0`` must meet to encode a multicurve.
    """
    while True:
        a = tuple(rng.randint(-magnitude, magnitude) for _ in range(n - 1))
        b = tuple(rng.randint(-magnitude, magnitude) for _ in range(n))
        t = rng.randint(-magnitude, magnitude)
        c1, c2 = rng.randint(0, cmax), rng.randint(0, cmax)
        if (t + max(c1 - abs(b[-1]), 0)) % 2:
            t += -1 if t > 0 else 1
        if any(a) or any(b) or t or c1 or c2:
            return a, b, t, c1, c2


def vector_text(a, b, t, c1, c2) -> str:
    return f"({','.join(map(str, a))}; {','.join(map(str, b))}; {t}; {c1},{c2})"


class Workload:
    """One seeded input stream, one operation, one output check."""

    name = ""
    work_unit = "ops"
    batch = 1  # the loop stops only at a multiple of this many ops
    tracer = None  # set by the harness

    def prepare(self, cc, seed: int, work_dir: Path):
        self.cc = cc
        self.seed = seed
        self.rng = random.Random(seed)
        self.divergences = 0

    def sizes(self) -> dict:
        raise NotImplementedError

    def next_input(self):
        raise NotImplementedError

    def label(self, inp) -> str:
        return repr(inp)

    def malformed(self, inp) -> bool:
        """Whether the program should reject ``inp`` with an error."""
        return False

    def op(self, inp):
        raise NotImplementedError

    def work(self, inp, out) -> int:
        return 1

    def check(self, inp, out) -> str | None:
        """``None`` when the output is right, else what is wrong with it."""
        return None

    def finish(self) -> list[tuple[str, str]]:
        """Checks made once after the run: ``(input label, problem)`` pairs."""
        return []

    def warm_up(self):
        for _ in range(2):
            self.op(self.next_input())

    def probe(self, inp, out, tracer):
        """Extra traced calls made after an op in the traced run."""


class CatalogN64(Workload):
    name = "catalog-n64"
    work_unit = "curves"

    # After the run, the oracle traces a seeded sample of curves of each
    # kind on each of the ``oracle_ops`` passing ops with the fewest strand
    # slots (its cost grows with sum(beta): about two seconds per op here).
    oracle_ops = 3
    oracle_sample = {"Cij": 4, "Cprime1": 2, "Cprime2": 2, "D": 1}

    def __init__(self, n: int = 64, magnitude: int = 1000, cmax: int = 1):
        self.n = n
        self.magnitude = magnitude
        # c1, c2 <= 1: no component passes a crosscap twice, the domain of
        # the two-case D rule.  Past it D can go negative (see
        # CatalogN64Wide); the check below would then fail every such op.
        self.cmax = cmax

    def sizes(self):
        return {"n": self.n, "magnitude": self.magnitude, "cmax": self.cmax,
                "curves_per_op": len(self.curves)}

    def prepare(self, cc, seed, work_dir):
        super().prepare(cc, seed, work_dir)
        self.curves = cc.intersect.catalog(self.n)
        self.kept: list = []  # heap of (-sum(beta), op number, input, values)
        self.ops_passed = 0

    def next_input(self):
        vec = random_vector(self.rng, self.n, self.magnitude, self.cmax)
        return vec, vector_text(*vec)

    def label(self, inp):
        text = inp[1]
        return text if len(text) <= 80 else text[:77] + "..."

    def op(self, inp):
        coords = self.cc.coords.parse_coords(inp[1])
        return coords, self.cc.intersect.elementary_values(coords)

    def work(self, inp, out):
        return len(out[1])

    def check(self, inp, out):
        coords, values = out
        a, b, t, c1, c2 = inp[0]
        if (coords.a, coords.b, coords.t, coords.c1, coords.c2) != (a, b, t, c1, c2):
            return "parse_coords returned other entries"
        if [c for c, _ in values] != list(self.curves):
            return "elementary_values did not cover the catalog in order"
        inv = self.cc.inversion
        tri = inv.invert(coords)
        if inv.coordinatize(tri) != coords:
            return "coordinatize(invert(v)) != v"
        for curve, value in values:
            # Every curve but D bounds a disk: each component crosses it 0 or 2 times.
            if value < 0 or (curve.kind != "D" and value % 2):
                return f"{curve.spec()} = {value} is negative or odd"
        self.ops_passed += 1
        heapq.heappush(self.kept, (-sum(tri.beta), self.ops_passed, inp, values))
        if len(self.kept) > self.oracle_ops:
            heapq.heappop(self.kept)
        return None

    def finish(self):
        """Trace a seeded sample of curves on the kept ops; one entry per
        op whose formula values differ from the oracle's."""
        cc = self.cc
        pick = random.Random(f"sample-{self.seed}")
        failed = []
        for _, _, inp, values in sorted(self.kept, reverse=True):
            coords = cc.coords.parse_coords(inp[1])
            diagram = cc.oracle.build_diagram(cc.components.profile(cc.inversion.invert(coords)))
            sample = []
            for kind, k in self.oracle_sample.items():
                of_kind = [cv for cv in values if cv[0].kind == kind]
                sample += pick.sample(of_kind, min(k, len(of_kind)))
            bad = [
                f"{curve.spec()}: formula {value}, traced {traced}"
                for curve, value in sample
                if (traced := cc.oracle.count_crossings(diagram, curve)) != value
            ]
            self.divergences += len(bad)
            if bad:
                failed.append((self.label(inp), "; ".join(bad)))
        return failed

    def probe(self, inp, out, tracer):
        probe_ranges(self.cc, tracer, out[0])


class CatalogN64Wide(CatalogN64):
    """``catalog-n64`` with ``c`` up to the magnitude, as the library accepts
    it.  Not gated: ``elementary_values`` gives ``D`` a negative value on
    about one op in three here, so its runs report ``correct: false``."""

    name = "catalog-n64-wide"

    def __init__(self, n: int = 64, magnitude: int = 1000):
        super().__init__(n, magnitude, cmax=magnitude)


def probe_ranges(cc, tracer, coords):
    """Time ``large.counts_for_range`` over every region range the catalog's
    formulas read, on the profile of ``coords``."""
    tracer.active = False
    prof = cc.components.profile(cc.inversion.invert(coords))
    rr, n = cc.large.RegionRange, coords.n
    ranges = {}
    for c in cc.intersect.catalog(n):
        if c.kind == "Cij":
            ranges[rr.punctures(c.i - 1, c.j - 1)] = None
        elif c.kind == "Cprime1":
            ranges[rr.through_first(c.i - 1)] = None
        elif c.kind == "Cprime2":
            ranges[rr.through_second(c.i - 1)] = None
        else:
            ranges[rr.through_second(n)] = None
    tracer.active = True
    for rng in ranges:
        cc.large.counts_for_range(prof, rng)


class SelftestBox(Workload):
    name = "selftest-box"
    work_unit = "checked points"

    def __init__(self, n: int = 2, bound: int = 3, cmax: int = 3):
        self.n, self.bound, self.cmax = n, bound, cmax
        self.expected_checked = None

    def sizes(self):
        return {
            "n": self.n,
            "magnitude": self.bound,
            "cmax": self.cmax,
            "grid_points": (2 * self.bound + 1) ** (2 * self.n) * (self.cmax + 1) ** 2,
        }

    def next_input(self):
        return None

    def label(self, inp):
        return f"run_selftest(n={self.n}, bound={self.bound}, cmax={self.cmax}, jobs=1)"

    def op(self, inp):
        return self.cc.oracle.run_selftest(
            n=self.n, bound=self.bound, cmax=self.cmax, jobs=1
        )

    def work(self, inp, out):
        return out.points_checked

    def warm_up(self):
        self.cc.oracle.run_selftest(n=self.n, bound=1, cmax=1, jobs=1)

    def _count_checkable(self) -> int:
        """Nonzero realizable points of the box, counted independently."""
        box = range(-self.bound, self.bound + 1)
        cs = range(self.cmax + 1)
        count = 0
        for a in itertools.product(box, repeat=self.n - 1):
            for b in itertools.product(box, repeat=self.n):
                for t, c1, c2 in itertools.product(box, cs, cs):
                    if not (any(a) or any(b) or t or c1 or c2):
                        continue
                    if (t + max(c1 - abs(b[-1]), 0)) % 2 == 0:
                        count += 1
        return count

    def check(self, inp, out):
        self.divergences += len(out.divergences)
        if not out.ok:
            first = out.divergences[0]
            return (
                f"{len(out.divergences)} divergences, first at {first.coords} on "
                f"{first.curve}: formula {first.formula}, traced {first.traced}"
            )
        if self.expected_checked is None:
            self.expected_checked = self._count_checkable()
        size = self.sizes()["grid_points"]
        if out.points_total != size or out.points_checked != self.expected_checked:
            return (
                f"swept {out.points_checked} of {out.points_total} points, "
                f"expected {self.expected_checked} of {size}"
            )
        return None


class OracleMagnitude(Workload):
    name = "oracle-magnitude"
    work_unit = "curves checked"

    def __init__(self, magnitude: int = 1000):
        self.n = 3
        self.magnitude = magnitude
        # Op cost grows with sum(beta); holding it within 10% of
        # 10 x magnitude keeps per-op cost comparable across seeds.
        self.slots = (9 * magnitude, 11 * magnitude)

    def sizes(self):
        return {"n": self.n, "magnitude": self.magnitude, "sum_beta": list(self.slots)}

    def next_input(self):
        lo, hi = self.slots
        cc = self.cc
        while True:
            vec = random_vector(self.rng, self.n, self.magnitude, self.magnitude)
            a, b, t, c1, c2 = vec
            coords = cc.coords.DynnikovCoordinates(n=self.n, a=a, b=b, t=t, c1=c1, c2=c2)
            if lo <= sum(cc.inversion.invert(coords).beta) <= hi:
                return coords

    def label(self, inp):
        return self.cc.coords.format_coords(inp)

    def op(self, coords):
        cc = self.cc
        tri = cc.inversion.invert(coords)
        diagram = cc.oracle.build_diagram(cc.components.profile(tri))
        values = cc.intersect.elementary_values(coords)
        traced = [cc.oracle.count_crossings(diagram, curve) for curve, _ in values]
        return values, traced

    def work(self, inp, out):
        return len(out[1])

    def check(self, inp, out):
        values, traced = out
        bad = [
            f"{curve.spec()}: formula {value}, traced {tv}"
            for (curve, value), tv in zip(values, traced)
            if value != tv
        ]
        self.divergences += len(bad)
        if len(values) != len(self.cc.intersect.catalog(self.n)):
            bad.append(f"{len(values)} curves evaluated")
        return "; ".join(bad) or None

    def probe(self, inp, out, tracer):
        probe_ranges(self.cc, tracer, inp)


# Valid kinds appear VALID_REPEATS times per deck, each malformed kind once,
# so one op in five is malformed and the failing share does not depend on
# where a run stops.
VALID_KINDS = ("invert", "coordinatize", "profile", "intersect", "render", "file")
MALFORMED_KINDS = (
    "syntax", "wrong-n", "unrealizable", "zero", "bad-json", "missing-key", "bad-curve",
)
VALID_REPEATS = 5
SUBCOMMANDS = ("invert", "coordinatize", "profile", "intersect", "render")


class CliMixed(Workload):
    name = "cli-mixed"
    work_unit = "calls"
    batch = len(VALID_KINDS) * VALID_REPEATS + len(MALFORMED_KINDS)

    magnitude = 4

    def __init__(self, pool: int = 24):
        self.pool_size = pool

    def sizes(self):
        return {
            "n": [2, 4],
            "magnitude": self.magnitude,
            "vectors": self.pool_size,
            "ops_per_deck": self.batch,
            "malformed_per_deck": len(MALFORMED_KINDS),
        }

    def prepare(self, cc, seed, work_dir):
        super().prepare(cc, seed, work_dir)
        rng = self.rng
        self.root = work_dir.parent
        cli_dir = work_dir / "cli"
        cli_dir.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for k in range(self.pool_size):
            n = 2 + k % 3  # equal shares of n = 2, 3, 4 whatever the seed
            a, b, t, c1, c2 = random_vector(rng, n, self.magnitude, self.magnitude)
            coords = cc.coords.DynnikovCoordinates(n=n, a=a, b=b, t=t, c1=c1, c2=c2)
            tri = cc.inversion.invert(coords)
            path = cli_dir / f"v{k}.json"
            path.write_text(json.dumps(coords.to_dict()))
            self.pool.append((coords, vector_text(a, b, t, c1, c2), cc.coords.format_triangle(tri), str(path)))
        self.bad_json = cli_dir / "bad.json"
        self.bad_json.write_text('{"n": 2, "a": [1], "b": [1, 0],')
        self.missing_key = cli_dir / "missing-key.json"
        self.missing_key.write_text(json.dumps({"n": 2, "a": [1], "t": 0, "c": [0, 0]}))
        self.render_pool = self.pool[:3]
        self.deck: list = []
        self.expected: dict = {}
        self.svgs: dict = {}

    def _argv(self, kind):
        rng = self.rng
        coords, text, tri_text, path = rng.choice(self.pool)
        n = coords.n
        if kind == "invert":
            return ["invert", text, "--json"], coords
        if kind == "coordinatize":
            return ["coordinatize", tri_text], coords
        if kind == "profile":
            lo = rng.randint(1, n - 1)
            return ["profile", text, "--large", str(lo), str(rng.randint(lo, n - 1)), "--json"], coords
        if kind == "intersect":
            return ["intersect", text, "--all", "--json"], coords
        if kind == "render":
            coords, text, _, _ = rng.choice(self.render_pool)
            return ["render", text], coords
        if kind == "file":
            return ["invert", "--file", path, "--json"], coords
        if kind == "syntax":
            return ["invert", text[:-1]], None
        if kind == "wrong-n":
            return ["invert", text, "--n", str(n + 1)], None
        if kind == "unrealizable":
            a, b, t, c1, c2 = coords.a, coords.b, coords.t, coords.c1, coords.c2
            return ["invert", vector_text(a, b, t + 1, c1, c2)], None
        if kind == "zero":
            return ["invert", vector_text((0,) * (n - 1), (0,) * n, 0, 0, 0)], None
        if kind == "bad-json":
            return ["invert", "--file", str(self.bad_json), "--json"], None
        if kind == "missing-key":
            return ["invert", "--file", str(self.missing_key), "--json"], None
        return ["intersect", text, "--curve", "Cij:x,2"], None  # bad-curve

    def next_input(self):
        if not self.deck:
            kinds = list(VALID_KINDS) * VALID_REPEATS + list(MALFORMED_KINDS)
            self.rng.shuffle(kinds)
            self.deck = [(kind, *self._argv(kind)) for kind in kinds]
            self.deck.reverse()
        return self.deck.pop()

    def warm_up(self):
        for _ in range(self.batch):
            try:
                self.op(self.next_input())
            except Exception:  # escapes are counted in the measured ops
                pass
        self.deck = []

    def malformed(self, inp):
        return inp[2] is None

    def label(self, inp):
        argv = inp[1]
        return "crosscap " + " ".join(
            Path(a).relative_to(self.root).as_posix() if a.startswith(str(self.root)) else
            (f'"{a}"' if " " in a else a)
            for a in argv
        )

    def op(self, inp):
        argv = inp[1]
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is not None and tracer.active:
                with tracer.span(f"cli.main.{argv[0]}"):
                    code = self._call(argv)
                tracer.count("cli.uncaught", isinstance(code, Exception))
                tracer.count("cli.exit_nonzero", code != 0)
            else:
                code = self._call(argv)
        if isinstance(code, Exception):
            raise code
        return code, out.getvalue(), err.getvalue()

    def _call(self, argv):
        try:
            return self.cc.cli.main(argv)
        except Exception as exc:  # an escape from main is a failed op, reported by input
            return exc

    def check(self, inp, out):
        kind, argv, coords = inp
        code, stdout, stderr = out
        if coords is None:
            if code != 1 or not any(
                line.startswith("crosscap: error:") for line in stderr.splitlines()
            ):
                return f"expected exit 1 with 'crosscap: error:', got exit {code}"
            return None
        if code != 0 or stderr:
            return f"exit {code}, stderr {stderr.strip()[:120]!r}"
        if kind == "render":
            first = self.svgs.setdefault(argv[1], stdout)
            if "<svg" not in stdout[:200] or not stdout.rstrip().endswith("</svg>"):
                return "render did not print an SVG document"
            return None if stdout == first else "SVG differs from an earlier render of the same input"
        key = tuple(argv)
        if key not in self.expected:
            self.expected[key] = self._expected(kind, argv, coords)
        got = stdout.strip() if kind == "coordinatize" else json.loads(stdout)
        return None if got == self.expected[key] else f"{kind} output differs from the library's"

    def _expected(self, kind, argv, coords):
        cc = self.cc
        if kind == "coordinatize":
            return cc.coords.format_coords(coords)
        if kind in ("invert", "file"):
            return cc.inversion.invert(coords).to_dict()
        if kind == "intersect":
            return [
                {"curve": c.spec(), "value": v}
                for c, v in cc.intersect.elementary_values(coords)
            ]
        prof = cc.components.profile(cc.inversion.invert(coords))
        data = prof.to_dict()
        lo, hi = int(argv[3]), int(argv[4])
        rr = cc.large.RegionRange
        ranges = {
            f"S_({lo},{hi})": rr.punctures(lo, hi),
            f"S'_({lo},1)": rr.through_first(lo),
            f"S'_({lo},2)": rr.through_second(lo),
        }
        data["large"] = {}
        for name, rng in ranges.items():
            counts = cc.large.counts_for_range(prof, rng)
            data["large"][name] = {
                "over": counts.over,
                "under": counts.under,
                "right_loops": counts.right_loops,
                "left_loops": counts.left_loops,
            }
        return data


WORKLOADS = {w.name: w for w in (CatalogN64, CatalogN64Wide, SelftestBox, OracleMagnitude, CliMixed)}
