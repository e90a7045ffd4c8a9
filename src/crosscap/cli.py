"""Command-line front end.

Subcommands wrap the library one-to-one: ``invert``, ``coordinatize``,
``profile``, ``intersect``, ``render`` and ``selftest``.  Coordinates come
from a positional argument in the canonical text format or from a JSON
file (``--file``).  Output is a human-readable table by default, JSON with
``--json``.

Exit codes: 0 success, 1 parse or validation failure, 2 internal
inconsistency (a selftest divergence).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .components import profile, reconstruct
from .coords import (
    DynnikovCoordinates,
    TriangleCoordinates,
    _too_long,
    format_coords,
    format_triangle,
    parse_coords,
    parse_triangle,
)
from .errors import (
    CoordinateSyntaxError,
    CrosscapError,
    DimensionMismatchError,
    InvalidParameterError,
    InvalidRangeError,
)
from .intersect import elementary_values, parse_curve
from .inversion import coordinatize, invert
from .large import RegionRange, counts_for_range
from .oracle import run_selftest
from .render import RenderSpec, render_svg

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse, but flag errors exit 1 (2 is reserved for divergences)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_coords_input(sub: argparse.ArgumentParser, triangle: bool = False):
    what = "triangle" if triangle else "multicurve"
    sub.add_argument(
        "coords",
        nargs="?",
        help=f"{what} coordinates, e.g. "
        + ('"(1,5; 6,4,4; 4; 2,0)"' if triangle else '"(2; 1,0; -2; 2,0)"'),
    )
    sub.add_argument("--file", help="read the coordinates from a JSON file")
    sub.add_argument("--n", type=int, help="puncture count (cross-checked)")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _read_input(args, cls, parse):
    """The coordinates of ``cls`` from ``--file`` JSON or the positional text."""
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CoordinateSyntaxError(
                    f"{args.file} is not valid JSON: {exc.msg}", exc.pos
                ) from None
            except UnicodeDecodeError as exc:
                raise CoordinateSyntaxError(
                    f"{args.file} is not UTF-8 text: {exc.reason}", exc.start
                ) from None
            except ValueError:  # json reads integers with int(): too many digits
                raise CrosscapError(f"{args.file}: {_too_long('an integer')}") from None
        value = cls.from_dict(data)
    elif args.coords is not None:
        value = parse(args.coords)
    else:
        raise CrosscapError("no coordinates given (positional argument or --file)")
    if args.n is not None and value.n != args.n:
        raise DimensionMismatchError(f"coordinates have n={value.n}, not n={args.n}")
    return value


def _read_vector(args) -> DynnikovCoordinates:
    return _read_input(args, DynnikovCoordinates, parse_coords)


def _read_triangle(args) -> TriangleCoordinates:
    return _read_input(args, TriangleCoordinates, parse_triangle)


def _emit(data, human, as_json: bool):
    """Print ``data`` as JSON, or the text that ``human()`` builds."""
    try:
        text = json.dumps(data, indent=2) if as_json else human()
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise CrosscapError(_too_long("an output integer")) from None
    print(text)


def _cmd_invert(args) -> int:
    tri = invert(_read_vector(args))

    def human():
        return "\n".join(
            [
                f"alpha  {' '.join(map(str, tri.alpha))}",
                f"beta   {' '.join(map(str, tri.beta))}",
                f"gamma  {tri.gamma}",
                f"c      {tri.c1} {tri.c2}",
            ]
        )

    _emit(tri.to_dict(), human, args.json)
    return 0


def _cmd_coordinatize(args) -> int:
    coords = coordinatize(_read_triangle(args))
    _emit(coords.to_dict(), lambda: format_coords(coords), args.json)
    return 0


def _cmd_profile(args) -> int:
    prof = profile(invert(_read_vector(args)))
    data = prof.to_dict()
    large = []  # (name, counts) per requested range
    if args.large:
        l, m = args.large
        if m > prof.n - 1 or l > prof.n:
            raise InvalidRangeError(
                f"--large {l} {m} names no range: need M <= {prof.n - 1} "
                f"and L <= {prof.n}"
            )
        # L > M asks for the two S'_(L,k) ranges alone (the only way to reach L = n)
        ranges = [
            (f"S'_({l},1)", RegionRange.through_first(l)),
            (f"S'_({l},2)", RegionRange.through_second(l)),
        ]
        if l <= m:
            ranges.insert(0, (f"S_({l},{m})", RegionRange.punctures(l, m)))
        large = [(name, counts_for_range(prof, rng)) for name, rng in ranges]
        data["large"] = {name: vars(counts) for name, counts in large}

    def human():
        lines = [f"S0     loops={prof.s0_loops}"]
        for k in range(prof.n - 1):
            lines.append(
                f"S{k + 1}     above={prof.above[k]} below={prof.below[k]} "
                f"loops={prof.loops[k]} side={prof.sides[k]}"
            )
        lines.append(
            f"cross1 above={prof.cross1_above} below={prof.cross1_below} "
            f"straight={prof.straight_cores} core_loops={prof.cross1_core_loops} "
            f"noncore_loops={prof.cross1_noncore_loops} side={prof.cross1_side}"
        )
        lines.append(
            f"cross2 core_loops={prof.cross2_core_loops} "
            f"noncore_loops={prof.cross2_noncore_loops}"
        )
        if prof.nonprimitive.any():
            np_ = prof.nonprimitive
            lines.append(
                f"nonprimitive core1={np_.core1} bounding1={np_.bounding1} "
                f"core2={np_.core2} bounding2={np_.bounding2}"
            )
        lines += [
            f"large {name}: over={counts.over} under={counts.under} "
            f"right={counts.right_loops} left={counts.left_loops}"
            for name, counts in large
        ]
        return "\n".join(lines)

    _emit(data, human, args.json)
    return 0


def _cmd_intersect(args) -> int:
    coords = _read_vector(args)
    if args.curve and args.all:
        raise CrosscapError("use --curve or --all, not both")
    if args.curve:
        curves = tuple(parse_curve(c) for c in args.curve)
    elif args.all:
        curves = None  # the whole catalog
    else:
        raise CrosscapError("pick curves with --curve or use --all")
    values = elementary_values(coords, curves)
    data = [{"curve": c.spec(), "value": v} for c, v in values]
    _emit(
        data if len(data) > 1 else data[0],
        lambda: "\n".join(f"{c.label():12s} {v}" for c, v in values),
        args.json,
    )
    return 0


def _cmd_render(args) -> int:
    gl = reconstruct(profile(invert(_read_vector(args))))
    svg = render_svg(gl, RenderSpec(width=args.width, height=args.height, spacing=args.spacing))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(svg)
    return 0


def _cmd_selftest(args) -> int:
    if args.jobs < 0:
        raise InvalidParameterError(f"--jobs must be >= 0, got {args.jobs}")
    cpus = os.cpu_count() or 1
    jobs = min(args.jobs, cpus) if args.jobs else min(cpus, 8)
    report = run_selftest(n=args.n, bound=args.bound, cmax=args.cmax, jobs=jobs)
    summary = {
        "n": report.n,
        "bound": report.bound,
        "cmax": report.cmax,
        "points_total": report.points_total,
        "points_checked": report.points_checked,
        "divergences": len(report.divergences),
        "elapsed_seconds": round(report.elapsed, 3),
    }
    if args.json:
        summary["first_divergences"] = [
            {**vars(d), "reproduce": d.reproduce} for d in report.divergences
        ]
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"checked {report.points_checked} of {report.points_total} grid points "
            f"(n={report.n}, bound={report.bound}, c in [0,{report.cmax}]) "
            f"in {report.elapsed:.1f}s"
        )
        for d in report.divergences:
            print(
                f"DIVERGENCE at {d.coords} on {d.curve}: "
                f"formula={d.formula} traced={d.traced}",
                file=sys.stderr,
            )
            print(f"  reproduce: {d.reproduce}", file=sys.stderr)
            print(f"  triangle: {d.triangle}", file=sys.stderr)
            print(f"  profile:  {d.profile}", file=sys.stderr)
    if report.divergences:
        return 2
    if not args.json:
        print("formulas and strand tracing agree")
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="crosscap",
        description="Multicurve coordinates and intersection numbers on a "
        "punctured non-orientable genus-2 surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("invert", help="vector -> crossing counts")
    _add_coords_input(p)
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser(
        "coordinatize", help="crossing counts -> vector"
    )
    _add_coords_input(p, triangle=True)
    p.set_defaults(fn=_cmd_coordinatize)

    p = sub.add_parser(
        "profile", help="per-region component counts"
    )
    _add_coords_input(p)
    p.add_argument(
        "--large",
        nargs=2,
        type=int,
        metavar=("L", "M"),
        help="also show large component counts for the range (L, M)",
    )
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "intersect", help="intersection numbers with elementary curves"
    )
    _add_coords_input(p)
    p.add_argument(
        "--curve",
        action="append",
        help="curve spec: Cij:I,J | Cprime1:I | Cprime2:I | C | D (repeatable)",
    )
    p.add_argument("--all", action="store_true", help="evaluate the whole catalog")
    p.set_defaults(fn=_cmd_intersect)

    p = sub.add_parser("render", help="draw the multicurve as SVG")
    _add_coords_input(p)
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.add_argument("--width", type=int, default=0)
    p.add_argument("--height", type=int, default=0)
    p.add_argument("--spacing", type=int, default=90)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser(
        "selftest", help="sweep a grid comparing formulas vs tracing"
    )
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--cmax", type=int, default=None)
    p.add_argument(
        "--jobs", type=int, default=0, help="worker processes (0 = auto, at most the CPUs)"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_selftest)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CrosscapError as exc:
        print(f"crosscap: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"crosscap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
