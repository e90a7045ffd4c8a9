"""Brute-force intersection counting by strand tracing.

This module re-derives intersection numbers without the min-formulas: it
assembles the multicurve from its component profile (via the unique
crossing-free gluing), walks every strand of the relevant region band, and
classifies each traced chain by the shape of its itinerary.  A chain
avoids a disk-bounding elementary curve exactly when it clears the band on
one side:

* it runs above (or below) the whole band, link after link;
* or it enters from the left arc, runs above, turns around at the far end
  of the band (around the last puncture, or around -- never through -- the
  far crosscap) and runs back below;
* or the mirror image anchored on the right arc, turning in the first
  region.

Every other chain crosses the curve exactly twice.  Crossings with the
curve threading both crosscaps follow from the traced crossing count with
the both-crosscaps disk and the core passages counted over the glued
links, by the same case split the closed formula uses.

Nothing here looks at the range min-formulas, so agreement between the two
paths genuinely cross-checks them; :func:`run_selftest` sweeps a grid of
coordinate vectors and compares every in-scope elementary curve.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Iterator

from .components import (
    ABOVE,
    BELOW,
    BOUNDING_CURVE,
    CORE_CURVE,
    CORE_LOOP,
    LOOP_LEFT,
    LOOP_RIGHT,
    NONCORE_LOOP,
    STRAIGHT_CORE,
    ComponentProfile,
    GluingDescription,
    Link,
    profile,
    reconstruct,
)
from .coords import DynnikovCoordinates, format_coords
from .errors import InvalidParameterError, NonprimitiveContentError, UnsupportedCurveError
from .intersect import ElementaryCurve, _checked, _curve_range, _formula_values
from .inversion import invert, realizable
from .large import RegionRange, _span

__all__ = [
    "build_diagram",
    "count_crossings",
    "large_census",
    "Divergence",
    "SelftestReport",
    "grid_size",
    "grid_points",
    "run_selftest",
]


def build_diagram(prof: ComponentProfile) -> GluingDescription:
    """Assemble the crossing-free diagram of the profile.

    This is :func:`crosscap.components.reconstruct`; the oracle traces the
    gluing as it is and censuses everything it needs from the assembled
    links, never from the profile's counts.
    """
    return reconstruct(prof)


def _trace_band(gl: GluingDescription, first: int, last: int):
    """Trace every chain of the band of regions ``first..last``.

    Yields ``(start_side, end_side, [link, ...])`` per chain; sides are
    ``"left"``/``"right"`` for the band's boundary arcs.
    """
    n = gl.n
    left_arc = first - 1 if first >= 1 else None
    right_arc = last if last <= n else None
    links, step = gl.links, gl._step

    # ((arc, slot), first link inside the band, side) per boundary slot
    starts: list[tuple[tuple[int, int], int, str]] = []
    if left_arc is not None:
        col = gl.right_links[left_arc]
        starts += [((left_arc, s), col[s], "left") for s in range(len(col))]
    if right_arc is not None:
        col = gl.left_links[right_arc]
        starts += [((right_arc, s), col[s], "right") for s in range(len(col))]

    used: set[tuple[int, int]] = set()
    for pos, lid, side0 in starts:
        if pos in used:
            continue
        used.add(pos)
        seq: list[Link] = []
        while True:
            seq.append(links[lid])
            lid, pos = step(lid, pos)
            # links inside the band reach its boundary arcs only from within
            if pos[0] == left_arc or pos[0] == right_arc:
                used.add(pos)
                yield side0, "left" if pos[0] == left_arc else "right", seq
                break


def _right_turn(region: int, n: int) -> str:
    return LOOP_RIGHT if region <= n - 1 else NONCORE_LOOP


def _left_turn(region: int, n: int) -> str:
    return LOOP_LEFT if region <= n - 1 else NONCORE_LOOP


def _classify(
    start_side: str,
    end_side: str,
    seq: list[Link],
    first: int,
    last: int,
    n: int,
) -> str | None:
    """Which large species the chain is, or ``None`` when it crosses."""
    if start_side != end_side:
        if all(lk.species == ABOVE for lk in seq):
            return "over"
        if all(lk.species == BELOW for lk in seq):
            return "under"
        return None
    span = last - first
    if len(seq) != 2 * span + 1:
        return None
    mid = seq[span]
    arms_ok = (
        all(lk.species == ABOVE for lk in seq[:span])
        and all(lk.species == BELOW for lk in seq[span + 1 :])
    ) or (
        all(lk.species == BELOW for lk in seq[:span])
        and all(lk.species == ABOVE for lk in seq[span + 1 :])
    )
    if not arms_ok:
        return None
    if start_side == "left":
        if mid.region == last and mid.species == _right_turn(last, n):
            return "right"
        return None
    if mid.region == first and mid.species == _left_turn(first, n):
        return "left"
    return None


def _census(gl: GluingDescription, first: int, last: int) -> Counter:
    """Traced chains of the band ``first..last`` per :func:`_classify` kind;
    ``None`` counts the chains that cross the band's curve."""
    return Counter(
        _classify(start_side, end_side, seq, first, last, gl.n)
        for start_side, end_side, seq in _trace_band(gl, first, last)
    )


def count_crossings(gl: GluingDescription, curve: ElementaryCurve) -> int:
    """Crossings of the diagram's multicurve with one elementary curve,
    counted by walking strands.  Matches
    :func:`crosscap.intersect.intersect_elementary` on every realizable
    input -- by construction of neither: the two share no formulas.
    """
    if curve.nonprimitive:
        raise UnsupportedCurveError(
            f"no crossing rule for non-primitive curve {curve.label()}"
        )
    n = gl.n
    curve.check(n)
    crossings = 2 * _census(gl, *_span(_curve_range(curve, n), n))[None]
    if curve.kind != "D":
        return crossings
    passes = [0, 0]  # core passages through crosscaps 1 and 2 (regions n, n+1)
    for lk in gl.links:
        if lk.species in (CORE_CURVE, BOUNDING_CURVE):
            raise NonprimitiveContentError("diagram carries whole non-primitive components")
        if lk.species in (STRAIGHT_CORE, CORE_LOOP):
            passes[lk.region - n] += 1
    if crossings == 0:
        return abs(passes[0] - passes[1])
    return crossings - passes[0] - passes[1]


def large_census(gl: GluingDescription, rng: RegionRange) -> tuple[int, int, int, int]:
    """Large components of a range, counted by tracing instead of formulas.

    Returns ``(over, under, right_loops, left_loops)``.
    """
    rng.check(gl.n)
    census = _census(gl, *_span(rng, gl.n))
    return census["over"], census["under"], census["right"], census["left"]


# ---------------------------------------------------------------------------
# Grid self-test: formulas vs. tracing on every realizable vector in a box.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """Full diagnostics for one formula/oracle disagreement."""

    coords: str
    curve: str
    formula: int
    traced: int
    triangle: dict
    profile: dict


@dataclass
class SelftestReport:
    n: int
    bound: int
    cmax: int
    points_total: int = 0
    points_checked: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences


def grid_size(n: int, bound: int, cmax: int) -> int:
    """Points in the box: a, b, t entries in [-bound, bound], c in [0, cmax]."""
    return (2 * bound + 1) ** (2 * n) * (cmax + 1) ** 2


def _decode(n: int, bound: int, cmax: int, idx: int) -> tuple:
    """Mixed-radix decoding of one grid index into (a, b, t, c1, c2)."""
    width = 2 * bound + 1
    c2 = idx % (cmax + 1)
    idx //= cmax + 1
    c1 = idx % (cmax + 1)
    idx //= cmax + 1
    t = idx % width - bound
    idx //= width
    b = []
    for _ in range(n):
        b.append(idx % width - bound)
        idx //= width
    a = []
    for _ in range(n - 1):
        a.append(idx % width - bound)
        idx //= width
    return tuple(a), tuple(b), t, c1, c2


def _points(n: int, bound: int, cmax: int, indices: range) -> Iterator[DynnikovCoordinates]:
    """The realizable nonzero vectors among the grid ``indices``."""
    for idx in indices:
        a, b, t, c1, c2 = _decode(n, bound, cmax, idx)
        if not (any(a) or any(b) or t or c1 or c2):
            continue
        coords = DynnikovCoordinates(n=n, a=a, b=b, t=t, c1=c1, c2=c2)
        if realizable(coords):
            yield coords


def grid_points(n: int, bound: int, cmax: int) -> Iterator[DynnikovCoordinates]:
    """All realizable nonzero vectors in the box, in grid order."""
    return _points(n, bound, cmax, range(grid_size(n, bound, cmax)))


def compare_point(coords: DynnikovCoordinates) -> list[Divergence]:
    """Formula-vs-oracle comparison at one point over the full catalog."""
    curves = _checked(coords, None)
    tri = invert(coords)
    prof = profile(tri)
    gl = build_diagram(prof)
    return [
        Divergence(
            coords=format_coords(coords),
            curve=curve.spec(),
            formula=fval,
            traced=tval,
            triangle=tri.to_dict(),
            profile=prof.to_dict(),
        )
        for curve, fval in zip(curves, _formula_values(tri, prof, curves))
        if (tval := count_crossings(gl, curve)) != fval
    ]


def _sweep_chunk(args: tuple) -> tuple[int, list[Divergence]]:
    n, bound, cmax, start, stop, max_div = args
    checked = 0
    divergences: list[Divergence] = []
    for coords in _points(n, bound, cmax, range(start, stop)):
        checked += 1
        divergences += compare_point(coords)[: max_div - len(divergences)]
    return checked, divergences


def run_selftest(
    n: int = 2,
    bound: int = 2,
    cmax: int | None = None,
    jobs: int = 1,
    max_divergences: int = 5,
) -> SelftestReport:
    """Sweep the grid comparing every formula against the tracing oracle.

    ``cmax`` defaults to ``bound``.  With ``jobs > 1`` the grid is sharded
    across worker processes (points are independent).  A negative bound and
    a box with no point to check both raise :class:`InvalidParameterError`,
    so an empty sweep never reports agreement.
    """
    if cmax is None:
        cmax = bound
    if bound < 0 or cmax < 0:
        raise InvalidParameterError(f"bound and cmax must be >= 0, got {bound} and {cmax}")
    total = grid_size(n, bound, cmax)
    report = SelftestReport(n=n, bound=bound, cmax=cmax, points_total=total)
    t0 = time.perf_counter()
    if jobs <= 1:
        checked, divs = _sweep_chunk((n, bound, cmax, 0, total, max_divergences))
        report.points_checked = checked
        report.divergences = divs
    else:
        step = max(1, total // (jobs * 8))
        chunks = [
            (n, bound, cmax, lo, min(lo + step, total), max_divergences)
            for lo in range(0, total, step)
        ]
        with Pool(jobs) as pool:
            for checked, divs in pool.imap(_sweep_chunk, chunks):
                report.points_checked += checked
                report.divergences.extend(divs)
    if not report.points_checked:
        raise InvalidParameterError(
            f"the box (n={n}, bound={bound}, c in [0,{cmax}]) holds no realizable "
            "nonzero vector: nothing to check"
        )
    report.divergences = report.divergences[:max_divergences]
    report.elapsed = time.perf_counter() - t0
    return report
