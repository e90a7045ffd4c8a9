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
the both-crosscaps disk and the traced core passage counts, by the same
case split the closed formula uses.

Nothing here looks at the range min-formulas, so agreement between the two
paths genuinely cross-checks them; :func:`run_selftest` sweeps a grid of
coordinate vectors and compares every in-scope elementary curve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Iterator

from .components import (
    ABOVE,
    BELOW,
    CORE_LOOP,
    LOOP_LEFT,
    LOOP_RIGHT,
    NONCORE_LOOP,
    STRAIGHT_CORE,
    ComponentProfile,
    GluingDescription,
    NonprimitiveCurves,
    profile,
    reconstruct,
)
from .coords import DynnikovCoordinates, format_coords
from .errors import NonprimitiveContentError, UnsupportedCurveError
from .intersect import ElementaryCurve, _checked, _curve_range, _formula_values
from .inversion import invert, realizable
from .large import RegionRange, _span

__all__ = [
    "StrandDiagram",
    "build_diagram",
    "count_crossings",
    "large_census",
    "Divergence",
    "SelftestReport",
    "grid_size",
    "grid_points",
    "run_selftest",
]


@dataclass(frozen=True)
class StrandDiagram:
    """A glued minimal representative, indexed for fast strand walking.

    ``left_links[arc][slot]`` / ``right_links[arc][slot]`` name the
    component occupying the slot from either side of the arc; parallel
    tuples ``link_region`` / ``link_species`` / ``link_slots`` describe the
    components.  Core passage counts are cached for the two-crosscap curve.
    """

    n: int
    arc_sizes: tuple[int, ...]
    left_links: tuple[tuple[int, ...], ...]
    right_links: tuple[tuple[int, ...], ...]
    link_region: tuple[int, ...]
    link_species: tuple[str, ...]
    link_slots: tuple[tuple[tuple[int, int], ...], ...]
    straight_cores: int
    cross1_core_loops: int
    cross2_core_loops: int
    nonprimitive: NonprimitiveCurves
    gluing: GluingDescription

    def closed_components(self) -> list[list[int]]:
        """Each multicurve component as the cycle of links it runs through.

        Whole non-primitive curves appear as singleton cycles.
        """
        seen: set[int] = set()
        out: list[list[int]] = []
        for start in range(len(self.link_species)):
            if start in seen:
                continue
            slots = self.link_slots[start]
            if not slots:
                seen.add(start)
                out.append([start])
                continue
            cycle: list[int] = []
            lid, entry = start, slots[0]
            while True:
                cycle.append(lid)
                seen.add(lid)
                s1, s2 = self.link_slots[lid]
                exit_slot = s2 if entry == s1 else s1
                arc, slot = exit_slot
                nxt_region_left = self.link_region[lid] != arc  # we sat right of arc
                lid = (
                    self.left_links[arc][slot]
                    if nxt_region_left
                    else self.right_links[arc][slot]
                )
                entry = exit_slot
                if lid == start and entry == self.link_slots[start][0]:
                    break
            out.append(cycle)
        return out


def build_diagram(prof: ComponentProfile) -> StrandDiagram:
    """Assemble the crossing-free diagram of the profile.

    The core passage counts are censused from the assembled links, not
    copied from the profile, so they reflect what was actually glued.
    """
    gl = reconstruct(prof)
    regions = tuple(lk.region for lk in gl.links)
    species = tuple(lk.species for lk in gl.links)
    n = prof.n
    return StrandDiagram(
        n=n,
        arc_sizes=gl.arc_sizes,
        left_links=gl.left_links,
        right_links=gl.right_links,
        link_region=regions,
        link_species=species,
        link_slots=tuple(lk.slots for lk in gl.links),
        straight_cores=sum(1 for s in species if s == STRAIGHT_CORE),
        cross1_core_loops=sum(
            1 for r, s in zip(regions, species) if s == CORE_LOOP and r == n
        ),
        cross2_core_loops=sum(
            1 for r, s in zip(regions, species) if s == CORE_LOOP and r == n + 1
        ),
        nonprimitive=prof.nonprimitive,
        gluing=gl,
    )


def _trace_band(dg: StrandDiagram, first: int, last: int):
    """Trace every chain of the band of regions ``first..last``.

    Yields ``(start_side, end_side, [(region, species), ...])`` per chain;
    sides are ``"left"``/``"right"`` for the band's boundary arcs.
    """
    n = dg.n
    left_arc = first - 1 if first >= 1 else None
    right_arc = last if last <= n else None
    left_links, right_links = dg.left_links, dg.right_links
    regions, species, slot_tbl = dg.link_region, dg.link_species, dg.link_slots

    starts: list[tuple[int, int, int, str]] = []
    if left_arc is not None:
        starts += [
            (left_arc, s, first, "left") for s in range(dg.arc_sizes[left_arc])
        ]
    if right_arc is not None:
        starts += [
            (right_arc, s, last, "right") for s in range(dg.arc_sizes[right_arc])
        ]

    used: set[tuple[int, int]] = set()
    for arc0, slot0, region0, side0 in starts:
        if (arc0, slot0) in used:
            continue
        used.add((arc0, slot0))
        arc, slot, region = arc0, slot0, region0
        seq: list[tuple[int, str]] = []
        while True:
            lid = (
                right_links[arc][slot]
                if region == arc + 1
                else left_links[arc][slot]
            )
            seq.append((regions[lid], species[lid]))
            s1, s2 = slot_tbl[lid]
            nxt = s2 if (arc, slot) == s1 else s1
            arc, slot = nxt
            if arc == left_arc and region == first:
                used.add((arc, slot))
                yield side0, "left", seq
                break
            if arc == right_arc and region == last:
                used.add((arc, slot))
                yield side0, "right", seq
                break
            region = arc if region == arc + 1 else arc + 1


def _right_turn(region: int, n: int) -> str:
    return LOOP_RIGHT if region <= n - 1 else NONCORE_LOOP


def _left_turn(region: int, n: int) -> str:
    return LOOP_LEFT if region <= n - 1 else NONCORE_LOOP


def _classify(
    start_side: str,
    end_side: str,
    seq: list[tuple[int, str]],
    first: int,
    last: int,
    n: int,
) -> str | None:
    """Which large species the chain is, or ``None`` when it crosses."""
    if start_side != end_side:
        if all(sp == ABOVE for _, sp in seq):
            return "over"
        if all(sp == BELOW for _, sp in seq):
            return "under"
        return None
    span = last - first
    if len(seq) != 2 * span + 1:
        return None
    mid_region, mid_species = seq[span]
    arms_ok = (
        all(sp == ABOVE for _, sp in seq[:span])
        and all(sp == BELOW for _, sp in seq[span + 1 :])
    ) or (
        all(sp == BELOW for _, sp in seq[:span])
        and all(sp == ABOVE for _, sp in seq[span + 1 :])
    )
    if not arms_ok:
        return None
    if start_side == "left":
        if mid_region == last and mid_species == _right_turn(last, n):
            return "right"
        return None
    if mid_region == first and mid_species == _left_turn(first, n):
        return "left"
    return None


def _band_crossings(dg: StrandDiagram, first: int, last: int) -> int:
    crossing_chains = 0
    for start_side, end_side, seq in _trace_band(dg, first, last):
        if _classify(start_side, end_side, seq, first, last, dg.n) is None:
            crossing_chains += 1
    return 2 * crossing_chains


def count_crossings(dg: StrandDiagram, curve: ElementaryCurve) -> int:
    """Crossings of the diagram's multicurve with one elementary curve,
    counted by walking strands.  Matches
    :func:`crosscap.intersect.intersect_elementary` on every realizable
    input -- by construction of neither: the two share no formulas.
    """
    if curve.nonprimitive:
        raise UnsupportedCurveError(
            f"no crossing rule for non-primitive curve {curve.label()}"
        )
    curve.check(dg.n)
    if curve.kind == "D" and dg.nonprimitive.any():
        raise NonprimitiveContentError("diagram carries whole non-primitive components")
    crossings = _band_crossings(dg, *_span(_curve_range(curve, dg.n), dg.n))
    if curve.kind != "D":
        return crossings
    passes1 = dg.straight_cores + dg.cross1_core_loops
    passes2 = dg.cross2_core_loops
    if crossings == 0:
        return abs(passes1 - passes2)
    return crossings - passes1 - passes2


def large_census(dg: StrandDiagram, rng: RegionRange) -> tuple[int, int, int, int]:
    """Large components of a range, counted by tracing instead of formulas.

    Returns ``(over, under, right_loops, left_loops)``.
    """
    rng.check(dg.n)
    first, last = _span(rng, dg.n)
    counts = {"over": 0, "under": 0, "right": 0, "left": 0}
    for start_side, end_side, seq in _trace_band(dg, first, last):
        kind = _classify(start_side, end_side, seq, first, last, dg.n)
        if kind is not None:
            counts[kind] += 1
    return counts["over"], counts["under"], counts["right"], counts["left"]


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
    dg = build_diagram(prof)
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
        if (tval := count_crossings(dg, curve)) != fval
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
    across worker processes (points are independent).
    """
    if cmax is None:
        cmax = bound
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
    report.divergences = report.divergences[:max_divergences]
    report.elapsed = time.perf_counter() - t0
    return report
