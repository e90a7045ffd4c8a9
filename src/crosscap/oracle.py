"""Brute-force intersection counting by strand tracing.

This module re-derives intersection numbers without the min-formulas: it
assembles the multicurve from its component profile (via the unique
crossing-free gluing), walks every strand of the relevant region band --
whole bundles of parallel strands at a time -- and classifies each traced
chain by the shape of its itinerary.  A chain avoids a disk-bounding
elementary curve exactly when it clears the band on one side:

* it runs above (or below) the whole band, link after link;
* or it enters from the left arc, runs above, turns around at the far end
  of the band (around the last puncture, or around -- never through -- the
  far crosscap) and runs back below;
* or the mirror image anchored on the right arc, turning in the first
  region.

Every other chain crosses the curve exactly twice.  Crossings with the
curve threading both crosscaps follow from the traced crossing count with
the both-crosscaps disk and the core passages counted over the glued
bundles, by the same case split the closed formula uses.

Nothing here looks at the range min-formulas, so agreement between the two
paths genuinely cross-checks them; :func:`run_selftest` sweeps a grid of
coordinate vectors and compares every in-scope elementary curve.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import Pool
from operator import itemgetter
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
    Bundle,
    ComponentProfile,
    GluingDescription,
    profile,
    reconstruct,
)
from .coords import DynnikovCoordinates, format_coords
from .errors import InvalidParameterError, NonprimitiveContentError, UnsupportedCurveError
from .intersect import ElementaryCurve, _band, _checked, _formula_values
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
    bundles, never from the profile's counts.
    """
    return reconstruct(prof)


_slot = itemgetter(0)


def _census(gl: GluingDescription, first: int, last: int) -> Counter:
    """Traced chains of the band ``first..last`` by the large species they
    are (``"over"``, ``"under"``, ``"right"``, ``"left"``); ``None`` counts
    the chains that cross the band's curve.

    Strands are traced as intervals: each boundary arc of the band starts
    as one interval, which splits only where the bundle across the next
    arc changes, and each piece is classified once for all its strands.
    Every chain is met from both of its ends and is the same species read
    either way, so the counts are halved.

    A chain clears a band of ``span + 1`` regions only in the shapes the
    module docstring lists: every link but the middle one (position
    ``span``) runs above or below, those before the middle like the first
    link and those after it the other way.  A piece is followed only while
    it keeps that shape, and for at most ``2 * span + 1`` links: a chain
    still inside the band after that cannot clear it, so it crosses.  A
    piece carries its link count, its first link's species and its middle
    link, never the whole chain.
    """
    n, bundles = gl.n, gl.bundles
    left_arc = first - 1 if first >= 1 else None
    right_arc = last if last <= n else None
    span = last - first
    # where a chain that comes back to its starting arc must turn: around a
    # puncture, or around a crosscap as a non-core loop
    turns = {
        left_arc: (last, LOOP_RIGHT if last < n else NONCORE_LOOP, "right"),
        right_arc: (first, LOOP_LEFT if first < n else NONCORE_LOOP, "left"),
    }
    counts: Counter = Counter()
    # (slots lo..hi-1, the bundle ends they enter, the arc the chain
    #  started from, links so far, first link's species, middle link)
    todo = [
        (0, gl.arc_sizes[arc], sides[arc], arc, 0, None, None)
        for arc, sides in ((left_arc, gl.right_ends), (right_arc, gl.left_ends))
        if arc is not None
    ]
    while todo:
        lo, hi, ends, origin, p, head, mid = todo.pop()
        i = bisect_right(ends, lo, key=_slot) - 1 if lo else 0
        while lo < hi:
            start, bid, end = ends[i]
            i += 1
            b = bundles[bid]
            top = min(hi, start + b.width)
            species = b.species
            if p == 0:
                head = species
            if p == span:
                mid = b
            arc, other = b.ends[1 - end]
            if p != span and (species not in (ABOVE, BELOW) or (species == head) != (p < span)):
                counts[None] += top - lo
            elif arc == left_arc or arc == right_arc:
                counts[_cleared(arc == origin, p, span, head, mid, turns[origin])] += top - lo
            elif p == 2 * span:
                counts[None] += top - lo
            else:
                if b.reversed:
                    lo2, hi2 = other + start + b.width - top, other + start + b.width - lo
                else:
                    lo2, hi2 = other + lo - start, other + top - start
                across = gl.right_ends if b.region == arc else gl.left_ends
                todo.append((lo2, hi2, across[arc], origin, p + 1, head, mid))
            lo = top
    for kind in counts:
        counts[kind] //= 2
    return counts


def _cleared(
    back: bool, p: int, span: int, head: str, mid: Bundle | None, turn: tuple[int, str, str]
) -> str | None:
    """The large species of a chain that left the band after ``p + 1``
    links in the clearing shape, or ``None`` when it crosses.

    ``back`` tells whether it left by the arc it started from; ``turn`` is
    ``(region, species, kind)`` of the turn such a chain needs.
    """
    if not back:  # over or under: one species all the way across
        if p <= span and (mid is None or mid.species == head) and head in (ABOVE, BELOW):
            return "over" if head == ABOVE else "under"
        return None
    region, species, kind = turn
    if p == 2 * span and mid.region == region and mid.species == species:
        return kind
    return None


def _traced_values(gl: GluingDescription, curves: tuple[ElementaryCurve, ...]) -> list[int]:
    """Traced crossings with curves that passed their checks, one census
    per distinct band (``D`` reads ``C``'s).

    ``D`` then takes the core passages counted over the glued bundles, by
    the same case split the closed formula uses.
    """
    n = gl.n
    censuses: dict[tuple[int, int], Counter] = {}
    out = []
    for curve in curves:
        band = _band(curve, n)
        if band not in censuses:
            censuses[band] = _census(gl, *band)
        crossings = 2 * censuses[band][None]
        if curve.kind == "D":
            passes = [0, 0]  # core passages through crosscaps 1 and 2 (regions n, n+1)
            for b in gl.bundles:
                if b.species in (CORE_CURVE, BOUNDING_CURVE):
                    raise NonprimitiveContentError(
                        "diagram carries whole non-primitive components"
                    )
                if b.species in (STRAIGHT_CORE, CORE_LOOP):
                    passes[b.region - n] += b.width
            if crossings == 0:
                crossings = abs(passes[0] - passes[1])
            else:
                crossings -= passes[0] + passes[1]
        out.append(crossings)
    return out


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
    curve.check(gl.n)
    return _traced_values(gl, (curve,))[0]


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

# divergences a sweep keeps and reports
_MAX_DIVERGENCES = 5


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
        for curve, fval, tval in zip(
            curves, _formula_values(tri, prof, curves), _traced_values(gl, curves)
        )
        if tval != fval
    ]


def _sweep_chunk(args: tuple) -> tuple[int, list[Divergence]]:
    n, bound, cmax, start, stop = args
    checked = 0
    divergences: list[Divergence] = []
    for coords in _points(n, bound, cmax, range(start, stop)):
        checked += 1
        divergences += compare_point(coords)[: _MAX_DIVERGENCES - len(divergences)]
    return checked, divergences


def run_selftest(
    n: int = 2,
    bound: int = 2,
    cmax: int | None = None,
    jobs: int = 1,
) -> SelftestReport:
    """Sweep the grid comparing every formula against the tracing oracle.

    ``cmax`` defaults to ``bound``.  With ``jobs > 1`` the grid is sharded
    across worker processes (points are independent).  A negative bound and
    a box with no point to check both raise :class:`InvalidParameterError`,
    so an empty sweep never reports agreement.  The report keeps the first
    few divergences found.
    """
    if cmax is None:
        cmax = bound
    if bound < 0 or cmax < 0:
        raise InvalidParameterError(f"bound and cmax must be >= 0, got {bound} and {cmax}")
    total = grid_size(n, bound, cmax)
    report = SelftestReport(n=n, bound=bound, cmax=cmax, points_total=total)
    t0 = time.perf_counter()
    if jobs <= 1:
        checked, divs = _sweep_chunk((n, bound, cmax, 0, total))
        report.points_checked = checked
        report.divergences = divs
    else:
        step = max(1, total // (jobs * 8))
        chunks = [
            (n, bound, cmax, lo, min(lo + step, total))
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
    report.divergences = report.divergences[:_MAX_DIVERGENCES]
    report.elapsed = time.perf_counter() - t0
    return report
