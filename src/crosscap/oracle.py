"""Brute-force intersection counting by strand tracing.

This module re-derives intersection numbers without the min-formulas: it
assembles the multicurve from its component profile (via the unique
crossing-free gluing) and walks its strands away from each boundary arc
of a region band -- whole bundles of parallel strands at a time.  A chain
avoids a disk-bounding elementary curve exactly when it clears the band
on one side:

* it runs above (or below) the whole band, link after link;
* or it enters from the left arc, runs above, turns around at the far end
  of the band (around the last puncture, or around -- never through -- the
  far crosscap) and runs back below;
* or the mirror image anchored on the right arc, turning in the first
  region.

:func:`_row` walks away from an arc once for every band the arc bounds,
and the diagram keeps each row it has traced.
Every other chain crosses the curve exactly twice, so the crossings are
the strand ends on the band's arcs minus twice the chains that clear it.
Crossings with the curve threading both crosscaps follow from the count
with the both-crosscaps disk and the core passages counted over the glued
bundles, by the same case split the closed formula uses.

Nothing here looks at the range min-formulas, so agreement between the two
paths genuinely cross-checks them; :func:`run_selftest` sweeps a grid of
coordinate vectors and compares every in-scope elementary curve.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
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
    profile,
    reconstruct,
)
from .coords import DynnikovCoordinates, _ints, _unchecked, format_coords
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonprimitiveContentError,
    UnsupportedCurveError,
)
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
    gluing as it is and counts everything it needs from the assembled
    bundles, never from the profile's counts.
    """
    return reconstruct(prof)


def _row(gl: GluingDescription, arc: int, rightward: bool) -> list[list[int]]:
    """``[over, under, loops]`` per band bounded by ``arc`` on the left
    (``rightward``) or the right; entry ``p`` is the band of the ``p + 1``
    regions next to the arc, ``loops`` its right (left) loops.

    The arc starts as one interval of strands, split only where the bundle
    across the next arc changes; each piece is followed once.  A piece that
    has run above (below) through ``p + 1`` regions is an over (under)
    chain of entry ``p``.  A piece whose upper arm turns in region ``p``
    (around a puncture, or around a crosscap without entering it) and runs
    below all the way back is one loop of entry ``p``: each loop is counted
    from its upper arm only, a one-region loop at end 0 of its bundle.
    Every other piece crosses what it has not cleared and is dropped.

    Species are compared with ``==``: a diagram built through the public
    constructors may hold strings equal to the tags but not the same object.
    """
    bundles, left_ends, right_ends = gl.bundles, gl.left_ends, gl.right_ends
    row = [[0, 0, 0] for _ in range(gl.n + 1 - arc if rightward else arc + 1)]
    turn = LOOP_RIGHT if rightward else LOOP_LEFT
    # (slots lo..hi-1, the bundle ends they enter, row entry, out species, links to run back)
    todo = [(0, gl.arc_sizes[arc], (right_ends if rightward else left_ends)[arc], 0, None, 0)]
    pop, push = todo.pop, todo.append
    inf = float("inf")  # (lo, inf) sorts after every end starting at slot lo
    while todo:
        lo, hi, ends, p, head, back = pop()
        i = bisect_right(ends, (lo, inf)) - 1 if lo else 0
        while lo < hi:
            start, bid, end = ends[i]
            i += 1
            b = bundles[bid]
            top = start + b.width
            if top > hi:
                top = hi
            piece, lo = lo, top  # this piece is slots piece..top-1
            species = b.species
            if back:  # on the way back: below, or it crosses
                if species != BELOW:
                    continue
                if back == 1:
                    row[p][2] += top - piece
                    continue
                q, h, k = p, head, back - 1
            elif species == ABOVE or species == BELOW:
                if p and species != head:
                    continue
                row[p][species == BELOW] += top - piece
                q, h, k = p + 1, species, 0
            elif species == turn or species == NONCORE_LOOP:
                if not p:
                    if end == 0:
                        row[0][2] += top - piece
                    continue
                if head != ABOVE:
                    continue
                q, h, k = p, head, p
            else:
                continue
            out, other = b.ends[1 - end]
            across = (right_ends if b.region == out else left_ends)[out]
            if b.reversed:
                other += start + b.width
                push((other - top, other - piece, across, q, h, k))
            else:
                other -= start
                push((other + piece, other + top, across, q, h, k))
    return row


def _band_counts(gl: GluingDescription, first: int, last: int) -> tuple:
    """``(over, under, right, left, crossings)`` of the band
    ``first..last``: over, under and right loops from the rightward row of
    its left arc, left loops from the leftward row of its right arc (none
    without the arc), traced into the diagram's ``_rows`` on first use.
    Every chain has both ends on the arcs, and each one that does not clear
    the band crosses the curve twice.
    """
    rows = gl._rows
    over = under = right = left = ends = 0
    for arc, rightward in ((first - 1, True), (last, False)):
        if 0 <= arc <= gl.n:
            ends += gl.arc_sizes[arc]
            row = rows.get((arc, rightward))
            if row is None:
                row = rows[arc, rightward] = _row(gl, arc, rightward)
            entry = row[last - first]
            if rightward:
                over, under, right = entry
            else:
                left = entry[2]
    return over, under, right, left, ends - 2 * (over + under + right + left)


def _d_value(gl: GluingDescription, c: int) -> int:
    """``D``'s traced crossings from ``C``'s count ``c`` and the core
    passages counted over the glued bundles, by the same case split the
    closed formula uses."""
    passes = [0, 0]  # core passages through crosscaps 1 and 2 (regions n, n+1)
    for b in gl.bundles:
        if b.species in (CORE_CURVE, BOUNDING_CURVE):
            raise NonprimitiveContentError("diagram carries whole non-primitive components")
        if b.species in (STRAIGHT_CORE, CORE_LOOP):
            passes[b.region - gl.n] += b.width
    return abs(passes[0] - passes[1]) if c == 0 else c - passes[0] - passes[1]


def _traced_values(gl: GluingDescription, bands: tuple, d_at: tuple[int, ...]) -> list[int]:
    """Traced crossings with curves that passed their checks, given their
    bands and the positions of ``D`` (see :func:`crosscap.intersect._layout`),
    read off the diagram's rows (``D`` reads ``C``'s band)."""
    out = [_band_counts(gl, first, last)[4] for first, last in bands]
    for k in d_at:
        out[k] = _d_value(gl, out[k])
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
    crossings = _band_counts(gl, *_band(curve, gl.n))[4]
    return _d_value(gl, crossings) if curve.kind == "D" else crossings


def large_census(gl: GluingDescription, rng: RegionRange) -> tuple[int, int, int, int]:
    """Large components of a range, counted by tracing instead of formulas:
    ``(over, under, right_loops, left_loops)``, read off the rows traced
    from the range's boundary arcs."""
    rng.check(gl.n)
    return _band_counts(gl, *_span(rng, gl.n))[:4]


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

    @property
    def reproduce(self) -> str:
        """The command that prints the formula's value for this curve."""
        return f'crosscap intersect "{self.coords}" --curve {self.curve}'


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

    @property
    def points_per_second(self) -> float:
        """Checked points per second of the sweep (0 before it has run)."""
        return self.points_checked / self.elapsed if self.elapsed > 0 else 0.0


def _box(n: int, bound: int, cmax: int, jobs: int = 1) -> int:
    """Points in the box, after the one check of a sweep's arguments: exact
    ints, ``n >= 2`` (else :class:`DimensionMismatchError`) and ``bound,
    cmax >= 0`` (else :class:`InvalidParameterError`)."""
    _ints((n,), ("n",), DimensionMismatchError)
    if n < 2:
        raise DimensionMismatchError(f"puncture count must be >= 2, got {n}")
    _ints((bound, cmax, jobs), ("bound", "cmax", "jobs"), InvalidParameterError)
    if bound < 0 or cmax < 0:
        raise InvalidParameterError(f"bound and cmax must be >= 0, got {bound} and {cmax}")
    return (2 * bound + 1) ** (2 * n) * (cmax + 1) ** 2


def grid_size(n: int, bound: int, cmax: int) -> int:
    """Points in the box: a, b, t entries in [-bound, bound], c in [0, cmax]."""
    return _box(n, bound, cmax)


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
    """The realizable nonzero vectors among the grid ``indices``, built
    unchecked: the decoder's ints have the right shape, and the zero vector
    is skipped here."""
    for idx in indices:
        a, b, t, c1, c2 = _decode(n, bound, cmax, idx)
        if not (any(a) or any(b) or t or c1 or c2):
            continue
        coords = _unchecked(DynnikovCoordinates, n=n, a=a, b=b, t=t, c1=c1, c2=c2)
        if realizable(coords):
            yield coords


def grid_points(n: int, bound: int, cmax: int) -> Iterator[DynnikovCoordinates]:
    """All realizable nonzero vectors in the box, in grid order."""
    return _points(n, bound, cmax, range(grid_size(n, bound, cmax)))


def compare_point(coords: DynnikovCoordinates) -> list[Divergence]:
    """Formula-vs-oracle comparison at one point over the full catalog."""
    curves, layout = _checked(coords, None)
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
            curves, _formula_values(tri, prof, layout), _traced_values(gl, layout.bands, layout.d_at)
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
    across worker processes (points are independent).  An argument that is
    not an exact int, ``n < 2``, a negative bound and a box with no point
    to check all raise a :class:`CrosscapError`, so an empty sweep never
    reports agreement.
    The report keeps the first few divergences found.
    """
    if cmax is None:
        cmax = bound
    total = _box(n, bound, cmax, jobs)
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
        from multiprocessing import Pool  # only a parallel sweep pays for the import

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
