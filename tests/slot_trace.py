"""The per-slot strand tracer, kept as the reference for the oracle's
interval tracer.

It walks every strand of a band one slot at a time over the gluing's
per-slot expansion (``GluingDescription.links``) and classifies each whole
chain once by its list of links, as the oracle did before it traced
bundles.
"""

import itertools
from collections import Counter

from crosscap.components import ABOVE, BELOW, LOOP_LEFT, LOOP_RIGHT, NONCORE_LOOP
from crosscap.coords import parse_coords
from crosscap.oracle import grid_points

NEGATIVE_C = (
    "(2; 1,0; -2; -1,-2)",
    "(0; 0,0; 0; -3,-4)",
    "(-1; 1,0; 0; -2,1)",
    "(1,-2; 0,1,-1; 2; -5,0)",
)


def sample_vectors():
    """The whole n=2 grid, a strided n=3 grid and a few negative-``c``
    vectors."""
    return itertools.chain(
        grid_points(2, 2, 2),
        itertools.islice(grid_points(3, 2, 2), 0, None, 41),
        (parse_coords(text) for text in NEGATIVE_C),
    )


def slot_tables(gl):
    """``(left, right)``: per arc and slot, the id of the link occupying it
    from the region on either side (``None`` where no link does)."""
    left = [[None] * size for size in gl.arc_sizes]
    right = [[None] * size for size in gl.arc_sizes]
    for lid, lk in enumerate(gl.links):
        for arc, slot in lk.slots:
            (left if lk.region == arc else right)[arc][slot] = lid
    return left, right


def trace_band(gl, first, last):
    """Trace every chain of the band of regions ``first..last``.

    Yields ``(start_side, end_side, [link, ...])`` per chain; sides are
    ``"left"``/``"right"`` for the band's boundary arcs.
    """
    n = gl.n
    links = gl.links
    left_links, right_links = slot_tables(gl)
    left_arc = first - 1 if first >= 1 else None
    right_arc = last if last <= n else None

    # ((arc, slot), first link inside the band, side) per boundary slot
    starts = []
    if left_arc is not None:
        col = right_links[left_arc]
        starts += [((left_arc, s), col[s], "left") for s in range(len(col))]
    if right_arc is not None:
        col = left_links[right_arc]
        starts += [((right_arc, s), col[s], "right") for s in range(len(col))]

    used = set()
    for pos, lid, side0 in starts:
        if pos in used:
            continue
        used.add(pos)
        seq = []
        while True:
            lk = links[lid]
            seq.append(lk)
            # leave by the link's other slot and cross that arc
            s1, s2 = lk.slots
            pos = s2 if pos == s1 else s1
            arc, slot = pos
            lid = (right_links if lk.region == arc else left_links)[arc][slot]
            # links inside the band reach its boundary arcs only from within
            if arc == left_arc or arc == right_arc:
                used.add(pos)
                yield side0, "left" if arc == left_arc else "right", seq
                break


def _right_turn(region, n):
    return LOOP_RIGHT if region <= n - 1 else NONCORE_LOOP


def _left_turn(region, n):
    return LOOP_LEFT if region <= n - 1 else NONCORE_LOOP


def classify(start_side, end_side, seq, first, last, n):
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


def slot_census(gl, first, last):
    """Chains of the band per :func:`classify` kind, one slot at a time."""
    return Counter(
        classify(start_side, end_side, seq, first, last, gl.n)
        for start_side, end_side, seq in trace_band(gl, first, last)
    )
