"""The per-slot view of the gluing, kept as the reference for the
library's bundles and the oracle's interval tracer.

:func:`links` expands a gluing's bundles into one :class:`Link` per
component, :func:`closed_components` walks those links around each
component, and :func:`gluing_dict` is the golden JSON of a gluing.  The
per-slot strand tracer walks every strand of a band one slot at a time over
the links and classifies each whole chain once by its list of links, as the
oracle did before it traced bundles.
"""

import itertools
from collections import Counter
from typing import NamedTuple

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


class Link(NamedTuple):
    """One path component: a species tag plus its arc slots.

    ``slots`` holds ``(arc, slot)`` pairs, 0-based, slots counted from the
    top of the arc; pass-through components have one slot on each
    neighbouring arc, loops two slots on their anchor arc, and whole
    non-primitive curves none.  A link's id is its position in
    :func:`links`.
    """

    region: int
    species: str
    slots: tuple


def links(gl):
    """The per-slot expansion of ``gl``: one :class:`Link` per component.

    Bundles expand in order; below components are numbered from the bottom
    of the arc, every other block from the top of its first end.
    """
    out = []
    for b in gl.bundles:
        if not b.ends:
            out += [Link(b.region, b.species, ())] * b.width
            continue
        (arc0, first0), (arc1, first1) = b.ends
        w = b.width
        for i in range(w - 1, -1, -1) if b.species == BELOW else range(w):
            j = w - 1 - i if b.reversed else i
            out.append(Link(b.region, b.species, ((arc0, first0 + i), (arc1, first1 + j))))
    return tuple(out)


def closed_components(gl):
    """Each multicurve component as the cycle of link ids it runs through.

    Whole non-primitive curves appear as singleton cycles.
    """
    lks = links(gl)
    # (region, arc, slot) -> the link of that region in that slot
    holder = {
        (lk.region, arc, slot): lid
        for lid, lk in enumerate(lks)
        for arc, slot in lk.slots
    }
    seen = set()
    out = []
    for start, lk in enumerate(lks):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        if lk.slots:
            lid, pos = start, lk.slots[0]
            while True:
                # leave by the link's other slot and cross that arc
                region, (s1, s2) = lks[lid].region, lks[lid].slots
                pos = s2 if pos == s1 else s1
                arc, slot = pos
                lid = holder[arc + 1 if region == arc else arc, arc, slot]
                if lid == start:
                    break
                cycle.append(lid)
                seen.add(lid)
        out.append(cycle)
    return out


def gluing_dict(gl):
    """The golden JSON form of ``gl``: its arc sizes and every link."""
    return {
        "n": gl.n,
        "arc_strands": list(gl.arc_sizes),
        "links": [
            {
                "id": lid,
                "region": lk.region,
                "species": lk.species,
                "slots": [list(s) for s in lk.slots],
            }
            for lid, lk in enumerate(links(gl))
        ],
    }


def slot_tables(gl):
    """``(left, right)``: per arc and slot, the id of the link occupying it
    from the region on either side (``None`` where no link does)."""
    left = [[None] * size for size in gl.arc_sizes]
    right = [[None] * size for size in gl.arc_sizes]
    for lid, lk in enumerate(links(gl)):
        for arc, slot in lk.slots:
            (left if lk.region == arc else right)[arc][slot] = lid
    return left, right


def trace_band(gl, first, last):
    """Trace every chain of the band of regions ``first..last``.

    Yields ``(start_side, end_side, [link, ...])`` per chain; sides are
    ``"left"``/``"right"`` for the band's boundary arcs.
    """
    n = gl.n
    lks = links(gl)
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
            lk = lks[lid]
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
