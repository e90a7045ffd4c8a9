"""Per-region path components of a minimal representative, and their gluing.

Cutting a minimal representative along the vertical arcs decomposes it into
path components, finitely many per region.  The regions, left to right:

* ``S_0`` -- between the boundary and ``beta_1``, holding puncture 1; its
  components are nested loops anchored on ``beta_1``.
* ``S_i`` (``1 <= i <= n-1``) -- between ``beta_i`` and ``beta_{i+1}``,
  holding puncture ``i+1``; components run above or below the puncture, or
  loop around it (right loops anchor on ``beta_i``, left on ``beta_{i+1}``).
* the first crosscap region -- between ``beta_n`` and ``beta_{n+1}``;
  components run above or below the crosscap, pass straight through it
  (crossing the core once), or loop around/through it.  Loops that enter
  the crosscap are core loops; the rest are non-core loops.
* the second crosscap region -- right of ``beta_{n+1}``; only right loops
  (core or non-core) live there.

:func:`profile` computes how many components of each species the counts
force, and :func:`reconstruct` produces the unique crossing-free gluing of
those components, one bundle of parallel components per species block.
Arc slots are numbered top to bottom; strands passing through a crosscap
come out in reversed transverse order, which is what makes the surface
non-orientable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coords import TriangleCoordinates, _kind, _species, _unchecked
from .errors import EndpointMismatchError, InvalidParameterError

__all__ = [
    "ABOVE",
    "BELOW",
    "LOOP_RIGHT",
    "LOOP_LEFT",
    "STRAIGHT_CORE",
    "CORE_LOOP",
    "NONCORE_LOOP",
    "CORE_CURVE",
    "BOUNDING_CURVE",
    "NonprimitiveCurves",
    "ComponentProfile",
    "profile",
    "Bundle",
    "GluingDescription",
    "reconstruct",
]

# Species tags. The region index disambiguates which crosscap or puncture a
# tag refers to: regions 0..n-1 are S_0..S_{n-1}, region n is the first
# crosscap region, region n+1 the second.
ABOVE = "above"
BELOW = "below"
LOOP_RIGHT = "right_loop"
LOOP_LEFT = "left_loop"
STRAIGHT_CORE = "straight_core"
CORE_LOOP = "core_loop"
NONCORE_LOOP = "noncore_loop"
CORE_CURVE = "core_curve"
BOUNDING_CURVE = "bounding_curve"


@dataclass(frozen=True)
class NonprimitiveCurves:
    """Whole non-primitive components decoded from negative ``c`` entries."""

    core1: int
    bounding1: int
    core2: int
    bounding2: int

    @classmethod
    def from_c(cls, c1: int, c2: int) -> "NonprimitiveCurves":
        def decode(ck: int) -> tuple[int, int]:
            if ck >= 0:
                return 0, 0
            return (-ck) % 2, (-ck) // 2

        k1, d1 = decode(c1)
        k2, d2 = decode(c2)
        return cls(core1=k1, bounding1=d1, core2=k2, bounding2=d2)

    def any(self) -> bool:
        return bool(self.core1 or self.bounding1 or self.core2 or self.bounding2)


_NO_NONPRIMITIVES = NonprimitiveCurves(0, 0, 0, 0)


@dataclass(frozen=True)
class ComponentProfile:
    """Exact species counts per region for one minimal representative.

    Tuple fields are indexed by ``k = 0..n-2`` for the puncture regions
    ``S_1..S_{n-1}``.  ``beta`` is carried along because it fixes the slot
    counts of the gluing.
    """

    n: int
    beta: tuple[int, ...]
    s0_loops: int
    above: tuple[int, ...]
    below: tuple[int, ...]
    loops: tuple[int, ...]
    sides: tuple[str, ...]
    cross1_above: int
    cross1_below: int
    straight_cores: int
    cross1_core_loops: int
    cross1_noncore_loops: int
    cross1_side: str
    cross2_core_loops: int
    cross2_noncore_loops: int
    nonprimitive: NonprimitiveCurves

    def _regions(self) -> tuple[tuple[int, int, int, int, int, str], ...]:
        """``(above, below, straight cores, core loops, non-core loops,
        side)`` of each region ``0..n+1``: ``S_0`` holds only loops, on the
        left, the second crosscap region only loops, on the right, and the
        loops of a puncture region are its non-core loops."""
        none = (0,) * (self.n - 1)
        return (
            (0, 0, 0, 0, self.s0_loops, "left"),
            *zip(self.above, self.below, none, none, self.loops, self.sides),
            (
                self.cross1_above,
                self.cross1_below,
                self.straight_cores,
                self.cross1_core_loops,
                self.cross1_noncore_loops,
                self.cross1_side,
            ),
            (0, 0, 0, self.cross2_core_loops, self.cross2_noncore_loops, "right"),
        )

    # :func:`profile` stores it when it builds the profile; a profile built
    # through the constructor computes it on first use
    regions = cached_property(_regions)

    def endpoints_on_arc(self, arc: int) -> tuple[int, int]:
        """Component endpoints on arc ``arc`` (0-based) from its two sides:
        regions ``arc`` and ``arc + 1``, whose loops on that side end on it
        twice."""
        (totals,) = _endpoint_totals(self.regions[arc : arc + 2])
        return totals

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "beta": list(self.beta),
            "s0_loops": self.s0_loops,
            "regions": [
                {
                    "region": k + 1,
                    "above": self.above[k],
                    "below": self.below[k],
                    "loops": self.loops[k],
                    "side": self.sides[k],
                }
                for k in range(self.n - 1)
            ],
            "crosscap1": {
                "above": self.cross1_above,
                "below": self.cross1_below,
                "straight_cores": self.straight_cores,
                "core_loops": self.cross1_core_loops,
                "noncore_loops": self.cross1_noncore_loops,
                "side": self.cross1_side,
            },
            "crosscap2": {
                "core_loops": self.cross2_core_loops,
                "noncore_loops": self.cross2_noncore_loops,
            },
            "nonprimitive": {
                "core1": self.nonprimitive.core1,
                "bounding1": self.nonprimitive.bounding1,
                "core2": self.nonprimitive.core2,
                "bounding2": self.nonprimitive.bounding2,
            },
        }


def _endpoint_totals(regions: tuple) -> list[tuple[int, int]]:
    """Component endpoints on each arc between two adjacent ``regions``,
    from the region on its left and from the one on its right, in one pass."""
    return [
        (
            a + b + s + (2 * (core + noncore) if side == "left" else 0),
            a2 + b2 + s2 + (2 * (core2 + noncore2) if side2 == "right" else 0),
        )
        for (a, b, s, core, noncore, side), (a2, b2, s2, core2, noncore2, side2) in zip(
            regions, regions[1:]
        )
    ]


def profile(tri: TriangleCoordinates) -> ComponentProfile:
    """Species counts forced by the crossing counts ``tri``.

    ``regions`` is the species table :class:`TriangleCoordinates`
    construction already checked to hold no negative count, so this never
    fails on an existing instance; the named fields are read off that
    table, and the profile is built unchecked, its ``regions`` stored with
    it.
    """
    _kind(tri, TriangleCoordinates, "TriangleCoordinates")
    n, c1, c2 = tri.n, tri.c1, tri.c2
    regions = _species(n, tri.alpha, tri.beta, tri.gamma, c1, c2)
    above, below, _, _, loops, sides = zip(*regions[1:n])
    cross1_above, cross1_below, psi, core, noncore, side = regions[n]
    return _unchecked(ComponentProfile, {
        "n": n,
        "beta": tri.beta,
        "s0_loops": regions[0][4],
        "above": above,
        "below": below,
        "loops": loops,
        "sides": sides,
        "cross1_above": cross1_above,
        "cross1_below": cross1_below,
        "straight_cores": psi,
        "cross1_core_loops": core,
        "cross1_noncore_loops": noncore,
        "cross1_side": side,
        "cross2_core_loops": regions[n + 1][3],
        "cross2_noncore_loops": regions[n + 1][4],
        "nonprimitive": (
            _NO_NONPRIMITIVES if c1 >= 0 and c2 >= 0 else NonprimitiveCurves.from_c(c1, c2)
        ),
        "regions": regions,
    })


@dataclass(frozen=True)
class Bundle:
    """One species block of one region: ``width`` parallel components.

    ``ends`` holds the ``(arc, first slot)`` pair of each of the block's two
    slot intervals, ``width`` slots long; whole non-primitive curves have no
    ends.  Offset ``i`` into the first end is glued to offset ``i`` of the
    second, or to offset ``width - 1 - i`` when ``reversed``.
    """

    region: int
    species: str
    ends: tuple[tuple[int, int], ...]
    width: int
    reversed: bool


@dataclass(frozen=True)
class GluingDescription:
    """The unique crossing-free assembly of a profile's components, as
    bundles of parallel components.

    ``left_ends[arc]`` / ``right_ends[arc]`` list the bundle ends on the arc
    from the region on either side as ``(first slot, bundle id, end
    index)``, sorted by slot; they tile the arc's slots.  A strand of the
    multicurve continues across an arc through the same slot number.
    """

    n: int
    arc_sizes: tuple[int, ...]
    bundles: tuple[Bundle, ...]
    left_ends: tuple[tuple[tuple[int, int, int], ...], ...]
    right_ends: tuple[tuple[tuple[int, int, int], ...], ...]

    @cached_property
    def _rows(self) -> dict[tuple[int, bool], list[list[int]]]:
        """The oracle's rows by ``(arc, rightward)``, traced on first use
        (:func:`crosscap.oracle._band_counts`): the gluing is immutable, so
        none goes stale.  No field, so outside ``==``, ``hash`` and ``repr``.
        :func:`reconstruct` stores it empty; a diagram built through the
        constructor makes it here on first use."""
        return {}


# The ends a region 0..n lays on one of its arcs, top to bottom, as
# ``(block, end)`` pairs; its blocks, in bundle order, are above, below,
# straight cores, core loops and loops.  On the arc its loops anchor on:
# above, the upper arms of loops and core loops, straight cores, the lower
# arms, below; on its other arc: above, straight cores, below.  An above or
# below block has end 0 on the region's left arc.  Indexed by whether the
# loops anchor on the arc, then by whether it is the region's right arc.
_SLOT_ORDER = (
    (((0, 0), (2, 1), (1, 0)), ((0, 1), (2, 1), (1, 1))),
    (
        ((0, 0), (4, 0), (3, 0), (2, 0), (3, 1), (4, 1), (1, 0)),
        ((0, 1), (4, 0), (3, 0), (2, 0), (3, 1), (4, 1), (1, 1)),
    ),
)
# the second crosscap region's: non-core loops outside core loops
_SECOND_CROSSCAP_ORDER = ((0, 0), (1, 0), (1, 1), (0, 1))


def _lay(arc: int, size: int, blocks: tuple, ids: list[int], order: tuple) -> tuple:
    """The ``(first slot, bundle id, end index)`` of the ends of ``blocks``
    on one side of arc ``arc``, appended in the slot ``order`` and checked,
    as each is appended, to tile the arc's ``size`` slots."""
    # An end starts at the sum of the widths laid before it on this side
    # and top sums only the positive ones, so first <= top and, at the end,
    # size <= top: a misfit is always a slot taken twice.
    laid = []
    top = 0
    for k, end in order:
        _, _, width, ends, _ = blocks[k]
        if width > 0:
            first = ends[end][1]
            if first != top:
                raise EndpointMismatchError(f"slot {first} on arc {arc + 1} assigned twice")
            laid.append((first, ids[k], end))
            top += width
    if top != size:
        raise EndpointMismatchError(f"slot {size} on arc {arc + 1} assigned twice")
    return tuple(laid)


def reconstruct(prof: ComponentProfile) -> GluingDescription:
    """Glue the profile's components into their minimal position.

    Layout per arc, top to bottom: above components, then loop arms nested
    outside-in (non-core outside core at a crosscap), straight cores at the
    diameter, then the mirror image below.  A loop around a puncture nests:
    its outermost upper arm pairs with its outermost lower arm.  A loop
    through a crosscap pairs its arms in parallel order instead, and
    straight cores come out of the crosscap in reversed order -- both are
    faces of the antipodal identification.  Each species block of a region
    is one :class:`Bundle`, so the gluing's size does not grow with the
    counts.

    Each side of each arc gets its ends in slot order, region by region,
    and every end is checked to start where the one above it stops, so
    the ends tile the arc's slots without a sort.
    """
    _kind(prof, ComponentProfile, "a ComponentProfile", InvalidParameterError)
    n, sizes, regions = prof.n, prof.beta, prof.regions
    for arc, (left, right) in enumerate(_endpoint_totals(regions)):
        if left != sizes[arc] or right != sizes[arc]:
            raise EndpointMismatchError(
                f"arc {arc + 1} has {sizes[arc]} slots but {left} endpoints "
                f"from the left and {right} from the right"
            )

    bundles: list[Bundle] = []
    left_ends: list[tuple] = []
    right_ends: list[tuple] = []
    for region in range(n + 2):
        la, ra = region - 1, region
        if region <= n:
            # S_0, the puncture regions and the first crosscap region:
            # puncture regions hold no cores and S_0 only loops, so the same
            # layout glues all of them
            above, below, psi, core, noncore, side = regions[region]
            loop_arc, other_arc = (ra, la) if side == "left" else (la, ra)
            inner = above + noncore + core  # first straight-core slot on the loop arc
            loop = NONCORE_LOOP if region == n else LOOP_LEFT if side == "left" else LOOP_RIGHT
            blocks = (
                (region, ABOVE, above, ((la, 0), (ra, 0)), False),
                (region, BELOW, below, ((la, sizes[la] - below), (ra, sizes[ra] - below)), False),
                (region, STRAIGHT_CORE, psi, ((loop_arc, inner), (other_arc, above)), True),
                (
                    region, CORE_LOOP, core,
                    ((loop_arc, above + noncore), (loop_arc, inner + psi)), False,
                ),
                (region, loop, noncore, ((loop_arc, above), (loop_arc, inner + psi + core)), True),
            )
            orders = _SLOT_ORDER[side != "left"][0], _SLOT_ORDER[side == "left"][1]
        else:
            # the second crosscap region, right of arc n, then the whole
            # non-primitive curves, which have no ends
            core2, noncore2 = prof.cross2_core_loops, prof.cross2_noncore_loops
            whole = prof.nonprimitive
            blocks = (
                (region, NONCORE_LOOP, noncore2, ((n, 0), (n, sizes[n] - noncore2)), True),
                (region, CORE_LOOP, core2, ((n, noncore2), (n, noncore2 + core2)), False),
                (n, CORE_CURVE, whole.core1, (), False),
                (n, BOUNDING_CURVE, whole.bounding1, (), False),
                (region, CORE_CURVE, whole.core2, (), False),
                (region, BOUNDING_CURVE, whole.bounding2, (), False),
            )
            orders = _SECOND_CROSSCAP_ORDER, None
        ids = []  # the id each block's bundle takes, if it has any width
        for block_region, species, width, ends, flip in blocks:
            ids.append(len(bundles))
            if width > 0:
                bundles.append(_unchecked(Bundle, {
                    "region": block_region,
                    "species": species,
                    "ends": ends,
                    "width": width,
                    "reversed": flip,
                }))
        if region:
            right_ends.append(_lay(la, sizes[la], blocks, ids, orders[0]))
        if region <= n:
            left_ends.append(_lay(ra, sizes[ra], blocks, ids, orders[1]))

    return _unchecked(GluingDescription, {
        "n": n,
        "arc_sizes": sizes,
        "bundles": tuple(bundles),
        "left_ends": tuple(left_ends),
        "right_ends": tuple(right_ends),
        "_rows": {},
    })
