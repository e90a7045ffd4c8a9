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

from .coords import TriangleCoordinates, _straight_cores, _unchecked
from .errors import EndpointMismatchError

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


def _side(b: int) -> str:
    if b > 0:
        return "right"
    if b < 0:
        return "left"
    return "none"


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

    @cached_property
    def regions(self) -> tuple[tuple[int, int, int, int, int, str], ...]:
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

    def endpoints_on_arc(self, arc: int) -> tuple[int, int]:
        """Component endpoints on arc ``arc`` (0-based) from its two sides:
        regions ``arc`` and ``arc + 1``, whose loops on that side end on it
        twice."""
        (a, b, s, core, noncore, side), (a2, b2, s2, core2, noncore2, side2) = (
            self.regions[arc : arc + 2]
        )
        return (
            a + b + s + 2 * (core + noncore) * (side == "left"),
            a2 + b2 + s2 + 2 * (core2 + noncore2) * (side2 == "right"),
        )

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


def profile(tri: TriangleCoordinates) -> ComponentProfile:
    """Species counts forced by the crossing counts ``tri``.

    ``TriangleCoordinates`` construction already rejects counts whose
    species counts would be negative, so this never fails on an existing
    instance.  The counts are computed in one pass over the
    half-differences and the profile is built unchecked.
    """
    n, alpha, beta = tri.n, tri.alpha, tri.beta
    above, below, loops, sides = [], [], [], []
    for k in range(n - 1):
        d = (beta[k] - beta[k + 1]) // 2
        loops.append(abs(d))
        above.append(alpha[2 * k] - abs(d))
        below.append(alpha[2 * k + 1] - abs(d))
        sides.append(_side(d))
    bn = (beta[n - 1] - beta[n]) // 2
    c1p = max(tri.c1, 0)
    c2p = max(tri.c2, 0)
    psi = _straight_cores(tri.c1, bn)
    half_gamma = tri.gamma // 2
    return _unchecked(
        ComponentProfile,
        n=n,
        beta=beta,
        s0_loops=beta[0] // 2,
        above=tuple(above),
        below=tuple(below),
        loops=tuple(loops),
        sides=tuple(sides),
        cross1_above=half_gamma - psi - abs(bn),
        cross1_below=max(beta[n - 1], beta[n]) - half_gamma - abs(bn),
        straight_cores=psi,
        cross1_core_loops=min(abs(bn), c1p),
        cross1_noncore_loops=max(abs(bn) - c1p, 0),
        cross1_side=_side(bn),
        cross2_core_loops=c2p,
        cross2_noncore_loops=beta[n] // 2 - c2p,
        nonprimitive=(
            _NO_NONPRIMITIVES if tri.c1 >= 0 and tri.c2 >= 0
            else NonprimitiveCurves.from_c(tri.c1, tri.c2)
        ),
    )


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
        none goes stale.  No field, so outside ``==``, ``hash`` and ``repr``."""
        return {}


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
    """
    n = prof.n
    for arc in range(n + 1):
        left, right = prof.endpoints_on_arc(arc)
        if left != prof.beta[arc] or right != prof.beta[arc]:
            raise EndpointMismatchError(
                f"arc {arc + 1} has {prof.beta[arc]} slots but {left} endpoints "
                f"from the left and {right} from the right"
            )

    sizes = prof.beta
    bundles: list[Bundle] = []

    def block(region: int, species: str, width: int, ends=(), flip=False):
        if width > 0:
            bundles.append(_unchecked(
                Bundle, region=region, species=species, ends=ends, width=width, reversed=flip
            ))

    block(0, LOOP_LEFT, prof.s0_loops, ((0, 0), (0, prof.s0_loops)), True)

    # Puncture regions and the first crosscap region: puncture regions hold
    # no cores, so the same layout glues both.
    for region in range(1, n + 1):
        above, below, psi, core, noncore, side = prof.regions[region]
        la, ra = region - 1, region
        block(region, ABOVE, above, ((la, 0), (ra, 0)))
        block(region, BELOW, below, ((la, sizes[la] - below), (ra, sizes[ra] - below)))
        loop_arc, other_arc = (ra, la) if side == "left" else (la, ra)
        inner = above + noncore + core  # first straight-core slot on the loop arc
        block(region, STRAIGHT_CORE, psi, ((loop_arc, inner), (other_arc, above)), True)
        block(region, CORE_LOOP, core, ((loop_arc, above + noncore), (loop_arc, inner + psi)))
        loop = NONCORE_LOOP if region == n else LOOP_LEFT if side == "left" else LOOP_RIGHT
        block(region, loop, noncore, ((loop_arc, above), (loop_arc, inner + psi + core)), True)

    # Second crosscap region (index n+1, right of arc n).
    core2, noncore2 = prof.cross2_core_loops, prof.cross2_noncore_loops
    block(n + 1, NONCORE_LOOP, noncore2, ((n, 0), (n, sizes[n] - noncore2)), True)
    block(n + 1, CORE_LOOP, core2, ((n, noncore2), (n, noncore2 + core2)))

    whole = prof.nonprimitive
    block(n, CORE_CURVE, whole.core1)
    block(n, BOUNDING_CURVE, whole.bounding1)
    block(n + 1, CORE_CURVE, whole.core2)
    block(n + 1, BOUNDING_CURVE, whole.bounding2)

    left_ends: list[list[tuple[int, int, int]]] = [[] for _ in sizes]
    right_ends: list[list[tuple[int, int, int]]] = [[] for _ in sizes]
    for bid, b in enumerate(bundles):
        for end, (arc, first) in enumerate(b.ends):
            (left_ends if b.region == arc else right_ends)[arc].append((first, bid, end))
    # The ends on each side of each arc must tile its slots exactly.
    for arc, size in enumerate(sizes):
        for ends in (left_ends[arc], right_ends[arc]):
            ends.sort()
            top = 0
            for first, bid, _ in ends:
                if first != top:
                    break
                top += bundles[bid].width
            else:
                first = size
            if first != top:
                raise EndpointMismatchError(
                    f"slot {first} on arc {arc + 1} assigned twice"
                    if first < top
                    else f"unfilled slot {top} on arc {arc + 1}"
                )

    return _unchecked(
        GluingDescription,
        n=n,
        arc_sizes=sizes,
        bundles=tuple(bundles),
        left_ends=tuple(map(tuple, left_ends)),
        right_ends=tuple(map(tuple, right_ends)),
    )
