"""Large path components over region ranges.

A range of consecutive regions is written ``S_{l,m}`` (puncture regions
``l..m``), extended by the first crosscap region (``S'_{l,1}``) or by both
crosscap regions (``S'_{l,2}``).  A component of the range is *large* when
it clears the range entirely on one side:

* large over/under components span the range above/below the diameter;
* large right loops anchor on the left arc ``beta_l`` and dip to the
  diameter only past the last puncture (or, in the crosscap ranges, wrap
  the crosscap without entering it);
* large left loops anchor on the right arc and turn around in the first
  region of the range.

Number the regions ``0..n+1``: ``S_0..S_{n-1}``, then the first crosscap
region (``n``) and the second (``n+1``).  For a fixed left end ``l`` every
count is a function of running minima over regions ``l..m``:

* over/under are the running minima of the above/below counts;
* right loops are large only where both minima strictly fall at region
  ``m`` (``A_m < over_{m-1}`` and ``B_m < under_{m-1}``), and then
  ``min(over_{m-1} - A_m, under_{m-1} - B_m, right loops of region m)``;
  elsewhere there are none;
* left loops are the loops of region ``l`` that every region of
  ``l+1..m`` leaves room for, so the count only falls along the row:
  ``max(0, min(left_{m-1}, A_m - A_l, B_m - B_l))``, and once it is 0 it
  stays 0.

The regions come from :attr:`ComponentProfile.regions`, where ``S_0`` is a
region with no above or below components and its nested loops on the
left, and the second crosscap region one with only right loops, so every
count touching them comes out of the same expressions; only non-core loops
can be large.  :func:`_row` makes one pass per left end: it appends
each range's crossing total as it goes, and a range's counts are where the
pass stops.  An entry where neither minimum falls and no left loop is left
moves no count, so it costs one comparison pair and one addition: the
row's ``beta_l - 2(over + under)``, refreshed only where a minimum falls,
plus the entry's right arc.
"""

from __future__ import annotations

from dataclasses import dataclass

from .components import ComponentProfile
from .coords import _ints, _kind
from .errors import InvalidParameterError, InvalidRangeError

__all__ = [
    "RegionRange",
    "LargeComponentCounts",
    "counts_for_range",
]


@dataclass(frozen=True)
class RegionRange:
    """``S_{l,m}`` when ``crosscap == 0``, else ``S'_{l,crosscap}``."""

    l: int
    m: int = 0
    crosscap: int = 0

    def __post_init__(self):
        _ints((self.l, self.m, self.crosscap), ("l", "m", "crosscap"), InvalidRangeError)
        if self.crosscap not in (0, 1, 2):
            raise InvalidRangeError(f"crosscap tag must be 0, 1 or 2, got {self.crosscap}")
        if self.l < 0:
            raise InvalidRangeError(f"lower index must be >= 0, got {self.l}")
        if self.crosscap == 0 and self.m < self.l:
            raise InvalidRangeError(f"empty range S_({self.l},{self.m})")

    @classmethod
    def punctures(cls, l: int, m: int) -> "RegionRange":
        return cls(l=l, m=m, crosscap=0)

    @classmethod
    def through_first(cls, l: int) -> "RegionRange":
        return cls(l=l, crosscap=1)

    @classmethod
    def through_second(cls, l: int) -> "RegionRange":
        return cls(l=l, crosscap=2)


def _band(rng: RegionRange, n: int) -> tuple[int, int]:
    """First and last region of a range (``n``/``n+1``: the crosscaps),
    the counterpart of :func:`crosscap.intersect._band`.  Raises
    :class:`InvalidRangeError` for a range past ``n``."""
    _kind(rng, RegionRange, "a RegionRange", InvalidRangeError)
    if rng.crosscap:
        if rng.l > n:
            raise InvalidRangeError(f"lower index must be <= {n}, got {rng.l}")
        return rng.l, n - 1 + rng.crosscap
    if rng.m > n - 1:
        raise InvalidRangeError(f"S_(l,m) needs m <= {n - 1}, got m={rng.m}")
    return rng.l, rng.m


@dataclass(frozen=True)
class LargeComponentCounts:
    """The four large counts of one range (``None`` where undefined).

    Over/under and left loops are undefined for ``S'_{l,2}``: that range has
    no right boundary arc to span to, and no left loops exist there.
    """

    over: int | None
    under: int | None
    right_loops: int
    left_loops: int | None


def _row(p: ComponentProfile, firsts: tuple[int, ...], last: int | None = None) -> tuple[list[int], tuple]:
    """The crossing totals of the ranges from each left end in ``firsts``
    that end by region ``last`` (default: the last region), one row after
    another, and the large counts of the last of those ranges.

    Entry ``k`` of the row from ``l`` is the range ending in region
    ``l + k``: ``S_{l,l+k}`` up to region ``n-1``, then ``S'_{l,1}`` and
    ``S'_{l,2}``.  It is the strand total on the range's two boundary arcs
    (none left of ``S_0`` or right of the second crosscap) minus twice its
    large counts.  The counts are ``(over, under, right_loops,
    left_loops)``; for ``S'_{l,2}`` they hold zero where that range leaves
    them undefined.
    """
    regions = p.regions
    arcs = (0, *p.beta, 0)
    # region k's above and below counts, its loops that can be large on the
    # right, and the arc right of it
    cells = [
        (a, b, loops if side == "right" else 0, arc)
        for (a, b, _, _, loops, side), arc in zip(regions, arcs[1:])
    ]
    stop = None if last is None else last + 1
    totals: list[int] = []
    append = totals.append
    over = under = right = left = 0  # the counts when ``firsts`` is empty
    for l in firsts:
        base = arcs[l]
        a_l, b_l, _, _, loops_l, side_l = regions[l]
        left = loops_l if side_l == "left" else 0
        right = loops_l if side_l == "right" else 0  # one region: all its loops are large
        over, under = a_l, b_l
        fixed = base - 2 * (over + under)  # refreshed only where a minimum falls
        append(fixed + arcs[l + 1] - 2 * (right + left))
        for a, b, loops, arc in cells[l + 1 : stop]:
            right = 0
            if a >= over and b >= under and not left:  # no count moves
                append(fixed + arc)
                continue
            if loops and a < over and b < under:
                right = min(over - a, under - b, loops)
            if a < over:
                over = a
            if b < under:
                under = b
            if left:  # it only falls, so once 0 it stays 0
                left = max(0, min(left, a - a_l, b - b_l))
            fixed = base - 2 * (over + under)
            append(fixed + arc - 2 * (right + left))
    return totals, (over, under, right, left)


def counts_for_range(p: ComponentProfile, rng: RegionRange) -> LargeComponentCounts:
    """All large counts of one range."""
    _kind(p, ComponentProfile, "a ComponentProfile", InvalidParameterError)
    first, last = _band(rng, p.n)
    over, under, right, left = _row(p, (first,), last)[1]
    if rng.crosscap == 2:
        return LargeComponentCounts(over=None, under=None, right_loops=right, left_loops=None)
    return LargeComponentCounts(over=over, under=under, right_loops=right, left_loops=left)
