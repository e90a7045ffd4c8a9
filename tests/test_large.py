"""Large component counts over region ranges."""

import itertools
import random
from math import inf

import pytest

from crosscap.components import ComponentProfile, NonprimitiveCurves, profile
from crosscap.coords import DynnikovCoordinates, TriangleCoordinates
from crosscap.errors import InvalidRangeError
from crosscap.inversion import invert, realizable
from crosscap.large import RegionRange, _band, _row, counts_for_range
from crosscap.oracle import _band_counts, build_diagram


def over_under(p, rng):
    c = counts_for_range(p, rng)
    return c.over, c.under


def right_loops(p, rng):
    return counts_for_range(p, rng).right_loops


def left_loops(p, rng):
    return counts_for_range(p, rng).left_loops


def all_ranges(n):
    """Every region range on the surface with ``n`` punctures."""
    return (
        [RegionRange.punctures(l, m) for l in range(n) for m in range(l, n)]
        + [RegionRange.through_first(l) for l in range(n + 1)]
        + [RegionRange.through_second(l) for l in range(n + 1)]
    )


def traced_census(gl, rng):
    """``(over, under, right_loops, left_loops)`` of a range, counted by the
    oracle's tracer on the diagram ``gl``."""
    return _band_counts(gl, *_band(rng, gl.n))[:4]


def fresh_min_counts(p, rng):
    """Each count as a fresh min over a slice of the single-region counts:
    the definition the one-pass rows must reproduce."""
    n, l = p.n, rng.l
    m = rng.m if rng.crosscap == 0 else n
    above, below = (*p.above, p.cross1_above), (*p.below, p.cross1_below)
    loops, sides = (*p.loops, p.cross1_noncore_loops), (*p.sides, p.cross1_side)

    def low(seq, i, j):  # min over regions i..j; S_0 has no above/below
        return 0 if i == 0 else min(seq[i - 1 : j], default=inf)

    over, under = low(above, l, m), low(below, l, m)
    if rng.crosscap == 2:
        return None, None, min(over, under, p.cross2_noncore_loops), None
    loops_m = loops[m - 1] if m and sides[m - 1] == "right" else 0
    loops_l = p.s0_loops if l == 0 else loops[l - 1] if sides[l - 1] == "left" else 0
    right = min(low(above, l, m - 1) - over, low(below, l, m - 1) - under, loops_m)
    left = min(low(above, l + 1, m) - over, low(below, l + 1, m) - under, loops_l)
    return over, under, right, left


def random_vector(rnd, n, magnitude):
    """A seeded realizable vector with ``c >= 0``; small entries now and
    then force ties."""

    def entry():
        return rnd.randint(-2, 2) if rnd.random() < 0.3 else rnd.randint(-magnitude, magnitude)

    a = tuple(entry() for _ in range(n - 1))
    b = tuple(entry() for _ in range(n))
    t, c1, c2 = entry(), abs(entry()), abs(entry())
    if not any(a + b + (t, c1, c2)):
        c1 = 1
    v = DynnikovCoordinates(n=n, a=a, b=b, t=t, c1=c1, c2=c2)
    if not realizable(v):
        v = DynnikovCoordinates(n=n, a=a, b=b, t=t + 1, c1=c1, c2=c2)
    return v


EX1 = profile(TriangleCoordinates(n=2, alpha=(1, 5), beta=(6, 4, 4), gamma=4, c1=2, c2=0))
EX2 = profile(TriangleCoordinates(n=2, alpha=(3, 1), beta=(4, 2, 2), gamma=4, c1=1, c2=1))


class TestOverUnder:
    def test_worked_example_crosscap_range(self):
        assert over_under(EX1, RegionRange.through_first(1)) == (0, 2)

    def test_final_example_crosscap_range(self):
        # min(A_1, A') = min(2, 1) = 1, min(B_1, B') = min(0, 0) = 0
        assert over_under(EX2, RegionRange.through_first(1)) == (1, 0)

    def test_left_index_zero_is_empty(self):
        assert over_under(EX1, RegionRange.punctures(0, 1)) == (0, 0)
        assert over_under(EX2, RegionRange.through_first(0)) == (0, 0)

    def test_single_region(self):
        assert over_under(EX2, RegionRange.punctures(1, 1)) == (2, 0)

    def test_range_errors(self):
        with pytest.raises(InvalidRangeError, match=r"^S_\(l,m\) needs m <= 1, got m=5$"):
            counts_for_range(EX1, RegionRange.punctures(1, 5))
        with pytest.raises(InvalidRangeError, match="^lower index must be <= 2, got 3$"):
            counts_for_range(EX1, RegionRange.through_first(3))
        with pytest.raises(InvalidRangeError):
            RegionRange.punctures(2, 1)
        with pytest.raises(InvalidRangeError):
            RegionRange(l=-1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RegionRange.punctures(0, 0.0),
            lambda: RegionRange.through_first(1.0),
            lambda: RegionRange.through_second("1"),
            lambda: RegionRange(l=True, m=1),
            lambda: RegionRange(l=0, m=1, crosscap=False),
        ],
    )
    def test_non_integer_fields_rejected(self, make):
        # floats used to fail on tuple indexing, bools passed silently
        with pytest.raises(InvalidRangeError, match="must be an integer"):
            make()


class TestRightLoops:
    def test_final_example_both_crosscap_ranges(self):
        assert right_loops(EX2, RegionRange.through_second(1)) == 0
        assert right_loops(EX2, RegionRange.through_second(2)) == 0

    def test_s0_has_no_right_loops(self):
        assert right_loops(EX1, RegionRange.punctures(0, 1)) == 0
        assert right_loops(EX2, RegionRange.through_second(0)) == 0

    def test_single_region_right_loops_are_large(self):
        # empty minimum on the left leaves only the loop-count cap
        assert right_loops(EX1, RegionRange.punctures(1, 1)) == 1

    def test_noncore_cap_at_first_crosscap(self):
        # EX1 has straight cores, hence no right non-core loops at all
        assert right_loops(EX1, RegionRange.through_first(1)) == 0


class TestLeftLoops:
    def test_worked_example_boundary_form(self):
        # min(A_1, B_1, beta_1/2) = min(0, 4, 3)
        assert left_loops(EX1, RegionRange.punctures(0, 1)) == 0

    def test_positive_b_blocks_left_loops(self):
        assert left_loops(EX2, RegionRange.through_first(1)) == 0

    def test_no_left_loops_in_second_crosscap_range(self):
        # undefined in the bundle; the row's counts for it, which its
        # crossing total subtracts, hold zero
        assert left_loops(EX2, RegionRange.through_second(1)) is None
        assert _row(EX2, (1,))[1][3] == 0

    def test_single_region_left_loops_are_large(self):
        p = profile(invert(DynnikovCoordinates(n=2, a=(0,), b=(-2, 0), t=0, c1=0, c2=0)))
        assert left_loops(p, RegionRange.punctures(1, 1)) == 2


class TestBundle:
    def test_counts_for_range_shapes(self):
        c = counts_for_range(EX2, RegionRange.through_first(1))
        assert (c.over, c.under, c.right_loops, c.left_loops) == (1, 0, 0, 0)
        c2 = counts_for_range(EX2, RegionRange.through_second(1))
        assert c2.over is None and c2.under is None and c2.left_loops is None
        assert c2.right_loops == 0


def _grid(n, bound):
    dims = (n - 1) + n + 1
    for point in itertools.product(
        *([range(-bound, bound + 1)] * dims + [range(0, bound + 1)] * 2)
    ):
        if not any(point):
            continue
        v = DynnikovCoordinates(
            n=n,
            a=point[: n - 1],
            b=point[n - 1 : 2 * n - 1],
            t=point[2 * n - 1],
            c1=point[2 * n],
            c2=point[2 * n + 1],
        )
        if realizable(v):
            yield v


def _check_rows(n, cases, seed, magnitude):
    rnd = random.Random(seed)
    for _ in range(cases):
        p = profile(invert(random_vector(rnd, n, magnitude)))
        for rng in all_ranges(n):
            c = counts_for_range(p, rng)
            got = (c.over, c.under, c.right_loops, c.left_loops)
            assert got == fresh_min_counts(p, rng), (p, rng)


class TestRowsAgainstFreshMinima:
    @pytest.mark.parametrize("n, cases", [(2, 300), (5, 200), (12, 40), (64, 3)])
    def test_every_range_of_every_left_end(self, n, cases):
        _check_rows(n, cases, seed=n, magnitude=10**9)

    @pytest.mark.parametrize("n, cases", [(5, 300), (12, 100), (64, 10)])
    def test_tie_heavy_rows(self, n, cases):
        # entries in [-2, 2]: neighbouring regions often tie, and a tie
        # leaves no room for a large loop
        _check_rows(n, cases, seed=n + 1, magnitude=2)


def fresh_entry(p, l, last):
    """The crossing total and the counts of regions ``l..last`` from fresh
    minima: the strands on the two boundary arcs minus twice the large
    counts, with undefined counts read as 0.  ``l = n + 1`` is the second
    crosscap region alone, which no valid range names; its minima over
    the puncture regions are empty."""
    n = p.n
    rng = RegionRange.punctures(l, last) if last < n else RegionRange(l=l, crosscap=last - n + 1)
    counts = tuple(count or 0 for count in fresh_min_counts(p, rng))
    arcs = (0, *p.beta, 0)
    return arcs[l] + arcs[last + 1] - 2 * sum(counts), counts


def table_profile(s0_loops, punctures, cross1, cross2_loops, beta):
    """A profile built straight from a hand-made region table: ``punctures``
    holds ``(above, below, loops, side)`` of ``S_1..S_{n-1}`` and ``cross1``
    the same for the first crosscap region.  The table need not come from a
    multicurve: the rows and the fresh minima are both functions of it."""
    above, below, loops, sides = zip(*punctures)
    c_above, c_below, c_loops, c_side = cross1
    return ComponentProfile(
        n=len(punctures) + 1, beta=beta, s0_loops=s0_loops,
        above=above, below=below, loops=loops, sides=sides,
        cross1_above=c_above, cross1_below=c_below, straight_cores=0,
        cross1_core_loops=0, cross1_noncore_loops=c_loops, cross1_side=c_side,
        cross2_core_loops=0, cross2_noncore_loops=cross2_loops,
        nonprimitive=NonprimitiveCurves(0, 0, 0, 0),
    )


BETA = (5, 3, 8, 2, 7, 4, 6)
TABLES = {
    # every entry after a row's first leaves both minima and has no left loops
    "flat": table_profile(
        0, [(0, 0, 1, "right"), (0, 0, 0, "left"), (0, 0, 2, "right"), (0, 0, 0, "right"),
            (0, 0, 3, "right")], (0, 0, 1, "right"), 2, BETA,
    ),
    # from every left end past S_0, every entry lowers both minima
    "falling": table_profile(
        3, [(10, 11, 0, "left"), (8, 9, 1, "right"), (6, 6, 5, "right"), (4, 4, 2, "left"),
            (3, 2, 0, "right")], (2, 1, 1, "right"), 4, BETA,
    ),
    # the row from S_1 keeps left loops 3, 3, 2, 1, then 0 at S_5, then the
    # first crosscap region moves nothing
    "left prefix": table_profile(
        2, [(1, 0, 3, "left"), (5, 3, 0, "right"), (4, 2, 1, "right"), (3, 1, 0, "left"),
            (6, 0, 2, "right")], (7, 5, 1, "right"), 2, BETA,
    ),
}


def _check_whole_rows(p):
    n = p.n
    want = [fresh_entry(p, l, last)[0] for l in range(n + 2) for last in range(l, n + 2)]
    assert _row(p, tuple(range(n + 2)))[0] == want, p


class TestWholeRowsAgainstFreshMinima:
    """Every entry of the rows from every left end at once, middle entries
    included: ``counts_for_range`` reads only a row's last entry."""

    @pytest.mark.parametrize("magnitude", [10**9, 2])
    @pytest.mark.parametrize("n, cases", [(2, 200), (5, 100), (12, 40), (64, 5)])
    def test_rows_from_every_left_end(self, n, cases, magnitude):
        rnd = random.Random(1000 * n + magnitude % 997)
        for _ in range(cases):
            _check_whole_rows(profile(invert(random_vector(rnd, n, magnitude))))

    @pytest.mark.parametrize("name", TABLES)
    def test_hand_made_tables(self, name):
        p = TABLES[name]
        _check_whole_rows(p)
        n = p.n
        for l in range(n + 2):
            for last in range(l, n + 2):
                entries = [fresh_entry(p, l, m) for m in range(l, last + 1)]
                want = [total for total, _ in entries], entries[-1][1]
                assert _row(p, (l,), last) == want, (name, l, last)


class TestAgainstTracing:
    def test_census_equivalence_small_grid(self):
        # every large count equals the strand-traced census, all ranges:
        # the whole n=2 grid and a strided n=3 grid
        points = itertools.chain(_grid(2, 2), itertools.islice(_grid(3, 2), 0, None, 29))
        for v in points:
            p = profile(invert(v))
            dg = build_diagram(p)
            for rng in all_ranges(v.n):
                over, under, right, left = traced_census(dg, rng)
                bundle = counts_for_range(p, rng)
                if bundle.over is not None:
                    assert (over, under) == (bundle.over, bundle.under), (v, rng)
                    assert left == bundle.left_loops, (v, rng)
                assert right == bundle.right_loops, (v, rng)

    def test_monotone_shrinkage(self):
        for v in itertools.islice(_grid(3, 2), 0, 20000, 37):
            p = profile(invert(v))
            a11, b11 = over_under(p, RegionRange.punctures(1, 1))
            a12, b12 = over_under(p, RegionRange.punctures(1, 2))
            assert a12 <= a11 and b12 <= b11
            over, under = over_under(p, RegionRange.through_first(1))
            assert over <= a12 and under <= b12

    def test_loop_caps(self):
        for v in itertools.islice(_grid(3, 2), 0, 20000, 53):
            p = profile(invert(v))
            b = invert(v).half_differences()
            for l, m in ((1, 1), (1, 2), (2, 2)):
                r = right_loops(p, RegionRange.punctures(l, m))
                assert 0 <= r <= max(b[m - 1], 0)
                lf = left_loops(p, RegionRange.punctures(l, m))
                assert 0 <= lf <= max(-b[l - 1], 0)
