"""Large component counts over region ranges."""

import itertools
import random
from math import inf

import pytest

from crosscap.components import profile
from crosscap.coords import DynnikovCoordinates, TriangleCoordinates
from crosscap.errors import InvalidRangeError
from crosscap.inversion import invert, realizable
from crosscap.large import RegionRange, _row, counts_for_range
from crosscap.oracle import build_diagram, large_census


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
        with pytest.raises(InvalidRangeError):
            counts_for_range(EX1, RegionRange.punctures(1, 5))
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


class TestAgainstTracing:
    def test_census_equivalence_small_grid(self):
        # every large count equals the strand-traced census, all ranges:
        # the whole n=2 grid and a strided n=3 grid
        points = itertools.chain(_grid(2, 2), itertools.islice(_grid(3, 2), 0, None, 29))
        for v in points:
            p = profile(invert(v))
            dg = build_diagram(p)
            for rng in all_ranges(v.n):
                over, under, right, left = large_census(dg, rng)
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
