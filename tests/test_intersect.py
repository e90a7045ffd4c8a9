"""Elementary curve catalog and intersection-number formulas."""

import itertools
import random

import pytest

from crosscap.coords import DynnikovCoordinates, parse_coords
from crosscap.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonprimitiveContentError,
    UnsupportedCurveError,
)
from crosscap.intersect import (
    ElementaryCurve,
    catalog,
    elementary_coords,
    elementary_values,
    intersect_elementary,
    parse_curve,
)
from crosscap.components import profile
from crosscap.inversion import invert, realizable
from crosscap.large import RegionRange, counts_for_range
from paper_forms import per_curve_values
from test_large import random_vector

FINAL = parse_coords("(-1; 1,0; 1; 1,1)")


class TestCatalog:
    def test_sizes(self):
        assert len(catalog(2)) == 6
        assert len(catalog(3)) == 10
        assert len(catalog(3, include_nonprimitive=True)) == 14

    def test_parse_round_trip(self):
        for curve in catalog(3, include_nonprimitive=True):
            assert parse_curve(curve.spec()) == curve

    def test_labels(self):
        assert ElementaryCurve.Cij(2, 3).label() == "C_{2,3}"
        assert ElementaryCurve.Cprime1(1).label() == "C'_{1,1}"
        assert ElementaryCurve.core(2).label() == "c_2"

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            ElementaryCurve.Cij(2, 2)
        with pytest.raises(InvalidParameterError):
            ElementaryCurve.Cprime2(1)
        with pytest.raises(InvalidParameterError):
            ElementaryCurve.core(3)
        with pytest.raises(InvalidParameterError):
            elementary_coords(ElementaryCurve.Cij(1, 4), 3)
        with pytest.raises(InvalidParameterError):
            parse_curve("Q:1")

    def test_catalog_is_built_once_per_argument(self, monkeypatch):
        assert catalog(5) is catalog(5)
        full = catalog(5, True)
        assert full is not catalog(5)
        assert full[: len(catalog(5))] == catalog(5)
        assert [c.spec() for c in full[len(catalog(5)) :]] == [
            "core:1", "core:2", "bounding:1", "bounding:2"
        ]
        v = DynnikovCoordinates(n=64, a=(1,) * 63, b=(0,) * 64, t=0, c1=0, c2=0)
        elementary_values(v)
        built = []
        post_init = ElementaryCurve.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ElementaryCurve, "__post_init__", counting)
        assert len(elementary_values(v)) == len(catalog(64)) == 2145
        assert built == []


    @pytest.mark.parametrize(
        "n, message",
        [
            (True, "n must be an integer, got True"),
            (2.0, "n must be an integer, got 2.0"),
            ("3", "n must be an integer, got '3'"),
            (1, "puncture count must be >= 2, got 1"),
            (0, "puncture count must be >= 2, got 0"),
            (-3, "puncture count must be >= 2, got -3"),
        ],
    )
    def test_catalog_rejects_surfaces_that_do_not_exist(self, n, message):
        with pytest.raises(DimensionMismatchError) as err:
            catalog(n)
        assert str(err.value) == message
        with pytest.raises(DimensionMismatchError):
            catalog(n, include_nonprimitive=True)


class TestParseCurve:
    def test_whitespace_and_sign_accepted(self):
        assert parse_curve("Cij:1, 2") == ElementaryCurve.Cij(1, 2)
        assert parse_curve(" Cprime1: +3 ") == ElementaryCurve.Cprime1(3)

    @pytest.mark.parametrize(
        "text",
        ["Cij:1,\u0662", "Cij:1,0_2", "Cij:1,2,", "Cij:1,+", "Cprime1:\u00b2", "core:1 1"],
    )
    def test_only_ascii_integers_accepted(self, text):
        # int() alone takes non-ASCII digits and underscores
        with pytest.raises(InvalidParameterError, match="needs"):
            parse_curve(text)


class TestElementaryCoords:
    def test_displays_for_n2(self):
        n = 2
        assert elementary_coords(ElementaryCurve.Cprime2(2), n) == DynnikovCoordinates(
            n=n, a=(0,), b=(-1, 0), t=0, c1=0, c2=0
        )
        assert elementary_coords(ElementaryCurve.C(), n) == DynnikovCoordinates(
            n=n, a=(0,), b=(0, -1), t=0, c1=0, c2=0
        )
        assert elementary_coords(ElementaryCurve.D(), n) == DynnikovCoordinates(
            n=n, a=(0,), b=(0, -1), t=0, c1=1, c2=1
        )

    def test_displays_for_n3(self):
        n = 3
        assert elementary_coords(ElementaryCurve.Cij(1, 2), n).b == (1, 0, 0)
        assert elementary_coords(ElementaryCurve.Cij(2, 3), n).b == (-1, 1, 0)
        assert elementary_coords(ElementaryCurve.Cprime1(1), n).b == (0, 0, 1)
        assert elementary_coords(ElementaryCurve.Cprime1(3), n).b == (0, -1, 1)
        assert elementary_coords(ElementaryCurve.Cprime2(3), n).b == (0, -1, 0)

    def test_nonprimitive_encodings(self):
        assert elementary_coords(ElementaryCurve.core(1), 2).c1 == -1
        assert elementary_coords(ElementaryCurve.bounding(2), 2).c2 == -2

    def test_all_catalog_coords_are_realizable(self):
        for n in (2, 3, 4):
            for curve in catalog(n):
                v = elementary_coords(curve, n)
                assert realizable(v)
                invert(v)


class TestFinalExampleValues:
    def test_cprime22(self):
        assert intersect_elementary(FINAL, ElementaryCurve.Cprime2(2)) == 4

    def test_c_then_d(self):
        assert intersect_elementary(FINAL, ElementaryCurve.C()) == 2
        assert intersect_elementary(FINAL, ElementaryCurve.D()) == 0

    def test_batch_matches_single(self):
        for curve, value in elementary_values(FINAL):
            assert intersect_elementary(FINAL, curve) == value

    def test_shuffled_subset_keeps_request_order(self):
        rnd = random.Random(3)
        for v in (FINAL, parse_coords("(3,-2,0,5,1,-4,2; 1,-3,2,0,4,-1,2,-2; 2; 2,3)")):
            full = dict(elementary_values(v))
            subset = rnd.sample(catalog(v.n), len(full) // 2)
            assert elementary_values(v, tuple(subset)) == [(c, full[c]) for c in subset]


def _wide_vector(rnd, n, magnitude):
    """A seeded realizable vector with entries up to ``magnitude`` and
    ``c`` up to 10^3, past the domain of the two-case ``D`` rule."""
    cmax = rnd.choice((1, 10**3))
    while True:
        a = tuple(rnd.randint(-magnitude, magnitude) for _ in range(n - 1))
        b = tuple(rnd.randint(-magnitude, magnitude) for _ in range(n))
        t, c1, c2 = rnd.randint(-magnitude, magnitude), rnd.randint(0, cmax), rnd.randint(0, cmax)
        if (t + max(c1 - abs(b[-1]), 0)) % 2:
            t += 1
        if any(a + b + (t, c1, c2)):
            return DynnikovCoordinates(n=n, a=a, b=b, t=t, c1=c1, c2=c2)


class TestRowLookupMatchesPerCurveLoop:
    """The values read off the rows through the per-``n`` layout equal the
    formulas evaluated one curve at a time (values only: past ``c <= 1``
    the ``D`` rule may go negative, on both paths alike)."""

    @pytest.mark.parametrize("n, cases", [(2, 40), (3, 40), (5, 30), (12, 12), (64, 2)])
    @pytest.mark.parametrize("magnitude", [1, 3, 10**3, 10**9])
    def test_catalog_subsets_and_d_alone(self, n, cases, magnitude):
        rnd = random.Random(f"{n}-{magnitude}")
        curves = catalog(n)
        for _ in range(cases):
            v = _wide_vector(rnd, n, magnitude)
            tri = invert(v)
            p = profile(tri)
            shuffled = tuple(rnd.sample(curves, rnd.randint(1, len(curves))))
            repeated = tuple(rnd.choices(curves, k=len(curves) + 3))
            d = ElementaryCurve.D()
            for chosen in (None, curves, shuffled, repeated, (d,), (d, ElementaryCurve.C(), d)):
                got = elementary_values(v, chosen)
                chosen = curves if chosen is None else chosen
                assert [c for c, _ in got] == list(chosen)
                assert [x for _, x in got] == per_curve_values(tri, p, chosen), (v, chosen)


class TestDerivedValues:
    def test_self_intersection_of_c_is_zero(self):
        v = elementary_coords(ElementaryCurve.C(), 2)
        assert intersect_elementary(v, ElementaryCurve.C()) == 0

    def test_d_inside_the_both_crosscap_disk(self):
        v = elementary_coords(ElementaryCurve.D(), 2)
        assert intersect_elementary(v, ElementaryCurve.C()) == 0

    def test_d_value_uses_first_branch_when_c_count_vanishes(self):
        # one curve through each crosscap, no shared passage to pair with
        v = DynnikovCoordinates(n=2, a=(0,), b=(0, -1), t=0, c1=1, c2=0)
        assert intersect_elementary(v, ElementaryCurve.C()) == 0
        assert intersect_elementary(v, ElementaryCurve.D()) == 1

    def test_case_b_of_the_d_split(self):
        # c1 = c2 with passages pairing off: value drops to zero exactly
        v = parse_coords("(-1; 1,0; 1; 1,1)")
        with_c = intersect_elementary(v, ElementaryCurve.C())
        assert with_c == 2 and v.c1 == v.c2 == 1
        assert intersect_elementary(v, ElementaryCurve.D()) == with_c - 2 * v.c1

    def test_d_case_split_domain_gap_witness(self):
        # The two-case rule undercounts when one component threads a
        # crosscap more than once: here a single curve passes the first
        # crosscap twice and the second once, and the second branch goes
        # negative.  Kept as a pinned witness of the known limitation; the
        # tracing oracle is calibrated to the same case split, so the two
        # paths still agree (see the acceptance sweep).
        v = parse_coords("(0; 0,0; 0; 2,1)")
        assert intersect_elementary(v, ElementaryCurve.C()) == 2
        assert intersect_elementary(v, ElementaryCurve.D()) == -1


class TestErrors:
    def test_nonprimitive_curves_rejected(self):
        with pytest.raises(UnsupportedCurveError):
            intersect_elementary(FINAL, ElementaryCurve.core(1))
        with pytest.raises(UnsupportedCurveError):
            intersect_elementary(FINAL, ElementaryCurve.bounding(2))

    def test_nonprimitive_content_rejected(self):
        v = DynnikovCoordinates(n=2, a=(0,), b=(0, 0), t=0, c1=-1, c2=0)
        with pytest.raises(NonprimitiveContentError):
            intersect_elementary(v, ElementaryCurve.C())
        with pytest.raises(NonprimitiveContentError):
            elementary_values(v)

    def test_content_error_comes_before_curve_error(self):
        # bad in two ways: the multicurve is checked before the curves
        v = DynnikovCoordinates(n=2, a=(0,), b=(0, 0), t=0, c1=-1, c2=0)
        with pytest.raises(NonprimitiveContentError):
            intersect_elementary(v, ElementaryCurve.core(1))

    def test_curve_out_of_range_for_n(self):
        with pytest.raises(InvalidParameterError):
            intersect_elementary(FINAL, ElementaryCurve.Cij(1, 3))

    @pytest.mark.parametrize(
        "i, j", [(1, 2.0), (1.0, 2), (True, 2), (1, True), (1, "2"), (None, 2)]
    )
    def test_non_integer_indices_rejected(self, i, j):
        # floats used to reach the formulas and fail there on tuple indexing
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            intersect_elementary(FINAL, ElementaryCurve.Cij(i, j))

    def test_non_integer_index_of_one_index_kinds_rejected(self):
        with pytest.raises(InvalidParameterError, match="i must be an integer"):
            ElementaryCurve.Cprime1(1.5)
        with pytest.raises(InvalidParameterError, match="i must be an integer"):
            ElementaryCurve.Cprime2(False)
        with pytest.raises(InvalidParameterError, match="j must be an integer"):
            ElementaryCurve.core(1.0)


def _sample_grid(n, bound, step):
    dims = 2 * n + 2
    pts = itertools.product(
        *([range(-bound, bound + 1)] * (dims - 2) + [range(0, bound + 1)] * 2)
    )
    for point in itertools.islice(pts, 0, None, step):
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


class TestStructuralProperties:
    def test_nonnegative_and_even_on_sampled_grid(self):
        for n, step in ((2, 7), (3, 997)):
            for v in _sample_grid(n, 3, step):
                for curve, value in elementary_values(v):
                    if curve.kind != "D":
                        assert value >= 0, (v, curve)
                        assert value % 2 == 0, (v, curve)

    def test_symmetry_between_catalog_curves(self):
        for n in (2, 3):
            curves = catalog(n)
            for e1, e2 in itertools.combinations(curves, 2):
                v1 = elementary_coords(e1, n)
                v2 = elementary_coords(e2, n)
                assert intersect_elementary(v1, e2) == intersect_elementary(v2, e1), (
                    e1,
                    e2,
                )

    def test_self_intersection_zero_across_catalog(self):
        for n in (2, 3):
            for curve in catalog(n):
                v = elementary_coords(curve, n)
                assert intersect_elementary(v, curve) == 0, curve


def paper_range(curve, n):
    """The region range the paper pairs with a disk-bounding curve."""
    if curve.kind == "Cij":
        return RegionRange.punctures(curve.i - 1, curve.j - 1)
    if curve.kind == "Cprime1":
        return RegionRange.through_first(curve.i - 1)
    if curve.kind == "Cprime2":
        return RegionRange.through_second(curve.i - 1)
    assert curve.kind == "C"
    return RegionRange.through_second(n)


class TestPaperRanges:
    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_formulas_read_the_papers_range(self, n):
        # each value is the strand total on the range's boundary arcs minus
        # twice its large counts; the oracle shares the formulas' choice of
        # band, so only this test sees a curve read off the wrong range
        rnd = random.Random(n)
        for _ in range(60):
            v = random_vector(rnd, n, rnd.choice((3, 10**6)))
            tri = invert(v)
            p = profile(tri)
            for curve, value in elementary_values(v):
                if curve.kind == "D":
                    continue
                rng = paper_range(curve, n)
                left = tri.beta[rng.l - 1] if rng.l else 0
                right = (tri.beta[rng.m], tri.beta[n], 0)[rng.crosscap]
                c = counts_for_range(p, rng)
                large = (c.over or 0) + (c.under or 0) + c.right_loops + (c.left_loops or 0)
                assert value == left + right - 2 * large, (v, curve)
