"""The strand-tracing oracle and the grid self-test machinery."""

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from crosscap.components import (
    BOUNDING_CURVE,
    CORE_CURVE,
    CORE_LOOP,
    STRAIGHT_CORE,
    Bundle,
    GluingDescription,
    profile,
    reconstruct,
)
from crosscap.coords import DynnikovCoordinates, TriangleCoordinates, parse_coords
from crosscap.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonprimitiveContentError,
    UnsupportedCurveError,
)
from crosscap import oracle
from crosscap.intersect import ElementaryCurve, _catalog_layout, catalog, elementary_coords
from crosscap.inversion import invert, realizable
from crosscap.large import _span
from crosscap.oracle import (
    _band_counts,
    _row,
    _traced_values,
    build_diagram,
    compare_point,
    count_crossings,
    grid_points,
    grid_size,
    SelftestReport,
    large_census,
    run_selftest,
)
from crosscap.render import RenderSpec, render_svg
from slot_trace import NEGATIVE_C, closed_components, gluing_dict, links, sample_vectors, slot_census
from test_components import GOLDEN, GOLDEN_VECTORS
from test_large import all_ranges

EX1 = TriangleCoordinates(n=2, alpha=(1, 5), beta=(6, 4, 4), gamma=4, c1=2, c2=0)
EX2 = TriangleCoordinates(n=2, alpha=(3, 1), beta=(4, 2, 2), gamma=4, c1=1, c2=1)


def species_count(gl, species, region):
    return sum(1 for lk in links(gl) if lk.species == species and lk.region == region)


def link_census(gl):
    """Core passages through crosscaps 1 and 2, and whether whole
    non-primitive curves are present, read off the glued links."""
    n = gl.n
    passes1 = species_count(gl, STRAIGHT_CORE, n) + species_count(gl, CORE_LOOP, n)
    passes2 = species_count(gl, CORE_LOOP, n + 1)
    nonprimitive = any(lk.species in (CORE_CURVE, BOUNDING_CURVE) for lk in links(gl))
    return passes1, passes2, nonprimitive


def sampled_profiles():
    """A strided n=3 grid plus a few vectors with negative ``c`` entries."""
    grid = itertools.islice(grid_points(3, 2, 2), 0, 20000, 41)
    negative = (parse_coords(text) for text in NEGATIVE_C)
    for v in itertools.chain(grid, negative):
        yield profile(invert(v))


class TestBuildDiagram:
    def test_build_diagram_is_the_gluing(self):
        assert build_diagram(profile(EX1)) == reconstruct(profile(EX1))

    def test_slot_totals_match_crossing_counts(self):
        dg = build_diagram(profile(EX1))
        assert dg.arc_sizes == (6, 4, 4)
        dg2 = build_diagram(profile(EX2))
        assert dg2.arc_sizes == (4, 2, 2)

    def test_passage_census(self):
        dg = build_diagram(profile(EX2))
        assert species_count(dg, STRAIGHT_CORE, 2) == 1
        assert species_count(dg, CORE_LOOP, 2) == 0
        assert species_count(dg, CORE_LOOP, 3) == 1
        for p in sampled_profiles():
            assert link_census(build_diagram(p)) == (
                p.straight_cores + p.cross1_core_loops,
                p.cross2_core_loops,
                p.nonprimitive.any(),
            ), p

    def test_determinism(self):
        a = build_diagram(profile(EX1))
        b = build_diagram(profile(EX1))
        assert [lk.slots for lk in links(a)] == [lk.slots for lk in links(b)]
        assert a == b

    def test_closed_components_of_final_example(self):
        # the final example is a single closed curve through 8 links
        dg = build_diagram(profile(EX2))
        comps = closed_components(dg)
        assert sorted(len(c) for c in comps) == [8]

    def test_closed_components_with_nonprimitives(self):
        tri = TriangleCoordinates(n=2, alpha=(0, 0), beta=(0, 0, 0), gamma=0, c1=-1, c2=-2)
        comps = closed_components(build_diagram(profile(tri)))
        assert sorted(len(c) for c in comps) == [1, 1]

    def test_closed_components_partition_the_links(self):
        for p in sampled_profiles():
            dg = build_diagram(p)
            ids = [lid for cycle in closed_components(dg) for lid in cycle]
            assert sorted(ids) == list(range(len(links(dg)))), p

    def test_two_crosscap_curve_is_one_component(self):
        v = elementary_coords(ElementaryCurve.D(), 2)
        dg = build_diagram(profile(invert(v)))
        comps = closed_components(dg)
        assert len(comps) == 1
        assert species_count(dg, CORE_LOOP, 2) == species_count(dg, CORE_LOOP, 3) == 1


class TestCountCrossings:
    def test_final_example_against_named_curves(self):
        dg = build_diagram(profile(EX2))
        assert count_crossings(dg, ElementaryCurve.Cprime2(2)) == 4
        assert count_crossings(dg, ElementaryCurve.D()) == 0
        assert count_crossings(dg, ElementaryCurve.C()) == 2

    def test_empty_diagram(self):
        tri = TriangleCoordinates(n=2, alpha=(0, 0), beta=(0, 0, 0), gamma=0, c1=0, c2=0)
        dg = build_diagram(profile(tri))
        for curve in (
            ElementaryCurve.Cij(1, 2),
            ElementaryCurve.Cprime1(1),
            ElementaryCurve.C(),
            ElementaryCurve.D(),
        ):
            assert count_crossings(dg, curve) == 0

    def test_unsupported_and_nonprimitive(self):
        dg = build_diagram(profile(EX2))
        with pytest.raises(UnsupportedCurveError):
            count_crossings(dg, ElementaryCurve.core(1))
        tri = TriangleCoordinates(n=2, alpha=(0, 0), beta=(0, 0, 0), gamma=0, c1=-1, c2=0)
        dg_np = build_diagram(profile(tri))
        with pytest.raises(NonprimitiveContentError):
            count_crossings(dg_np, ElementaryCurve.D())

    def test_nested_curve_families_cross_as_expected(self):
        # two nested puncture disks: inner C_{1,2} inside outer C_{1,3}
        v = elementary_coords(ElementaryCurve.Cij(1, 2), 3)
        dg = build_diagram(profile(invert(v)))
        assert count_crossings(dg, ElementaryCurve.Cij(1, 3)) == 0
        assert count_crossings(dg, ElementaryCurve.Cij(2, 3)) == 2


class TestIntervalTracing:
    def test_census_matches_slot_reference(self):
        # every range, on the whole n=2 grid, a strided n=3 grid and
        # negative-c vectors
        for v in sample_vectors():
            gl = build_diagram(profile(invert(v)))
            for rng in all_ranges(v.n):
                band = _span(rng, v.n)
                ref = slot_census(gl, *band)
                assert _band_counts(gl, *band) == (
                    ref["over"], ref["under"], ref["right"], ref["left"], 2 * ref[None]
                ), (v, rng)

    @pytest.mark.slow
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_formulas_match_oracle_at_large_magnitude(self, data):
        # entries up to 10^9 and n up to 64; small entries now and then
        # force ties between neighbouring counts
        n = data.draw(st.integers(2, 64))
        entry = st.one_of(st.integers(-2, 2), st.integers(-(10**9), 10**9))
        c_entry = st.one_of(st.integers(0, 2), st.integers(0, 10**9))
        a = tuple(data.draw(entry) for _ in range(n - 1))
        b = tuple(data.draw(entry) for _ in range(n))
        t, c1, c2 = data.draw(entry), data.draw(c_entry), data.draw(c_entry)
        if not any(a + b + (t, c1, c2)):
            c1 = 1
        v = DynnikovCoordinates(n=n, a=a, b=b, t=t, c1=c1, c2=c2)
        if not realizable(v):
            v = DynnikovCoordinates(n=n, a=a, b=b, t=t + 1, c1=c1, c2=c2)
        assert compare_point(v) == []


def memo_vectors(n, count=12):
    """Seeded realizable vectors with ``n`` punctures, entries up to 50
    and ``c1, c2 >= 0``."""
    rng = random.Random(n)
    out = []
    for _ in range(count):
        a = tuple(rng.randint(-50, 50) for _ in range(n - 1))
        b = tuple(rng.randint(-50, 50) for _ in range(n))
        t, c1, c2 = rng.randint(-50, 50), rng.randint(0, 50), rng.randint(1, 50)
        v = DynnikovCoordinates(n=n, a=a, b=b, t=t, c1=c1, c2=c2)
        if not realizable(v):
            v = DynnikovCoordinates(n=n, a=a, b=b, t=t + 1, c1=c1, c2=c2)
        out.append(v)
    return out


def trace_everything(gl):
    """Every catalog curve one call at a time, then every range, then the
    whole catalog at once: each reads the diagram's rows."""
    for curve in catalog(gl.n):
        count_crossings(gl, curve)
    for rng in all_ranges(gl.n):
        large_census(gl, rng)
    layout = _catalog_layout(gl.n)
    return _traced_values(gl, layout.bands, layout.d_at)


class TestRowMemo:
    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_each_row_traced_once_per_diagram(self, n, monkeypatch):
        traced = Counter()

        def counting_row(gl, arc, rightward):
            traced[id(gl), arc, rightward] += 1
            return _row(gl, arc, rightward)

        monkeypatch.setattr(oracle, "_row", counting_row)
        for v in memo_vectors(n):
            traced.clear()
            gl = build_diagram(profile(invert(v)))
            trace_everything(gl)
            trace_everything(gl)
            assert traced and max(traced.values()) == 1, v

    def test_memo_matches_fresh_diagram_and_slot_reference(self):
        # rows traced first, then every range read off them
        for v in sample_vectors():
            prof = profile(invert(v))
            gl = build_diagram(prof)
            if v.c1 >= 0 and v.c2 >= 0:
                layout = _catalog_layout(v.n)
                fresh = _traced_values(build_diagram(prof), layout.bands, layout.d_at)
                assert trace_everything(gl) == fresh, v
            else:  # no catalog values: the ranges alone fill the rows
                for rng in all_ranges(v.n):
                    large_census(gl, rng)
            for rng in all_ranges(v.n):
                band = _span(rng, v.n)
                ref = slot_census(gl, *band)
                assert _band_counts(gl, *band) == (
                    ref["over"], ref["under"], ref["right"], ref["left"], 2 * ref[None]
                ), (v, rng)
            # every kept row is the row a freshly built diagram traces
            fresh = build_diagram(prof)
            assert all(row == _row(fresh, *key) for key, row in gl._rows.items()), v

    def test_tracing_leaves_the_diagram_as_it_was(self):
        for name, text in sorted(GOLDEN_VECTORS.items()):
            gl = build_diagram(profile(invert(parse_coords(text))))
            before = (hash(gl), repr(gl), gluing_dict(gl))
            for rng in all_ranges(gl.n):
                large_census(gl, rng)
            assert gl._rows
            assert gl == build_diagram(profile(invert(parse_coords(text))))
            assert (hash(gl), repr(gl), gluing_dict(gl)) == before
            assert json.dumps(gluing_dict(gl), indent=1) + "\n" == (GOLDEN / f"{name}.json").read_text()
            assert render_svg(gl, RenderSpec()) == (GOLDEN / f"{name}.svg").read_text()


def equal_species(gl):
    """``gl`` rebuilt through the public constructors, each species a new
    string equal to the library's tag but not the same object."""
    bundles = tuple(
        Bundle(
            region=b.region,
            species="".join(list(b.species)),
            ends=b.ends,
            width=b.width,
            reversed=b.reversed,
        )
        for b in gl.bundles
    )
    assert all(c.species == b.species and c.species is not b.species for b, c in zip(gl.bundles, bundles))
    return GluingDescription(
        n=gl.n,
        arc_sizes=gl.arc_sizes,
        bundles=bundles,
        left_ends=gl.left_ends,
        right_ends=gl.right_ends,
    )


def magnitude_vectors(count=6, n=3, mag=10**3):
    """Seeded realizable vectors with entries up to ``mag`` and ``c >= 0``."""
    rnd = random.Random(mag + n)
    out = []
    while len(out) < count:
        a = tuple(rnd.randint(-mag, mag) for _ in range(n - 1))
        b = tuple(rnd.randint(-mag, mag) for _ in range(n))
        v = DynnikovCoordinates(
            n=n, a=a, b=b, t=rnd.randint(-mag, mag), c1=rnd.randint(0, mag), c2=rnd.randint(0, mag)
        )
        if realizable(v):
            out.append(v)
    return out


class TestEqualSpecies:
    """Species are compared by value: a diagram built through the public
    constructors from equal but distinct strings traces as the library's."""

    def test_counts_match_the_library_diagram(self):
        vectors = [
            *itertools.islice(sample_vectors(), 0, None, 7),
            *map(parse_coords, NEGATIVE_C),
            *magnitude_vectors(),
        ]
        assert any(v.c1 < 0 for v in vectors) and any(v.c1 > 100 for v in vectors)
        for v in vectors:
            gl = build_diagram(profile(invert(v)))
            twin = equal_species(gl)
            assert twin == gl
            for rng in all_ranges(v.n):
                assert large_census(twin, rng) == large_census(gl, rng), (v, rng)
            if v.c1 >= 0 and v.c2 >= 0:
                for curve in catalog(v.n):
                    assert count_crossings(twin, curve) == count_crossings(gl, curve), (v, curve)


class TestGrid:
    def test_grid_size(self):
        assert grid_size(2, 2, 2) == 5 ** 4 * 3 ** 2
        assert grid_size(2, 3, 3) == 7 ** 4 * 4 ** 2

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((2, 1.5, 1), InvalidParameterError, "bound must be an integer, got 1.5"),
            ((2, 1, 1.0), InvalidParameterError, "cmax must be an integer, got 1.0"),
            ((2, True, 1), InvalidParameterError, "bound must be an integer, got True"),
            ((2.0, 1, 1), DimensionMismatchError, "n must be an integer, got 2.0"),
            ((1, 1, 1), DimensionMismatchError, "puncture count must be >= 2, got 1"),
            ((2, -2, 1), InvalidParameterError, "bound and cmax must be >= 0, got -2 and 1"),
            ((2, 1, -3), InvalidParameterError, "bound and cmax must be >= 0, got 1 and -3"),
        ],
    )
    def test_one_argument_check(self, args, error, message):
        # the grid's size, its points and the sweep reject the same arguments alike
        for call in (grid_size, grid_points, lambda *a: run_selftest(*a, jobs=1)):
            with pytest.raises(error) as info:
                call(*args)
            assert str(info.value) == message

    @pytest.mark.parametrize("jobs", [True, 1.0, "2"])
    def test_jobs_must_be_an_int(self, jobs):
        with pytest.raises(InvalidParameterError, match="^jobs must be an integer"):
            run_selftest(n=2, bound=1, jobs=jobs)

    def test_grid_points_are_realizable_and_nonzero(self):
        pts = list(grid_points(2, 1, 1))
        assert all(any(p.entries()) for p in pts)
        assert len(pts) == sum(1 for _ in grid_points(2, 1, 1))

    def test_points_per_second(self):
        report = run_selftest(n=2, bound=1, jobs=1)
        assert report.points_per_second == report.points_checked / report.elapsed > 0
        assert SelftestReport(n=2, bound=1, cmax=1).points_per_second == 0.0

    def test_compare_point_clean_on_examples(self):
        assert compare_point(parse_coords("(2; 1,0; -2; 2,0)")) == []
        assert compare_point(parse_coords("(-1; 1,0; 1; 1,1)")) == []

    def test_compare_point_rejects_nonprimitive_content(self):
        with pytest.raises(NonprimitiveContentError):
            compare_point(parse_coords("(0; 0,0; 0; -1,0)"))

    def test_selftest_default_bounds_clean(self):
        report = run_selftest(n=2, bound=1, jobs=1)
        assert report.ok
        assert report.points_checked > 0

    def test_selftest_parallel_matches_serial(self):
        serial = run_selftest(n=2, bound=1, jobs=1)
        parallel = run_selftest(n=2, bound=1, jobs=2)
        assert serial.points_checked == parallel.points_checked
        assert serial.ok and parallel.ok
