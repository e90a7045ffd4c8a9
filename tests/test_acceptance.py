"""Acceptance suite.

One test per criterion, each printing a ``criterion N PASS`` line (run with
``pytest -s`` to see them).  Grid criteria quantify over every encodable
vector in the stated box: nonzero, entries of ``a``/``b``/``t`` in
[-3, 3], ``c`` in [0, 3], for n = 2 and n = 3.  Vectors whose twist parity
rules them out of the coordinate map's image (no multicurve has them) are
required to be rejected explicitly, and everything else must pass exactly.
"""

import itertools
import time

import pytest

from crosscap.components import profile
from crosscap.coords import DynnikovCoordinates, TriangleCoordinates, parse_coords
from crosscap.errors import UnrealizableCoordinatesError
from crosscap.intersect import (
    ElementaryCurve,
    catalog,
    elementary_coords,
    intersect_elementary,
)
from crosscap.inversion import coordinatize, invert, realizable
from crosscap.oracle import run_selftest
from paper_forms import _paper_literal_crosscap_above_below

BOUND = 3
CMAX = 3


def box(n):
    """Every nonzero vector of the acceptance box, realizable or not."""
    dims = 2 * n
    for point in itertools.product(
        *([range(-BOUND, BOUND + 1)] * dims + [range(0, CMAX + 1)] * 2)
    ):
        if not any(point):
            continue
        yield DynnikovCoordinates(
            n=n,
            a=point[: n - 1],
            b=point[n - 1 : 2 * n - 1],
            t=point[2 * n - 1],
            c1=point[2 * n],
            c2=point[2 * n + 1],
        )


def _best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_golden_worked_example():
    v = parse_coords("(2; 1,0; -2; 2,0)", n=2)

    def compute():
        return invert(v), profile(invert(v))

    tri, p = compute()
    assert tri.alpha == (1, 5)
    assert tri.beta == (6, 4, 4)
    assert tri.gamma == 4
    assert (tri.c1, tri.c2) == (2, 0)
    assert p.above == (0,) and p.below == (4,)
    assert p.loops == (1,) and p.sides == ("right",)
    assert (p.cross1_above, p.cross1_below) == (0, 2)
    assert p.straight_cores == 2
    assert (p.cross2_noncore_loops, p.cross2_core_loops) == (2, 0)
    assert p.s0_loops == 3
    elapsed = _best_time(compute)
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    print(f"criterion 1 PASS: worked example exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_golden_final_example():
    v = parse_coords("(-1; 1,0; 1; 1,1)", n=2)

    def compute():
        return (
            invert(v),
            intersect_elementary(v, ElementaryCurve.Cprime2(2)),
            intersect_elementary(v, ElementaryCurve.C()),
            intersect_elementary(v, ElementaryCurve.D()),
        )

    tri, i_c22, i_c, i_d = compute()
    assert tri == TriangleCoordinates(
        n=2, alpha=(3, 1), beta=(4, 2, 2), gamma=4, c1=1, c2=1
    )
    assert i_c22 == 4
    assert i_c == 2
    assert i_d == 0
    elapsed = _best_time(compute)
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    print(f"criterion 2 PASS: final example exact in {elapsed * 1e6:.0f} us")


@pytest.mark.slow
def test_criterion_3_round_trip_bijection():
    t0 = time.perf_counter()
    round_tripped = rejected = 0
    for n in (2, 3):
        for v in box(n):
            if realizable(v):
                assert coordinatize(invert(v)) == v, v
                round_tripped += 1
            else:
                try:
                    invert(v)
                except UnrealizableCoordinatesError:
                    rejected += 1
                else:
                    raise AssertionError(f"{v} should have been rejected")
    elapsed = time.perf_counter() - t0
    assert round_tripped > 0 and rejected > 0
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"
    print(
        f"criterion 3 PASS: {round_tripped} vectors round-trip exactly, "
        f"{rejected} unencodable vectors rejected, {elapsed:.1f}s"
    )


@pytest.mark.slow
def test_criterion_4_formula_oracle_equivalence():
    t0 = time.perf_counter()
    reports = [
        run_selftest(n=2, bound=BOUND, cmax=CMAX, jobs=2),
        run_selftest(n=3, bound=BOUND, cmax=CMAX, jobs=2),
    ]
    elapsed = time.perf_counter() - t0
    for report in reports:
        assert report.ok, report.divergences[:3]
    checked = sum(r.points_checked for r in reports)
    curves = len(catalog(2)) + len(catalog(3))
    assert elapsed < 600, f"sweep took {elapsed:.1f}s"
    print(
        f"criterion 4 PASS: zero divergences over {checked} vectors x "
        f"{curves} curves, {elapsed:.1f}s"
    )


@pytest.mark.slow
def test_criterion_5_invariant_suite():
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 3):
        for v in box(n):
            if not realizable(v):
                continue
            tri = invert(v)
            assert all(x % 2 == 0 for x in tri.beta), v
            assert tri.gamma % 2 == 0, v
            assert all(
                (tri.alpha[2 * k] - tri.alpha[2 * k + 1]) % 2 == 0
                for k in range(n - 1)
            ), v
            p = profile(tri)  # construction checks derived nonnegativity
            for arc in range(n + 1):
                left, right = p.endpoints_on_arc(arc)
                assert left == right == tri.beta[arc], (v, arc)
            assert p.cross1_above - p.cross1_below == v.t, v
            checked += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 5 PASS: zero violations over {checked} vectors, {elapsed:.1f}s")


def test_criterion_6_erratum_regression():
    tri = invert(parse_coords("(2; 1,0; -2; 2,0)"))
    literal_above, literal_below = _paper_literal_crosscap_above_below(tri)
    corrected = profile(tri)
    assert literal_below == 4, "uncorrected published form should give 4"
    assert corrected.cross1_below == 2
    assert literal_below != corrected.cross1_below
    assert corrected.cross1_above == 0 and literal_above == 0
    print(
        "criterion 6 PASS: uncorrected crosscap counts fail the worked "
        f"example (below {literal_below} vs true {corrected.cross1_below})"
    )


def test_criterion_7_elementary_self_consistency():
    pairs = 0
    for n in (2, 3):
        curves = catalog(n)
        coords = {curve: elementary_coords(curve, n) for curve in curves}
        for curve in curves:
            assert intersect_elementary(coords[curve], curve) == 0, curve
        for e1, e2 in itertools.combinations(curves, 2):
            assert intersect_elementary(coords[e1], e2) == intersect_elementary(
                coords[e2], e1
            ), (e1, e2)
            pairs += 1
    print(f"criterion 7 PASS: self-intersections zero, {pairs} symmetric pairs")
