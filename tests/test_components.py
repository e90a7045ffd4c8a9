"""Component profiles and the crossing-free gluing."""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crosscap.components import (
    ABOVE,
    BELOW,
    CORE_CURVE,
    CORE_LOOP,
    LOOP_LEFT,
    LOOP_RIGHT,
    NONCORE_LOOP,
    STRAIGHT_CORE,
    ComponentProfile,
    NonprimitiveCurves,
    profile,
    reconstruct,
)
from crosscap.cli import main
from crosscap.coords import DynnikovCoordinates, TriangleCoordinates, parse_coords
from crosscap.errors import EndpointMismatchError, ParityViolationError
from crosscap.inversion import invert, realizable
from paper_forms import _paper_literal_crosscap_above_below
from slot_trace import gluing_dict, links, sample_vectors

GOLDEN = Path(__file__).parent / "golden"
# Gluing JSON and rendered SVG pinned from the per-slot gluing, which
# numbered every link and slot one at a time.
GOLDEN_VECTORS = {
    "ex1": "(2; 1,0; -2; 2,0)",
    "ex2": "(-1; 1,0; 1; 1,1)",
    "n3_right": "(0,0; 3,-2,1; 0; 3,3)",
    "n3_left": "(-2,0; 2,-2,-1; -2; 3,3)",
    "n3_noncore": "(-2,0; -3,2,-3; -2; 2,2)",
    "nonprimitive": "(2; 1,0; -2; -1,-2)",
}

EX1 = TriangleCoordinates(n=2, alpha=(1, 5), beta=(6, 4, 4), gamma=4, c1=2, c2=0)
EX2 = TriangleCoordinates(n=2, alpha=(3, 1), beta=(4, 2, 2), gamma=4, c1=1, c2=1)


class TestHalfDifferences:
    def test_worked_example(self):
        assert EX1.half_differences() == (1, 0)

    def test_final_example(self):
        assert EX2.half_differences() == (1, 0)

    def test_zero(self):
        zero = TriangleCoordinates(n=2, alpha=(0, 0), beta=(0, 0, 0), gamma=0, c1=0, c2=0)
        assert zero.half_differences() == (0, 0)

    def test_odd_difference_raises(self):
        # an odd difference needs an odd beta, which construction rejects
        with pytest.raises(ParityViolationError):
            TriangleCoordinates(n=2, alpha=(1, 1), beta=(3, 2, 2), gamma=2, c1=0, c2=0)


class TestProfile:
    def test_worked_example_profile(self):
        p = profile(EX1)
        assert (p.above, p.below) == ((0,), (4,))
        assert (p.loops, p.sides) == ((1,), ("right",))
        assert (p.cross1_above, p.cross1_below) == (0, 2)
        assert p.straight_cores == 2
        assert (p.cross1_noncore_loops, p.cross1_core_loops) == (0, 0)
        assert p.s0_loops == 3
        assert (p.cross2_noncore_loops, p.cross2_core_loops) == (2, 0)

    def test_final_example_profile(self):
        p = profile(EX2)
        assert (p.above, p.below) == ((2,), (0,))
        assert (p.cross1_above, p.cross1_below) == (1, 0)
        assert p.straight_cores == 1
        assert (p.cross2_noncore_loops, p.cross2_core_loops) == (0, 1)

    def test_region_table(self):
        # (above, below, straight cores, core loops, non-core loops, side)
        # of regions 0..n+1
        assert profile(EX1).regions == (
            (0, 0, 0, 0, 3, "left"),
            (0, 4, 0, 0, 1, "right"),
            (0, 2, 2, 0, 0, "none"),
            (0, 0, 0, 0, 2, "right"),
        )
        assert profile(EX2).regions == (
            (0, 0, 0, 0, 2, "left"),
            (2, 0, 0, 0, 1, "right"),
            (1, 0, 1, 0, 0, "none"),
            (0, 0, 0, 1, 0, "right"),
        )
        p = profile(invert(parse_coords(GOLDEN_VECTORS["n3_left"])))
        assert p.cross1_side == "left"
        assert p.regions == (
            (0, 0, 0, 0, 4, "left"),
            (4, 0, 0, 0, 2, "right"),
            (2, 2, 0, 0, 2, "left"),
            (2, 4, 2, 1, 0, "left"),
            (0, 0, 0, 3, 2, "right"),
        )
        # a replaced profile computes its own table
        assert dataclasses.replace(p, above=(5, 2)).regions[1] == (5, 0, 0, 0, 2, "right")

    def test_pure_nonprimitive_core(self):
        tri = TriangleCoordinates(n=2, alpha=(0, 0), beta=(0, 0, 0), gamma=0, c1=-1, c2=0)
        p = profile(tri)
        assert p.s0_loops == 0 and p.above == (0,) and p.below == (0,)
        assert p.straight_cores == 0 and p.cross1_core_loops == 0
        assert p.nonprimitive == NonprimitiveCurves(1, 0, 0, 0)

    def test_nonprimitive_decoding(self):
        assert NonprimitiveCurves.from_c(-1, 0) == NonprimitiveCurves(1, 0, 0, 0)
        assert NonprimitiveCurves.from_c(0, -4) == NonprimitiveCurves(0, 0, 0, 2)
        assert NonprimitiveCurves.from_c(-5, -1) == NonprimitiveCurves(1, 2, 1, 0)
        assert NonprimitiveCurves.from_c(3, 2) == NonprimitiveCurves(0, 0, 0, 0)

    def test_straight_cores_exclude_noncore_loops(self):
        # the mutual-exclusion identity: one of the two is always zero
        for c1 in range(0, 4):
            for bn in range(-3, 4):
                if not (c1 or bn):
                    continue
                v = DynnikovCoordinates(
                    n=2, a=(0,), b=(0, bn), t=(max(c1 - abs(bn), 0)) % 2, c1=c1, c2=0
                )
                if not realizable(v):
                    continue
                p = profile(invert(v))
                assert p.straight_cores * p.cross1_noncore_loops == 0

    def test_uncorrected_crosscap_counts_fail_on_worked_example(self):
        above, below = _paper_literal_crosscap_above_below(EX1)
        assert below == 4  # double the true count
        assert profile(EX1).cross1_below == 2


def _census(gl):
    counts = {}
    for lk in links(gl):
        counts[(lk.region, lk.species)] = counts.get((lk.region, lk.species), 0) + 1
    return counts


class TestReconstruct:
    def test_worked_example_gluing(self):
        p = profile(EX1)
        gl = reconstruct(p)
        assert gl.arc_sizes == (6, 4, 4)
        census = _census(gl)
        assert census[(0, LOOP_LEFT)] == 3
        assert census[(1, BELOW)] == 4
        assert census[(1, LOOP_RIGHT)] == 1
        assert census[(2, BELOW)] == 2
        assert census[(2, STRAIGHT_CORE)] == 2
        assert census[(3, NONCORE_LOOP)] == 2
        assert (1, ABOVE) not in census

    def test_final_example_gluing(self):
        gl = reconstruct(profile(EX2))
        assert gl.arc_sizes == (4, 2, 2)
        census = _census(gl)
        assert census[(1, ABOVE)] == 2
        assert census[(2, ABOVE)] == 1
        assert census[(2, STRAIGHT_CORE)] == 1
        assert census[(3, CORE_LOOP)] == 1
        assert sum(census.values()) == 8

    def test_empty_profile_gives_empty_description(self):
        tri = TriangleCoordinates(n=2, alpha=(0, 0), beta=(0, 0, 0), gamma=0, c1=0, c2=0)
        gl = reconstruct(profile(tri))
        assert links(gl) == ()
        assert gl.arc_sizes == (0, 0, 0)

    def test_nonprimitive_components_are_closed_links(self):
        tri = TriangleCoordinates(n=2, alpha=(0, 0), beta=(0, 0, 0), gamma=0, c1=-3, c2=-2)
        gl = reconstruct(profile(tri))
        species = sorted(lk.species for lk in links(gl))
        assert species == ["bounding_curve", "bounding_curve", "core_curve"]
        assert all(lk.slots == () for lk in links(gl))

    def test_every_slot_filled_once_per_side(self):
        # the per-slot expansion, on EX1 and the oracle's reference sample
        profiles = [profile(EX1), *(profile(invert(v)) for v in sample_vectors())]
        for p in profiles:
            gl = reconstruct(p)
            lks = links(gl)
            for arc, size in enumerate(gl.arc_sizes):
                assert sorted(
                    slot for lk in lks for a, slot in lk.slots
                    if a == arc and lk.region == arc
                ) == list(range(size)), p
                assert sorted(
                    slot for lk in lks for a, slot in lk.slots
                    if a == arc and lk.region == arc + 1
                ) == list(range(size)), p

    def test_endpoint_totals_mismatch_raises(self):
        p = dataclasses.replace(profile(EX1), s0_loops=2)
        with pytest.raises(EndpointMismatchError, match="arc 1 has 6 slots but 4 endpoints"):
            reconstruct(p)

    def test_overlapping_blocks_raise(self):
        # endpoint totals still match on every arc, but the blocks overlap
        p = dataclasses.replace(profile(EX1), above=(-1,), below=(5,))
        assert all(p.endpoints_on_arc(arc) == (b, b) for arc, b in enumerate(p.beta))
        with pytest.raises(EndpointMismatchError, match="slot -1 on arc \\d assigned twice"):
            reconstruct(p)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"above": (-1,), "below": (5,)}, "slot -1 on arc 1 assigned twice"),
            ({"cross1_above": -1, "cross1_below": 3}, "slot -1 on arc 2 assigned twice"),
            (
                {"cross2_core_loops": -1, "cross2_noncore_loops": 3},
                "slot 1 on arc 3 assigned twice",
            ),
        ],
        ids=["puncture", "first-crosscap", "second-crosscap"],
    )
    def test_blocks_that_do_not_tile(self, change, message):
        # the endpoint totals match on every arc: only the tiling check sees these
        p = dataclasses.replace(profile(invert(parse_coords(GOLDEN_VECTORS["ex1"]))), **change)
        assert all(p.endpoints_on_arc(arc) == (b, b) for arc, b in enumerate(p.beta))
        with pytest.raises(EndpointMismatchError) as err:
            reconstruct(p)
        assert str(err.value) == message

    def test_ends_in_strictly_increasing_slot_order(self):
        # oracle._row bisects each arc side's ends by first slot;
        # sample_vectors() ends with the negative-c vectors
        checked = 0
        for v in sample_vectors():
            gl = reconstruct(profile(invert(v)))
            for ends in (*gl.left_ends, *gl.right_ends):
                firsts = [first for first, _, _ in ends]
                assert all(a < b for a, b in zip(firsts, firsts[1:])), v
            checked += 1
        assert checked > 5000

    @pytest.mark.parametrize("name", sorted(GOLDEN_VECTORS))
    def test_golden_gluing_and_render(self, name, capsys):
        text = GOLDEN_VECTORS[name]
        gl = reconstruct(profile(invert(parse_coords(text))))
        assert json.dumps(gluing_dict(gl), indent=1) + "\n" == (GOLDEN / f"{name}.json").read_text()
        assert main(["render", text]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{name}.svg").read_text()

    def test_json_shape(self):
        d = gluing_dict(reconstruct(profile(EX2)))
        assert d["arc_strands"] == [4, 2, 2]
        assert all({"id", "region", "species", "slots"} <= set(e) for e in d["links"])


@st.composite
def realizable_vectors(draw):
    n = draw(st.sampled_from([2, 3]))
    ints = st.integers(-3, 3)
    a = tuple(draw(ints) for _ in range(n - 1))
    b = tuple(draw(ints) for _ in range(n))
    t = draw(ints)
    c1 = draw(st.integers(-2, 3))
    c2 = draw(st.integers(-2, 3))
    if not (any(a) or any(b) or t or c1 or c2):
        c2 = 1
    v = DynnikovCoordinates(n=n, a=a, b=b, t=t, c1=c1, c2=c2)
    if not realizable(v):
        t += 1
        if not (any(a) or any(b) or t or c1 or c2):
            c2 = 2
        v = DynnikovCoordinates(n=n, a=a, b=b, t=t, c1=c1, c2=c2)
    return v


class TestConservation:
    @settings(max_examples=250, deadline=None)
    @given(realizable_vectors())
    def test_endpoint_conservation_on_every_arc(self, v):
        tri = invert(v)
        p = profile(tri)
        for arc in range(v.n + 1):
            left, right = p.endpoints_on_arc(arc)
            assert left == right == tri.beta[arc]

    @settings(max_examples=250, deadline=None)
    @given(realizable_vectors())
    def test_gluing_always_assembles(self, v):
        gl = reconstruct(profile(invert(v)))
        assert gl.arc_sizes == invert(v).beta

    @settings(max_examples=250, deadline=None)
    @given(realizable_vectors())
    def test_crosscap_imbalance_equals_t(self, v):
        p = profile(invert(v))
        assert p.cross1_above - p.cross1_below == v.t

    @settings(max_examples=250, deadline=None)
    @given(realizable_vectors())
    def test_gamma_identity(self, v):
        tri = invert(v)
        p = profile(tri)
        bn = tri.half_differences()[-1]
        assert tri.gamma == 2 * (p.cross1_above + abs(bn) + p.straight_cores)
