"""Vector <-> crossing-count conversion, both directions."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from crosscap.components import profile, reconstruct
from crosscap.coords import DynnikovCoordinates, TriangleCoordinates, parse_coords, parse_triangle
from crosscap.errors import (
    InconsistentTriangleError,
    ParityViolationError,
    UnrealizableCoordinatesError,
    ZeroVectorError,
)
from crosscap.inversion import coordinatize, invert, realizable
from paper_forms import max_plus_intermediates


def vec(n, a, b, t, c1, c2):
    return DynnikovCoordinates(n=n, a=tuple(a), b=tuple(b), t=t, c1=c1, c2=c2)


@st.composite
def boxed_vectors(draw, n_values=(2, 3), bound=3, cmax=3):
    n = draw(st.sampled_from(n_values))
    ints = st.integers(-bound, bound)
    a = tuple(draw(ints) for _ in range(n - 1))
    b = tuple(draw(ints) for _ in range(n))
    t = draw(ints)
    c1 = draw(st.integers(0, cmax))
    c2 = draw(st.integers(0, cmax))
    if not (any(a) or any(b) or t or c1 or c2):
        c2 = 1
    return vec(n, a, b, t, c1, c2)


class TestInvert:
    def test_worked_example(self):
        tri = invert(parse_coords("(2; 1,0; -2; 2,0)"))
        assert tri.alpha == (1, 5)
        assert tri.beta == (6, 4, 4)
        assert tri.gamma == 4
        assert (tri.c1, tri.c2) == (2, 0)

    def test_final_example(self):
        tri = invert(parse_coords("(-1; 1,0; 1; 1,1)"))
        assert tri == TriangleCoordinates(
            n=2, alpha=(3, 1), beta=(4, 2, 2), gamma=4, c1=1, c2=1
        )

    def test_both_crosscap_disk_curve(self):
        # Hand evaluation: the widest profile is 0, one left loop at the
        # first crosscap, beta picks up 2 on the last arc only.
        tri = invert(vec(2, [0], [0, -1], 0, 0, 0))
        assert tri.alpha == (0, 0)
        assert tri.beta == (0, 0, 2)
        assert tri.gamma == 2

    def test_intermediates_of_worked_example(self):
        # x = y = 6, beta* = (6, 4, 4), r = 0: invert's beta is beta* + r
        v = parse_coords("(2; 1,0; -2; 2,0)")
        assert max_plus_intermediates(v) == (6, 6, (6, 4, 4), 0)
        assert invert(v).beta == (6, 4, 4)

    def test_second_crosscap_shift_is_minimal(self):
        # m core loops at the second crosscap force beta_{n+1} = 2m exactly;
        # more would pad the curve with boundary-parallel components.
        v = vec(2, [0], [0, 0], 0, 0, 3)
        assert invert(v).beta == (6, 6, 6)
        _, _, beta_star, r = max_plus_intermediates(v)
        assert beta_star == (0, 0, 0)
        assert r == 6

    def test_nonprimitive_core_passes_through(self):
        tri = invert(vec(2, [0], [0, 0], 0, -1, 0))
        assert tri.alpha == (0, 0)
        assert tri.beta == (0, 0, 0)
        assert tri.gamma == 0
        assert (tri.c1, tri.c2) == (-1, 0)

    def test_unrealizable_parity_raises(self):
        with pytest.raises(UnrealizableCoordinatesError):
            invert(vec(2, [0], [0, 0], 0, 1, 0))  # forced straight core, t=0
        with pytest.raises(UnrealizableCoordinatesError):
            invert(vec(2, [0], [0, 0], 1, 0, 0))  # odd t, no core passage

    def test_realizable_predicate_matches_invert(self):
        for a1, b2, t, c1 in itertools.product(range(-2, 3), repeat=4):
            if not any((a1, b2, t, c1)):
                continue
            v = vec(2, [a1], [0, b2], t, c1, 0)
            if realizable(v):
                invert(v)
            else:
                with pytest.raises(UnrealizableCoordinatesError):
                    invert(v)


class TestCoordinatize:
    def test_worked_example_reversed(self):
        tri = TriangleCoordinates(n=2, alpha=(1, 5), beta=(6, 4, 4), gamma=4, c1=2, c2=0)
        assert coordinatize(tri) == parse_coords("(2; 1,0; -2; 2,0)")

    def test_final_example_reversed(self):
        tri = TriangleCoordinates(n=2, alpha=(3, 1), beta=(4, 2, 2), gamma=4, c1=1, c2=1)
        assert coordinatize(tri) == parse_coords("(-1; 1,0; 1; 1,1)")

    def test_pure_core_component(self):
        tri = TriangleCoordinates(n=2, alpha=(0, 0), beta=(0, 0, 0), gamma=0, c1=-1, c2=0)
        assert coordinatize(tri) == vec(2, [0], [0, 0], 0, -1, 0)

    def test_zero_triangle_has_no_vector(self):
        tri = TriangleCoordinates(n=2, alpha=(0, 0), beta=(0, 0, 0), gamma=0, c1=0, c2=0)
        with pytest.raises(ZeroVectorError):
            coordinatize(tri)

    def test_counts_no_multicurve_has_are_rejected(self):
        # its vector (1; -1,-2; 0; 2,0) inverts to (1,3; 2,4,8; 8; 2,0)
        with pytest.raises(InconsistentTriangleError, match="no multicurve"):
            coordinatize(parse_triangle("(3,5; 0,2,6; 6; 2,0)"))
        # these pass endpoint conservation, so they even glue
        tri = parse_triangle("(1,7; 8,8,8; 8; 0,2)")
        reconstruct(profile(tri))
        with pytest.raises(InconsistentTriangleError, match="no multicurve"):
            coordinatize(tri)

    def test_zero_vector_error_comes_first(self):
        # beta all equal, balanced alpha pairs and gamma = max(beta_n, beta_{n+1}):
        # every entry of the vector is zero, so the round trip is not tried
        tri = TriangleCoordinates(n=2, alpha=(1, 1), beta=(2, 2, 2), gamma=2, c1=0, c2=0)
        with pytest.raises(ZeroVectorError):
            coordinatize(tri)

    def test_constructible_triangles_round_trip_or_are_rejected(self):
        rnd = random.Random(20261019)
        outcomes = {"round trip": 0, "rejected": 0}
        for _ in range(20000):
            n = rnd.choice((2, 3))
            try:
                tri = TriangleCoordinates(
                    n=n,
                    alpha=tuple(rnd.randint(0, 8) for _ in range(2 * n - 2)),
                    beta=tuple(2 * rnd.randint(0, 4) for _ in range(n + 1)),
                    gamma=2 * rnd.randint(0, 4),
                    c1=rnd.randint(0, 3),
                    c2=rnd.randint(0, 3),
                )
            except (InconsistentTriangleError, ParityViolationError):
                continue  # not constructible
            try:
                v = coordinatize(tri)
            except ZeroVectorError:
                continue
            except InconsistentTriangleError:
                outcomes["rejected"] += 1
                continue
            assert invert(v) == tri, tri
            outcomes["round trip"] += 1
        assert min(outcomes.values()) > 100, outcomes


class TestRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(boxed_vectors())
    def test_round_trip_on_realizable_vectors(self, v):
        if not realizable(v):
            with pytest.raises(UnrealizableCoordinatesError):
                invert(v)
            return
        assert coordinatize(invert(v)) == v

    @settings(max_examples=200, deadline=None)
    @given(boxed_vectors())
    def test_triangle_round_trip(self, v):
        if not realizable(v):
            return
        tri = invert(v)
        assert invert(coordinatize(tri)) == tri

    @settings(max_examples=200, deadline=None)
    @given(boxed_vectors())
    def test_half_differences_survive_the_shift(self, v):
        if not realizable(v):
            return
        assert invert(v).half_differences() == v.b

    @settings(max_examples=200, deadline=None)
    @given(boxed_vectors(bound=6, cmax=6))
    def test_output_satisfies_type_invariants(self, v):
        # invert builds its result unchecked; the public constructor raises
        # on any parity or negativity violation, so equality is the assertion.
        if realizable(v):
            tri = invert(v)
            assert TriangleCoordinates(**vars(tri)) == tri
