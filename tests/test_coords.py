"""Domain types, validation, and the canonical text format."""

import pytest
from hypothesis import given, strategies as st

from crosscap.coords import (
    DynnikovCoordinates,
    TriangleCoordinates,
    format_coords,
    format_triangle,
    parse_coords,
    parse_triangle,
)
from crosscap.errors import (
    CoordinateSyntaxError,
    DimensionMismatchError,
    InconsistentTriangleError,
    ParityViolationError,
    ZeroVectorError,
)


def vec(n, a, b, t, c1, c2):
    return DynnikovCoordinates(n=n, a=tuple(a), b=tuple(b), t=t, c1=c1, c2=c2)


class TestDynnikovCoordinates:
    def test_final_example_vector_is_valid(self):
        v = vec(2, [-1], [1, 0], 1, 1, 1)
        assert v.entries() == (-1, 1, 0, 1, 1, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            vec(2, [0], [0, 0], 0, 0, 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            vec(3, [1], [1, 0, 0], 0, 0, 0)
        with pytest.raises(DimensionMismatchError):
            vec(2, [1], [1, 0, 0], 0, 0, 0)

    def test_negative_c_entries_are_legal(self):
        v = vec(2, [0], [0, 0], 0, -1, -4)
        assert (v.c1, v.c2) == (-1, -4)

    def test_n_below_two_rejected(self):
        with pytest.raises(DimensionMismatchError):
            vec(1, [], [1], 0, 0, 0)

    def test_non_integer_entries_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DynnikovCoordinates(n=2, a=(0.5,), b=(1, 0), t=0, c1=0, c2=0)

    @pytest.mark.parametrize(
        "field, value", [("t", True), ("c1", 2.0), ("c2", "1"), ("n", 2.0), ("b", 5)]
    )
    def test_non_integer_scalars_rejected(self, field, value):
        fields = dict(n=2, a=(1,), b=(1, 0), t=0, c1=0, c2=0)
        fields[field] = value
        with pytest.raises(DimensionMismatchError, match=field):
            DynnikovCoordinates(**fields)

    def test_from_dict_rejects_instead_of_truncating(self):
        data = {"n": 2, "a": [2], "b": [1, 0], "t": 2.7, "c": [2, 0]}
        with pytest.raises(DimensionMismatchError, match="t must be an integer"):
            DynnikovCoordinates.from_dict(data)
        with pytest.raises(DimensionMismatchError, match="c1"):
            DynnikovCoordinates.from_dict({**data, "t": 2, "c": [2.0, 0]})

    def test_from_dict_reports_missing_keys(self):
        with pytest.raises(DimensionMismatchError, match="missing key.*b"):
            DynnikovCoordinates.from_dict({"n": 2, "a": [1], "t": 0})
        with pytest.raises(DimensionMismatchError, match="JSON object"):
            DynnikovCoordinates.from_dict([2, [1], [1, 0], 0])


class TestTextFormat:
    def test_worked_example_parses(self):
        v = parse_coords("(2; 1,0; -2; 2,0)", n=2)
        assert v == vec(2, [2], [1, 0], -2, 2, 0)

    def test_format_matches_canonical_spelling(self):
        v = vec(2, [2], [1, 0], -2, 2, 0)
        assert format_coords(v) == "(2; 1,0; -2; 2,0)"

    def test_whitespace_insensitive(self):
        v = parse_coords("  ( 2 ;  1 , 0 ;  -2 ; 2 , 0 )  ")
        assert format_coords(v) == "(2; 1,0; -2; 2,0)"

    def test_wrong_block_count_is_syntax_error(self):
        with pytest.raises(CoordinateSyntaxError):
            parse_coords("(1; 2; 3)")

    def test_bad_character_reports_position(self):
        with pytest.raises(CoordinateSyntaxError) as err:
            parse_coords("(1; 1,x; 0; 0,0)")
        assert err.value.pos == 6

    def test_b_block_length_fixes_n(self):
        with pytest.raises(DimensionMismatchError):
            parse_coords("(1; 1; 0; 0,0)", n=2)

    def test_mismatched_blocks_rejected(self):
        # b has 2 entries so n=2, but a needs exactly 1 entry then
        with pytest.raises(DimensionMismatchError):
            parse_coords("(1,2; 1,0; 0; 0,0)")

    @given(
        n=st.sampled_from([2, 3, 4]),
        data=st.data(),
    )
    def test_parse_format_round_trip(self, n, data):
        ints = st.integers(-50, 50)
        a = tuple(data.draw(ints) for _ in range(n - 1))
        b = tuple(data.draw(ints) for _ in range(n))
        t, c1, c2 = data.draw(ints), data.draw(ints), data.draw(ints)
        if not (any(a) or any(b) or t or c1 or c2):
            c1 = 1
        v = vec(n, a, b, t, c1, c2)
        text = format_coords(v)
        assert parse_coords(text) == v
        assert format_coords(parse_coords(text)) == text

    def test_json_round_trip(self):
        v = vec(3, [1, -2], [0, 3, -1], 2, 0, 1)
        assert DynnikovCoordinates.from_dict(v.to_dict()) == v


class TestTriangleCoordinates:
    def test_worked_example_triangle(self):
        tri = TriangleCoordinates(
            n=2, alpha=(1, 5), beta=(6, 4, 4), gamma=4, c1=2, c2=0
        )
        assert tri.half_differences() == (1, 0)

    def test_odd_beta_rejected(self):
        with pytest.raises(ParityViolationError):
            TriangleCoordinates(n=2, alpha=(0, 0), beta=(1, 1, 1), gamma=0, c1=1, c2=0)

    def test_alpha_pair_parity_enforced(self):
        with pytest.raises(ParityViolationError):
            TriangleCoordinates(n=2, alpha=(1, 2), beta=(2, 2, 2), gamma=2, c1=0, c2=0)

    def test_odd_gamma_rejected(self):
        with pytest.raises(ParityViolationError):
            TriangleCoordinates(n=2, alpha=(1, 1), beta=(2, 2, 2), gamma=3, c1=1, c2=0)

    def test_negative_derived_counts_rejected(self):
        # beta says one loop at puncture 2, alpha cannot host it
        with pytest.raises(InconsistentTriangleError):
            TriangleCoordinates(n=2, alpha=(0, 0), beta=(4, 2, 2), gamma=2, c1=0, c2=0)
        # c2 exceeds the room on the last arc
        with pytest.raises(InconsistentTriangleError):
            TriangleCoordinates(n=2, alpha=(1, 1), beta=(2, 2, 2), gamma=2, c1=0, c2=2)

    def test_negative_entries_rejected(self):
        with pytest.raises(InconsistentTriangleError):
            TriangleCoordinates(n=2, alpha=(-1, 1), beta=(2, 2, 2), gamma=2, c1=0, c2=0)

    def test_text_round_trip(self):
        tri = TriangleCoordinates(n=2, alpha=(3, 1), beta=(4, 2, 2), gamma=4, c1=1, c2=1)
        assert parse_triangle(format_triangle(tri)) == tri
        assert format_triangle(tri) == "(3,1; 4,2,2; 4; 1,1)"

    def test_json_round_trip(self):
        tri = TriangleCoordinates(n=2, alpha=(1, 5), beta=(6, 4, 4), gamma=4, c1=2, c2=0)
        assert TriangleCoordinates.from_dict(tri.to_dict()) == tri

    def test_from_dict_rejects_instead_of_truncating(self):
        data = {"n": 2, "alpha": [1, 5], "beta": [6, 4, 4], "gamma": 4.5, "c": [2, 0]}
        with pytest.raises(DimensionMismatchError, match="gamma must be an integer"):
            TriangleCoordinates.from_dict(data)
        with pytest.raises(DimensionMismatchError, match="missing key.*gamma"):
            TriangleCoordinates.from_dict({k: v for k, v in data.items() if k != "gamma"})

    def test_non_integer_scalars_rejected(self):
        with pytest.raises(DimensionMismatchError, match="c2"):
            TriangleCoordinates(n=2, alpha=(1, 5), beta=(6, 4, 4), gamma=4, c1=2, c2=0.0)
