"""Domain types, validation, and the canonical text format."""

import random
import re

import pytest
from hypothesis import given, strategies as st

from crosscap.coords import (
    DynnikovCoordinates,
    TriangleCoordinates,
    _parse_blocks,
    _scan_blocks,
    format_coords,
    format_triangle,
    parse_coords,
    parse_triangle,
)
from crosscap.errors import (
    CoordinateSyntaxError,
    CrosscapError,
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

    @pytest.mark.parametrize("field", ["n", "t", "c2", "a", "b"])
    def test_int_subclasses_rejected(self, field):
        class Int(int):
            pass

        fields = dict(n=2, a=(1,), b=(1, 0), t=0, c1=0, c2=0)
        value = fields[field]
        fields[field] = tuple(map(Int, value)) if isinstance(value, tuple) else Int(value)
        with pytest.raises(DimensionMismatchError, match=f"{field}.* must be an integer"):
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

    @pytest.mark.parametrize(
        "text, pos", [("(²; 1,0; -2; 2,0)", 1), ("(2²; 1,0; -2; 2,0)", 2), ("(2; 1,٣; -2; 2,0)", 6)]
    )
    def test_non_ascii_digit_is_syntax_error(self, text, pos):
        # str.isdigit() holds for these; int() rejects "²" and would read "٣" as 3
        with pytest.raises(CoordinateSyntaxError) as err:
            parse_coords(text)
        assert err.value.pos == pos

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


# Every code point str.isspace() holds for: the scanner skips exactly these.
WHITESPACE = [chr(i) for i in range(0x110000) if chr(i).isspace()]

# Malformed text, each with the error class and message (position
# included) it has always been rejected with.
MALFORMED = [
    ("", CoordinateSyntaxError, "expected '(' (at position 0)"),
    ("(", CoordinateSyntaxError, "expected an integer (at position 1)"),
    ("()", CoordinateSyntaxError, "expected an integer (at position 1)"),
    ("1; 1,0; 0; 0,0)", CoordinateSyntaxError, "expected '(' (at position 0)"),
    ("(1; 2; 3)", CoordinateSyntaxError,
     "expected 4 semicolon-separated blocks, got 3 (at position 8)"),
    ("(1; 1,0; 0; 0,0; 5)", CoordinateSyntaxError,
     "expected 4 semicolon-separated blocks, got 5 (at position 18)"),
    ("(1; 1,x; 0; 0,0)", CoordinateSyntaxError, "expected an integer (at position 6)"),
    ("(²; 1,0; -2; 2,0)", CoordinateSyntaxError, "expected an integer (at position 1)"),
    ("(2²; 1,0; -2; 2,0)", CoordinateSyntaxError, "expected ')' (at position 2)"),
    ("(2; 1,٣; -2; 2,0)", CoordinateSyntaxError, "expected an integer (at position 6)"),
    ("(1_0; 1,0; 0; 0,0)", CoordinateSyntaxError, "expected ')' (at position 2)"),
    ("(1.5; 1,0; 0; 0,0)", CoordinateSyntaxError, "expected ')' (at position 2)"),
    ("(+ 3; 1,0; 0; 0,0)", CoordinateSyntaxError, "expected an integer (at position 1)"),
    ("(--3; 1,0; 0; 0,0)", CoordinateSyntaxError, "expected an integer (at position 1)"),
    ("(1; 1,0; 0; +)", CoordinateSyntaxError, "expected an integer (at position 12)"),
    ("(1; ; 0; 0,0)", CoordinateSyntaxError, "expected an integer (at position 4)"),
    ("(1;\n\n; 0; 0,0)", CoordinateSyntaxError, "expected an integer (at position 5)"),
    ("(1; 1,0,; 0; 0,0)", CoordinateSyntaxError, "expected an integer (at position 8)"),
    ("(1; 1,0; 0; 0,0;)", CoordinateSyntaxError, "expected an integer (at position 16)"),
    ("(1, 2 3; 1,0; 0; 0,0)", CoordinateSyntaxError, "expected ')' (at position 6)"),
    ("(1; 1,0; 0; 0,0", CoordinateSyntaxError, "expected ')' (at position 15)"),
    ("(1; 2,9", CoordinateSyntaxError, "expected ')' (at position 7)"),
    ("(1; 1,0; 0; 0,0)  \u00a0 ;", CoordinateSyntaxError, "trailing characters (at position 20)"),
    ("(1;\t1,0;\n0; 0,0\n", CoordinateSyntaxError, "expected ')' (at position 16)"),
    ("(1;\t1,0;\n0; 0,0)\tx", CoordinateSyntaxError, "trailing characters (at position 17)"),
    ("(1; 1,0; 0; 0,0))", CoordinateSyntaxError, "trailing characters (at position 16)"),
    ("(1; 1,0; 0,1; 0,0)", CoordinateSyntaxError,
     "t block must hold a single integer (at position 0)"),
    ("(1; 1,0; 0; 0)", CoordinateSyntaxError,
     "c block must hold exactly two integers (at position 0)"),
    ("(1; 1,0; 0; 0,0,0)", CoordinateSyntaxError,
     "c block must hold exactly two integers (at position 0)"),
    ("(1,2; 1,0; 0; 0,0)", DimensionMismatchError, "a must have 1 entries for n=2, got 2"),
    ("(1; 1; 0; 0,0)", DimensionMismatchError, "puncture count must be >= 2, got 1"),
    ("(0; 0,0; 0; 0,0)", ZeroVectorError, "the zero vector encodes no multicurve"),
]


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except CrosscapError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


def _spell(rnd, x):
    """``x`` with a random sign spelling and leading zeros."""
    sign = "-" if x < 0 else rnd.choice(("", "", "+"))
    return sign + "0" * rnd.choice((0, 0, 1, 3)) + str(abs(x))


def _valid_text(rnd, blocks):
    def gap():
        return "".join(rnd.choices(WHITESPACE + [" "] * 20, k=rnd.choice((0, 0, 1, 2))))

    def block(xs):
        return ",".join(gap() + _spell(rnd, x) + gap() for x in xs)

    return gap() + "(" + ";".join(block(xs) for xs in blocks) + ")" + gap()


class TestTextParser:
    @pytest.mark.parametrize("text, error, message", MALFORMED)
    def test_malformed_text_keeps_its_error(self, text, error, message):
        with pytest.raises(error) as err:
            parse_coords(text)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_grammar_whitespace_is_str_isspace(self):
        space = re.compile(r"\s")
        assert [c for c in map(chr, range(0x110000)) if space.fullmatch(c)] == WHITESPACE

    def test_valid_corpus_parses_to_its_vector(self):
        rnd = random.Random(5)
        for _ in range(2000):
            n = rnd.randint(2, 9)
            magnitude = rnd.choice((1, 3, 10**3, 10**9, 10**40))
            a = [rnd.randint(-magnitude, magnitude) for _ in range(n - 1)]
            b = [rnd.randint(-magnitude, magnitude) for _ in range(n)]
            t, c1, c2 = (rnd.randint(-magnitude, magnitude) for _ in range(3))
            if not any(a + b + [t, c1, c2]):
                c1 = 1
            text = _valid_text(rnd, (a, b, [t], [c1, c2]))
            assert parse_coords(text) == vec(n, a, b, t, c1, c2), text
            assert _parse_blocks(text) == _scan_blocks(text) == [a, b, [t], [c1, c2]]

    def test_mutated_corpus_matches_the_scanner(self):
        # the regex and split read exactly what the scanner reads, and
        # reject the rest with the scanner's error
        rnd = random.Random(6)
        alphabet = list("();,+-0123456789 .x_²٣") + ["\t", "\n", "\u00a0", "\u2003", ";;", ",,"]
        kinds = {"ok": 0, "error": 0}
        for _ in range(6000):
            blocks = [[rnd.randint(-20, 20) for _ in range(rnd.randint(1, 3))] for _ in range(4)]
            chars = list(_valid_text(rnd, blocks))
            for _ in range(rnd.randint(0, 3)):
                k = rnd.randrange(len(chars) + 1)
                op = rnd.random()
                if op < 0.4:
                    chars.insert(k, rnd.choice(alphabet))
                elif chars:
                    k = min(k, len(chars) - 1)
                    if op < 0.7:
                        del chars[k]
                    else:
                        chars[k] = rnd.choice(alphabet)
            text = "".join(chars)
            expected = _outcome(_scan_blocks, text)
            assert _outcome(_parse_blocks, text) == expected, text
            kinds["ok" if expected[0] == "ok" else "error"] += 1
        assert min(kinds.values()) > 1000, kinds


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
