"""Coordinate systems for multicurves on a non-orientable genus-2 surface.

The surface has ``n >= 2`` punctures and one boundary circle; its two
crosscaps sit on the horizontal diameter, to the right of the punctures.
A multicurve (finite union of disjoint essential simple closed curves, up
to homotopy) is described by exact integer data in one of two ways:

* :class:`TriangleCoordinates` -- the minimal crossing counts with the
  reference arcs: ``alpha`` (the 2n-2 arcs running above and below each of
  the punctures 2..n), ``beta`` (the n+1 vertical arcs separating the
  punctures and crosscaps), ``gamma`` (the arc over the first crosscap),
  and the two crosscap core curves ``c1``, ``c2``.

* :class:`DynnikovCoordinates` -- the compressed encoding
  ``(a; b; t; c1, c2)`` taking values in Z^(2n+2) minus the origin, where
  ``a_i`` and ``b_i`` are half-differences of neighbouring crossing counts
  and ``t`` is the above-minus-below imbalance at the first crosscap.

Negative ``c_k`` values carry whole non-primitive components instead of
crossing counts: ``c_k = -1`` is the core curve of crosscap ``k``,
``c_k = -2m`` is ``m`` parallel copies of the curve bounding it, and
``c_k = -2m-1`` is both at once.

All arithmetic is exact (Python integers never overflow).  Every type here
is an immutable value object, safe to share between threads.

Public construction validates: the dataclass constructors, ``from_dict``,
the text parsers and ``dataclasses.replace`` all run every check.  Values
the library computes from ints it has already checked (``invert``,
``coordinatize``, ``profile``, ``reconstruct``) are built unchecked by
:func:`_unchecked`; the test suite holds them to the same checks.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import (
    CoordinateSyntaxError,
    DimensionMismatchError,
    InconsistentTriangleError,
    ParityViolationError,
    ZeroVectorError,
)

__all__ = [
    "DynnikovCoordinates",
    "TriangleCoordinates",
    "parse_coords",
    "format_coords",
    "parse_triangle",
    "format_triangle",
]


def _ints(values, names, error: type = DimensionMismatchError) -> tuple[int, ...]:
    """``values`` as a tuple, checked in one pass to hold exact integers:
    ``type(x) is int``, so bools and other ``int`` subclasses are rejected.

    ``names`` names each value in turn, or is the name of a whole block
    (``"a"``), which may then be any iterable.  The message is formatted
    only on failure and names the first bad value.
    """
    block = type(names) is str
    if block:
        try:
            values = tuple(values)
        except TypeError:  # not iterable
            raise error(f"{names} must be a list of integers, got {values!r}") from None
    for x in values:
        if type(x) is not int:
            break
    else:
        return values
    if block:
        raise error(f"each {names} entry must be an integer, got {x!r}")
    name = next(name for name, v in zip(names, values) if type(v) is not int)
    raise error(f"{name} must be an integer, got {x!r}")


def _puncture_count(n) -> None:
    """The check of every door that takes a bare puncture count: an exact
    ``int`` of at least 2, else :class:`DimensionMismatchError`."""
    _ints((n,), ("n",))
    if n < 2:
        raise DimensionMismatchError(f"puncture count must be >= 2, got {n}")


def _kind(value, cls: type, what: str, error: type = DimensionMismatchError):
    """The check of every door that takes a library value: unless it is a
    ``cls``, ``error("expected <what>, got <value>")``."""
    if not isinstance(value, cls):
        raise error(f"expected {what}, got {value!r}")


# looked up once: a gluing builds a dozen values through _unchecked
_new, _set = object.__new__, object.__setattr__


def _unchecked(cls, fields: dict):
    """A ``cls`` instance holding ``fields`` (a fresh dict of its field
    values, by name), built without running ``__init__``: no validation, no
    conversion.  Only for values the library computed itself from checked
    ints, never for user input; the result is indistinguishable from a
    validated instance under ``==``, ``hash``, ``repr``, pickling and
    ``cached_property``.  ``fields`` may also hold a ``cached_property``'s
    value, which is then never computed."""
    obj = _new(cls)
    _set(obj, "__dict__", fields)  # a frozen dataclass refuses plain assignment
    return obj


def _straight_cores(c1: int, bn: int) -> int:
    """Strands forced through the first crosscap: ``max(c1^+ - |b_n|, 0)``."""
    return max(max(c1, 0) - abs(bn), 0)


def _species(n: int, alpha: tuple, beta: tuple, gamma: int, c1: int, c2: int) -> tuple:
    """The species table of the crossing counts: ``(above, below, straight
    cores, core loops, non-core loops, side)`` of each region ``0..n+1``
    (see :attr:`crosscap.components.ComponentProfile.regions`), in one pass
    over the arcs, by comparisons.  Counts that pass the sign and parity
    checks may still give negative entries; :class:`TriangleCoordinates`
    rejects those, so :func:`crosscap.components.profile` never sees one."""
    rows = [(0, 0, 0, 0, beta[0] // 2, "left")]
    for hi, lo, up, down in zip(beta, beta[1:], alpha[::2], alpha[1::2]):
        if hi > lo:
            d, side = (hi - lo) // 2, "right"
        elif hi < lo:
            d, side = (lo - hi) // 2, "left"
        else:
            d, side = 0, "none"
        rows.append((up - d, down - d, 0, 0, d, side))
    hi, lo = beta[n - 1], beta[n]
    if hi > lo:
        bn, wide, side = (hi - lo) // 2, hi, "right"
    elif hi < lo:
        bn, wide, side = (lo - hi) // 2, lo, "left"
    else:
        bn, wide, side = 0, hi, "none"
    # bn is |b_n|: the first crosscap's loops, core loops first
    c1p = c1 if c1 > 0 else 0
    core = c1p if c1p < bn else bn
    psi = c1p - core
    c2p = c2 if c2 > 0 else 0
    half_gamma = gamma // 2
    rows.append((half_gamma - psi - bn, wide - half_gamma - bn, psi, core, bn - core, side))
    rows.append((0, 0, 0, c2p, beta[n] // 2 - c2p, "right"))
    return tuple(rows)


def _too_long(what: str) -> str:
    """The message for ``what``, an integer past the interpreter's digit
    limit on ``int()`` of text and ``str()`` of an integer."""
    return f"{what} has more than {sys.get_int_max_str_digits()} digits"


def _fields(data: dict, keys: tuple[str, ...]) -> list:
    """The JSON fields ``keys`` plus the two ``c`` entries (default zero).
    A key that is neither, such as ``c1``, is an error rather than ignored."""
    _kind(data, dict, "a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise DimensionMismatchError(f"missing key(s) {', '.join(missing)}")
    unknown = [str(key) for key in data if key != "c" and key not in keys]
    if unknown:
        raise DimensionMismatchError(f"unknown key(s) {', '.join(unknown)}")
    c = data.get("c", [0, 0])
    if not isinstance(c, (list, tuple)) or len(c) != 2:
        raise DimensionMismatchError("c must have exactly 2 entries")
    return [data[key] for key in keys] + list(c)


@dataclass(frozen=True)
class DynnikovCoordinates:
    """The encoding ``(a_1..a_{n-1}; b_1..b_n; t; c1, c2)`` of a multicurve.

    Any nonzero integer vector of the right shape is accepted here; whether
    it actually encodes a multicurve is a separate (parity) question, see
    :func:`crosscap.inversion.realizable`.
    """

    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    t: int
    c1: int
    c2: int

    def __post_init__(self):
        _ints((self.n, self.t, self.c1, self.c2), ("n", "t", "c1", "c2"))
        if self.n < 2:
            raise DimensionMismatchError(f"puncture count must be >= 2, got {self.n}")
        object.__setattr__(self, "a", _ints(self.a, "a"))
        object.__setattr__(self, "b", _ints(self.b, "b"))
        if len(self.a) != self.n - 1:
            raise DimensionMismatchError(
                f"a must have {self.n - 1} entries for n={self.n}, got {len(self.a)}"
            )
        if len(self.b) != self.n:
            raise DimensionMismatchError(
                f"b must have {self.n} entries for n={self.n}, got {len(self.b)}"
            )
        if (
            not any(self.a)
            and not any(self.b)
            and self.t == 0
            and self.c1 == 0
            and self.c2 == 0
        ):
            raise ZeroVectorError("the zero vector encodes no multicurve")

    def entries(self) -> tuple[int, ...]:
        """The full vector in Z^(2n+2), block order (a; b; t; c1, c2)."""
        return self.a + self.b + (self.t, self.c1, self.c2)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "a": list(self.a),
            "b": list(self.b),
            "t": self.t,
            "c": [self.c1, self.c2],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DynnikovCoordinates":
        n, a, b, t, c1, c2 = _fields(data, ("n", "a", "b", "t"))
        return cls(n=n, a=a, b=b, t=t, c1=c1, c2=c2)


@dataclass(frozen=True)
class TriangleCoordinates:
    """Minimal crossing counts ``(alpha; beta; gamma; c1, c2)``.

    Public construction enforces these necessary conditions on counts of
    a multicurve (not sufficient: :func:`crosscap.inversion.coordinatize`
    rejects counts that pass them but that no multicurve has):

    * ``alpha`` (length 2n-2), ``beta`` (length n+1) and ``gamma`` are
      nonnegative, every ``beta_i`` and ``gamma`` are even, and the two
      ``alpha`` entries of each puncture agree mod 2 (strands pair up);
    * the per-region component counts derived from them (the species
      table that :func:`crosscap.components.profile` stores) are
      nonnegative: above/below counts at each puncture and at the first
      crosscap, and the non-core loop count at the second crosscap, checked
      in that order.

    ``c1``/``c2`` may be negative with the same non-primitive meaning as in
    :class:`DynnikovCoordinates`.
    """

    n: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: int
    c1: int
    c2: int

    def __post_init__(self):
        _ints((self.n, self.gamma, self.c1, self.c2), ("n", "gamma", "c1", "c2"))
        n = self.n
        if n < 2:
            raise DimensionMismatchError(f"puncture count must be >= 2, got {n}")
        object.__setattr__(self, "alpha", _ints(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _ints(self.beta, "beta"))
        if len(self.alpha) != 2 * n - 2:
            raise DimensionMismatchError(
                f"alpha must have {2 * n - 2} entries for n={n}, got {len(self.alpha)}"
            )
        if len(self.beta) != n + 1:
            raise DimensionMismatchError(
                f"beta must have {n + 1} entries for n={n}, got {len(self.beta)}"
            )
        if any(x < 0 for x in self.alpha) or any(x < 0 for x in self.beta):
            raise InconsistentTriangleError("crossing counts cannot be negative")
        if self.gamma < 0:
            raise InconsistentTriangleError("gamma cannot be negative")
        for i, bi in enumerate(self.beta):
            if bi % 2:
                raise ParityViolationError(
                    f"beta_{i + 1}={bi} is odd; loop strands pair up on every arc"
                )
        if self.gamma % 2:
            raise ParityViolationError(f"gamma={self.gamma} is odd")
        for k in range(n - 1):
            if (self.alpha[2 * k] - self.alpha[2 * k + 1]) % 2:
                raise ParityViolationError(
                    f"alpha_{2 * k + 1}={self.alpha[2 * k]} and "
                    f"alpha_{2 * k + 2}={self.alpha[2 * k + 1]} differ in parity"
                )
        table = _species(n, self.alpha, self.beta, self.gamma, self.c1, self.c2)
        for k, (above, below, _, _, _, _) in enumerate(table[1 : n + 1], 2):
            if above < 0 or below < 0:
                place = f"puncture {k}" if k <= n else "first crosscap"
                side = "above" if above < 0 else "below"
                raise InconsistentTriangleError(f"negative {side} count at {place}")
        if table[n + 1][4] < 0:
            raise InconsistentTriangleError(
                "second crosscap cannot host that many core crossings: "
                f"beta_{n + 1}={self.beta[-1]} < 2*c2"
            )

    def half_differences(self) -> tuple[int, ...]:
        """``b_i = (beta_i - beta_{i+1}) / 2`` for ``i = 1..n`` (exact)."""
        return tuple(
            (self.beta[i] - self.beta[i + 1]) // 2 for i in range(self.n)
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "gamma": self.gamma,
            "c": [self.c1, self.c2],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TriangleCoordinates":
        n, alpha, beta, gamma, c1, c2 = _fields(data, ("n", "alpha", "beta", "gamma"))
        return cls(n=n, alpha=alpha, beta=beta, gamma=gamma, c1=c1, c2=c2)


# ---------------------------------------------------------------------------
# Canonical text format:  "(a_1,...,a_{n-1}; b_1,...,b_n; t; c_1,c_2)"
# ---------------------------------------------------------------------------


class _Scanner:
    """Minimal tokenizer for the parenthesized semicolon/comma format."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise CoordinateSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        # ASCII digits only: str.isdigit() also holds for "²", which int() rejects
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == digits:
            raise CoordinateSyntaxError("expected an integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # the only failure left: too many digits
            raise CoordinateSyntaxError(_too_long("integer"), start) from None

    def int_block(self) -> list[int]:
        values = [self.integer()]
        while self.peek() == ",":
            self.pos += 1
            values.append(self.integer())
        return values

    def end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise CoordinateSyntaxError("trailing characters", self.pos)


def _scan_blocks(text: str) -> list[list[int]]:
    """The blocks of ``text``, read one character at a time: slow, but it
    names the position of the first thing wrong."""
    sc = _Scanner(text)
    sc.expect("(")
    blocks = [sc.int_block()]
    while sc.peek() == ";":
        sc.pos += 1
        blocks.append(sc.int_block())
    sc.expect(")")
    sc.end()
    if len(blocks) != 4:
        raise CoordinateSyntaxError(
            f"expected 4 semicolon-separated blocks, got {len(blocks)}",
            len(text) - 1,
        )
    return blocks


# An integer as the library reads it from text (coordinates, curve indices,
# CLI flags): ASCII digits only, where int() would also take "٣" and "1_0".
_ASCII_INT = re.compile(r"[+-]?[0-9]+")
# The whole grammar :class:`_Scanner` reads, with four blocks.  ``\s`` is
# str.isspace().
_INT = rf"\s*{_ASCII_INT.pattern}"
_BLOCK = rf"{_INT}(?:\s*,{_INT})*"
_GRAMMAR = re.compile(rf"\s*\({_BLOCK}(?:\s*;{_BLOCK}){{3}}\s*\)\s*")


def _parse_blocks(text: str) -> list[list[int]]:
    """The four integer blocks of ``(x,...; x,...; x,...; x,...)``.

    Valid text is matched by one regex and split by ``str.split``/``int``;
    only text the regex rejects, or with an integer too long for ``int()``,
    goes to the scanner, which raises the error naming the offending
    position.
    """
    if not isinstance(text, str):
        raise CoordinateSyntaxError(f"expected coordinate text, got {text!r}", 0)
    if _GRAMMAR.fullmatch(text) is None:
        return _scan_blocks(text)
    inner = "".join(text.split())[1:-1]  # no whitespace: int() skips less than isspace()
    try:
        return [list(map(int, block.split(","))) for block in inner.split(";")]
    except ValueError:  # too many digits for int(): the scanner names where
        return _scan_blocks(text)


def parse_coords(text: str, n: int | None = None) -> DynnikovCoordinates:
    """Parse ``"(a; b; t; c1,c2)"``.  Whitespace-insensitive.

    ``n`` is inferred from the ``b`` block; when given explicitly it must
    be an exact int, and it is cross-checked against the inferred value.
    """
    if n is not None:
        _ints((n,), ("n",))
    a, b, t, c = _parse_blocks(text)
    if len(t) != 1:
        raise CoordinateSyntaxError("t block must hold a single integer", 0)
    if len(c) != 2:
        raise CoordinateSyntaxError("c block must hold exactly two integers", 0)
    if n is not None and n != len(b):
        raise DimensionMismatchError(
            f"text has {len(b)} b-entries but n={n} was requested"
        )
    return DynnikovCoordinates(
        n=len(b), a=tuple(a), b=tuple(b), t=t[0], c1=c[0], c2=c[1]
    )


def format_coords(coords: DynnikovCoordinates) -> str:
    """Inverse of :func:`parse_coords`, producing the canonical spelling."""
    _kind(coords, DynnikovCoordinates, "DynnikovCoordinates")
    a = ",".join(str(x) for x in coords.a)
    b = ",".join(str(x) for x in coords.b)
    return f"({a}; {b}; {coords.t}; {coords.c1},{coords.c2})"


def parse_triangle(text: str, n: int | None = None) -> TriangleCoordinates:
    """Parse ``"(alpha; beta; gamma; c1,c2)"`` (same conventions)."""
    if n is not None:
        _ints((n,), ("n",))
    alpha, beta, gamma, c = _parse_blocks(text)
    if len(gamma) != 1:
        raise CoordinateSyntaxError("gamma block must hold a single integer", 0)
    if len(c) != 2:
        raise CoordinateSyntaxError("c block must hold exactly two integers", 0)
    if n is not None and n != len(beta) - 1:
        raise DimensionMismatchError(
            f"text has {len(beta)} beta-entries but n={n} was requested"
        )
    return TriangleCoordinates(
        n=len(beta) - 1,
        alpha=tuple(alpha),
        beta=tuple(beta),
        gamma=gamma[0],
        c1=c[0],
        c2=c[1],
    )


def format_triangle(tri: TriangleCoordinates) -> str:
    _kind(tri, TriangleCoordinates, "TriangleCoordinates")
    alpha = ",".join(str(x) for x in tri.alpha)
    beta = ",".join(str(x) for x in tri.beta)
    return f"({alpha}; {beta}; {tri.gamma}; {tri.c1},{tri.c2})"
