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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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


def _require_int(value, what: str):
    """Reject bools and everything that is not an exact integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DimensionMismatchError(f"{what} must be an integer, got {value!r}")


def _as_int_tuple(values: Sequence[int], what: str) -> tuple[int, ...]:
    try:
        out = tuple(values)
    except TypeError:  # not iterable
        raise DimensionMismatchError(
            f"{what} must be a list of integers, got {values!r}"
        ) from None
    for v in out:
        _require_int(v, f"each {what} entry")
    return out


def _fields(data: dict, keys: tuple[str, ...]) -> list:
    """The JSON fields ``keys`` plus the two ``c`` entries (default zero)."""
    if not isinstance(data, dict):
        raise DimensionMismatchError(f"expected a JSON object, got {data!r}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise DimensionMismatchError(f"missing key(s) {', '.join(missing)}")
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
        for what in ("n", "t", "c1", "c2"):
            _require_int(getattr(self, what), what)
        if self.n < 2:
            raise DimensionMismatchError(f"puncture count must be >= 2, got {self.n}")
        object.__setattr__(self, "a", _as_int_tuple(self.a, "a"))
        object.__setattr__(self, "b", _as_int_tuple(self.b, "b"))
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

    Construction enforces everything a multicurve forces on these counts:

    * ``alpha`` (length 2n-2), ``beta`` (length n+1) and ``gamma`` are
      nonnegative, every ``beta_i`` and ``gamma`` are even, and the two
      ``alpha`` entries of each puncture agree mod 2 (strands pair up);
    * the per-region component counts derived from them are nonnegative:
      above/below counts at each puncture and at the first crosscap, and
      the non-core loop count at the second crosscap.

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
        for what in ("n", "gamma", "c1", "c2"):
            _require_int(getattr(self, what), what)
        n = self.n
        if n < 2:
            raise DimensionMismatchError(f"puncture count must be >= 2, got {n}")
        object.__setattr__(self, "alpha", _as_int_tuple(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_int_tuple(self.beta, "beta"))
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
        # Derived component counts must be realizable.
        b = self.half_differences()
        for k in range(n - 1):
            if self.alpha[2 * k] - abs(b[k]) < 0:
                raise InconsistentTriangleError(
                    f"negative above count at puncture {k + 2}"
                )
            if self.alpha[2 * k + 1] - abs(b[k]) < 0:
                raise InconsistentTriangleError(
                    f"negative below count at puncture {k + 2}"
                )
        bn = b[-1]
        psi = max(max(self.c1, 0) - abs(bn), 0)
        if self.gamma // 2 - psi - abs(bn) < 0:
            raise InconsistentTriangleError("negative above count at first crosscap")
        if max(self.beta[-2], self.beta[-1]) - self.gamma // 2 - abs(bn) < 0:
            raise InconsistentTriangleError("negative below count at first crosscap")
        if self.beta[-1] // 2 - max(self.c2, 0) < 0:
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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise CoordinateSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

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


def _parse_blocks(text: str, nblocks: int) -> list[list[int]]:
    sc = _Scanner(text)
    sc.expect("(")
    blocks = [sc.int_block()]
    while sc.peek() == ";":
        sc.pos += 1
        blocks.append(sc.int_block())
    sc.expect(")")
    sc.end()
    if len(blocks) != nblocks:
        raise CoordinateSyntaxError(
            f"expected {nblocks} semicolon-separated blocks, got {len(blocks)}",
            len(text) - 1,
        )
    return blocks


def parse_coords(text: str, n: int | None = None) -> DynnikovCoordinates:
    """Parse ``"(a; b; t; c1,c2)"``.  Whitespace-insensitive.

    ``n`` is inferred from the ``b`` block; when given explicitly it is
    cross-checked against the inferred value.
    """
    a, b, t, c = _parse_blocks(text, 4)
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
    a = ",".join(str(x) for x in coords.a)
    b = ",".join(str(x) for x in coords.b)
    return f"({a}; {b}; {coords.t}; {coords.c1},{coords.c2})"


def parse_triangle(text: str, n: int | None = None) -> TriangleCoordinates:
    """Parse ``"(alpha; beta; gamma; c1,c2)"`` (same conventions)."""
    alpha, beta, gamma, c = _parse_blocks(text, 4)
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
    alpha = ",".join(str(x) for x in tri.alpha)
    beta = ",".join(str(x) for x in tri.beta)
    return f"({alpha}; {beta}; {tri.gamma}; {tri.c1},{tri.c2})"
