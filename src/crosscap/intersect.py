"""Elementary curves and geometric intersection numbers with a multicurve.

The elementary curves either bound a disk meeting the diameter twice and no
crosscap, or pass through crosscaps off the diameter:

* ``C_{i,j}`` (``1 <= i < j <= n``) bounds a disk around punctures ``i..j``;
* ``C'_{i,1}`` (``1 <= i <= n``) around punctures ``i..n`` plus the first
  crosscap;
* ``C'_{i,2}`` (``1 < i <= n``) around punctures ``i..n`` plus both
  crosscaps;
* ``C`` around both crosscaps and no puncture;
* ``D`` passes once through each crosscap, missing the diameter;
* the core curve of a crosscap and the curve bounding it (non-primitive
  kinds, cataloged but with no intersection formula).

Each component of the multicurve crosses a disk-bounding curve either twice
or not at all; the ones missing it are exactly the large components of the
matching region range, so the count is the strand total minus twice the
large counts.  Crossings with ``D`` reduce to the ``C`` count and the two
core crossing numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .components import ComponentProfile, profile
from .coords import DynnikovCoordinates, TriangleCoordinates, _ints, _too_long
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonprimitiveContentError,
    UnsupportedCurveError,
)
from .inversion import invert
from .large import _row

__all__ = [
    "ElementaryCurve",
    "catalog",
    "parse_curve",
    "elementary_coords",
    "intersect_elementary",
    "elementary_values",
]

_KINDS = ("Cij", "Cprime1", "Cprime2", "C", "D", "core", "bounding")
# ASCII digits only: int() also takes "٢" and "0_2"
_INDEX = re.compile(r"[+-]?[0-9]+")
# distinct catalogs kept: a process rarely uses more than a few puncture counts
_CATALOGS_KEPT = 16


@dataclass(frozen=True)
class ElementaryCurve:
    """Catalog entry.  ``i``/``j`` are meaningful only for the kinds that
    take parameters (``j`` doubles as the crosscap index for the
    non-primitive kinds)."""

    kind: str
    i: int = 0
    j: int = 0

    def __post_init__(self):
        _ints((self.i, self.j), ("i", "j"), InvalidParameterError)
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown curve kind {self.kind!r}")
        if self.kind == "Cij" and not 1 <= self.i < self.j:
            raise InvalidParameterError(f"C_(i,j) needs 1 <= i < j, got ({self.i},{self.j})")
        if self.kind == "Cprime1" and self.i < 1:
            raise InvalidParameterError("C'_(i,1) needs i >= 1")
        if self.kind == "Cprime2" and self.i < 2:
            raise InvalidParameterError("C'_(i,2) needs i >= 2")
        if self.kind in ("core", "bounding") and self.j not in (1, 2):
            raise InvalidParameterError("crosscap index must be 1 or 2")

    @classmethod
    def Cij(cls, i: int, j: int) -> "ElementaryCurve":
        return cls(kind="Cij", i=i, j=j)

    @classmethod
    def Cprime1(cls, i: int) -> "ElementaryCurve":
        return cls(kind="Cprime1", i=i)

    @classmethod
    def Cprime2(cls, i: int) -> "ElementaryCurve":
        return cls(kind="Cprime2", i=i)

    @classmethod
    def C(cls) -> "ElementaryCurve":
        return cls(kind="C")

    @classmethod
    def D(cls) -> "ElementaryCurve":
        return cls(kind="D")

    @classmethod
    def core(cls, k: int) -> "ElementaryCurve":
        return cls(kind="core", j=k)

    @classmethod
    def bounding(cls, k: int) -> "ElementaryCurve":
        return cls(kind="bounding", j=k)

    @property
    def nonprimitive(self) -> bool:
        return self.kind in ("core", "bounding")

    def label(self) -> str:
        """Human-readable name, e.g. ``C_{2,3}`` or ``C'_{1,1}``."""
        if self.kind == "Cij":
            return f"C_{{{self.i},{self.j}}}"
        if self.kind == "Cprime1":
            return f"C'_{{{self.i},1}}"
        if self.kind == "Cprime2":
            return f"C'_{{{self.i},2}}"
        if self.kind == "core":
            return f"c_{self.j}"
        if self.kind == "bounding":
            return f"d_{self.j}"
        return self.kind

    def spec(self) -> str:
        """Machine-readable form accepted by :func:`parse_curve`."""
        if self.kind == "Cij":
            return f"Cij:{self.i},{self.j}"
        if self.kind in ("Cprime1", "Cprime2"):
            return f"{self.kind}:{self.i}"
        if self.kind in ("core", "bounding"):
            return f"{self.kind}:{self.j}"
        return self.kind

    def check(self, n: int):
        """Validate the parameters against the puncture count."""
        if self.kind == "Cij" and self.j > n:
            raise InvalidParameterError(f"C_(i,j) needs j <= {n}, got j={self.j}")
        if self.kind in ("Cprime1", "Cprime2") and self.i > n:
            raise InvalidParameterError(f"i must be <= {n}, got i={self.i}")


def parse_curve(text: str) -> ElementaryCurve:
    """Parse ``"Cij:2,3"``, ``"Cprime1:1"``, ``"C"``, ``"D"``, ``"core:1"`` ..."""
    head, _, tail = text.strip().partition(":")

    def indices(count: int, what: str) -> list[int]:
        parts = [part.strip() for part in tail.split(",")]
        if len(parts) != count or not all(_INDEX.fullmatch(part) for part in parts):
            raise InvalidParameterError(f"{head} needs {what}, got {text!r}")
        try:
            return [int(part) for part in parts]
        except ValueError:  # the only failure left: too many digits
            raise InvalidParameterError(_too_long(f"{head} index")) from None

    if head == "Cij":
        return ElementaryCurve.Cij(*indices(2, "two integer indices"))
    if head in ("Cprime1", "Cprime2"):
        return ElementaryCurve(kind=head, i=indices(1, "an integer index")[0])
    if head in ("core", "bounding"):
        return ElementaryCurve(kind=head, j=indices(1, "an integer crosscap index")[0])
    if head in ("C", "D") and not tail:
        return ElementaryCurve(kind=head)
    raise InvalidParameterError(f"cannot parse curve spec {text!r}")


def catalog(n: int, include_nonprimitive: bool = False) -> tuple[ElementaryCurve, ...]:
    """Every elementary curve on the surface with ``n`` punctures (built once per argument).

    ``n`` must be an ``int`` of at least 2, or :class:`DimensionMismatchError` is raised.
    """
    _ints((n,), ("n",))
    if n < 2:
        raise DimensionMismatchError(f"puncture count must be >= 2, got {n}")
    return _catalog(n, include_nonprimitive)


@lru_cache(maxsize=_CATALOGS_KEPT)
def _catalog(n: int, include_nonprimitive: bool) -> tuple[ElementaryCurve, ...]:
    curves = [
        ElementaryCurve.Cij(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
    ]
    curves += [ElementaryCurve.Cprime1(i) for i in range(1, n + 1)]
    curves += [ElementaryCurve.Cprime2(i) for i in range(2, n + 1)]
    curves += [ElementaryCurve.C(), ElementaryCurve.D()]
    if include_nonprimitive:
        curves += [ElementaryCurve.core(k) for k in (1, 2)]
        curves += [ElementaryCurve.bounding(k) for k in (1, 2)]
    return tuple(curves)


def elementary_coords(curve: ElementaryCurve, n: int) -> DynnikovCoordinates:
    """The ``(a; b; t; c1, c2)`` vector of an elementary curve."""
    curve.check(n)
    a = (0,) * (n - 1)
    b = [0] * n
    c1 = c2 = 0
    if curve.kind == "Cij":
        if curve.i > 1:
            b[curve.i - 2] = -1
        b[curve.j - 2] = 1
    elif curve.kind == "Cprime1":
        if curve.i > 1:
            b[curve.i - 2] = -1
        b[n - 1] = 1
    elif curve.kind == "Cprime2":
        b[curve.i - 2] = -1
    elif curve.kind == "C":
        b[n - 1] = -1
    elif curve.kind == "D":
        b[n - 1] = -1
        c1 = c2 = 1
    elif curve.kind == "core":
        c1, c2 = (-1, 0) if curve.j == 1 else (0, -1)
    else:  # bounding
        c1, c2 = (-2, 0) if curve.j == 1 else (0, -2)
    return DynnikovCoordinates(n=n, a=a, b=tuple(b), t=0, c1=c1, c2=c2)


def _band(curve: ElementaryCurve, n: int) -> tuple[int, int]:
    """First and last region of the range a disk-bounding curve encloses
    (``D`` reads ``C``'s): ``C_{i,j}`` encloses ``S_{i-1,j-1}``,
    ``C'_{i,k}`` encloses ``S'_{i-1,k}`` and ``C`` encloses ``S'_{n,2}``."""
    if curve.kind == "Cij":
        return curve.i - 1, curve.j - 1
    if curve.kind == "Cprime1":
        return curve.i - 1, n
    if curve.kind == "Cprime2":
        return curve.i - 1, n + 1
    return n, n + 1


class _Layout(NamedTuple):
    """Where each curve's value sits among the large-count rows.

    ``bands`` holds each curve's first and last region, ``firsts`` the
    distinct left ends in row order and ``index`` each curve's position in
    those rows laid end to end (a row from ``l`` has ``n + 2 - l``
    entries); ``d_at`` lists the positions of ``D``.
    """

    bands: tuple[tuple[int, int], ...]
    firsts: tuple[int, ...]
    index: tuple[int, ...]
    d_at: tuple[int, ...]


def _layout(curves: tuple[ElementaryCurve, ...], n: int) -> _Layout:
    bands = tuple(_band(curve, n) for curve in curves)
    firsts = sorted({first for first, _ in bands})
    offset = {}
    size = 0
    for first in firsts:
        offset[first] = size - first
        size += n + 2 - first
    return _Layout(
        bands=bands,
        firsts=tuple(firsts),
        index=tuple(offset[first] + last for first, last in bands),
        d_at=tuple(k for k, curve in enumerate(curves) if curve.kind == "D"),
    )


@lru_cache(maxsize=_CATALOGS_KEPT)
def _catalog_layout(n: int) -> _Layout:
    return _layout(_catalog(n, False), n)


def _checked(
    coords: DynnikovCoordinates, curves: tuple[ElementaryCurve, ...] | None
) -> tuple[tuple[ElementaryCurve, ...], _Layout]:
    """The curves the formulas evaluate on ``coords`` (default: the full
    in-scope catalog) and their layout, after rejecting what the formulas
    do not cover."""
    if coords.c1 < 0 or coords.c2 < 0:
        raise NonprimitiveContentError(
            "multicurve carries whole non-primitive components "
            f"(c1={coords.c1}, c2={coords.c2}); intersection with them is undefined here"
        )
    n = coords.n
    if curves is None:
        return _catalog(n, False), _catalog_layout(n)
    for curve in curves:
        if curve.nonprimitive:
            raise UnsupportedCurveError(
                f"no intersection formula for non-primitive curve {curve.label()}"
            )
        curve.check(n)
    return curves, _layout(curves, n)


def _formula_values(tri: TriangleCoordinates, prof: ComponentProfile, layout: _Layout) -> list[int]:
    """The closed formulas on curves that passed :func:`_checked`: one
    large-count row per distinct left end, then one lookup per curve.

    Each value is its range's crossing total off the row; ``D`` then
    corrects the ``C`` count.
    """
    totals: list[int] = []
    for first in layout.firsts:
        totals += _row(prof, first)[0]
    out = list(map(totals.__getitem__, layout.index))
    c1, c2 = tri.c1, tri.c2
    for k in layout.d_at:
        out[k] = abs(c1 - c2) if out[k] == 0 else out[k] - c1 - c2
    return out


def intersect_elementary(coords: DynnikovCoordinates, curve: ElementaryCurve) -> int:
    """Geometric intersection number of the multicurve with one elementary
    curve (see :func:`elementary_values`)."""
    return elementary_values(coords, (curve,))[0][1]


def elementary_values(
    coords: DynnikovCoordinates,
    curves: tuple[ElementaryCurve, ...] | None = None,
) -> list[tuple[ElementaryCurve, int]]:
    """Intersection numbers with several curves, inverting only once.

    Defaults to the full in-scope catalog for the multicurve's ``n``.
    Multicurves with negative ``c`` entries are rejected (the formulas
    consume plain crossing counts), as are non-primitive curve kinds (no
    formula exists for them).
    """
    curves, layout = _checked(coords, curves)
    tri = invert(coords)
    return list(zip(curves, _formula_values(tri, profile(tri), layout)))
