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

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .components import ComponentProfile, profile
from .coords import (
    _ASCII_INT, DynnikovCoordinates, TriangleCoordinates, _ints, _kind, _puncture_count, _too_long
)
from .errors import InvalidParameterError, NonprimitiveContentError, UnsupportedCurveError
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


def parse_curve(text: str) -> ElementaryCurve:
    """Parse ``"Cij:2,3"``, ``"Cprime1:1"``, ``"C"``, ``"D"``, ``"core:1"`` ..."""
    _kind(text, str, "a curve spec", InvalidParameterError)
    head, colon, tail = text.strip().partition(":")

    def indices(count: int, what: str) -> list[int]:
        parts = [part.strip() for part in tail.split(",")]
        if len(parts) != count or not all(_ASCII_INT.fullmatch(part) for part in parts):
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
    if head in ("C", "D") and not colon:
        return ElementaryCurve(kind=head)
    raise InvalidParameterError(f"cannot parse curve spec {text!r}")


def catalog(n: int, include_nonprimitive: bool = False) -> tuple[ElementaryCurve, ...]:
    """Every elementary curve on the surface with ``n`` punctures (built once per argument).

    ``n`` must be an ``int`` of at least 2, or :class:`DimensionMismatchError` is raised;
    ``include_nonprimitive`` must be a bool.
    """
    _puncture_count(n)
    if type(include_nonprimitive) is not bool:
        raise InvalidParameterError(
            f"include_nonprimitive must be a bool, got {include_nonprimitive!r}"
        )
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


def _band(curve: ElementaryCurve, n: int) -> tuple[int, int]:
    """First and last region of the range a disk-bounding curve encloses
    (``D`` reads ``C``'s): ``C_{i,j}`` encloses ``S_{i-1,j-1}``,
    ``C'_{i,k}`` encloses ``S'_{i-1,k}`` and ``C`` encloses ``S'_{n,2}``.
    Raises :class:`InvalidParameterError` for an index past ``n``."""
    kind = curve.kind
    if kind == "Cij":
        if curve.j > n:
            raise InvalidParameterError(f"C_(i,j) needs j <= {n}, got j={curve.j}")
        return curve.i - 1, curve.j - 1
    if kind in ("Cprime1", "Cprime2"):
        if curve.i > n:
            raise InvalidParameterError(f"i must be <= {n}, got i={curve.i}")
        return curve.i - 1, n if kind == "Cprime1" else n + 1
    return n, n + 1


def elementary_coords(curve: ElementaryCurve, n: int) -> DynnikovCoordinates:
    """The ``(a; b; t; c1, c2)`` vector of an elementary curve: ``b`` is
    ``-1`` on the arc left of its band and ``+1`` on the arc right of it,
    where those are among ``beta_1..beta_n``.  ``n`` is checked as
    :func:`catalog` checks it, then the curve's indices against ``n``."""
    _puncture_count(n)
    _kind(curve, ElementaryCurve, "an ElementaryCurve", InvalidParameterError)
    b = [0] * n
    c1 = c2 = 0
    if curve.nonprimitive:
        c = -1 if curve.kind == "core" else -2
        c1, c2 = (c, 0) if curve.j == 1 else (0, c)
    else:
        first, last = _band(curve, n)
        if first > 0:
            b[first - 1] = -1
        if last <= n:
            b[last - 1] = 1
        if curve.kind == "D":
            c1 = c2 = 1
    return DynnikovCoordinates(n=n, a=(0,) * (n - 1), b=tuple(b), t=0, c1=c1, c2=c2)


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
    """The layout of ``curves``; the first one the formulas do not cover,
    non-primitive or with an index past ``n``, raises."""
    bands = []
    for curve in curves:
        _kind(curve, ElementaryCurve, "an ElementaryCurve", InvalidParameterError)
        if curve.nonprimitive:
            raise UnsupportedCurveError(
                f"no intersection formula for non-primitive curve {curve.label()}"
            )
        bands.append(_band(curve, n))
    firsts = sorted({first for first, _ in bands})
    offset = {}
    size = 0
    for first in firsts:
        offset[first] = size - first
        size += n + 2 - first
    return _Layout(
        bands=tuple(bands),
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
    _kind(coords, DynnikovCoordinates, "DynnikovCoordinates")
    if coords.c1 < 0 or coords.c2 < 0:
        raise NonprimitiveContentError(
            "multicurve carries whole non-primitive components "
            f"(c1={coords.c1}, c2={coords.c2}); intersection with them is undefined here"
        )
    n = coords.n
    if curves is None:
        return _catalog(n, False), _catalog_layout(n)
    try:
        curves = tuple(curves)
    except TypeError:  # not iterable
        raise InvalidParameterError(f"expected a tuple of curves, got {curves!r}") from None
    return curves, _layout(curves, n)


def _formula_values(tri: TriangleCoordinates, prof: ComponentProfile, layout: _Layout) -> list[int]:
    """The closed formulas on curves that passed :func:`_checked`: one
    large-count row per distinct left end, then one lookup per curve.

    Each value is its range's crossing total off the row; ``D`` then
    corrects the ``C`` count.
    """
    totals = _row(prof, layout.firsts)[0]
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
