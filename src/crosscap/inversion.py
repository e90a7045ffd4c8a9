"""Conversion between the compressed encoding and raw crossing counts.

:func:`invert` reconstructs the crossing counts of the unique multicurve
with a given ``(a; b; t; c1, c2)`` vector; :func:`coordinatize` is its
inverse.  Both directions are exact integer piecewise-linear (max-plus)
formulas.

The image of the coordinate map is not all of Z^(2n+2) minus the origin:
because every ``beta_i`` is even, the twist ``t`` must agree mod 2 with the
straight-core count ``max(c1^+ - |b_n|, 0)`` forced at the first crosscap.
:func:`realizable` tests this; :func:`invert` rejects vectors that fail it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coords import DynnikovCoordinates, TriangleCoordinates, _straight_cores, _unchecked
from .errors import InconsistentTriangleError, UnrealizableCoordinatesError, ZeroVectorError

__all__ = ["InversionIntermediates", "intermediates", "invert", "coordinatize", "realizable"]


def realizable(coords: DynnikovCoordinates) -> bool:
    """Whether some multicurve actually has these coordinates.

    Exactly the nonzero vectors with ``t`` congruent mod 2 to the straight
    core count at the first crosscap are hit by the coordinate map.  For a
    vector failing the parity, the would-be arc crossing counts come out
    odd, which no collection of paired-up strands can produce.
    """
    return (coords.t + _straight_cores(coords.c1, coords.b[-1])) % 2 == 0


@dataclass(frozen=True)
class InversionIntermediates:
    """The max-plus scaffolding behind :func:`invert`.

    ``x`` dominates when the widest point of the curve sits over a puncture,
    ``y`` when it sits at the first crosscap.  ``beta_star`` is the raw
    profile of vertical crossing counts before the second-crosscap
    correction ``r`` (which makes room for ``c2`` core crossings).
    """

    x: int
    y: int
    beta_star: tuple[int, ...]
    r: int


def intermediates(coords: DynnikovCoordinates) -> InversionIntermediates:
    """Compute ``x``, ``y``, ``beta_star`` and ``r`` for ``coords``."""
    x, y, beta_star, r = _intermediates(coords)
    return InversionIntermediates(x=x, y=y, beta_star=tuple(beta_star), r=r)


def _intermediates(coords: DynnikovCoordinates) -> tuple[int, int, list[int], int]:
    a, b, t = coords.a, coords.b, coords.t
    n = coords.n
    bn = b[-1]
    psi = _straight_cores(coords.c1, bn)

    prefix = 0
    x = None
    for r_idx in range(n - 1):
        cand = abs(a[r_idx]) + max(b[r_idx], 0) + prefix
        if x is None or cand > x:
            x = cand
        prefix += b[r_idx]
    x = 2 * x  # type: ignore[operator]
    y = abs(t) + 2 * max(bn, 0) + psi + 2 * prefix

    m = max(x, y)
    beta_star = [m]
    acc = 0
    for bi in b:
        acc += 2 * bi
        beta_star.append(m - acc)
    r = max(0, 2 * coords.c2 - beta_star[-1])
    return x, y, beta_star, r


def invert(coords: DynnikovCoordinates) -> TriangleCoordinates:
    """Crossing counts of the multicurve encoded by ``coords``.

    Raises :class:`UnrealizableCoordinatesError` when ``coords`` is outside
    the image of the coordinate map (see :func:`realizable`); every
    realizable vector yields counts satisfying all the
    :class:`TriangleCoordinates` invariants, so the result is built
    unchecked (the tests construct it through the checks).
    """
    a, b, t = coords.a, coords.b, coords.t
    n = coords.n
    bn = b[-1]
    psi = _straight_cores(coords.c1, bn)
    if (t + psi) % 2:
        raise UnrealizableCoordinatesError(
            f"t={t} and the straight-core count {psi} differ in parity; "
            "no multicurve has these coordinates"
        )

    _, _, beta_star, r = _intermediates(coords)
    # The shift is added once: it raises beta_{n+1} to exactly 2*c2, the
    # least value hosting c2 core crossings. Adding it twice would pad the
    # curve with boundary-parallel junk.
    beta = tuple(bs + r for bs in beta_star)

    alpha = []
    for k in range(n - 1):
        half = beta[k] // 2 if b[k] >= 0 else beta[k + 1] // 2
        alpha.append(-a[k] + half)
        alpha.append(a[k] + half)

    above = (t - psi + max(beta[n - 1], beta[n]) - 2 * abs(bn)) // 2
    gamma = 2 * (above + abs(bn) + psi)

    return _unchecked(
        TriangleCoordinates,
        n=n, alpha=tuple(alpha), beta=beta, gamma=gamma, c1=coords.c1, c2=coords.c2,
    )


def coordinatize(tri: TriangleCoordinates) -> DynnikovCoordinates:
    """The ``(a; b; t; c1, c2)`` vector of a multicurve with counts ``tri``.

    ``t`` is recovered in closed form as
    ``gamma - max(c1^+ - |b_n|, 0) - max(beta_n, beta_{n+1})``, which equals
    the above-minus-below imbalance at the first crosscap without having to
    materialize either count.

    Raises :class:`ZeroVectorError` for counts whose vector is zero and
    :class:`InconsistentTriangleError` for other counts that no multicurve
    has: those the vector does not invert back to.
    """
    n = tri.n
    b = tri.half_differences()
    a = tuple(
        (tri.alpha[2 * k + 1] - tri.alpha[2 * k]) // 2 for k in range(n - 1)
    )
    psi = _straight_cores(tri.c1, b[-1])
    t = tri.gamma - psi - max(tri.beta[-2], tri.beta[-1])
    if not (any(a) or any(b) or t or tri.c1 or tri.c2):
        raise ZeroVectorError("the zero vector encodes no multicurve")
    coords = _unchecked(DynnikovCoordinates, n=n, a=a, b=b, t=t, c1=tri.c1, c2=tri.c2)
    if invert(coords) != tri:
        raise InconsistentTriangleError(
            "no multicurve has these crossing counts: "
            "the vector they give inverts to other counts"
        )
    return coords
