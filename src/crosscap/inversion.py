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

from .coords import DynnikovCoordinates, TriangleCoordinates, _kind, _straight_cores, _unchecked
from .errors import InconsistentTriangleError, UnrealizableCoordinatesError, ZeroVectorError

__all__ = ["invert", "coordinatize", "realizable"]


def realizable(coords: DynnikovCoordinates) -> bool:
    """Whether some multicurve actually has these coordinates.

    Exactly the nonzero vectors with ``t`` congruent mod 2 to the straight
    core count at the first crosscap are hit by the coordinate map.  For a
    vector failing the parity, the would-be arc crossing counts come out
    odd, which no collection of paired-up strands can produce.
    """
    _kind(coords, DynnikovCoordinates, "DynnikovCoordinates")
    return (coords.t + _straight_cores(coords.c1, coords.b[-1])) % 2 == 0


def _solve(coords: DynnikovCoordinates) -> tuple[int, list[int], list[int]]:
    """``(psi, beta, alpha)`` for ``coords``: the straight-core count and
    the crossing counts ``beta = beta_star + r`` and ``alpha``, where
    ``beta_star`` falls from ``max(x, y)``, the larger of the two candidates
    for ``beta*_1``, and ``r`` is the second-crosscap shift.

    One pass over the punctures finds ``x``; a second lays out ``beta``
    from ``beta_1`` down, ``beta_{i+1} = beta_i - 2 b_i``, and each
    puncture's ``alpha`` pair beside it.
    """
    a, b, t = coords.a, coords.b, coords.t
    bn = b[-1]
    psi = _straight_cores(coords.c1, bn)

    x = prefix = 0
    for ak, bk in zip(a, b):
        cand = prefix + ak if ak > 0 else prefix - ak
        if bk > 0:
            cand += bk
        if cand > x:
            x = cand
        prefix += bk
    x *= 2
    y = (t if t > 0 else -t) + psi + 2 * prefix
    if bn > 0:
        y += 2 * bn

    top = x if x > y else y
    # The shift is added once: it raises beta_{n+1} to exactly 2*c2, the
    # least value hosting c2 core crossings. Adding it twice would pad the
    # curve with boundary-parallel junk.
    r = 2 * (coords.c2 + prefix + bn) - top  # 2*c2 - beta*_{n+1}
    if r > 0:
        top += r
    else:
        r = 0

    beta = [top]
    alpha = []
    for ak, bk in zip(a, b):
        half = top // 2 if bk >= 0 else top // 2 - bk  # the larger of beta_i, beta_{i+1}, halved
        alpha.append(half - ak)
        alpha.append(half + ak)
        top -= 2 * bk
        beta.append(top)
    beta.append(top - 2 * bn)
    return psi, beta, alpha


def invert(coords: DynnikovCoordinates) -> TriangleCoordinates:
    """Crossing counts of the multicurve encoded by ``coords``.

    Raises :class:`UnrealizableCoordinatesError` when ``coords`` is outside
    the image of the coordinate map (see :func:`realizable`); every
    realizable vector yields counts satisfying all the
    :class:`TriangleCoordinates` invariants, so the result is built
    unchecked (the tests construct it through the checks).
    """
    _kind(coords, DynnikovCoordinates, "DynnikovCoordinates")
    psi, beta, alpha = _solve(coords)
    t = coords.t
    if (t + psi) % 2:
        raise UnrealizableCoordinatesError(
            f"t={t} and the straight-core count {psi} differ in parity; "
            "no multicurve has these coordinates"
        )
    # gamma = 2 * (above + |b_n| + psi) with (t - psi + wide) / 2 - |b_n|
    # components above the first crosscap: the closed form coordinatize inverts
    wide = beta[-2] if beta[-2] > beta[-1] else beta[-1]
    return _unchecked(TriangleCoordinates, {
        "n": coords.n,
        "alpha": tuple(alpha),
        "beta": tuple(beta),
        "gamma": t + psi + wide,
        "c1": coords.c1,
        "c2": coords.c2,
    })


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
    _kind(tri, TriangleCoordinates, "TriangleCoordinates")
    n = tri.n
    b = tri.half_differences()
    a = tuple(
        (tri.alpha[2 * k + 1] - tri.alpha[2 * k]) // 2 for k in range(n - 1)
    )
    psi = _straight_cores(tri.c1, b[-1])
    t = tri.gamma - psi - max(tri.beta[-2], tri.beta[-1])
    if not (any(a) or any(b) or t or tri.c1 or tri.c2):
        raise ZeroVectorError("the zero vector encodes no multicurve")
    coords = _unchecked(
        DynnikovCoordinates, {"n": n, "a": a, "b": b, "t": t, "c1": tri.c1, "c2": tri.c2}
    )
    if invert(coords) != tri:
        raise InconsistentTriangleError(
            "no multicurve has these crossing counts: "
            "the vector they give inverts to other counts"
        )
    return coords
