"""Forms the library deliberately does not use, kept as references for tests."""

from crosscap.components import ComponentProfile
from crosscap.coords import DynnikovCoordinates, TriangleCoordinates
from crosscap.intersect import ElementaryCurve, _band
from crosscap.large import RegionRange, counts_for_range


def _paper_literal_crosscap_above_below(tri: TriangleCoordinates) -> tuple[int, int]:
    """Uncorrected above/below counts at the first crosscap.

    These are the published forms without the factor-of-two normalization;
    they double-count and are kept solely so the regression suite can
    document that the corrected forms are load-bearing.
    """
    bn = tri.half_differences()[-1]
    psi = max(max(tri.c1, 0) - abs(bn), 0)
    mx = max(tri.beta[-2], tri.beta[-1])
    t = tri.gamma - psi - mx
    return (
        t - psi + mx - 2 * abs(bn),
        -t - psi + mx - 2 * abs(bn),
    )


def max_plus_intermediates(coords: DynnikovCoordinates) -> tuple[int, int, tuple[int, ...], int]:
    """``(x, y, beta_star, r)`` by the max-plus forms, term by term, as the
    library computed them before :func:`crosscap.inversion.invert` laid
    ``beta`` out in one pass: ``x`` twice the widest point over a puncture,
    ``y`` the widest point at the first crosscap, ``beta*`` falling from
    ``max(x, y)`` by ``2 b_i`` per arc, and ``r`` the least shift that lets
    ``beta_{n+1}`` host ``c2`` core crossings.
    """
    a, b, t, n = coords.a, coords.b, coords.t, coords.n
    psi = max(max(coords.c1, 0) - abs(b[-1]), 0)
    x = 2 * max(abs(a[k]) + max(b[k], 0) + sum(b[:k]) for k in range(n - 1))
    y = abs(t) + 2 * max(b[-1], 0) + psi + 2 * sum(b[:-1])
    beta_star = tuple(max(x, y) - 2 * sum(b[:k]) for k in range(n + 1))
    return x, y, beta_star, max(0, 2 * coords.c2 - beta_star[-1])


def per_curve_values(tri: TriangleCoordinates, prof: ComponentProfile, curves) -> list[int]:
    """The closed formulas evaluated one curve at a time, as the library did
    before it laid the values out once per puncture count: each curve's
    band, the large counts of that range, the strand total on its two
    boundary arcs minus twice those counts, and ``D`` corrected from the
    ``C`` count.  The reference the row lookup must reproduce.
    """
    n = tri.n
    arcs = (0, *tri.beta, 0)
    out = []
    for curve in curves:
        first, last = _band(curve, n)
        if last < n:
            rng = RegionRange.punctures(first, last)
        else:
            rng = RegionRange(l=first, crosscap=last - n + 1)
        counts = counts_for_range(prof, rng)
        large = sum(
            x or 0 for x in (counts.over, counts.under, counts.right_loops, counts.left_loops)
        )
        value = arcs[first] + arcs[last + 1] - 2 * large
        if curve.kind == "D":
            value = abs(tri.c1 - tri.c2) if value == 0 else value - tri.c1 - tri.c2
        out.append(value)
    return out


def elementary_coords_by_kind(curve: ElementaryCurve, n: int) -> DynnikovCoordinates:
    """The ``(a; b; t; c1, c2)`` vector of an elementary curve, one branch
    per kind, as the library wrote it before it read ``b`` off the curve's
    band.  Takes curves whose indices fit ``n``."""
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
    return DynnikovCoordinates(n=n, a=(0,) * (n - 1), b=tuple(b), t=0, c1=c1, c2=c2)
