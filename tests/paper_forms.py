"""Forms the library deliberately does not use, kept as references for tests."""

from crosscap.components import ComponentProfile
from crosscap.coords import TriangleCoordinates
from crosscap.intersect import _band
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
