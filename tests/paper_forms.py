"""Published forms the library deliberately does not use, kept for tests."""

from crosscap.coords import TriangleCoordinates


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
