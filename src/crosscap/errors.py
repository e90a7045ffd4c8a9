"""Exception hierarchy shared by every module in the package."""


class CrosscapError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVectorError(CrosscapError):
    """The all-zero vector encodes no multicurve and is outside the codomain."""


class DimensionMismatchError(CrosscapError):
    """Vector block lengths are inconsistent with the puncture count."""


class CoordinateSyntaxError(CrosscapError):
    """Malformed coordinate text.  ``pos`` is the offset of the bad character."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class InconsistentTriangleError(CrosscapError):
    """Crossing counts that no multicurve can realize (negative derived
    component counts, or parity violations)."""


class ParityViolationError(InconsistentTriangleError):
    """An intersection count has the wrong parity (strands must pair up)."""


class UnrealizableCoordinatesError(CrosscapError):
    """A nonzero integer vector outside the image of the coordinate map.

    The straight-core count forced by ``c1`` and ``b_n`` must have the same
    parity as ``t``: crossing counts with the vertical arcs are always even,
    so the above/below split at the first crosscap can only absorb a twist
    ``t`` of matching parity.
    """


class EndpointMismatchError(CrosscapError):
    """Component endpoints on some arc cannot be paired up consistently."""


class InvalidRangeError(CrosscapError):
    """Region-range indices out of bounds."""


class InvalidParameterError(CrosscapError):
    """Parameters out of range: elementary-curve indices for the surface,
    or a selftest grid with nothing to check."""


class UnsupportedCurveError(CrosscapError):
    """No intersection formula exists for this curve kind."""


class NonprimitiveContentError(CrosscapError):
    """Negative crosscap coordinates encode whole non-primitive components;
    the intersection formulas require plain crossing counts (``c_i >= 0``)."""
