"""Deterministic SVG rendering of a glued multicurve diagram.

Owned by the command-line layer.  The picture follows the standard model:
punctures as dots and crosscaps as crossed circles along the horizontal
diameter, vertical reference arcs between them, and one smooth path per
path component through its arc slots.  The layout is a pure function of
the diagram, so rendered output is byte-for-byte reproducible and
diffable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .components import (
    ABOVE,
    BELOW,
    BOUNDING_CURVE,
    CORE_CURVE,
    CORE_LOOP,
    LOOP_LEFT,
    LOOP_RIGHT,
    NONCORE_LOOP,
    STRAIGHT_CORE,
    GluingDescription,
)
from .coords import _ints, _kind
from .errors import InvalidParameterError

__all__ = ["RenderSpec", "render_svg"]

_SLOT_GAP = 9
_MARKER_RADIUS = 16
# stroke colour of each species
_STYLES: dict[str, str] = {
    ABOVE: "#1f77b4",
    BELOW: "#2ca02c",
    LOOP_LEFT: "#d62728",
    LOOP_RIGHT: "#d62728",
    STRAIGHT_CORE: "#9467bd",
    CORE_LOOP: "#ff7f0e",
    NONCORE_LOOP: "#8c564b",
    CORE_CURVE: "#7f7f7f",
    BOUNDING_CURVE: "#7f7f7f",
}


@dataclass(frozen=True)
class RenderSpec:
    """Canvas geometry: ``width``/``height`` of 0 mean size-to-content, and
    ``spacing`` is the distance between neighbouring markers."""

    width: int = 0
    height: int = 0
    spacing: int = 90

    def __post_init__(self):
        _ints(
            (self.width, self.height, self.spacing),
            ("width", "height", "spacing"),
            InvalidParameterError,
        )
        if self.width < 0 or self.height < 0:
            raise InvalidParameterError("canvas dimensions cannot be negative")
        if self.spacing <= 0:
            raise InvalidParameterError("spacing must be positive")


def _fmt(v: float) -> str:
    return f"{v:.1f}"


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, color, width=1.2, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            f' stroke="{color}" stroke-width="{width}" fill="none"{d}/>'
        )

    def circle(self, cx, cy, r, color, width=1.2, fill="none", dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}"'
            f' stroke="{color}" stroke-width="{width}" fill="{fill}"{d}/>'
        )

    def dot(self, cx, cy, r, color):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{color}"/>'
        )

    def path(self, d, color, width=1.5):
        self.parts.append(
            f'<path d="{d}" stroke="{color}" stroke-width="{width}" fill="none"/>'
        )

    def ellipse(self, cx, cy, rx, ry, color, width=1.5):
        self.parts.append(
            f'<ellipse cx="{_fmt(cx)}" cy="{_fmt(cy)}" rx="{_fmt(rx)}" ry="{_fmt(ry)}"'
            f' stroke="{color}" stroke-width="{width}" fill="none"/>'
        )


def render_svg(gl: GluingDescription, spec: RenderSpec | None = None) -> str:
    """One SVG 1.1 document for the glued diagram (``spec`` defaults to
    ``RenderSpec()``); ``InvalidParameterError`` for another kind of
    argument or when its coordinates do not fit a float."""
    _kind(gl, GluingDescription, "a GluingDescription", InvalidParameterError)
    if spec is None:
        spec = RenderSpec()
    _kind(spec, RenderSpec, "a RenderSpec", InvalidParameterError)
    n = gl.n
    sp, gap, rad = spec.spacing, _SLOT_GAP, _MARKER_RADIUS

    # Markers sit at positions 1..n (punctures) and n+1, n+2 (crosscaps);
    # arc k (0-based) lies between markers k+1 and k+2.
    def marker_x(pos: int) -> float:
        return sp * pos + sp * 0.5

    def arc_x(arc: int) -> float:
        return (marker_x(arc + 1) + marker_x(arc + 2)) / 2

    max_slots = max(gl.arc_sizes, default=0)
    content_h = max(max_slots * gap + 2 * rad + 40, 6 * rad)
    width = spec.width or int(sp * (n + 3))
    height = spec.height or int(content_h + 40)
    try:  # every coordinate drawn is at most a few times the largest of these
        float(4 * max(width, height, content_h, sp * (n + 3)))
    except OverflowError:
        raise InvalidParameterError("the picture is too large to draw") from None
    cy = height / 2

    def slot_y(arc: int, slot: int) -> float:
        m = gl.arc_sizes[arc]
        return cy + (slot - (m - 1) / 2) * gap

    cv = _Canvas()
    cv.ellipse(width / 2, cy, width / 2 - 6, height / 2 - 6, "#000000")
    cv.line(8, cy, width - 8, cy, "#bbbbbb", width=0.8, dash="4,4")

    for arc in range(n + 1):
        x = arc_x(arc)
        half = max(gl.arc_sizes[arc] * gap / 2 + 8, rad)
        cv.line(x, cy - half, x, cy + half, "#999999", width=0.8, dash="2,3")

    for p in range(1, n + 1):
        cv.dot(marker_x(p), cy, 3.0, "#000000")
    for cc in (n + 1, n + 2):
        x = marker_x(cc)
        cv.circle(x, cy, rad, "#000000")
        off = rad * 0.7071
        cv.line(x - off, cy - off, x + off, cy + off, "#000000", width=1.0)
        cv.line(x - off, cy + off, x + off, cy - off, "#000000", width=1.0)

    # Strand i of a bundle joins offset i of its first end to offset i of
    # its second, or w-1-i when reversed; below strands are drawn from the
    # bottom of the arc.
    for bd in gl.bundles:
        species, region, w = bd.species, bd.region, bd.width
        color = _STYLES[species]
        if not bd.ends:  # whole non-primitive curves, drawn once per copy
            x = marker_x(n + 1 if region == n else n + 2)
            for _ in range(w):
                if species == CORE_CURVE:
                    cv.line(x, cy - rad, x, cy + rad, color, width=1.4, dash="5,3")
                else:
                    cv.circle(x, cy, rad + 5, color, dash="5,3")
            continue
        (a1, first1), (a2, first2) = bd.ends
        for i in range(w - 1, -1, -1) if species == BELOW else range(w):
            s1, s2 = first1 + i, first2 + (w - 1 - i if bd.reversed else i)
            if species in (ABOVE, BELOW):
                x1, y1 = arc_x(a1), slot_y(a1, s1)
                x2, y2 = arc_x(a2), slot_y(a2, s2)
                sign = -1 if species == ABOVE else 1
                clear = cy + sign * (rad + 6)
                ym = min(y1, y2, clear) if sign < 0 else max(y1, y2, clear)
                xm = (x1 + x2) / 2
                cv.path(
                    f"M {_fmt(x1)} {_fmt(y1)} C {_fmt(xm)} {_fmt(ym)},"
                    f" {_fmt(xm)} {_fmt(ym)}, {_fmt(x2)} {_fmt(y2)}",
                    color,
                )
            elif species in (LOOP_LEFT, LOOP_RIGHT, NONCORE_LOOP):
                # Bulge past the marker from the anchor arc.
                x = arc_x(a1)
                y1, y2 = slot_y(a1, s1), slot_y(a2, s2)
                mk = marker_x(region + 1)
                rightward = species == LOOP_RIGHT or (
                    species == NONCORE_LOOP and a1 == region - 1
                )
                if rightward:
                    bulge = (mk - x) + rad + 8 + abs(y1 - cy) / 3
                else:
                    bulge = -((x - mk) + rad + 8 + abs(y1 - cy) / 3)
                cv.path(
                    f"M {_fmt(x)} {_fmt(y1)} C {_fmt(x + bulge)} {_fmt(y1)},"
                    f" {_fmt(x + bulge)} {_fmt(y2)}, {_fmt(x)} {_fmt(y2)}",
                    color,
                )
            elif species == STRAIGHT_CORE:
                ccx = marker_x(n + 1)
                xl, yl = (arc_x(a1), slot_y(a1, s1))
                xr, yr = (arc_x(a2), slot_y(a2, s2))
                if a1 > a2:
                    xl, yl, xr, yr = xr, yr, xl, yl
                cv.line(xl, yl, ccx - rad * 0.8, cy - 4, color)
                cv.line(ccx + rad * 0.8, cy + 4, xr, yr, color)
            elif species == CORE_LOOP:
                ccx = marker_x(n + 1 if region == n else n + 2)
                x = arc_x(a1)
                y_in, y_out = slot_y(a1, s1), slot_y(a2, s2)
                toward = 1 if ccx > x else -1
                # entry arm into the crosscap, wrap arm back around below it
                cv.line(x, y_in, ccx - toward * rad * 0.5, cy - rad * 0.8, color)
                start_x, start_y = ccx + toward * rad * 0.5, cy + rad * 0.8
                below = cy + rad + 10 + abs(y_out - cy) / 3
                cv.path(
                    f"M {_fmt(start_x)} {_fmt(start_y)} C {_fmt(start_x)} {_fmt(below)},"
                    f" {_fmt(x)} {_fmt(below)}, {_fmt(x)} {_fmt(y_out)}",
                    color,
                )

    body = "\n".join(cv.parts)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        f"{body}\n</svg>\n"
    )
