"""Exact coordinates and intersection numbers for multicurves on a
punctured non-orientable genus-2 surface with one boundary circle.

The public surface:

* :mod:`crosscap.coords` -- the two coordinate systems, parsing, formatting;
* :mod:`crosscap.inversion` -- conversion between them;
* :mod:`crosscap.components` -- per-region component profiles and the
  crossing-free gluing;
* :mod:`crosscap.large` -- large component counts over region ranges;
* :mod:`crosscap.intersect` -- the elementary-curve catalog and
  intersection-number formulas;
* :mod:`crosscap.oracle` -- independent strand-tracing cross-check;
* :mod:`crosscap.cli` -- the ``crosscap`` command-line tool.
"""

from .components import ComponentProfile, GluingDescription, profile, reconstruct
from .coords import (
    DynnikovCoordinates,
    TriangleCoordinates,
    format_coords,
    format_triangle,
    parse_coords,
    parse_triangle,
)
from .intersect import (
    ElementaryCurve,
    catalog,
    elementary_coords,
    elementary_values,
    intersect_elementary,
)
from .inversion import coordinatize, invert, realizable
from .large import LargeComponentCounts, RegionRange, counts_for_range
from .oracle import build_diagram, count_crossings, run_selftest

__version__ = "0.1.0"

__all__ = [
    "ComponentProfile",
    "DynnikovCoordinates",
    "ElementaryCurve",
    "GluingDescription",
    "LargeComponentCounts",
    "RegionRange",
    "TriangleCoordinates",
    "build_diagram",
    "catalog",
    "coordinatize",
    "count_crossings",
    "counts_for_range",
    "elementary_coords",
    "elementary_values",
    "format_coords",
    "format_triangle",
    "intersect_elementary",
    "invert",
    "parse_coords",
    "parse_triangle",
    "profile",
    "realizable",
    "reconstruct",
    "run_selftest",
    "__version__",
]
