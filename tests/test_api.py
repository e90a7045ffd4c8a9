"""The public surface: every exported name resolves, every module
star-imports, and every door turns a wrong kind of argument into a
:class:`CrosscapError`."""

import importlib
import inspect
import pkgutil

import pytest

import crosscap
from crosscap.errors import (
    CoordinateSyntaxError,
    CrosscapError,
    DimensionMismatchError,
    InvalidParameterError,
    InvalidRangeError,
)
from crosscap.intersect import parse_curve
from crosscap.render import render_svg

MODULES = sorted(info.name for info in pkgutil.iter_modules(crosscap.__path__))


def test_package_exports_resolve():
    assert [name for name in crosscap.__all__ if not hasattr(crosscap, name)] == []


def test_every_module_is_listed():
    assert {"cli", "components", "coords", "render"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_and_star_import(name):
    module = importlib.import_module(f"crosscap.{name}")
    exported = getattr(module, "__all__", ())
    assert [x for x in exported if not hasattr(module, x)] == []
    namespace = {}
    exec(f"from crosscap.{name} import *", namespace)
    assert set(exported) <= set(namespace)


# Each public door fed a wrong kind of argument, and the CrosscapError it
# raises: (call, error, start of the message).  The checks sit in the public
# functions, not in per-curve helpers such as ``intersect._band``; a range's
# kind is checked where its band is read, in ``large._band``.
V = crosscap.parse_coords("(2; 1,0; -2; 2,0)")
P = crosscap.profile(crosscap.invert(V))
GL = crosscap.reconstruct(P)
C = crosscap.ElementaryCurve.C()
DOORS = {
    "parse_coords(None)": (
        lambda: crosscap.parse_coords(None), CoordinateSyntaxError, "expected coordinate text"
    ),
    "parse_coords(bytes)": (
        lambda: crosscap.parse_coords(b"(2; 1,0; -2; 2,0)"),
        CoordinateSyntaxError,
        "expected coordinate text",
    ),
    "parse_coords(n=2.0)": (
        lambda: crosscap.parse_coords("(2; 1,0; -2; 2,0)", n=2.0),
        DimensionMismatchError,
        "n must be an integer",
    ),
    "parse_triangle(None)": (
        lambda: crosscap.parse_triangle(None), CoordinateSyntaxError, "expected coordinate text"
    ),
    "parse_triangle(n=True)": (
        lambda: crosscap.parse_triangle("(1,5; 6,4,4; 4; 2,0)", n=True),
        DimensionMismatchError,
        "n must be an integer",
    ),
    "parse_curve(None)": (
        lambda: parse_curve(None), InvalidParameterError, "expected a curve spec"
    ),
    "elementary_values(text)": (
        lambda: crosscap.elementary_values("(2; 1,0; -2; 2,0)"),
        DimensionMismatchError,
        "expected DynnikovCoordinates",
    ),
    "elementary_values(v, ('C',))": (
        lambda: crosscap.elementary_values(V, ("C",)),
        InvalidParameterError,
        "expected an ElementaryCurve",
    ),
    "elementary_values(v, 2.0)": (
        lambda: crosscap.elementary_values(V, 2.0),
        InvalidParameterError,
        "expected a tuple of curves",
    ),
    "intersect_elementary(v, None)": (
        lambda: crosscap.intersect_elementary(V, None),
        InvalidParameterError,
        "expected an ElementaryCurve",
    ),
    "count_crossings(gl, 'C')": (
        lambda: crosscap.count_crossings(GL, "C"),
        InvalidParameterError,
        "expected an ElementaryCurve",
    ),
    "count_crossings(None, curve)": (
        lambda: crosscap.count_crossings(None, C),
        InvalidParameterError,
        "expected a GluingDescription",
    ),
    "counts_for_range(p, 'x')": (
        lambda: crosscap.counts_for_range(P, "x"), InvalidRangeError, "expected a RegionRange"
    ),
    "counts_for_range(None, range)": (
        lambda: crosscap.counts_for_range(None, crosscap.RegionRange.punctures(1, 1)),
        InvalidParameterError,
        "expected a ComponentProfile",
    ),
    "invert(None)": (
        lambda: crosscap.invert(None), DimensionMismatchError, "expected DynnikovCoordinates"
    ),
    "realizable(None)": (
        lambda: crosscap.realizable(None), DimensionMismatchError, "expected DynnikovCoordinates"
    ),
    "profile(vector)": (
        lambda: crosscap.profile(V), DimensionMismatchError, "expected TriangleCoordinates"
    ),
    "reconstruct('x')": (
        lambda: crosscap.reconstruct("x"), InvalidParameterError, "expected a ComponentProfile"
    ),
    "elementary_coords('C', 2)": (
        lambda: crosscap.elementary_coords("C", 2),
        InvalidParameterError,
        "expected an ElementaryCurve",
    ),
    "render_svg(None)": (
        lambda: render_svg(None), InvalidParameterError, "expected a GluingDescription"
    ),
    "render_svg(gl, {})": (
        lambda: render_svg(GL, {}), InvalidParameterError, "expected a RenderSpec"
    ),
    "format_coords(None)": (
        lambda: crosscap.format_coords(None), DimensionMismatchError, "expected DynnikovCoordinates"
    ),
    "format_triangle(vector)": (
        lambda: crosscap.format_triangle(V),
        DimensionMismatchError,
        "expected TriangleCoordinates",
    ),
    "coordinatize(vector)": (
        lambda: crosscap.coordinatize(V), DimensionMismatchError, "expected TriangleCoordinates"
    ),
    "catalog(2, 'yes')": (
        lambda: crosscap.catalog(2, "yes"), InvalidParameterError, "include_nonprimitive"
    ),
    "catalog(2, 1)": (
        lambda: crosscap.catalog(2, 1), InvalidParameterError, "include_nonprimitive"
    ),
}


@pytest.mark.parametrize("door", sorted(DOORS))
def test_wrong_kind_of_argument_raises_a_crosscap_error(door):
    call, error, message = DOORS[door]
    assert issubclass(error, CrosscapError)
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)


# The walk over every public function: each parameter in turn gets each
# value of MENU, the other required parameters a value of VALID, and the
# call must raise a CrosscapError (``cli.main``: exit 1 with one
# ``crosscap: error:`` line).  EXEMPT lists the menu values a parameter
# takes as valid, with the reason.
MENU = {
    "None": None,
    "bytes": b"x",
    "float": 2.0,
    "bool": True,
    "str": "x",
    "list": [],
    "vector": V,
}
VALID = {
    "argv": ["invert", "(2; 1,0; -2; 2,0)"],
    "coords": V,
    "tri": crosscap.invert(V),
    "prof": P,
    "p": P,
    "gl": GL,
    "curve": C,
    "rng": crosscap.RegionRange.punctures(1, 1),
    "n": 2,
    "bound": 1,
    "cmax": 1,
}
TEXT = {  # the valid ``text`` of each parser
    "parse_coords": "(2; 1,0; -2; 2,0)",
    "parse_triangle": "(1,5; 6,4,4; 4; 2,0)",
    "parse_curve": "C",
}
EXEMPT = {
    ("main", "argv", "None"): "reads sys.argv, here pytest's own",
    ("parse_coords", "n", "None"): "the default: no cross-check of n",
    ("parse_triangle", "n", "None"): "the default: no cross-check of n",
    ("catalog", "include_nonprimitive", "bool"): "True is a valid flag",
    ("elementary_values", "curves", "None"): "the default: the whole catalog",
    ("elementary_values", "curves", "list"): "no curves to evaluate: an empty result",
    ("render_svg", "spec", "None"): "the default spec",
    ("run_selftest", "cmax", "None"): "the default (cmax = bound) starts a bound-2 sweep",
    **{
        (name, "coords", "vector"): "a DynnikovCoordinates is the kind it takes"
        for name in (
            "format_coords",
            "intersect_elementary",
            "elementary_values",
            "invert",
            "realizable",
        )
    },
}


def public_functions():
    for module_name in MODULES:
        module = importlib.import_module(f"crosscap.{module_name}")
        for name in getattr(module, "__all__", ()):
            if inspect.isfunction(obj := getattr(module, name)):
                yield name, obj


FUNCTIONS = dict(public_functions())


def walk_calls(name):
    """``(parameter, menu key, keyword arguments)`` for every walk call of
    the function ``name`` that EXEMPT does not list."""
    params = inspect.signature(FUNCTIONS[name]).parameters
    required = [q for q, par in params.items() if par.default is inspect.Parameter.empty]
    for param in params:
        for key, value in MENU.items():
            if (name, param, key) not in EXEMPT:
                kwargs = {q: TEXT[name] if q == "text" else VALID[q] for q in required}
                yield param, key, {**kwargs, param: value}


def one_error_line(err: str) -> bool:
    """argparse's usage lines, if any, then one ``crosscap: error:`` line."""
    lines = err.splitlines()
    return bool(lines) and lines[-1].startswith("crosscap: error: ") and (
        sum("error:" in line for line in lines) == 1
    )


def test_walk_finds_every_function():
    assert {"main", "invert", "profile", "run_selftest", "render_svg"} <= set(FUNCTIONS)
    signatures = {name: inspect.signature(fn).parameters for name, fn in FUNCTIONS.items()}
    assert all(param in signatures.get(name, ()) for name, param, _ in EXEMPT)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_every_wrong_kind_is_a_crosscap_error(name, capsys):
    escaped = []
    for param, key, kwargs in walk_calls(name):
        try:
            result = FUNCTIONS[name](**kwargs)
        except CrosscapError:
            continue
        except Exception as exc:
            result = exc
        if not (name == "main" and result == 1 and one_error_line(capsys.readouterr().err)):
            escaped.append((param, key, repr(result)))
    assert escaped == []
