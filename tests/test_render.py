"""SVG rendering: the drawing over the reference sample, and the spec's
checks."""

import hashlib

import pytest

from crosscap.components import profile, reconstruct
from crosscap.coords import parse_coords
from crosscap.errors import InvalidParameterError
from crosscap.inversion import invert
from crosscap.render import RenderSpec, render_svg
from slot_trace import sample_vectors

# SHA-256 of every sample vector's SVG, in order, as drawn from the
# per-slot links before render walked the bundles itself.
SAMPLE_SIZE = 5074
SAMPLE_DIGEST = "4b830a6cc43af74de2fbf1dda52ba2abcc405daf233e0d2ad1b19fbef1c8273e"


def test_render_over_the_reference_sample():
    digest = hashlib.sha256()
    count = 0
    for v in sample_vectors():
        digest.update(render_svg(reconstruct(profile(invert(v)))).encode())
        count += 1
    assert count == SAMPLE_SIZE
    assert digest.hexdigest() == SAMPLE_DIGEST


@pytest.mark.parametrize("field", ["width", "height", "spacing"])
@pytest.mark.parametrize("value", ["x", True, 2.5, None])
def test_spec_fields_are_exact_integers(field, value):
    with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
        RenderSpec(**{field: value})


def test_spec_ranges():
    with pytest.raises(InvalidParameterError, match="negative"):
        RenderSpec(width=-1)
    with pytest.raises(InvalidParameterError, match="positive"):
        RenderSpec(spacing=0)


@pytest.mark.parametrize(
    "text, spec",
    [
        ("(2; 1,0; -2; 2,0)", RenderSpec(spacing=10**400)),
        ("(2; 1,0; -2; 2,0)", RenderSpec(width=10**400)),
        ("(2; 1,0; -2; 2,0)", RenderSpec(height=10**400)),
        (f"({'9' * 309}; 1,0; -2; 2,0)", RenderSpec()),
    ],
)
def test_geometry_past_a_float_is_a_parameter_error(text, spec):
    gl = reconstruct(profile(invert(parse_coords(text))))
    with pytest.raises(InvalidParameterError, match="too large to draw"):
        render_svg(gl, spec)


def test_largest_drawable_canvas_has_finite_coordinates():
    gl = reconstruct(profile(invert(parse_coords("(2; 1,0; -2; 2,0)"))))
    svg = render_svg(gl, RenderSpec(width=2**1020, height=2**1020))
    assert "inf" not in svg and "nan" not in svg
