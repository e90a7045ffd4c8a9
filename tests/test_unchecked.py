"""The library's own results, held to the checks of the public constructors.

``invert``, ``coordinatize``, ``profile``, ``reconstruct`` and the selftest
grid build their values unchecked (``coords._unchecked``).  These tests
rebuild each value through its validating constructor and require an equal
object, and require every derived component count to be nonnegative, so a
wrong count fails here rather than passing silently.
"""

import dataclasses
import itertools
import pickle
import random

import pytest

from crosscap.components import Bundle, ComponentProfile, GluingDescription, profile, reconstruct
from crosscap.coords import DynnikovCoordinates, TriangleCoordinates, parse_coords
from crosscap.errors import ParityViolationError, ZeroVectorError
from crosscap.intersect import catalog
from crosscap.inversion import coordinatize, invert, realizable
from crosscap.large import RegionRange
from crosscap.oracle import count_crossings, grid_points, large_census

BOUND = 3
CMAX = 3


def fields(obj) -> dict:
    """The dataclass fields of ``obj``, without what ``cached_property`` adds."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


# the fields of a profile that hold counts, one or a tuple of them
COUNTS = [
    f.name
    for f in dataclasses.fields(ComponentProfile)
    if f.name not in ("n", "sides", "cross1_side", "nonprimitive")
]


def counts(prof: ComponentProfile):
    """Every component count of a profile."""
    for name in COUNTS:
        value = getattr(prof, name)
        if type(value) is tuple:
            yield from value
        else:
            yield value
    yield from vars(prof.nonprimitive).values()


def check_triangle(v: DynnikovCoordinates) -> tuple[TriangleCoordinates, ComponentProfile]:
    """``invert(v)`` passes the public checks and its profile counts are
    nonnegative."""
    tri = invert(v)
    assert TriangleCoordinates(**vars(tri)) == tri, v
    prof = profile(tri)
    assert all(type(x) is int and x >= 0 for x in counts(prof)), (v, prof)
    return tri, prof


def check_all(v: DynnikovCoordinates):
    """:func:`check_triangle`, and ``coordinatize`` and ``reconstruct``
    rebuilt through their public constructors; the ``regions`` that
    ``profile`` stores are the ones a checked profile computes."""
    tri, prof = check_triangle(v)
    back = coordinatize(tri)
    assert DynnikovCoordinates(**fields(back)) == back == v
    assert vars(prof)["regions"] == ComponentProfile(**fields(prof)).regions, v
    gl = reconstruct(prof)
    rebuilt = GluingDescription(
        **{**fields(gl), "bundles": tuple(Bundle(**fields(b)) for b in gl.bundles)}
    )
    assert rebuilt == gl, v
    assert all(b.width > 0 and len(b.ends) in (0, 2) for b in gl.bundles), v


def box(n, step=1):
    """Every ``step``-th realizable vector of the acceptance box."""
    points = itertools.product(*([range(-BOUND, BOUND + 1)] * (2 * n) + [range(CMAX + 1)] * 2))
    for point in itertools.islice(points, 0, None, step):
        if not any(point):
            continue
        v = DynnikovCoordinates(
            n=n,
            a=point[: n - 1],
            b=point[n - 1 : 2 * n - 1],
            t=point[2 * n - 1],
            c1=point[2 * n],
            c2=point[2 * n + 1],
        )
        if realizable(v):
            yield v


def seeded_vectors(count, seed=2026):
    """Realizable vectors with ``n`` up to 64, entries up to 10^9 and ``c``
    of either sign."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.choice((2, 3, 4, 5, 8, 12, 64))
        mag = rnd.choice((1, 3, 10**3, 10**9))

        def entry():
            return rnd.randint(-mag, mag)

        v = DynnikovCoordinates(
            n=n,
            a=tuple(entry() for _ in range(n - 1)),
            b=tuple(entry() for _ in range(n)),
            t=entry(),
            c1=entry(),
            c2=entry(),
        )
        if realizable(v):
            out.append(v)
    return out


class TestAgainstPublicConstructors:
    def test_whole_n2_box(self):
        checked = 0
        for v in box(2):
            check_all(v)
            checked += 1
        assert checked > 10000

    def test_n3_box_stride(self):
        checked = 0
        for v in box(3, step=199):
            check_all(v)
            checked += 1
        assert checked > 1000

    def test_seeded_large_n_magnitude_and_negative_c(self):
        vectors = seeded_vectors(400)
        assert any(v.c1 < 0 or v.c2 < 0 for v in vectors)
        for v in vectors:
            check_all(v)

    def test_selftest_grid_vectors(self):
        for v in itertools.islice(grid_points(3, 1, 1), 0, None, 7):
            assert DynnikovCoordinates(**fields(v)) == v

    @pytest.mark.slow
    def test_every_vector_of_the_acceptance_box(self):
        checked = 0
        for n in (2, 3):
            for v in box(n):
                check_triangle(v)
                checked += 1
        assert checked == 881998  # criterion 3's round-tripped count


class TestIndistinguishable:
    """Unchecked values behave as validated ones wherever they can be seen."""

    @pytest.mark.parametrize(
        "text", ["(2; 1,0; -2; 2,0)", "(-1; 1,0; 1; 1,1)", "(0; 0,0; 0; -3,-2)"]
    )
    def test_eq_hash_repr_pickle(self, text):
        v = parse_coords(text)
        tri = invert(v)
        prof = profile(tri)
        gl = reconstruct(prof)
        built = [tri, coordinatize(tri), prof, gl, *gl.bundles]
        for obj in built:
            checked = type(obj)(**fields(obj))
            assert obj == checked and hash(obj) == hash(checked), obj
            assert repr(obj) == repr(checked)
            assert pickle.loads(pickle.dumps(obj)) == obj
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.n = 5

    def test_cached_properties(self):
        v = parse_coords("(-1; 1,0; 1; 1,1)")
        prof = profile(invert(v))
        checked = ComponentProfile(**fields(prof))
        assert prof.regions == checked.regions
        gl = reconstruct(prof)
        values = [count_crossings(gl, curve) for curve in catalog(2)]
        assert gl._rows and gl == reconstruct(checked)
        assert values == [count_crossings(reconstruct(checked), curve) for curve in catalog(2)]

    @pytest.mark.parametrize(
        "text", ["(2; 1,0; -2; 2,0)", "(-1; 1,0; 1; 1,1)", "(0; 0,0; 0; -3,-2)"]
    )
    def test_stored_caches(self, text):
        # profile stores its regions and reconstruct an empty row memo;
        # neither shows in ==, hash or repr, traced or not
        prof = profile(invert(parse_coords(text)))
        checked = ComponentProfile(**fields(prof))
        assert "regions" in vars(prof) and "regions" not in vars(checked)
        assert prof.regions == checked.regions
        gl = reconstruct(prof)
        assert vars(gl)["_rows"] == {}
        bare = GluingDescription(**fields(gl))
        assert "_rows" not in vars(bare)
        large_census(gl, RegionRange.through_first(1))
        assert gl._rows and not bare._rows
        for obj, other in ((prof, checked), (gl, bare)):
            assert obj == other and hash(obj) == hash(other)
            assert repr(obj) == repr(other)
            assert "regions" not in repr(obj) and "_rows" not in repr(obj)

    def test_public_doors_still_check(self):
        tri = invert(parse_coords("(2; 1,0; -2; 2,0)"))
        with pytest.raises(ParityViolationError):
            dataclasses.replace(tri, gamma=3)
        with pytest.raises(ZeroVectorError):
            dataclasses.replace(coordinatize(tri), a=(0,), b=(0, 0), t=0, c1=0, c2=0)
