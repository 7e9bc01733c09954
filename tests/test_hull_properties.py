"""Generated symmetric bodies through both hull kernels.

Bodies have 3..12 antipodal pairs (V = 6..24), are scaled by 1e-6, 1 or
1e6 and are optionally snapped to a dyadic grid, which makes exact
coplanarities and non-extreme points likely.  Every hull must pair its
facets exactly and agree with an independent oracle: the ``Fraction``
triple enumeration on the rational kernel, Qhull on the double kernel.
Counterexamples that Hypothesis shrinks are kept as JSON fixtures under
``tests/fixtures/`` and replayed here first.  The same bodies and their
polars must also orient every facet cycle outward, as
``shadow._facet_rows`` and ``polarity.polar`` assume without checking.
"""
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mahler3d import geometry as G, hull, polarity

import oracles
from test_hull import assert_antipodal_pairs, in_key_order

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("hull_*.json"))
# The Fraction oracle is quartic in V, so the rational kernel gets fewer
# examples.
PROPERTY = settings(deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
RATIONAL_EXAMPLES = settings(PROPERTY, max_examples=8)
DOUBLE_EXAMPLES = settings(PROPERTY, max_examples=100)


@st.composite
def bodies(draw):
    """(k, seed, scale, bits): k unit vectors from the seed, scaled, and
    snapped to multiples of scale * 2^-bits unless bits is None."""
    return (draw(st.integers(3, 12)), draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.sampled_from([1e-6, 1.0, 1e6])),
            draw(st.sampled_from([None, 8, 20, 40])))


def _representatives(k, seed, scale, bits):
    pts = np.random.default_rng(seed).normal(size=(k, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    if bits is None:
        return [tuple(float(c) for c in p * scale) for p in pts]
    grid = Fraction(scale) / 2 ** bits
    return [tuple(round(Fraction(float(c)) * 2 ** bits) * grid for c in p)
            for p in pts]


def _layout(reps, exact):
    if not exact:
        reps = [tuple(float(c) for c in p) for p in reps]
    return reps + [tuple(-c for c in p) for p in reps]


def _usable(points):
    """Distinct points spanning R^3; the hull labels a repeated point by its
    first index, which the oracles do not all follow."""
    return (len(set(points)) == len(points)
            and np.linalg.matrix_rank(np.array(points, dtype=float)) == 3)


def check_rational(points):
    h = hull.hull_3d(points, True)
    assert_antipodal_pairs(h, len(points))
    corners, facets = oracles.fraction_hull(points)
    assert h.corners == corners
    facets = oracles.facet_layout(facets)
    assert in_key_order(h) == list(facets[:len(facets) // 2])


def check_double(points):
    h = hull.hull_3d(points, False)
    lat = assert_antipodal_pairs(h, len(points))
    # The oracle's incidence tolerance is absolute below unit size, so
    # compare on the body divided by its largest coordinate.
    scale = np.abs(np.array(points)).max()
    pts = np.array(points) / scale
    want = {inc: (n, h0) for n, h0, inc in oracles.merged_facets(pts)}
    got = {}
    for normal, offset in lat.facet_planes:
        n = np.array(normal)
        h0 = offset / scale
        inc = tuple(np.nonzero(np.abs(pts @ n - h0) <= 1e-8)[0].tolist())
        got[inc] = (n, h0)
    assert sorted(got) == sorted(want)
    for inc, (n, h0) in got.items():
        assert np.allclose(n, want[inc][0], rtol=0, atol=1e-9)
        assert h0 == pytest.approx(want[inc][1], rel=1e-9)


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_saved_counterexamples(path):
    data = json.loads(path.read_text())
    exact = data["kernel"] == "rational"
    points = _layout([tuple(Fraction(c) for c in p)
                      for p in data["representatives"]], exact)
    assert _usable(points)
    (check_rational if exact else check_double)(points)


@RATIONAL_EXAMPLES
@given(bodies())
@example((12, 5, 1.0, 40))
def test_rational_hull_pairs_and_matches_fraction_oracle(body):
    reps = _representatives(*body)
    points = _layout([tuple(Fraction(c) for c in p) for p in reps], True)
    assume(_usable(points))
    check_rational(points)


@DOUBLE_EXAMPLES
@given(bodies())
def test_double_hull_pairs_and_matches_qhull(body):
    points = _layout(_representatives(*body), False)
    assume(_usable(points))
    check_double(points)


def check_orientation(P):
    """Every facet of ``P`` and of its polar turns strictly outward at its
    first three corners, cross(c1 - c0, c2 - c0).n > 0, and every polar
    facet's Newell normal points along its plane normal (exactly parallel
    on the rational kernel)."""
    Q = polarity.polar(P)
    for B in (P, Q):
        for cyc, (n, _) in zip(B.lattice.facet_cycles, B.lattice.facet_planes):
            c0, c1, c2 = (B.vertices[i] for i in cyc[:3])
            assert hull.dot(hull.cross(hull.sub(c1, c0), hull.sub(c2, c0)), n) > 0
    for cyc, (n, _) in zip(Q.lattice.facet_cycles, Q.lattice.facet_planes):
        newell = hull._newell_normal(Q.vertices, cyc)
        assert hull.dot(newell, n) > 0
        if Q.kernel == G.RATIONAL:
            assert hull.cross(newell, n) == (0, 0, 0)


@settings(PROPERTY, max_examples=100)
@given(bodies())
def test_rational_facets_and_polar_facets_turn_outward(body):
    reps = [tuple(Fraction(c) for c in p) for p in _representatives(*body)]
    assume(_usable(_layout(reps, True)))
    check_orientation(G.from_representatives(reps, G.RATIONAL))


@DOUBLE_EXAMPLES
@given(bodies())
def test_double_facets_and_polar_facets_turn_outward(body):
    reps = _representatives(*body)
    assume(_usable(_layout(reps, False)))
    check_orientation(G.from_representatives(
        [tuple(float(c) for c in p) for p in reps], G.DOUBLE))
