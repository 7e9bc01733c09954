"""The exact hull, which decides every predicate on integer images of its
rational input, against the ``Fraction`` reference hull of ``oracles``."""
from fractions import Fraction

import numpy as np
import pytest

import mahler3d as M
from mahler3d import hull

import oracles
from conftest import CUBE_REPS


def _assert_same_hull(points):
    got = hull.hull_3d(points, True)
    corners, facets = oracles.fraction_hull(points)
    assert got.corners == corners
    assert [f.cycle for f in got.facets] == [f[0] for f in facets]
    for f, (_, normal, offset) in zip(got.facets, facets):
        assert f.normal == normal and f.offset == offset
        assert all(type(c) is Fraction for c in f.normal)
        assert type(f.offset) is Fraction
    return got


def _symmetric(reps):
    return [tuple(p) for p in reps] + [tuple(-c for c in p) for p in reps]


def _sphere(n_pairs, rng):
    pts = rng.normal(size=(n_pairs, 3))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def _dyadic(pts, bits):
    den = 1 << bits
    return [tuple(Fraction(round(float(x) * den), den) for x in p) for p in pts]


@pytest.mark.parametrize("bits", [20, 40])
def test_dyadic_bodies_and_their_polars(bits):
    rng = np.random.default_rng(bits)
    for n_pairs in (3, 4, 6):
        reps = _dyadic(_sphere(n_pairs, rng), bits)
        # One non-extreme point, with a denominator of 3 * 2^bits.
        points = _symmetric(reps) + [tuple(c / 3 for c in reps[0])]
        h = _assert_same_hull(points)
        assert len(h.corners) == 2 * n_pairs
        # The polar's vertices n/h have non-dyadic denominators.
        polar = [tuple(c / f.offset for c in f.normal) for f in h.facets]
        assert any(c.denominator & (c.denominator - 1) for p in polar for c in p)
        _assert_same_hull(polar)


def test_mixed_denominators():
    rng = np.random.default_rng(3)
    dens = (3, 7, 1 << 40)
    reps = [tuple(Fraction(round(x * 1e12), dens[(i + c) % 3])
                  for c, x in enumerate(p))
            for i, p in enumerate(_sphere(6, rng))]
    _assert_same_hull(_symmetric(reps))


@pytest.mark.parametrize("scale", [1, Fraction(1, 3)])
def test_cube_quadrilaterals(scale):
    h = _assert_same_hull(_symmetric([tuple(scale * c for c in p)
                                      for p in CUBE_REPS]))
    assert [len(f.cycle) for f in h.facets] == [4] * 6


def test_bodies_at_exact_breakpoints(cubocta_r):
    # As in test_persistence_root_rational_tight: at a root of
    # persistence_root a vertex reaches a facet plane and the lattice changes.
    rng = np.random.default_rng(17)
    theta = tuple(int(x) for x in rng.integers(1, 10, 3))
    dyadic = M.build_sym_polytope(_dyadic(_sphere(4, rng), 20),
                                  kernel=M.RATIONAL)
    for P, th in ((cubocta_r, (1, 1, 0)), (dyadic, theta)):
        rq = M.dimension_bound(P, th)
        th, alpha = rq.theta, rq.witness_speed
        u = th.carrier
        start = _assert_same_hull(list(P.vertices))
        for t in M.persistence_root(P, th, alpha):
            moved = [tuple(x[c] + t * a * u[c] for c in range(3))
                     for x, a in zip(P.vertices, alpha.alpha)]
            h = _assert_same_hull(moved)
            assert [f.cycle for f in h.facets] != [f.cycle for f in start.facets]
