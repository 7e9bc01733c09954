"""The exact hull, which decides every predicate on integer images of its
rational input, against the ``Fraction`` reference hull of ``oracles``, and
the point layout both hull kernels require: k points, then their
negations."""
from fractions import Fraction

import numpy as np
import pytest

import mahler3d as M
from mahler3d import _kernels, geometry as G, hull
from mahler3d.errors import InputError, NumericalDegeneracy

import oracles
from conftest import CUBE_REPS


def in_key_order(h):
    """The hull's facets as (cycle, normal, offset), sorted by vertex set."""
    return sorted([(f.cycle, f.normal, f.offset) for f in h.facets],
                  key=lambda f: sorted(f[0]))


def _assert_same_hull(points, paired=True):
    """The exact hull returns one facet per antipodal pair, the first half
    of the oracle's facet layout; ``paired`` also checks the lattice built
    from them, which needs distinct points."""
    got = hull.hull_3d(points, True)
    corners, facets = oracles.fraction_hull(points)
    facets = oracles.facet_layout(facets)
    assert got.corners == corners
    assert in_key_order(got) == list(facets[:len(facets) // 2])
    for f in got.facets:
        assert all(type(c) is Fraction for c in f.normal)
        assert type(f.offset) is Fraction
    if paired:
        assert_antipodal_pairs(got, len(points))
    return got


def _symmetric(reps):
    return [tuple(p) for p in reps] + [tuple(-c for c in p) for p in reps]


def _rotated(reps, seed):
    """``reps`` under a seeded orthogonal map, then their negations."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    return _symmetric([tuple(float(c) for c in q @ np.array(p, dtype=float))
                       for p in reps])


def assert_antipodal_pairs(h, n):
    """The corners are closed under the pairing i <-> i + n/2, and the
    lattice built from the hull's facets, one per pair, relabeled to the
    corners, has facet i + F/2 the exact antipode of facet i.  Returns
    that lattice."""
    k = n // 2
    assert set(h.corners) == {(i + k) % n for i in h.corners}
    label = {v: a for a, v in enumerate(h.corners)}
    lat, _ = G._build_lattice(len(h.corners), [
        hull.Facet(tuple([label[v] for v in f.cycle]), f.normal, f.offset)
        for f in h.facets])
    m, F = lat.V, lat.F
    assert F == 2 * len(h.facets)
    for i, (cycle, (normal, offset)) in enumerate(zip(lat.facet_cycles,
                                                      lat.facet_planes)):
        g = (i + F // 2) % F
        assert lat.facet_cycles[g] == hull._canonical_cycle(
            tuple([(v + m // 2) % m for v in reversed(cycle)]))
        assert lat.facet_planes[g] == (tuple(-c for c in normal), offset)
    return lat


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
        # One non-extreme pair, with a denominator of 3 * 2^bits.
        h = _assert_same_hull(_symmetric(reps + [tuple(c / 3 for c in reps[0])]))
        assert len(h.corners) == 2 * n_pairs
        # The polar's vertices n/h, one per antipodal facet pair, have
        # non-dyadic denominators.
        polar = [tuple(c / f.offset for c in f.normal) for f in h.facets]
        assert any(c.denominator & (c.denominator - 1) for p in polar for c in p)
        _assert_same_hull(_symmetric(polar))


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
    assert [len(f.cycle) for f in h.facets] == [4] * 3


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
            # A pair that moves onto another keeps its first label.
            h = _assert_same_hull(moved, paired=False)
            assert [f.cycle for f in h.facets] != [f.cycle for f in start.facets]


@pytest.mark.parametrize("exact", [True, False])
def test_non_symmetric_list_is_rejected(exact):
    reps = [tuple(Fraction(c) if exact else float(c) for c in p)
            for p in CUBE_REPS]
    good = _symmetric(reps)
    assert len(hull.hull_3d(good, exact).facets) == 3
    shifted = good[:-1] + [tuple(c + 1 for c in good[-1])]
    for points in (good[:-1], shifted, good + [good[0]], good[:4] + good[:3:-1]):
        with pytest.raises(InputError):
            hull.hull_3d(points, exact)


# A roof: apex A and hinge B, C on z = 1, and a fourth corner D delta below
# that plane, 0.2 from the hinge.  D is within delta of plane ABC, A is
# 10 delta off plane BCD, so a tolerance in between splinters ABCD.
DELTA = 1e-10
FOLD = [(0, 2, 1), (-1, 0, 1), (1, 0, 1), (0, -0.2, 1 - DELTA),
        (3, 0, 0), (0, 3, 0)]


@pytest.mark.parametrize("seed", range(3))
def test_splintered_facet_merges_with_its_mirror(seed):
    points = _rotated(FOLD, seed)
    tol = 5 * DELTA
    area_tol = hull.AREA_TOL_REL * np.abs(points).max() ** 2
    _, masks, _ = _kernels.support_planes(points, tol, area_tol)
    assert hull._splinters(masks)
    h = hull.hull_3d(points, False, dist_tol=tol)
    assert_antipodal_pairs(h, len(points))
    quads = [f.cycle for f in h.facets if len(f.cycle) == 4]
    assert [sorted(c) for c in quads] == [[0, 1, 2, 3]]
    # Below delta the fold is two triangles, above 10 delta one plane.
    h = hull.hull_3d(points, False, dist_tol=DELTA / 2)
    assert all(len(f.cycle) == 3 for f in h.facets)
    _, masks, _ = _kernels.support_planes(points, 20 * DELTA, area_tol)
    assert not hull._splinters(masks)


# A roof bent along the hinge B, C: D lies 3 theta below z = 1 at distance
# 3 from the hinge, A on z = 1 at distance 3, and G between A and the hinge
# at 0.1.  Planes BCD and z = 1 both hold G within 0.3 theta, but no plane
# holds A, B, C, D and G within it.
THETA = 1e-10
HINGE = [(-1, 0, 1), (1, 0, 1), (0, 0.1, 1), (0, 3, 1), (0, -3, 1 - 3 * THETA),
         (4, 0, 0), (0, 4, 0)]


@pytest.mark.parametrize("seed", range(3))
def test_splinters_bent_past_tolerance_cannot_merge(seed):
    with pytest.raises(NumericalDegeneracy, match="cannot merge") as err:
        hull.hull_3d(_rotated(HINGE, seed), False, dist_tol=0.3 * THETA)
    assert err.value.offending == [0, 1, 2, 3, 4]
