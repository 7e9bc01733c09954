"""Numeric kernels: the supporting-plane search of the double-precision hull
and the origin-fan volume shared by both kernels.

``support_planes`` is the hull's hot loop, vectorised with numpy over the
triples of antipodal pairs that ``pair_triples`` lists for both hull
kernels; the exact-rational hull never enters it.  ``fan_determinants`` is
a plain loop over coordinate tuples: the double kernel reads it through
``fan_volume``, and the rational kernel runs it on the integer images of
its coordinates (``hull._integer_points``), where every product and sum is
an exact Python integer and no ``Fraction`` is built until the result.
"""

import functools
import itertools

import numpy as np


def backend_name():
    return "numpy"


@functools.lru_cache(maxsize=None)
def pair_triples(k):
    """Point indices (a, j1, j2), rows of a (3, 4 C(k, 3)) array, of the
    triples (r_a, +-r_b, +-r_c), a < b < c, on k antipodal pairs laid out
    as r_0..r_{k-1}, -r_0..-r_{k-1}: j1 is b or b + k, j2 is c or c + k.

    Every facet of an origin-symmetric body holds at most one point of a
    pair, so each 3-subset of its vertices, or the antipodal 3-subset of the
    opposite facet, is one of these triples exactly once.
    """
    rows = [(a, j1, j2) for a, b, c in itertools.combinations(range(k), 3)
            for j1 in (b, b + k) for j2 in (c, c + k)]
    triples = np.array(rows, dtype=np.intp).reshape(-1, 3).T.copy()
    triples.flags.writeable = False      # shared by every call for this k
    return triples


def support_planes(pts, dist_tol, area_tol):
    """Supporting planes of conv(pts), one per antipodal facet pair.

    ``pts`` holds 2k points with pts[k + i] == -pts[i].  A plane u.x = h
    through a pair triple, oriented so that h > 0, supports the body iff
    |u.r_j| <= h + dist_tol for the k representatives r_j; it then passes
    within dist_tol of {j : u.r_j = h} and {j + k : u.r_j = -h}, and its
    mirror (-u, h) bounds the opposite facet.  Returns (planes, masks, ok):
    unit normals with offsets in ``planes`` (m, 4), incident-point masks
    over all 2k points in ``masks`` (m, 2k) uint8, one row per pair in the
    orientation first found, and ``ok`` False when more facets turn up than
    a 3-polytope on 2k points can have (degenerate input).
    """
    P = np.ascontiguousarray(np.asarray(pts, dtype=np.float64).T)   # (3, 2k)
    n = P.shape[1]
    k = n // 2
    i0, i1, i2 = pair_triples(k)
    p0 = P.take(i0, axis=1)
    a = P.take(i1, axis=1) - p0
    b = P.take(i2, axis=1) - p0
    nx = a[1] * b[2] - a[2] * b[1]
    ny = a[2] * b[0] - a[0] * b[2]
    nz = a[0] * b[1] - a[1] * b[0]
    nn = (nx * nx + ny * ny + nz * nz) ** 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.array([nx, ny, nz]) / nn
    h = u[0] * p0[0] + u[1] * p0[1] + u[2] * p0[2]
    side = np.where(h < 0, -1.0, 1.0)
    u *= side
    h *= side
    d = P[:, :k].T @ u                     # (k, triples): u.r_j
    rows = np.nonzero((nn > area_tol)
                      & (np.abs(d).max(axis=0) <= h + dist_tol))[0]
    d, h, u = d[:, rows].T, h[rows, None], u[:, rows].T
    mask = np.concatenate([np.abs(d - h) <= dist_tol,
                           np.abs(d + h) <= dist_tol], axis=1)
    flat = mask.tobytes()
    first = []
    seen = set()
    for r in np.nonzero(mask.sum(axis=1) >= 3)[0].tolist():
        key = flat[r * n:(r + 1) * n]
        if key not in seen:
            seen.add(key)
            seen.add(key[k:] + key[:k])   # the antipodal facet's mask
            first.append(r)
    return (np.concatenate([u[first], h[first]], axis=1),
            mask[first].astype(np.uint8), 2 * len(first) <= 8 * n + 16)


def fan_volume(points, cycles):
    """Signed volume of the origin cones over oriented facet cycles:
    ``fan_determinants`` / 6."""
    return fan_determinants(points, cycles) / 6


def fan_determinants(points, cycles):
    """Sum of the determinants det(p_0, p_a, p_a+1) of the origin fans over
    oriented facet cycles, six times their signed volume.

    ``points`` are coordinate triples and ``cycles`` index into them; every
    facet is fanned from its first corner.  Exact on integer or
    ``Fraction`` coordinates.
    """
    total = 0
    for cyc in cycles:
        x0, y0, z0 = points[cyc[0]]
        for a in range(1, len(cyc) - 1):
            x1, y1, z1 = points[cyc[a]]
            x2, y2, z2 = points[cyc[a + 1]]
            total += (x0 * (y1 * z2 - z1 * y2) + y0 * (z1 * x2 - x1 * z2)
                      + z0 * (x1 * y2 - y1 * x2))
    return total
