"""Numeric kernels: the supporting-plane search of the double-precision hull
and the origin-fan volume shared by both kernels.

``support_planes`` is the hull's hot loop, vectorised with numpy over all
point triples; the exact-rational hull never enters it.  ``fan_volume`` is
a plain loop over coordinate tuples, exact on ``Fraction`` coordinates.
"""

import itertools

import numpy as np


def backend_name():
    return "numpy"


def support_planes(pts, dist_tol, area_tol):
    """Enumerate supporting planes of conv(pts) through point triples.

    Returns (planes, masks, ok): unit outward normals with offsets in
    ``planes`` (m, 4), incident-point masks in ``masks`` (m, n) uint8, and
    ``ok`` False when more planes turn up than a 3-polytope on n points can
    have facets (degenerate input).
    """
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    n = pts.shape[0]
    trip = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64)
    p0 = pts[trip[:, 0]]
    a = pts[trip[:, 1]] - p0
    b = pts[trip[:, 2]] - p0
    nx = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    ny = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    nz = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    nn = (nx * nx + ny * ny + nz * nz) ** 0.5
    keep = nn > area_tol
    if not keep.any():
        return np.zeros((0, 4)), np.zeros((0, n), np.uint8), True
    ux = nx[keep] / nn[keep]
    uy = ny[keep] / nn[keep]
    uz = nz[keep] / nn[keep]
    p0 = p0[keep]
    h = ux * p0[:, 0] + uy * p0[:, 1] + uz * p0[:, 2]
    s = (ux[:, None] * pts[None, :, 0] + uy[:, None] * pts[None, :, 1]
         + uz[:, None] * pts[None, :, 2] - h[:, None])
    above = (s > dist_tol).any(axis=1)
    below = (s < -dist_tol).any(axis=1)
    support = ~(above & below)
    flip = support & above
    ux[flip] = -ux[flip]
    uy[flip] = -uy[flip]
    uz[flip] = -uz[flip]
    h[flip] = -h[flip]
    s[flip] = -s[flip]
    mask = (np.abs(s) <= dist_tol) & support[:, None]
    enough = mask.sum(axis=1) >= 3
    rows = np.nonzero(support & enough)[0]
    planes = []
    masks = []
    seen = {}
    for r in rows:
        key = mask[r].tobytes()
        if key in seen:
            continue
        seen[key] = True
        planes.append((ux[r], uy[r], uz[r], h[r]))
        masks.append(mask[r].astype(np.uint8))
    if not planes:
        return np.zeros((0, 4)), np.zeros((0, n), np.uint8), True
    return np.array(planes), np.array(masks), len(planes) <= 8 * n + 16


def fan_volume(points, cycles):
    """Signed volume of the origin cones over oriented facet cycles.

    ``points`` are coordinate triples and ``cycles`` index into them; every
    facet is fanned from its first corner.  Exact on ``Fraction``
    coordinates.
    """
    total = 0
    for cyc in cycles:
        x0, y0, z0 = points[cyc[0]]
        for a in range(1, len(cyc) - 1):
            x1, y1, z1 = points[cyc[a]]
            x2, y2, z2 = points[cyc[a + 1]]
            total += (x0 * (y1 * z2 - z1 * y2) + y0 * (z1 * x2 - x1 * z2)
                      + z0 * (x1 * y2 - y1 * x2))
    return total / 6
