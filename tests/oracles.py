"""Independent brute-force oracles (scipy/numpy only) used to cross-check
the package's own geometry.  Everything here goes through scipy's qhull
bindings or dense linear algebra, never through mahler3d itself."""
import itertools

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection


def is_extreme_lp(points, i, tol=1e-9):
    """Brute-force extreme-point test: p_i extreme iff not in conv(others)."""
    pts = np.asarray(points, dtype=float)
    others = np.delete(pts, i, axis=0)
    m = others.shape[0]
    # feasibility: others^T lam = p_i, sum lam = 1, lam >= 0
    A_eq = np.vstack([others.T, np.ones(m)])
    b_eq = np.append(pts[i], 1.0)
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m,
                  method="highs")
    if not res.success:
        return True
    # feasible -> p_i is a convex combination of the others
    return False


def merged_facets(points, tol=1e-8):
    """Facets of conv(points) as (unit outward normal, offset, sorted vertex
    idx tuple), merging qhull's triangulated coplanar simplices."""
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    out = []
    seen = set()
    for eq in hull.equations:  # n.x + d <= 0
        n = eq[:3]
        nn = np.linalg.norm(n)
        n = n / nn
        h = -eq[3] / nn
        resid = pts @ n - h
        inc = tuple(sorted(np.nonzero(
            np.abs(resid) <= tol * max(1.0, np.abs(pts).max()))[0]))
        if inc in seen:
            continue
        seen.add(inc)
        out.append((n, h, inc))
    return out


def hull_counts(points, tol=1e-8):
    """(V, E, F) of conv(points) with coplanar facets merged."""
    pts = np.asarray(points, dtype=float)
    facets = merged_facets(pts, tol)
    verts = sorted(set(itertools.chain.from_iterable(
        inc for _, _, inc in facets)))
    edges = set()
    for i in range(len(facets)):
        for j in range(i + 1, len(facets)):
            common = set(facets[i][2]) & set(facets[j][2])
            if len(common) == 2:
                edges.add(tuple(sorted(common)))
    return len(verts), len(edges), len(facets)


def polar_vertices_halfspace(points, tol=1e-9):
    """Vertices of conv(points)^polar via scipy HalfspaceIntersection."""
    pts = np.asarray(points, dtype=float)
    # halfspaces x.y <= 1 for each input point: rows [x, -1]
    halfspaces = np.hstack([pts, -np.ones((pts.shape[0], 1))])
    hs = HalfspaceIntersection(halfspaces, np.zeros(3))
    uniq = []
    for p in hs.intersections:
        if not any(np.linalg.norm(p - q) <= 1e-7 for q in uniq):
            uniq.append(p)
    keep = [p for k, p in enumerate(uniq) if is_extreme_lp(np.array(uniq), k)]
    return np.array(keep)


def polar_volume_halfspace(points):
    return ConvexHull(polar_vertices_halfspace(points)).volume


def admissible_dim_oracle(points, theta, par_tol=1e-10, tol=1e-8):
    """dim of the symmetric theta-admissible speed space, by dense SVD
    nullspace.

    Variables: full-length alpha in R^V.  Rows:
      - oddness: alpha_i + alpha_j = 0 for each antipodal pair (i, j)
      - per non-parallel facet: every affine-dependence vector u of its
        vertex set (sum u_a w_a = 0, sum u_a = 0) gives the row
        sum u_a alpha_a = 0.
    """
    pts = np.asarray(points, dtype=float)
    V = pts.shape[0]
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    rows = []
    for i in range(V):
        for j in range(i + 1, V):
            if np.linalg.norm(pts[i] + pts[j]) <= 1e-9:
                r = np.zeros(V)
                r[i] = 1.0
                r[j] = 1.0
                rows.append(r)
    for n, h, inc in merged_facets(pts, tol):
        if abs(theta @ n) <= par_tol:
            continue  # parallel facet: no constraint
        W = pts[list(inc)]
        hom = np.vstack([W.T, np.ones(len(inc))])  # 4 x m
        u_, s_, vt = np.linalg.svd(hom)
        ns = vt[np.sum(s_ > 1e-10):]
        for u in ns:
            r = np.zeros(V)
            for a, idx in enumerate(inc):
                r[idx] = u[a]
            rows.append(r)
    if not rows:
        return V
    A = np.array(rows)
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0]))
    return V - rank


def c_theta_oracle(points, theta, par_tol=1e-10):
    pts = np.asarray(points, dtype=float)
    theta = np.asarray(theta, dtype=float)
    theta = theta / np.linalg.norm(theta)
    tot = 0
    for n, h, inc in merged_facets(pts):
        if abs(theta @ n) <= par_tol:
            tot += len(inc) - 3
    assert tot % 2 == 0
    return tot // 2


CUBE = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                 for sz in (-1, 1)], dtype=float)
OCTA = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                 [0, 0, 1], [0, 0, -1]], dtype=float)
CUBOCTA = np.array(sorted(set(itertools.permutations((1, 1, 0))) |
                          set(itertools.permutations((1, -1, 0))) |
                          set(itertools.permutations((-1, -1, 0))) |
                          set(itertools.permutations((-1, 1, 0)))),
                   dtype=float)
