"""Checks of mahler3d's outputs that do not use mahler3d.

Every quantity here comes from scipy's Qhull bindings, numpy or exact
``Fraction`` arithmetic, so a fault in the package's own hull, polar or
volume code cannot hide by being repeated in the check.
"""

from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull

MAHLER_BOUND = Fraction(32, 3)
REL_TOL = 1e-9


class CheckError(Exception):
    """An independent computation could not be carried out on the input."""


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def mirrored(reps):
    """The antipodally closed point list: reps followed by their negations."""
    reps = [tuple(p) for p in reps]
    return reps + [tuple(-c for c in p) for p in reps]


def agrees(value, reference, rel=REL_TOL):
    """Whether ``value`` is within ``rel`` (relative) of ``reference``."""
    return abs(float(value) - float(reference)) <= rel * abs(float(reference))


def qhull_product(reps):
    """|K| |K polar| in floats for K = conv(+-reps).

    The polar's vertices are n/h over Qhull's facet equations n.x <= h;
    triangulated coplanar facets repeat a polar vertex, which leaves its
    Qhull volume unchanged.
    """
    pts = np.asarray(mirrored(reps), dtype=float)
    hull = ConvexHull(pts)
    normals = hull.equations[:, :3]
    offsets = -hull.equations[:, 3]
    if offsets.min() <= 0:
        raise CheckError("origin not interior to the Qhull hull")
    return hull.volume * ConvexHull(normals / offsets[:, None]).volume


def exact_facets(points):
    """Facets of conv(points) for exact ``Fraction`` points, found by Qhull.

    Returns {polar vertex n/h: (vertex indices, Qhull triangles)}.  Each
    Qhull triangle is re-planed exactly; the plane n.x = h must support every
    point (n.x <= h) in exact arithmetic, and coplanar triangles share the
    same exact n/h, which groups them into facets without a tolerance.
    """
    hull = ConvexHull(np.array([[float(c) for c in p] for p in points]))
    facets = {}
    for tri in hull.simplices:
        a, b, c = (points[i] for i in tri)
        n = _cross(_sub(b, a), _sub(c, a))
        h = _dot(n, a)
        if h == 0:
            raise CheckError("facet plane through the origin")
        y = (n[0] / h, n[1] / h, n[2] / h)
        if y not in facets:
            if any(_dot(y, p) > 1 for p in points):
                raise CheckError("Qhull facet is not supporting in exact "
                                 "arithmetic")
            facets[y] = (set(), [])
        facets[y][0].update(int(i) for i in tri)
        facets[y][1].append(tuple(int(i) for i in tri))
    return facets


def _exact_cone_volume(points, facets):
    total = Fraction(0)
    for _, tris in facets.values():
        for i, j, k in tris:
            total += abs(_dot(points[i], _cross(points[j], points[k])))
    return total / 6


def exact_product(reps):
    """|K| |K polar| as an exact Fraction for K = conv(+-reps).

    Fan volume from the origin over Qhull's triangulation, computed in
    Fraction arithmetic; the polar's vertices are the exact n/h of the
    facets, and its volume is the same fan sum over its own Qhull hull.
    """
    pts = mirrored([tuple(Fraction(c) for c in p) for p in reps])
    facets = exact_facets(pts)
    polar_pts = list(facets)
    return (_exact_cone_volume(pts, facets)
            * _exact_cone_volume(polar_pts, exact_facets(polar_pts)))


def second_differences(seq):
    return [seq[i + 1] - 2 * seq[i] + seq[i - 1] for i in range(1, len(seq) - 1)]


def is_affine_exact(seq):
    """Whether an exact sequence on a uniform grid is affine."""
    return all(d == 0 for d in second_differences(seq))


def is_convex_exact(seq):
    """Whether an exact sequence on a uniform grid is convex."""
    return all(d >= 0 for d in second_differences(seq))


def deform_trajectory_problems(rows):
    """Problems in a rational ``deform`` CSV (rows of exact strings).

    Along a shadow system the volume is affine in t (Rogers-Shephard) and
    1/|K_t polar| is convex in t (Meyer-Reisner); every product is at least
    32/3 and equals volume x polar_volume.
    """
    ts = [Fraction(r["t"]) for r in rows]
    vols = [Fraction(r["volume"]) for r in rows]
    pvols = [Fraction(r["polar_volume"]) for r in rows]
    prods = [Fraction(r["product"]) for r in rows]
    problems = []
    if len(rows) < 3 or not is_affine_exact(ts):
        problems.append("t samples are not a uniform grid of 3 or more points")
    if not is_affine_exact(vols):
        problems.append("volume is not affine in t")
    if not is_convex_exact([1 / v for v in pvols]):
        problems.append("1/polar_volume is not convex in t")
    if any(p != v * q for p, v, q in zip(prods, vols, pvols)):
        problems.append("product != volume x polar_volume")
    if any(p < MAHLER_BOUND for p in prods):
        problems.append("product below 32/3")
    return problems


def _solve(rows, rhs):
    """Exact solution of a square linear system, or None if singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def affine_on(points, speeds, idxs, normal):
    """Whether ``speeds`` restricted to the coplanar points ``idxs`` is an
    affine function w.x + b, with w taken in the plane (w.normal = 0)."""
    idxs = sorted(idxs)
    a = points[idxs[0]]
    basis = None
    for j in idxs[1:]:
        for k in idxs[1:]:
            if j < k and _cross(_sub(points[j], a), _sub(points[k], a)) != (0, 0, 0):
                basis = (idxs[0], j, k)
                break
        if basis:
            break
    if basis is None:
        raise CheckError("facet has no affinely independent triple")
    rows = [list(points[i]) + [1] for i in basis] + [list(normal) + [0]]
    sol = _solve(rows, [speeds[i] for i in basis] + [0])
    if sol is None:
        raise CheckError("singular facet interpolation system")
    w, b = sol[:3], sol[3]
    return all(_dot(w, points[i]) + b == speeds[i] for i in idxs)


def witness_problems(points, speeds, theta):
    """Problems with a certified speed: it must be affine on every facet not
    parallel to ``theta`` (facets from Qhull, arithmetic exact)."""
    problems = []
    for y, (idxs, _) in exact_facets(points).items():
        if _dot(y, theta) == 0:
            continue
        if not affine_on(points, speeds, idxs, y):
            problems.append(f"speed not affine on facet {sorted(idxs)}")
    return problems
