"""Supporting-plane convex hull in R^3 over two arithmetic kernels.

The same O(V^4) algorithm runs exactly (all sign tests exact, tolerances
zero) or over float64 (sign tests against a scaled distance tolerance, with
the triple loop vectorised by numpy in ``_kernels.support_planes``).  Facets
are discovered as maximal coplanar supporting sets; their polygons are
recovered by a 2D monotone chain, which simultaneously classifies non-corner
points as non-extreme.

The exact kernel scales its rational input once by ``D``, the least common
multiple of the coordinate denominators, and runs every predicate (affine
dimension, supporting sets, polygon corners, Newell normal, orientation) on
the integer points ``p·D``, where Python's integers are exact and far cheaper
than ``Fraction`` arithmetic.  ``Fraction``s appear only at output: the
Newell normal is homogeneous of degree 2 and the plane offset of degree 3 in
the coordinates, so a facet found on the integer points has normal
``nw / D**2`` and offset ``nw·p / D**3`` on the input.

The algorithm is quartic in the vertex count and intended for the small
polytopes this toolkit manipulates (V up to a few dozen), where robustness
and kernel-exactness matter more than asymptotics.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import DegenerateInput, NumericalDegeneracy

DIST_TOL_REL = 1e-9       # facet-merging tolerance on normalized plane residuals
AREA_TOL_REL = 1e-12      # degenerate-triple and 2D corner strictness scale


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def neg(a):
    return (-a[0], -a[1], -a[2])


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@dataclass(frozen=True)
class Facet:
    """One facet: vertex cycle (input indices, outward-oriented), plane n.x = h."""
    cycle: tuple
    normal: tuple
    offset: object


@dataclass(frozen=True)
class Hull:
    corners: tuple        # sorted input indices of extreme points
    facets: tuple         # Facet records, sorted by vertex-set key


def affine_dim(points, exact, tol2=0):
    """(affine dimension, certificate indices) of a point list.

    The certificate is a maximal affinely independent subset (up to 4 points).
    ``tol2`` is the squared length scale below which cross products count as
    zero in double mode.
    """
    n = len(points)
    if n == 0:
        raise DegenerateInput("empty point set")
    cert = [0]
    if n == 1:
        return 0, cert
    base = points[0]
    u = None
    for i in range(1, n):
        d = sub(points[i], base)
        if dot(d, d) > tol2:
            u = d
            cert.append(i)
            break
    if u is None:
        return 0, cert
    w = None
    for i in range(cert[1] + 1, n):
        d = sub(points[i], base)
        c = cross(u, d)
        if dot(c, c) > tol2 * dot(u, u):
            w = c
            cert.append(i)
            break
    if w is None:
        return 1, cert
    for i in range(cert[2] + 1, n):
        d = sub(points[i], base)
        t = dot(w, d)
        if t * t > tol2 * dot(w, w):
            cert.append(i)
            return 3, cert
    return 2, cert


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polygon_corners(pts2, eps2):
    """Strict corners of the 2D convex hull of ``pts2``, counterclockwise.

    Returns indices into pts2.  Points interior to the hull or interior to an
    edge (turns within eps2 of collinear) are excluded.
    """
    uniq = {}
    for i, p in enumerate(pts2):
        uniq.setdefault(p, i)
    order = sorted(uniq.values(), key=lambda i: pts2[i])
    if len(order) < 3:
        return list(order)

    def chain(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and _cross2(pts2[out[-2]], pts2[out[-1]], pts2[i]) <= eps2:
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(reversed(order))
    ring = lower[:-1] + upper[:-1]
    if len(ring) < 3:
        return []
    return ring


def _integer_points(points):
    """(points scaled by D, D): D is the least common multiple of the
    denominators of the rational coordinates, so every scaled one is an int."""
    den = math.lcm(*[c.denominator for p in points for c in p])
    return [tuple([c.numerator * (den // c.denominator) for c in p])
            for p in points], den


def _support_sets_exact(points):
    """All maximal coplanar supporting sets, by exact triple enumeration."""
    n = len(points)
    facets = []
    claimed = set()
    for i, j, k in itertools.combinations(range(n), 3):
        if (i, j, k) in claimed:
            continue
        nrm = cross(sub(points[j], points[i]), sub(points[k], points[i]))
        if nrm == (0, 0, 0):
            continue
        h = dot(nrm, points[i])
        above = below = False
        inc = []
        for m in range(n):
            s = dot(nrm, points[m]) - h
            if s > 0:
                above = True
            elif s < 0:
                below = True
            else:
                inc.append(m)
            if above and below:
                break
        if above and below:
            continue
        if above:
            nrm = neg(nrm)
            h = -h
        facets.append((frozenset(inc), nrm, h))
        for t in itertools.combinations(sorted(inc), 3):
            claimed.add(t)
    return facets


def _support_sets_double(pts, dist_tol, area_tol):
    """Supporting sets via ``_kernels.support_planes``, merging tolerance splinters.

    Two discovered sets sharing an affinely independent triple describe the
    same facet plane and are unioned; their plane is refit from the member
    points.
    """
    planes, masks, ok = _kernels.support_planes(pts, dist_tol, area_tol)
    if not ok:
        raise NumericalDegeneracy("supporting-plane capacity overflow; input too degenerate")
    sets = [frozenset(np.nonzero(m)[0].tolist()) for m in masks]
    planes = [(tuple(p[:3]), p[3]) for p in planes.tolist()]
    tol2 = area_tol * area_tol
    tpoints = pts.tolist()
    changed = True
    while changed:
        changed = False
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                shared = sets[a] & sets[b]
                if len(shared) >= 3 and affine_dim(
                        [tpoints[i] for i in sorted(shared)], False, tol2)[0] >= 2:
                    merged = sets[a] | sets[b]
                    member = np.array(sorted(merged))
                    sub_pts = pts[member]
                    centroid = sub_pts.mean(axis=0)
                    _, _, vt = np.linalg.svd(sub_pts - centroid)
                    nrm = vt[2]
                    h = float(nrm @ centroid)
                    resid = pts @ nrm - h
                    if resid.max() < -resid.min():
                        nrm, h, resid = -nrm, -h, -resid
                    if resid.max() > dist_tol:
                        raise NumericalDegeneracy(
                            "cannot merge near-coplanar facets within tolerance",
                            offending=sorted(merged))
                    inc = frozenset(np.nonzero(np.abs(resid) <= dist_tol)[0].tolist())
                    keep = [s_p for idx, s_p in enumerate(zip(sets, planes)) if idx not in (a, b)]
                    sets = [s for s, _ in keep] + [inc]
                    planes = [p for _, p in keep] + [(tuple(nrm), h)]
                    changed = True
                    break
            if changed:
                break
    return list(zip(sets, (p[0] for p in planes), (p[1] for p in planes)))


def _project_axis(normal):
    """Coordinate axis to drop when flattening a facet: the largest |n| component."""
    an = [abs(normal[0]), abs(normal[1]), abs(normal[2])]
    axis = an.index(max(an))
    keep = [0, 1, 2]
    keep.remove(axis)
    return keep


def _newell_normal(points, cycle):
    nx = ny = nz = points[cycle[0]][0] * 0
    m = len(cycle)
    for a in range(m):
        p = points[cycle[a]]
        q = points[cycle[(a + 1) % m]]
        nx += (p[1] - q[1]) * (p[2] + q[2])
        ny += (p[2] - q[2]) * (p[0] + q[0])
        nz += (p[0] - q[0]) * (p[1] + q[1])
    return (nx, ny, nz)


def _canonical_cycle(cycle):
    """Rotate a cyclic tuple so its smallest label comes first (orientation kept)."""
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def hull_3d(points, exact, dist_tol=None):
    """Hull of ``points`` (list of coordinate 3-tuples), whose interior must
    contain the origin; facets are oriented outward from it.

    exact=True takes rational coordinates (``Fraction`` or ``int``), decides
    every predicate on their integer images and returns ``Fraction`` planes;
    otherwise points must be floats and ``dist_tol`` (absolute plane-residual
    tolerance) applies.  Raises DegenerateInput below dimension 3 and
    NumericalDegeneracy when the facet structure cannot be certified.
    """
    n = len(points)
    if exact:
        points, den = _integer_points(points)
        dim, _ = affine_dim(points, True)
        if dim < 3:
            raise DegenerateInput(f"affine hull has dimension {dim} < 3")
        raw = _support_sets_exact(points)
        eps2_of = lambda diam2: 0
    else:
        arr = np.asarray(points, dtype=float)
        scale = max(1.0, float(np.abs(arr).max()))
        if dist_tol is None:
            dist_tol = DIST_TOL_REL * scale
        area_tol = AREA_TOL_REL * scale * scale
        dim, _ = affine_dim([tuple(p) for p in points], False, tol2=area_tol * area_tol)
        if dim < 3:
            raise DegenerateInput(f"affine hull has dimension {dim} < 3")
        raw = _support_sets_double(arr, dist_tol, area_tol)
        points = arr.tolist()
        eps2_of = lambda diam2: AREA_TOL_REL * diam2

    facets = []
    corner_set = set()
    for inc, nrm, h in raw:
        keep = _project_axis(nrm)
        idxs = sorted(inc)
        pts2 = [(points[i][keep[0]], points[i][keep[1]]) for i in idxs]
        if exact:
            eps2 = 0
        else:
            xs = [p[0] for p in pts2]
            ys = [p[1] for p in pts2]
            diam2 = max((max(xs) - min(xs)) ** 2, (max(ys) - min(ys)) ** 2, 1e-300)
            eps2 = eps2_of(diam2)
        ring = polygon_corners(pts2, eps2)
        if len(ring) < 3:
            raise NumericalDegeneracy("facet polygon collapsed", offending=idxs)
        cycle = tuple([idxs[r] for r in ring])
        corner_set.update(cycle)
        facets.append((cycle, nrm, h))

    oriented = []
    for cycle, nrm, h in facets:
        nw = _newell_normal(points, cycle)
        if all(c == 0 for c in nw):
            raise NumericalDegeneracy("zero Newell normal", offending=list(cycle))
        side = -dot(nw, points[cycle[0]])
        if side == 0:
            raise NumericalDegeneracy("origin on facet plane", offending=list(cycle))
        if side > 0:
            nw = neg(nw)
            cycle = tuple(reversed(cycle))
        if exact:
            normal = tuple([Fraction(c, den * den) for c in nw])
            offset = Fraction(dot(nw, points[cycle[0]]), den ** 3)
        else:
            nn = (nw[0] * nw[0] + nw[1] * nw[1] + nw[2] * nw[2]) ** 0.5
            normal = (nw[0] / nn, nw[1] / nn, nw[2] / nn)
            offset = sum(dot(normal, points[i]) for i in cycle) / len(cycle)
        oriented.append(Facet(_canonical_cycle(cycle), normal, offset))

    oriented.sort(key=lambda f: tuple(sorted(f.cycle)))
    if len(oriented) < 4:
        raise NumericalDegeneracy(f"only {len(oriented)} certified facets")
    return Hull(corners=tuple(sorted(corner_set)), facets=tuple(oriented))
