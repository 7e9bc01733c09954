"""Supporting-plane convex hull of an origin-symmetric point set in R^3,
over two arithmetic kernels.

The input lists k points and then their negations, points[k + i] ==
-points[i], so every facet F comes with its antipode -F.  Each antipodal
pair is found once: the planes through the 4 C(k, 3) pair triples
(r_a, +-r_b, +-r_c), a < b < c, are tested for support against the k
representatives alone, |u.r_j| <= h.  The polygon, Newell normal and
orientation of a pair are computed on its member with the smaller sorted
vertex key, and only that member is returned: ``geometry._build_lattice``
builds every antipode (the mirrored, reversed cycle, the negated normal and
the same offset) and lays the facets out.  Polygons come from a 2D monotone
chain, which also classifies non-corner points as non-extreme.

The same O(V^4) algorithm runs exactly (all sign tests exact, tolerances
zero) or over float64 (sign tests against distance and area tolerances
relative to the largest coordinate, with the triple search vectorised by
numpy in ``_kernels.support_planes``; coplanar sets that a tolerance
splinters are merged, pair by pair).  The exact kernel scales its rational
input once by ``D``, the least common multiple of the coordinate
denominators, and runs every predicate (the layout check, affine dimension,
supporting sets, polygon corners, Newell normal, orientation) on the integer
points ``p·D``, where Python's integers are exact and far cheaper than
``Fraction`` arithmetic.  ``Fraction``s appear only at output: the Newell
normal is homogeneous of degree 2 and the plane offset of degree 3 in the
coordinates, so a facet found on the integer points has normal
``nw / D**2`` and offset ``nw·p / D**3`` on the input.  ``geometry.volume``
and ``shadow`` scale their exact inputs by the same ``_integer_points``.

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
from .errors import DegenerateInput, InputError, NumericalDegeneracy

DIST_TOL_REL = 1e-9       # plane-residual tolerance, relative to the largest coordinate
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
    facets: tuple         # one Facet record per antipodal pair


def coordinate_scale(points):
    """Largest |coordinate| of a point list: every double-kernel tolerance
    (plane residuals, point identification, vertex drift) is relative to it."""
    return float(max(abs(c) for p in points for c in p))


def affine_dim(points, tol2=0):
    """Affine dimension of a point list.

    ``tol2`` is the squared length scale below which cross products count as
    zero (0 for exact coordinates).
    """
    if not points:
        raise DegenerateInput("empty point set")
    ds = [sub(p, points[0]) for p in points[1:]]
    u = next((d for d in ds if dot(d, d) > tol2), None)
    if u is None:
        return 0
    w = next((c for c in (cross(u, d) for d in ds)
              if dot(c, c) > tol2 * dot(u, u)), None)
    if w is None:
        return 1
    return 3 if any(dot(w, d) ** 2 > tol2 * dot(w, w) for d in ds) else 2


def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(pts2, seq, eps2):
    out = []
    for i in seq:
        while len(out) >= 2 and _cross2(pts2[out[-2]], pts2[out[-1]], pts2[i]) <= eps2:
            out.pop()
        out.append(i)
    return out


def polygon_corners(pts2, eps2):
    """Strict corners of the 2D convex hull of ``pts2``, counterclockwise.

    Returns indices into pts2.  Points interior to the hull or interior to an
    edge (turns within eps2 of collinear) are excluded.
    """
    uniq = {}
    for i, p in enumerate(pts2):
        uniq.setdefault(p, i)
    order = [uniq[p] for p in sorted(uniq)]
    if len(order) < 3:
        return order
    ring = _chain(pts2, order, eps2)[:-1] + _chain(pts2, order[::-1], eps2)[:-1]
    return ring if len(ring) >= 3 else []


def _integer_points(points):
    """(points scaled by D, D): D is the least common multiple of the
    denominators of the rational coordinates, so every scaled one is an int."""
    den = math.lcm(*[c.denominator for p in points for c in p])
    return [tuple([c.numerator * (den // c.denominator) for c in p])
            for p in points], den


def _mirror(indices, k):
    """Antipodal images of point indices under the layout i <-> i + k."""
    n = 2 * k
    return [(i + k) % n for i in indices]


def _support_sets_exact(points):
    """One maximal coplanar supporting set per antipodal facet pair, by
    exact enumeration of the pair triples (r_a, +-r_b, +-r_c)."""
    n = len(points)
    k = n // 2
    reps = points[:k]
    facets = []
    claimed = set()
    for a, j1, j2 in zip(*_kernels.pair_triples(k).tolist()):
        if (a, j1, j2) in claimed:
            continue
        p0 = reps[a]
        nrm = cross(sub(points[j1], p0), sub(points[j2], p0))
        h = dot(nrm, p0)
        if h == 0:      # degenerate triple, or a plane through 0
            continue
        if h < 0:
            nrm = neg(nrm)
            h = -h
        inc = []
        for j in range(k):
            s = dot(nrm, reps[j])
            if s > h or s < -h:
                break
            if s == h:
                inc.append(j)
            elif s == -h:
                inc.append(j + k)
        else:
            facets.append((frozenset(inc), nrm, h))
            for t in itertools.combinations(sorted(inc, key=lambda i: i % k), 3):
                claimed.add(tuple(_mirror(t, k)) if t[0] >= k else t)
    return facets


def _support_sets_double(pts, dist_tol, area_tol):
    """Supporting sets via ``_kernels.support_planes``, one per antipodal
    pair, merging tolerance splinters.

    Two discovered sets sharing an affinely independent triple describe the
    same facet plane and are unioned, and so are their mirrors; only pairs
    of sets that share three or more points are inspected.
    """
    planes, masks, ok = _kernels.support_planes(pts, dist_tol, area_tol)
    if not ok:
        raise NumericalDegeneracy("supporting-plane capacity overflow; input too degenerate")
    sets = [[] for _ in masks]
    for r, c in zip(*[a.tolist() for a in np.nonzero(masks)]):
        sets[r].append(c)
    planes = [(tuple(p[:3]), p[3]) for p in planes.tolist()]
    if _splinters(masks):
        sets, planes = _merge_splinters(pts, sets, planes, dist_tol, area_tol)
    return [(s, p[0], p[1]) for s, p in zip(sets, planes)]


def _splinters(masks):
    """(a, b, mirrored) for the pairs a < b whose facets share three or more
    points: facet a with facet b, or with b's antipode when ``mirrored``."""
    M = np.asarray(masks, dtype=float)
    m, n = M.shape
    shared = M @ np.concatenate([M, np.roll(M, n // 2, axis=1)]).T
    return [(a, c % m, c >= m) for a, c in zip(*np.nonzero(shared >= 3))
            if a < c % m]


def _merge_splinters(pts, sets, planes, dist_tol, area_tol):
    """Union the sets of two pairs whose facets, in either orientation,
    share an affinely independent triple, until none do; the plane is refit
    to the union by least squares."""
    n = len(pts)
    tol2 = area_tol * area_tol
    tpoints = pts.tolist()
    sets = [frozenset(s) for s in sets]
    while True:
        masks = np.zeros((len(sets), n))
        for r, s in enumerate(sets):
            masks[r, list(s)] = 1
        for a, b, mirrored in _splinters(masks):
            other = frozenset(_mirror(sets[b], n // 2)) if mirrored else sets[b]
            shared = sorted(sets[a] & other)
            if affine_dim([tpoints[i] for i in shared], tol2) < 2:
                continue
            merged = sorted(sets[a] | other)
            sub_pts = pts[merged]
            centroid = sub_pts.mean(axis=0)
            _, _, vt = np.linalg.svd(sub_pts - centroid)
            nrm = vt[2]
            h = float(nrm @ centroid)
            resid = pts @ nrm - h
            if resid.max() > -resid.min():    # orient the body below the plane
                nrm, h, resid = -nrm, -h, -resid
            if resid.max() > dist_tol:
                raise NumericalDegeneracy(
                    "cannot merge near-coplanar facets within tolerance",
                    offending=merged)
            keep = [i for i in range(len(sets)) if i not in (a, b)]
            sets = [sets[i] for i in keep] + [
                frozenset(np.nonzero(np.abs(resid) <= dist_tol)[0].tolist())]
            planes = [planes[i] for i in keep] + [(tuple(nrm), h)]
            break
        else:
            return sets, planes


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
    """Hull of an origin-symmetric point list: ``points`` holds k coordinate
    3-tuples followed by their negations, points[k + i] == -points[i], and
    the origin must be interior.  Facets are oriented outward from it.

    Each antipodal facet pair is found once, through a triple of pair
    points; its polygon, Newell normal and orientation are computed on the
    member with the smaller sorted vertex key.  ``Hull.facets`` holds those
    F/2 members, in the order found, and ``Hull.corners`` their vertices
    and the antipodes of those.

    exact=True takes rational coordinates (``Fraction`` or ``int``), decides
    every predicate, the layout check included, on their integer images and
    returns ``Fraction`` planes;
    otherwise points must be floats and ``dist_tol`` (absolute plane-residual
    tolerance) applies.  Raises InputError when the list breaks the layout,
    DegenerateInput below dimension 3 and NumericalDegeneracy when the facet
    structure cannot be certified.
    """
    n = len(points)
    k = n // 2
    if exact:
        points, den = _integer_points(points)
    if n % 2 or any(tuple(points[k + i]) != neg(points[i]) for i in range(k)):
        raise InputError("hull input must be k points followed by their "
                         "negations")
    if exact:
        dim = affine_dim(points)
        if dim < 3:
            raise DegenerateInput(f"affine hull has dimension {dim} < 3")
        raw = _support_sets_exact(points)
    else:
        arr = np.asarray(points, dtype=float)
        scale = coordinate_scale(points)
        if dist_tol is None:
            dist_tol = DIST_TOL_REL * scale
        area_tol = AREA_TOL_REL * scale * scale
        dim = affine_dim([tuple(p) for p in points], tol2=area_tol * area_tol)
        if dim < 3:
            raise DegenerateInput(f"affine hull has dimension {dim} < 3")
        raw = _support_sets_double(arr, dist_tol, area_tol)
        points = arr.tolist()

    # anti[i] labels the point -points[i]; a point listed twice (as at a
    # breakpoint where one pair moves onto another) keeps its first label.
    first = {}
    for i, p in enumerate(points):
        first.setdefault(tuple(p), i)
    anti = [first[tuple(points[(i + k) % n])] for i in range(n)]
    facets = []
    for inc, nrm, _ in raw:
        keep = _project_axis(nrm)
        idxs = sorted(inc)
        pts2 = [(points[i][keep[0]], points[i][keep[1]]) for i in idxs]
        if exact:
            eps2 = 0
        else:
            xs = [p[0] for p in pts2]
            ys = [p[1] for p in pts2]
            diam2 = max((max(xs) - min(xs)) ** 2, (max(ys) - min(ys)) ** 2, 1e-300)
            eps2 = AREA_TOL_REL * diam2
        ring = polygon_corners(pts2, eps2)
        if len(ring) < 3:
            raise NumericalDegeneracy("facet polygon collapsed", offending=idxs)
        cycle = [idxs[r] for r in ring]
        if sorted([anti[i] for i in cycle]) < sorted(cycle):
            # Work on the mirror.  Its monotone chain sees the points
            # negated, so its ring starts where this ring's upper chain does.
            top = max(range(len(ring)), key=lambda a: pts2[ring[a]])
            cycle = [anti[i] for i in cycle[top:] + cycle[:top]]
        cycle = tuple(cycle)
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
            offset = sum([dot(normal, points[i]) for i in cycle]) / len(cycle)
        facets.append(Facet(_canonical_cycle(cycle), normal, offset))

    if len(facets) < 2:
        raise NumericalDegeneracy(f"only {2 * len(facets)} certified facets")
    return Hull(corners=tuple(sorted({j for f in facets for i in f.cycle
                                      for j in (i, anti[i])})),
                facets=tuple(facets))
