"""Origin-symmetric 3D polytope kernel: construction, symmetry pairing, face
lattice, and volume, over two arithmetic backends.

Coordinates are exact ``Fraction`` triples under the ``"rational"`` kernel and
float64 triples under ``"double"``.  Combinatorial decisions (facet
membership, extreme-point status, lattice identity) never depend on rounding
in rational mode; double mode applies the scaled tolerances from ``hull``.

Vertex layout convention: vertices[0..k-1] are pair representatives and
vertices[k+i] == -vertices[i] exactly, so the antipodal pairing is the index
involution i <-> i+k.  All constructors produce coordinates for the
representatives only and mirror them by exact negation, which makes the
pairing invariant structural rather than numerical.

Facets follow the same convention: facet f + F/2 is the antipode of facet
f, with the mirrored, reversed cycle, the negated normal and the same
offset, so "one facet per antipodal pair" is ``range(F // 2)``.
``_build_lattice`` is the one place that builds an antipodal facet: it takes
one facet per pair, mirrors it and lays the facets out, so the layout holds
by construction.
"""

import json
import math
from fractions import Fraction

import numpy as np

from . import _kernels, hull as _hull
from .errors import (DegenerateInput, InputError, NumericalDegeneracy,
                     SingularMatrix, ToleranceConflict)
from .hull import cross, dot, neg, sub

RATIONAL = "rational"
DOUBLE = "double"
_KERNELS = (RATIONAL, DOUBLE)
_SNAP_BITS = 40   # rational snaps round to the dyadic grid 2^-40


def _as_coord(x, kernel):
    """The one coercion of an outside number to the kernel's type.

    Rational kernel: a ``Fraction`` as is, anything else through
    ``Fraction(x)``.  Double kernel: a string read as an exact fraction and
    rounded, anything else through ``float(x)``.  What these reject, and a
    NaN or infinite result, raises InputError.
    """
    try:
        if kernel == RATIONAL:
            return x if isinstance(x, Fraction) else Fraction(x)
        v = float(Fraction(x)) if isinstance(x, str) else float(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as e:
        raise InputError(f"invalid number {x!r}: {e}") from None
    if not math.isfinite(v):
        raise InputError(f"non-finite number {x!r}")
    return v


def as_point(p, kernel):
    """Coerce a length-3 sequence to a coordinate triple of the kernel's
    type through ``_as_coord``."""
    if len(p) != 3:
        raise InputError(f"point of length {len(p)}")
    return tuple([_as_coord(c, kernel) for c in p])


def _sqrt(x):
    """The float square root of x >= 0.  An exact ``Fraction`` is first
    brought near 1 by a power of four, as ``shadow.direction`` does, so a
    root that is a normal float never underflows or overflows with x."""
    if not isinstance(x, Fraction) or not x:
        return float(x) ** 0.5
    e = (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    return math.ldexp(float(x / Fraction(4) ** e) ** 0.5, e)


def fraction_text(x):
    """``str(x)``, raising NumericalDegeneracy where the exact number has
    more digits than Python's int-to-str conversion limit allows."""
    try:
        return str(x)
    except ValueError:
        raise NumericalDegeneracy("exact number has more digits than Python's "
                                  "int-to-str conversion allows") from None


class FaceLattice:
    """Labeled incidence structure of a 3-polytope.

    Vertices and facets carry integer labels (I0, I2) and edges are the
    sorted pairs of ``edges``.  phi2 maps an edge to its two incident
    facets and ``facet_cycles[k]`` is the vertex cycle of facet k, ordered
    along the boundary consistently with the outward normal; ``d`` counts a
    vertex's edges.  facet_planes[k] = (n, h) with the facet on
    {x : n.x = h}; normals are unit length in double mode and unnormalized
    exact vectors in rational mode.

    Facets are in the facet layout of the vertices: facet f + F/2 is the
    antipode of facet f, so ``opposite_facet[f] == (f + F/2) % F``.
    """

    def __init__(self, n_vertices, facet_cycles, facet_planes):
        self.n_vertices = n_vertices
        self.facet_cycles = facet_cycles      # tuple of vertex-label cycles
        self.facet_planes = facet_planes      # tuple of (normal, offset)
        F = len(facet_cycles)
        self.opposite_facet = tuple([(f + F // 2) % F for f in range(F)])
        owners = {}  # sorted (i, j) -> the facets through that edge, ascending
        for f, cyc in enumerate(facet_cycles):
            i = cyc[-1]
            for j in cyc:
                owners.setdefault((i, j) if i < j else (j, i), []).append(f)
                i = j
        self.edges = tuple(sorted(owners))    # tuple of sorted (i, j)
        self.phi2 = tuple([tuple(owners[e]) for e in self.edges])
        self._vertex_facet_cycles = None

    @property
    def V(self):
        return self.n_vertices

    @property
    def E(self):
        return len(self.edges)

    @property
    def F(self):
        return len(self.facet_cycles)

    @property
    def I0(self):
        return range(self.V)

    @property
    def I2(self):
        return range(self.F)

    def m(self, k):
        return len(self.facet_cycles[k])

    def d(self, i):
        return sum(i in e for e in self.edges)

    def facet_size_census(self):
        census = {}
        for c in self.facet_cycles:
            census[len(c)] = census.get(len(c), 0) + 1
        return census

    def signature(self):
        """Canonical token for labeled-lattice equality tests."""
        return (self.n_vertices,
                tuple(sorted(tuple(sorted(c)) for c in self.facet_cycles)))

    def vertex_facet_cycles(self):
        """For each vertex, its incident facets in cyclic order around it.

        This is the facet-cycle data of the order-reversed (polar) lattice.
        From facet f the walk crosses the edge v -> w that leaves v in f's
        (counterclockwise, outward) cycle into the facet that holds w -> v,
        so every ring turns clockwise seen from outside along v.  Rings
        start at the first facet through v and are walked for the
        representatives 0..V/2-1 only: the ring of v + V/2 is the antipodal
        image of v's, traversed backwards.
        """
        if self._vertex_facet_cycles is not None:
            return self._vertex_facet_cycles
        step = {}   # directed cycle edge (u, v) -> (its facet, v's successor)
        start = {}  # vertex -> (first facet through it, its successor there)
        degree = [0] * self.n_vertices
        for f, cyc in enumerate(self.facet_cycles):
            u, v = cyc[-2], cyc[-1]
            for w in cyc:
                step[(u, v)] = (f, w)
                start.setdefault(v, (f, w))
                degree[v] += 1
                u, v = v, w
        out = []
        for v in range(self.n_vertices // 2):
            f, w = start[v]
            ring = [f]
            while True:
                try:
                    f, w = step[(w, v)]
                except KeyError:
                    raise NumericalDegeneracy(
                        f"edge {v}-{w} of facet {f} has no reverse edge",
                        offending=[v, w]) from None
                if f == ring[0]:
                    break
                ring.append(f)
                if len(ring) > degree[v]:
                    raise NumericalDegeneracy(
                        f"facet ring around vertex {v} does not close", offending=[v])
            if len(ring) != degree[v]:
                raise NumericalDegeneracy(
                    f"facet ring around vertex {v} misses facets", offending=[v])
            out.append(tuple(ring))
        out.extend([_mirror_cycle(ring, self.F) for ring in out])
        self._vertex_facet_cycles = tuple(out)
        return self._vertex_facet_cycles


def _mirror_cycle(cycle, n):
    """The antipodal image of a cycle of labels laid out in n (label i + n/2
    is the antipode of i): each label shifted by n/2, the order reversed and
    the smallest label rotated to the front."""
    return _hull._canonical_cycle(
        tuple([(v + n // 2) % n for v in reversed(cycle)]))


def same_labeled_lattice(a, b):
    """Equality of labeled face lattices (identical vertex labels, same
    facet vertex-sets; edges and incidence maps then agree as well)."""
    return a.signature() == b.signature()


def _build_lattice(n, pairs):
    """Assemble the FaceLattice of n vertices in the vertex layout from one
    ``hull.Facet`` per antipodal facet pair, either member.

    Each antipode gets the mirrored, reversed cycle, the negated normal and
    the same offset.  The facets are then laid out: of each pair the member
    with the smaller sorted vertex key, pairs sorted by that key, then the
    antipodes in the same order.  Returns (lattice, order): facet j is
    ``pairs[order[j]]``, or the antipode of ``pairs[order[j] - K]`` when
    order[j] >= K = len(pairs).
    """
    K = len(pairs)
    cycles = ([f.cycle for f in pairs]
              + [_mirror_cycle(f.cycle, n) for f in pairs])
    planes = ([(f.normal, f.offset) for f in pairs]
              + [(neg(f.normal), f.offset) for f in pairs])
    keys = [sorted(c) for c in cycles]
    firsts = sorted([i if keys[i] < keys[i + K] else i + K for i in range(K)],
                    key=keys.__getitem__)
    order = tuple(firsts + [(i + K) % (2 * K) for i in firsts])
    lat = FaceLattice(n, tuple([cycles[i] for i in order]),
                      tuple([planes[i] for i in order]))
    bad = [e for e, owners in zip(lat.edges, lat.phi2) if len(owners) != 2]
    if bad:
        raise NumericalDegeneracy(f"edges not shared by exactly two facets: {bad[:4]}",
                                  offending=bad)
    if lat.V - lat.E + lat.F != 2:
        raise NumericalDegeneracy(
            f"Euler check failed: V={lat.V} E={lat.E} F={lat.F}")
    return lat, order


class SymPolytope:
    """Origin-symmetric 3D polytope as an exactly-paired vertex list with its
    face lattice.

    Immutable after construction.  ``vertices[pairing[i]] == -vertices[i]``
    holds coordinate-for-coordinate, with ``pairing[i] == (i + V/2) % V``;
    every listed vertex is extreme; the origin is interior (every facet
    offset is positive).
    """

    def __init__(self, vertices, lattice, kernel):
        self.vertices = vertices
        self.lattice = lattice
        self.kernel = kernel
        self._array = None

    @property
    def V(self):
        return len(self.vertices)

    @property
    def n_pairs(self):
        return len(self.vertices) // 2

    @property
    def pairing(self):
        k = self.n_pairs
        return tuple(range(k, 2 * k)) + tuple(range(k))

    def rep_indices(self):
        return range(self.n_pairs)

    def as_array(self):
        if self._array is None:
            self._array = np.array([[float(c) for c in v] for v in self.vertices])
        return self._array

    def inradius(self):
        """Distance from the origin to the nearest facet plane."""
        return _sqrt(min([h * h / dot(n, n)
                          for n, h in self.lattice.facet_planes]))

    def circumradius(self):
        return _sqrt(max(dot(v, v) for v in self.vertices))

    def to_json_dict(self):
        if self.kernel == RATIONAL:
            verts = [[fraction_text(c) for c in self.vertices[i]]
                     for i in self.rep_indices()]
        else:
            verts = self.as_array()[:self.n_pairs].tolist()
        return {"vertices": verts, "symmetric": True}

    def __repr__(self):
        return (f"SymPolytope(V={self.V}, E={self.lattice.E}, "
                f"F={self.lattice.F}, kernel={self.kernel!r})")


def _dedupe_and_pair(points, tol, kernel):
    """Mirror, deduplicate, and symmetrize an input point list.

    Returns the representative coordinate list.  Clusters of points within
    tol collapse to their symmetrized mean; surviving distinct points closer
    than tol raise ToleranceConflict.
    """
    if kernel == RATIONAL:
        if tol:
            uniq = list(dict.fromkeys(list(points) + [neg(p) for p in points]))
            t2 = tol * tol
            for a in range(len(uniq)):
                for b in range(a + 1, len(uniq)):
                    d = sub(uniq[a], uniq[b])
                    if dot(d, d) <= t2:
                        raise ToleranceConflict(
                            f"points {uniq[a]} and {uniq[b]} within tol but distinct")
        # the origin is never a vertex
        return [max(p, neg(p)) for p in _first_up_to_sign(points)
                if p != neg(p)]

    full = [tuple(map(float, p)) for p in points]
    full = full + [neg(p) for p in full]
    n = len(full)
    t2 = tol * tol
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # the close pairs a < b reach the union-find in row-major order, as in
    # a loop over all pairs, so the clusters come out as that loop's
    for a, b in _close_pairs(full, t2):
        if a < b:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    clusters = {}
    for a in range(n):
        clusters.setdefault(find(a), []).append(a)
    # symmetrized cluster means: the antipodal image of a cluster is a cluster
    reps = []
    done = set()
    for root, members in sorted(clusters.items()):
        if root in done:
            continue
        mean = tuple([sum(c) / len(members)
                      for c in zip(*[full[m] for m in members])])
        anti = neg(mean)
        # locate the antipodal cluster through any member's mirror
        mirror_root = find((members[0] + n // 2) % n)
        done.add(root)
        done.add(mirror_root)
        if mirror_root == root:
            continue  # self-antipodal cluster collapses to the origin
        reps.append(max(mean, anti))
    # signed[i * k + a] = (-1)^i reps[a]; the first close pair of different
    # representatives in (a, b, i, j) order is the one a loop over a < b,
    # p in (r_a, -r_a) and q in (r_b, -r_b) would meet first
    k = len(reps)
    signed = reps + [neg(p) for p in reps]
    hits = sorted((p % k, q % k, p // k, q // k)
                  for p, q in _close_pairs(signed, t2) if p % k < q % k)
    if hits:
        a, b, i, j = hits[0]
        raise ToleranceConflict(f"points {signed[i * k + a]} and "
                                f"{signed[j * k + b]} within tol but not "
                                "identified")
    return reps


def _first_up_to_sign(points):
    """The first point of each class of exactly equal points up to sign, in
    input order."""
    kept = []
    seen = set()
    for p in points:
        if p not in seen:
            kept.append(p)
            seen.update((p, neg(p)))
    return kept


def _close_pairs(points, t2):
    """The index pairs (a, b), each point with itself included, of the
    points within squared distance t2 of each other, in row-major order;
    each distance is summed as ``hull.dot(d, d)`` sums it."""
    X = np.array(points).reshape(-1, 3)
    d = [X[:, c, None] - X[None, :, c] for c in range(3)]
    a, b = np.nonzero(d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= t2)
    return zip(a.tolist(), b.tolist())


def _assemble(reps, kernel, keep_order):
    """Hull the mirrored representative list and build a SymPolytope.

    keep_order=False sorts representatives canonically (public construction);
    keep_order=True preserves the given order so vertex labels survive a
    deformation.  Non-extreme pairs are dropped.
    """
    if not keep_order:
        reps = sorted(reps, reverse=True)
    k = len(reps)
    points = list(reps) + [neg(p) for p in reps]
    h = _hull.hull_3d(points, exact=(kernel == RATIONAL))

    corner = set(h.corners)
    kept_reps = [i for i in range(k) if i in corner]
    if len(kept_reps) < 3:
        raise DegenerateInput("fewer than three antipodal vertex pairs")
    new_of = {}
    for a, i in enumerate(kept_reps):
        new_of[i] = a
        new_of[i + k] = a + len(kept_reps)
    vertices = tuple([points[i] for i in kept_reps]
                     + [points[i + k] for i in kept_reps])

    # new_of increases on the corners, so cycles stay canonical
    relabeled = [_hull.Facet(tuple([new_of[i] for i in f.cycle]), f.normal,
                             f.offset) for f in h.facets]
    lattice, _ = _build_lattice(len(vertices), relabeled)
    return SymPolytope(vertices, lattice, kernel)


def build_sym_polytope(points, tol=None, kernel=RATIONAL):
    """Hull of points together with their antipodes, as a SymPolytope.

    Input points are mirrored, symmetrized so the antipodal pairing is exact,
    and reduced to the extreme points.  ``tol`` is the point-identification
    tolerance, coerced like the coordinates (defaults: 0 in rational mode,
    ``hull.DIST_TOL_REL`` times the largest |coordinate| in double mode).

    Raises DegenerateInput when the affine hull has dimension < 3 and
    ToleranceConflict when two distinct points sit within tol of each other
    without being identified by symmetrization.
    """
    if kernel not in _KERNELS:
        raise InputError(f"unknown kernel {kernel!r}")
    pts = [as_point(p, kernel) for p in points]
    if not pts:
        raise DegenerateInput("empty point set")
    if tol is not None:
        tol = _as_coord(tol, kernel)
    elif kernel == RATIONAL:
        tol = 0
    else:
        tol = _hull.DIST_TOL_REL * _hull.coordinate_scale(pts)
    if tol < 0:
        raise InputError("tol must be nonnegative")
    reps = _dedupe_and_pair(pts, tol, kernel)
    if len(reps) < 3:
        raise DegenerateInput("need at least three antipodal vertex pairs")
    return _assemble(reps, kernel, keep_order=False)


def from_representatives(reps, kernel):
    """SymPolytope from already-symmetrized representative coordinates,
    preserving their order (labels survive when no vertex drops out).

    Each representative is coerced by ``as_point``.  Representatives that
    coincide up to sign, as when a deformation moves one vertex onto another
    or onto its antipode, merge into the first: exactly on the rational
    kernel (``_first_up_to_sign``), and within ``build_sym_polytope``'s
    default tolerance on the double kernel.
    """
    reps = [as_point(p, kernel) for p in reps]
    if not reps:
        raise DegenerateInput("empty point set")
    if kernel == RATIONAL:
        kept = _first_up_to_sign(reps)
    else:
        kept = []
        tol2 = (_hull.DIST_TOL_REL * _hull.coordinate_scale(reps)) ** 2
        for p in reps:
            if all(dot(d, d) > tol2 for q in kept
                   for d in (sub(p, q), sub(p, neg(q)))):
                kept.append(p)
    return _assemble(kept, kernel, keep_order=True)


def volume(P):
    """|P| by signed tetrahedra over the origin, per facet fan: twice the fan
    over the first F/2 facets, one per antipodal pair, since their antipodes
    span the mirrored cones.

    Exact Fraction in rational mode: the fan determinants are summed on the
    vertices scaled to integers by D (``hull._integer_points``), which
    scales each of them by D^3, and one Fraction is built from the sum.
    """
    cycles = P.lattice.facet_cycles[:P.lattice.F // 2]
    if P.kernel == RATIONAL:
        points, den = _hull._integer_points(P.vertices)
        return Fraction(_kernels.fan_determinants(points, cycles), 3 * den ** 3)
    return 2 * _kernels.fan_volume(P.vertices, cycles)


def linear_image(P, A):
    """Image of ``P`` under an invertible linear map (3x3 row-major matrix).

    Raises SingularMatrix when |det A| is below tolerance.  Symmetry is
    preserved structurally: images are computed for pair representatives and
    mirrored by exact negation.
    """
    M = [[_as_coord(A[i][j], P.kernel) for j in range(3)] for i in range(3)]
    det = dot(M[0], cross(M[1], M[2]))
    if P.kernel == RATIONAL:
        singular = det == 0
    else:
        scale = max(1.0, max([abs(x) for row in M for x in row])) ** 3
        singular = abs(det) <= 1e-12 * scale
    if singular:
        raise SingularMatrix(f"singular matrix: determinant {float(det):.3e}")
    reps = [tuple([dot(row, P.vertices[i]) for row in M])
            for i in P.rep_indices()]
    Q = from_representatives(reps, P.kernel)
    if Q.V != P.V:
        raise NumericalDegeneracy(
            f"linear image lost vertices ({P.V} -> {Q.V})")
    return Q


def _snap(P):
    """``P`` rebuilt on the exact kernel with every coordinate of its float
    image ``as_array()`` rounded to the nearest multiple of 2^-_SNAP_BITS."""
    den = 1 << _SNAP_BITS
    return from_representatives(
        [tuple([Fraction(round(x * den), den) for x in row])
         for row in P.as_array()[:P.n_pairs].tolist()], RATIONAL)


def snap_to_rational(P):
    """Round a double-kernel polytope to dyadic rationals (denominator
    2^_SNAP_BITS) and rebuild it on the exact kernel, where a witness can be
    certified exactly.  The rounding may change the lattice: it breaks the
    exact coplanarity of a facet with more than three vertices, so the snap
    of a parallelepiped can have triangles."""
    return P if P.kernel == RATIONAL else _snap(P)


def to_double(P):
    """Rebuild a rational polytope on the float64 kernel."""
    if P.kernel == DOUBLE:
        return P
    return from_representatives([P.vertices[i] for i in P.rep_indices()],
                                DOUBLE)


def load_polytope(source, kernel=RATIONAL, tol=None):
    """Load the JSON polytope format {"vertices": [[x,y,z],...], "symmetric": true}.

    Only one point per antipodal pair need be listed; the loader mirrors.
    The "symmetric" key may be omitted, but any value other than true raises
    InputError: mirroring a body that is not origin-symmetric would silently
    replace it by conv(K u -K).  Coordinates may be numbers or
    decimal/fraction strings (strings are exact in rational mode).
    """
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    if not isinstance(data, dict) or "vertices" not in data:
        raise InputError("polytope JSON must be an object with a 'vertices' key")
    if data.get("symmetric", True) is not True:
        raise InputError("only origin-symmetric bodies are supported; "
                         f"got 'symmetric': {data['symmetric']!r}")
    pts = data["vertices"]
    return build_sym_polytope(pts, tol=tol, kernel=kernel)


def save_polytope(P, path):
    with open(path, "w") as fh:
        json.dump(P.to_json_dict(), fh, indent=2)
        fh.write("\n")
