"""Independent brute-force oracles used to cross-check the package's own
geometry.  Everything here goes through scipy's qhull bindings, dense linear
algebra, plain ``Fraction`` arithmetic or the scalar loops that mahler3d's
vectorised code replaced, never through mahler3d itself."""
import itertools
from dataclasses import dataclass
from fractions import Fraction

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


def fraction_hull(points):
    """Exact hull of rational points, every predicate in ``Fraction``s.

    Enumerates every point triple, keeps the planes with all points on one
    side, and orders each facet's strict corners.  Returns (sorted corner
    indices, facets): a facet is (cycle, normal, offset), its cycle outward
    from the origin and rotated to start at its smallest index, its plane
    normal . x == offset with the cycle's Newell normal, and the facets sorted
    by vertex set (``facet_layout`` puts them in the layout of
    ``mahler3d.hull.Hull``).
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    seen, facets, corners = set(), [], set()
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        nrm = cross(sub(pts[j], pts[i]), sub(pts[k], pts[i]))
        if nrm == (0, 0, 0):
            continue
        side = [dot(nrm, sub(p, pts[i])) for p in pts]
        inc = frozenset(m for m, s in enumerate(side) if s == 0)
        if min(side) < 0 < max(side) or inc in seen:
            continue
        seen.add(inc)
        # Strict corners of the facet polygon, by a monotone chain on the
        # coordinate plane that drops the normal's largest component.
        big = max(range(3), key=lambda c: abs(nrm[c]))
        c0, c1 = [c for c in range(3) if c != big]
        flat = {}
        for m in sorted(inc):
            flat.setdefault((pts[m][c0], pts[m][c1]), m)
        order = sorted(flat)
        ring = []
        for seq in (order, order[::-1]):
            chain = []
            for q in seq:
                while len(chain) >= 2 and turn(chain[-2], chain[-1], q) <= 0:
                    chain.pop()
                chain.append(q)
            ring += chain[:-1]
        cycle = [flat[q] for q in ring]
        nw = [0, 0, 0]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p, q = pts[a], pts[b]
            nw[0] += (p[1] - q[1]) * (p[2] + q[2])
            nw[1] += (p[2] - q[2]) * (p[0] + q[0])
            nw[2] += (p[0] - q[0]) * (p[1] + q[1])
        if dot(nw, pts[cycle[0]]) < 0:
            nw = [-c for c in nw]
            cycle.reverse()
        first = cycle.index(min(cycle))
        cycle = tuple(cycle[first:] + cycle[:first])
        corners.update(cycle)
        facets.append((cycle, tuple(nw), dot(nw, pts[cycle[0]])))
    facets.sort(key=lambda f: sorted(f[0]))
    return tuple(sorted(corners)), tuple(facets)


def facet_layout(facets):
    """``fraction_hull`` facets of an origin-symmetric body in the facet
    layout: of each antipodal pair (normals n and -n) the member with the
    smaller sorted vertex set, in that order, then their antipodes in the
    same order."""
    by_normal = {f[1]: f for f in facets}
    firsts = [f for f in facets
              if sorted(f[0]) < sorted(by_normal[tuple(-c for c in f[1])][0])]
    return tuple(firsts + [by_normal[tuple(-c for c in f[1])] for f in firsts])


def vertex_facet_rings(lattice):
    """Every vertex's facet ring by the walk through the edge labels: from
    facet f the edge {v, w} that leaves v in f's cycle is looked up among
    the lattice's sorted edges and its other owner in ``phi2`` is the next
    facet.  Rings start at the first facet through v and are walked for
    v < V/2; the ring of v + V/2 is the mirrored ring of v, reversed and
    rotated to start at its smallest facet."""
    n = lattice.n_vertices
    edge_label = {e: k for k, e in enumerate(lattice.edges)}
    nxt = {}  # (facet, vertex) -> successor vertex in that facet's cycle
    incident = [[] for _ in range(n)]
    for f, cyc in enumerate(lattice.facet_cycles):
        for a in range(len(cyc)):
            nxt[(f, cyc[a])] = cyc[(a + 1) % len(cyc)]
            incident[cyc[a]].append(f)
    out = []
    for v in range(n // 2):
        start = incident[v][0]
        ring = [start]
        f = start
        while True:
            w = nxt[(f, v)]
            a, b = lattice.phi2[edge_label[(min(v, w), max(v, w))]]
            f = b if a == f else a
            if f == start:
                break
            ring.append(f)
            assert len(ring) <= len(incident[v]), "ring does not close"
        assert len(ring) == len(incident[v]), "ring misses facets"
        out.append(tuple(ring))
    for ring in out[:n // 2]:
        mirror = [lattice.opposite_facet[f] for f in reversed(ring)]
        first = mirror.index(min(mirror))
        out.append(tuple(mirror[first:] + mirror[:first]))
    return tuple(out)


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



def parallel_pairs(normals, theta, carrier, exact, par_tol=1e-14,
                   amb_tol=1e-10):
    """The facet pairs parallel to a direction, one scalar test per facet.

    ``normals`` holds one normal per facet pair.  Exact: carrier . n == 0.
    Float: |theta . n / |n|| <= par_tol, and ValueError when some pair falls
    in (par_tol, amb_tol], where parallelism cannot be decided.
    """
    out = set()
    for g, n in enumerate(normals):
        if exact:
            if carrier[0] * n[0] + carrier[1] * n[1] + carrier[2] * n[2] == 0:
                out.add(g)
            continue
        L = float(n[0] * n[0] + n[1] * n[1] + n[2] * n[2]) ** 0.5
        u = (float(n[0]) / L, float(n[1]) / L, float(n[2]) / L)
        d = abs(theta[0] * u[0] + theta[1] * u[1] + theta[2] * u[2])
        if d <= par_tol:
            out.add(g)
        elif d <= amb_tol:
            raise ValueError(f"|theta.n| = {d:.3e} is ambiguous")
    return frozenset(out)


def dedupe_and_pair_double(points, tol):
    """Mirror, cluster and symmetrize float points by pair loops: union-find
    over every pair within ``tol`` in row-major order, one symmetrized mean
    per antipodal pair of clusters (a self-antipodal cluster is dropped),
    and ValueError when two surviving signed representatives are within
    ``tol``.  Returns the representatives."""
    full = [tuple(map(float, p)) for p in points]
    full = full + [(-p[0], -p[1], -p[2]) for p in full]
    n = len(full)
    t2 = tol * tol
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def close(p, q):
        d = (p[0] - q[0], p[1] - q[1], p[2] - q[2])
        return d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= t2

    for a in range(n):
        for b in range(a + 1, n):
            if close(full[a], full[b]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    clusters = {}
    for a in range(n):
        clusters.setdefault(find(a), []).append(a)
    reps, done = [], set()
    for root, members in sorted(clusters.items()):
        if root in done:
            continue
        mean = tuple([sum(full[m][c] for m in members) / len(members)
                      for c in range(3)])
        mirror_root = find((members[0] + n // 2) % n)
        done.update((root, mirror_root))
        if mirror_root != root:
            reps.append(max(mean, (-mean[0], -mean[1], -mean[2])))
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            for p in (reps[a], tuple(-c for c in reps[a])):
                for q in (reps[b], tuple(-c for c in reps[b])):
                    if close(p, q):
                        raise ValueError(
                            f"points {p} and {q} within tol but not identified")
    return reps


CUBE = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                 for sz in (-1, 1)], dtype=float)
OCTA = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                 [0, 0, 1], [0, 0, -1]], dtype=float)
CUBOCTA = np.array(sorted(set(itertools.permutations((1, 1, 0))) |
                          set(itertools.permutations((1, -1, 0))) |
                          set(itertools.permutations((-1, -1, 0))) |
                          set(itertools.permutations((-1, 1, 0)))),
                   dtype=float)


def persistence_root_triangles(vertices, cycles, alpha, u, exact,
                               dist_tol=None):
    """The breakpoints (t_minus, t_plus) of the shadow system
    y_i = x_i + t alpha_i u from scalar triangle determinants.

    For each facet cycle (one per antipodal pair) with first corners a, b, c
    and every vertex j, s_fj(t) = det[y_b - y_a, y_c - y_a, y_j - y_a] =
    s0 + t s1.  A non-incident vertex bounds the side of -s0/s1; an
    incident vertex with s1 != 0 raises ValueError when ``exact`` and
    bounds both sides by dist_tol |n| / |s1| otherwise.
    """
    def sub(p, q):
        return (p[0] - q[0], p[1] - q[1], p[2] - q[2])

    def cross(p, q):
        return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
                p[0] * q[1] - p[1] * q[0])

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]

    X, al = vertices, alpha
    lo = hi = None
    for f, cycle in enumerate(cycles[:len(cycles) // 2]):
        a, b, c = cycle[:3]
        B, C = sub(X[b], X[a]), sub(X[c], X[a])
        n = cross(B, C)
        nu = dot(n, u)
        db, dc = al[b] - al[a], al[c] - al[a]
        w = tuple([db * p + dc * q for p, q in zip(cross(u, C), cross(B, u))])
        for j in range(len(X)):
            J = sub(X[j], X[a])
            s1 = dot(w, J) + (al[j] - al[a]) * nu
            if s1 == 0:
                continue
            if j in cycle:
                if exact:
                    raise ValueError(f"vertex {j} leaves facet {f}")
                drift = dist_tol * dot(n, n) ** 0.5 / abs(s1)
                roots = (-drift, drift)
            else:
                roots = (-dot(n, J) / s1,)
            for r in roots:
                if r < 0:
                    lo = r if lo is None else max(lo, r)
                else:
                    hi = r if hi is None else min(hi, r)
    return lo, hi


def facet_rows_cramer(vertices, cycle, n_pairs):
    """The admissibility rows of one facet from linear coordinates.

    The facet plane n.x = h misses the origin, so the first three corners
    are a basis of R^3 and Cramer's rule gives every further corner p as
    l1 c0 + l2 c1 + l3 c2; n.p = h forces l1 + l2 + l3 = 1, so these are
    barycentric coordinates.  Each row holds +1 at p and -l at the three
    corners, in reduced pair coordinates (vertex v + n_pairs is -v).
    """
    def det(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    c0, c1, c2 = (vertices[i] for i in cycle[:3])
    d = det(c0, c1, c2)
    rows = []
    for u in cycle[3:]:
        p = vertices[u]
        lam = (det(p, c1, c2) / d, det(c0, p, c2) / d, det(c0, c1, p) / d)
        row = [0] * n_pairs
        for v, coef in zip((u, *cycle[:3]), (1, -lam[0], -lam[1], -lam[2])):
            if v < n_pairs:
                row[v] += coef
            else:
                row[v - n_pairs] -= coef
        rows.append(row)
    return rows


@dataclass(frozen=True)
class FractionDirection:
    theta: tuple
    carrier: tuple


def direction_fractions(vec):
    """A direction built in Fractions: every component read as an exact
    Fraction c_i, L = float(c.c) ** 0.5, theta = float(c_i) / L and the
    carrier c / Fraction(L).  Equality and hash go over (theta, carrier).
    It divides by zero or overflows when float(c.c) does."""
    c = tuple([Fraction(x) for x in vec])
    L = float(c[0] * c[0] + c[1] * c[1] + c[2] * c[2]) ** 0.5
    rL = Fraction(L)
    return FractionDirection(theta=tuple([float(x) / L for x in c]),
                             carrier=tuple([x / rL for x in c]))


def first_nontrivial_index(basis, trivial, n_pairs, tol=1e-9):
    """Index of the first speed of ``basis`` off the span of the speeds
    ``trivial`` (sequences of numbers over all vertices), or None: each
    vector is tested on its own, with a fresh float QR of the trivial
    speeds, residual <= tol x ||b|| counting as trivial."""
    for i, alpha in enumerate(basis):
        T = np.stack([np.array([float(a) for a in tv[:n_pairs]])
                      for tv in trivial], axis=1)
        Qo, _ = np.linalg.qr(T)
        b = np.array([float(a) for a in alpha[:n_pairs]])
        r = (b - Qo @ (Qo.T @ b)).tolist()
        if not float(np.linalg.norm(r)) <= tol * float(np.linalg.norm(b)):
            return i
    return None


def fan_volume_fractions(vertices, cycles):
    """|P| as twice the origin fan over the first F/2 facet cycles, every
    determinant summed in ``Fraction``s on the coordinates as given."""
    total = Fraction(0)
    for cyc in cycles[:len(cycles) // 2]:
        p0 = [Fraction(c) for c in vertices[cyc[0]]]
        for a in range(1, len(cyc) - 1):
            p1 = [Fraction(c) for c in vertices[cyc[a]]]
            p2 = [Fraction(c) for c in vertices[cyc[a + 1]]]
            total += (p0[0] * (p1[1] * p2[2] - p1[2] * p2[1])
                      + p0[1] * (p1[2] * p2[0] - p1[0] * p2[2])
                      + p0[2] * (p1[0] * p2[1] - p1[1] * p2[0]))
    return 2 * total / 6


def merge_representatives(reps):
    """The representatives kept by the O(k^2) loop: each one whose squared
    distance to every kept point and to its negation is positive, so the
    first of each class equal up to sign wins."""
    kept = []
    for p in reps:
        p = tuple([Fraction(c) for c in p])
        if all(sum((a - b) ** 2 for a, b in zip(p, s)) > 0
               for q in kept for s in (q, tuple([-c for c in q]))):
            kept.append(p)
    return kept


def antipodal_layout(points):
    """Whether a point list is k points followed by their negations,
    points[k + i] == -points[i], every coordinate negated as a Fraction."""
    n, k = len(points), len(points) // 2
    return n % 2 == 0 and all(
        tuple([Fraction(c) for c in points[k + i]])
        == tuple([-Fraction(c) for c in points[i]]) for i in range(k))


def off_trivial_gram_schmidt(trivial, speeds, n_pairs):
    """Each speed minus its projection onto the span of ``trivial``, in the
    first ``n_pairs`` coordinates: Gram-Schmidt over Fractions, a trivial
    vector that reduces to zero dropped."""
    ortho = []

    def reduce(v):
        for u in ortho:
            uv = sum(x * y for x, y in zip(u, v))
            uu = sum(x * x for x in u)
            v = [x - uv / uu * y for x, y in zip(v, u)]
        return v

    for tv in trivial:
        v = reduce([Fraction(c) for c in tv[:n_pairs]])
        if any(v):
            ortho.append(v)
    return [reduce([Fraction(c) for c in sv[:n_pairs]]) for sv in speeds]
