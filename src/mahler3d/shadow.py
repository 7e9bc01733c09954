"""Symmetric shadow systems: admissible speed spaces, deformation along a
direction, the analytic persistence width of the face lattice, a
frozen-lattice volume-product evaluator, and the two trajectory checkers
(volume affineness, inverse polar-volume convexity).

Along y_i = x_i + t alpha_i u every facet plane of a fixed lattice moves
affinely; ``_affine_planes`` computes its coefficients, exactly or in
floats, and ``persistence_root`` and ``frozen_product`` read them.

A speed vector assigns one real per vertex, odd under the antipodal pairing.
The admissible space for a direction theta consists of the odd speeds that
restrict to an affine function on every facet not parallel to theta; facets
parallel to theta impose nothing.  Constraint rows are assembled in reduced
coordinates (one variable per vertex pair) and only one facet per opposite
pair contributes, since the antipodal facet repeats the same rows.

The space depends on theta only through ``parallel_facets``, the set of
facet pairs parallel to it, which is the one parallelism decision of the
package.  ``admissible_spaces`` therefore solves each distinct set once per
call and shares the basis among the directions that give it.
"""

import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import geometry as G, polarity as PO
from .errors import (AffinenessViolation, ConvexityViolation,
                     DegenerateDeformation, DegenerateInput, InputError,
                     InternalInconsistency, NoPersistence,
                     NumericalDegeneracy, ParallelismAmbiguity)
from .hull import DIST_TOL_REL, _integer_points, _project_axis, cross, dot, sub

PARALLEL_TOL = 1e-14      # |theta.n| at or below this counts as parallel (double)
AMBIGUITY_TOL = 1e-10     # band (PARALLEL_TOL, AMBIGUITY_TOL] is refused
TRIPLE_AREA_REL = 1e-12   # facet rows need corners 0-2 to span > this x diam^2
DEFAULT_C_MAX = 1e6


@dataclass(frozen=True, eq=False)
class Direction:
    """A unit direction ``theta`` with its exact integer ``ray`` and a
    rational ``carrier`` along it, so parallelism tests and exact
    deformations need no rounding.

    ``ray`` is (N0, N1, N2, D, L): the input vector, up to a power of two,
    is (N0, N1, N2) / D in Python integers, and L is the float length that
    ``theta`` was divided by.  The carrier (N0, N1, N2) / (D L), near unit
    length, is built the first time it is read; only ``deform`` and
    ``_affine_planes`` on the rational kernel and the classification
    evidence read it.
    Directions are equal, and hash alike, when theta and carrier are.
    """
    theta: tuple
    ray: tuple = field(repr=False)
    _carrier: tuple = field(default=None, init=False, repr=False)

    @property
    def carrier(self):
        if self._carrier is None:
            object.__setattr__(self, "_carrier", _exact_carrier(self.ray))
        return self._carrier

    def __eq__(self, other):
        if not isinstance(other, Direction):
            return NotImplemented
        return self.theta == other.theta and self.carrier == other.carrier

    def __hash__(self):
        return hash((self.theta, self.carrier))


def _exact_carrier(ray):
    N0, N1, N2, D, L = ray
    num, den = L.as_integer_ratio()
    return tuple([Fraction(n * den, D * num) for n in (N0, N1, N2)])


def _ratio(x):
    """A direction component as an exact (numerator, denominator) pair;
    a float that is not finite raises ValueError or OverflowError."""
    if isinstance(x, float):
        return x.as_integer_ratio()
    if isinstance(x, int):
        return x, 1
    x = G._as_coord(x, G.RATIONAL)
    return x.numerator, x.denominator


def direction(vec):
    """Build a Direction from any numeric triple.

    The components are read as exact rationals (a float is an exact binary
    rational) and put over one integer denominator, so the squared length is
    an exact integer ratio.  L is that ratio divided as Python integers
    (correctly rounded) and square-rooted, and ``theta`` is each component,
    rounded to a float, divided by L; the carrier is the exact vector over
    Fraction(L), so rational-mode and double-mode deformations share one
    parametrization scale.  A squared length beyond about 2^-1020 or
    2^1020, whose float could underflow or overflow, is first brought near
    1 by an exact power of two, so every finite non-zero vector normalises.
    Non-finite, non-numeric or all-zero components raise InputError.
    """
    if isinstance(vec, Direction):
        return vec
    try:
        c = [_ratio(x) for x in vec]
    except (ValueError, OverflowError, ZeroDivisionError) as e:
        raise InputError(f"invalid direction component in {vec!r}: {e}")
    if len(c) != 3:
        raise InputError(f"invalid direction {vec!r}")
    (n0, d0), (n1, d1), (n2, d2) = c
    D = d0 * d1 * d2
    N0, N1, N2 = n0 * (d1 * d2), n1 * (d0 * d2), n2 * (d0 * d1)
    S, Q = N0 * N0 + N1 * N1 + N2 * N2, D * D
    if S == 0:
        raise InputError(f"invalid direction {vec!r}")
    e = S.bit_length() - Q.bit_length()     # 2^(e-1) < S/Q < 2^(e+1)
    if not -1020 <= e <= 1020:
        k = -(e // 2)
        if k > 0:
            N0, N1, N2, S = N0 << k, N1 << k, N2 << k, S << 2 * k
        else:
            D, Q = D << -k, Q << -2 * k
    L = (S / Q) ** 0.5
    t0, t1, t2 = theta = (N0 / D / L, N1 / D / L, N2 / D / L)
    if abs((t0 * t0 + t1 * t1 + t2 * t2) ** 0.5 - 1.0) > 1e-12:
        raise InputError("direction could not be normalized")
    return Direction(theta=theta, ray=(N0, N1, N2, D, L))


@dataclass(frozen=True)
class SpeedVector:
    """Per-vertex speeds, odd under the pairing: alpha[pair(i)] = -alpha[i]."""
    alpha: tuple

    def as_array(self):
        return np.array([float(a) for a in self.alpha])

    def max_abs(self):
        return max(abs(float(a)) for a in self.alpha)


def speed_vector(P, values):
    """Coerce ``values`` to a SpeedVector for ``P``, enforcing oddness."""
    if isinstance(values, SpeedVector):
        vals = values.alpha
    else:
        vals = tuple(values)
    if len(vals) != P.V:
        raise InputError(f"speed length {len(vals)} != V = {P.V}")
    pair = P.pairing
    vals = tuple([G._as_coord(a, P.kernel) for a in vals])
    if P.kernel == G.RATIONAL:
        for i in range(P.V):
            if vals[pair[i]] != -vals[i]:
                raise InputError(f"speed not odd at vertex {i}")
    else:
        scale = max(1.0, max(abs(a) for a in vals))
        for i in range(P.V):
            if abs(vals[pair[i]] + vals[i]) > 1e-12 * scale:
                raise InputError(f"speed not odd at vertex {i}")
    return SpeedVector(alpha=vals)


def trivial_speed(P, w):
    """The globally affine speed alpha_i = w.x_i (odd by symmetry)."""
    w = G.as_point(w, P.kernel)
    return SpeedVector(alpha=tuple([dot(w, v) for v in P.vertices]))


@dataclass(frozen=True)
class SpeedSpace:
    base: object
    theta: Direction
    basis: tuple          # SpeedVectors spanning the admissible space
    trivial_basis: tuple  # speeds from w = e1, e2, e3
    dim: int
    parallel: frozenset   # the facet pairs parallel to theta (parallel_facets)


def _facet_normals(P):
    """(3, F/2) array of one normal per facet pair: on the rational kernel
    one positive integer multiple of every exact normal (``_integer_points``)
    as objects, the unit normals as the double kernel stores them
    otherwise."""
    normals = [n for n, _ in P.lattice.facet_planes[:P.lattice.F // 2]]
    if P.kernel == G.RATIONAL:
        return np.array(_integer_points(normals)[0], dtype=object).T
    return np.array(normals).T


def _parallel_sets(P, N, thetas, skip=(), exempt=()):
    """``parallel_facets`` of every direction of ``thetas`` on the facet
    normals ``N`` of ``_facet_normals``, decided in one (F/2, D) array.  A
    direction whose ParallelismAmbiguity is an instance of ``skip`` gets
    None; otherwise the first one raises.  On the rational kernel the
    integer normals meet each direction's integer ray, a positive multiple
    of its carrier, so each sign, and so each decision, is the carrier's."""
    exact = P.kernel == G.RATIONAL
    T = np.array([th.ray[:3] if exact else th.theta for th in thetas],
                 dtype=object if exact else float).reshape(-1, 3).T
    # elementwise, in the order of hull.dot, so every decision is the one a
    # scalar theta.n would give
    d = abs(N[0][:, None] * T[0] + N[1][:, None] * T[1]
            + N[2][:, None] * T[2])
    if exact:
        par, band = d == 0, np.zeros(d.shape, dtype=bool)
    else:
        par = d <= PARALLEL_TOL
        band = (d > PARALLEL_TOL) & (d <= AMBIGUITY_TOL)
    untested = list(exempt)
    par[untested] = band[untested] = False
    hits = [[] for _ in thetas]
    for j, g in np.argwhere(par.T).tolist():
        hits[j].append(g)
    sets = []
    for j, ambiguous in enumerate(band.any(axis=0).tolist()):
        if not ambiguous:
            sets.append(frozenset(hits[j]))
            continue
        err = ParallelismAmbiguity(
            f"|theta.n| = {float(d[band[:, j], j][0]):.3e} inside the "
            f"undecidable band ({PARALLEL_TOL:g}, {AMBIGUITY_TOL:g}]")
        if not isinstance(err, skip):
            raise err
        sets.append(None)
    return sets


def parallel_facets(P, theta, exempt=()):
    """The facet pairs g < F/2 whose plane is parallel to theta, i.e.
    theta.n_g = 0, as a frozenset; the antipode g + F/2 of each is parallel
    too.  Pairs in ``exempt`` are neither tested nor returned.

    Rational kernel: exact, through the integer ray of theta.  Double
    kernel: |theta.n_g| <= PARALLEL_TOL against the unit normals, and
    ParallelismAmbiguity when a tested pair falls in the band
    (PARALLEL_TOL, AMBIGUITY_TOL].  This is the one-direction case of
    ``_parallel_sets``.
    """
    return _parallel_sets(P, _facet_normals(P), [direction(theta)],
                          exempt=exempt)[0]


def _facet_rows(P, g):
    """Reduced constraint rows (length V/2) of facet pair g: each corner
    beyond the first three is pinned to their affine interpolation.

    A facet cycle lists the strict corners of a convex polygon in order, so
    corners 0, 1 and 2 are affinely independent.  The barycentric weights
    are taken in the 2D projection that drops the dominant component of
    cross(c1 - c0, c2 - c0).  On the double kernel, a facet whose corners
    0, 1 and 2 span at most TRIPLE_AREA_REL x diameter^2 in that projection
    raises NumericalDegeneracy.
    """
    cycle = P.lattice.facet_cycles[g]
    if len(cycle) == 3:
        return []
    a3 = [P.vertices[i] for i in cycle]
    keep = _project_axis(cross(sub(a3[1], a3[0]), sub(a3[2], a3[0])))
    p2 = [(v[keep[0]], v[keep[1]]) for v in a3]
    (ax, ay), (bx, by), (cx, cy) = p2[:3]
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if P.kernel == G.DOUBLE:
        diam2 = max((p[0] - q[0]) * (p[0] - q[0]) + (p[1] - q[1]) * (p[1] - q[1])
                    for p in p2 for q in p2)
        if abs(det) <= TRIPLE_AREA_REL * diam2:
            raise NumericalDegeneracy("no affinely independent facet triple",
                                      offending=list(cycle))
    k = P.n_pairs
    zero = Fraction(0) if P.kernel == G.RATIONAL else 0.0
    rows = []
    for u, (px, py) in zip(cycle[3:], p2[3:]):
        l2 = ((px - ax) * (cy - ay) - (py - ay) * (cx - ax)) / det
        l3 = ((bx - ax) * (py - ay) - (by - ay) * (px - ax)) / det
        l1 = 1 - l2 - l3
        row = [zero] * k
        for v, coef in ((u, 1), (cycle[0], -l1), (cycle[1], -l2),
                        (cycle[2], -l3)):
            if v < k:
                row[v] = row[v] + coef
            else:
                row[v - k] = row[v - k] - coef
        rows.append(row)
    return rows


def _constraint_rows(P, parallel, facet_rows):
    """Reduced constraint rows of the admissibility system: those of every
    facet pair not in ``parallel``, in facet order.  ``facet_rows`` keeps
    each pair's rows for the rest of the caller's work: a facet is solved
    at most once, and only when some direction's rows include it."""
    rows = []
    for g in range(P.lattice.F // 2):
        if g not in parallel:
            if g not in facet_rows:
                facet_rows[g] = _facet_rows(P, g)
            rows.extend(facet_rows[g])
    return rows


def _rational_nullspace(rows, n):
    M = [list(r) for r in rows]
    piv_cols = []
    r = 0
    for c in range(n):
        p = None
        for i in range(r, len(M)):
            if M[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = M[r][c]
        M[r] = [x / inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                fct = M[i][c]
                M[i] = [x - fct * y for x, y in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
        if r == len(M):
            break
    free = [c for c in range(n) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -M[i][fc]
        basis.append(v)
    return basis


def _lift(beta):
    return SpeedVector(alpha=tuple(list(beta) + [-b for b in beta]))


def _max_violation(rows, beta, exact):
    worst = Fraction(0) if exact else 0.0
    for row in rows:
        v = sum(c * b for c, b in zip(row, beta))
        worst = max(worst, abs(v))
    return worst


def _solve_space(P, rows, trivial):
    """The admissible basis for one set of constraint rows, after checking
    that the trivial speeds satisfy the rows."""
    k = P.n_pairs
    exact = P.kernel == G.RATIONAL
    if exact:
        beta_basis = _rational_nullspace(rows, k)
    else:
        if rows:
            # Facet planes of double-kernel bodies (polars in particular) are
            # planar only to ~1e-10 of scale, which leaks into the rows as
            # tiny spurious singular values; a machine-precision rank cutoff
            # would count them and shrink the nullspace below the trivial
            # speeds.  Rank therefore uses a loose relative cutoff, and the
            # trivial-containment check below guards the other direction.
            _, s, vt = np.linalg.svd(np.array(rows, dtype=float))
            rank = int(np.sum(s > 1e-8 * s.max()))
            beta_basis = [tuple(v) for v in vt[rank:]]
        else:
            eye = np.eye(k)
            beta_basis = [tuple(eye[:, j]) for j in range(k)]
    basis = tuple([_lift(b) for b in beta_basis])
    if exact:
        lim = None
    else:
        # Barycentric weights in the rows amplify facet non-planarity: a
        # skewed quad planar to ~1e-9 of scale can push a trivial speed's
        # residual to ~1e-7.  A genuine wiring bug produces O(1) residuals,
        # so the guard sits between the two regimes.
        row_mag = max((max(abs(c) for c in r) for r in rows), default=1.0)
        lim = 1e-6 * max(1.0, row_mag)
    for tv in trivial:
        res = _max_violation(rows, tv.alpha[:k], exact)
        bad = (res != 0) if lim is None else (res > lim * max(1.0, tv.max_abs()))
        if bad:
            raise InternalInconsistency(
                f"trivial speed violates admissibility rows (residual {res})")
    if len(basis) < 3:
        raise InternalInconsistency(f"admissible dimension {len(basis)} < 3")
    return basis


def admissible_spaces(P, thetas, skip=()):
    """One SpeedSpace per direction of ``thetas``: the linear space of
    theta-admissible symmetric speeds, as a basis of full-length
    SpeedVectors together with the trivial (globally affine) basis from
    w = e1, e2, e3.

    Facets parallel to theta contribute no rows; every other facet, one per
    antipodal pair, pins each corner beyond the first three of its cycle to
    the affine interpolation through those three, which are affinely
    independent because the cycle lists strict corners in order.  Rational
    kernel: exact nullspace by fraction-free elimination.  Double kernel:
    SVD nullspace.

    The space depends on theta only through ``parallel_facets``, so each
    distinct parallel set is solved once and its spaces share one basis.
    The sets of all directions are decided together by ``_parallel_sets``,
    one array expression with the elementwise order of a single test.  A
    direction whose parallel set or constraint rows raise an error of a
    type in ``skip`` gets None in place of its space; an ambiguous
    direction whose error is not skipped raises, in direction order.
    """
    thetas = [direction(th) for th in thetas]
    sets = _parallel_sets(P, _facet_normals(P), thetas, skip)
    if P.kernel == G.RATIONAL:   # the columns: 1 x + 0 y + 0 z is x
        trivial = tuple([SpeedVector(alpha=c) for c in zip(*P.vertices)])
    else:
        trivial = tuple([trivial_speed(P, w)
                         for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
    facet_rows = {}
    bases = {None: None}  # a skipped direction's set None gets no space
    for S in sets:
        if S not in bases:
            try:
                rows = _constraint_rows(P, S, facet_rows)
            except skip:
                bases[S] = None
                continue
            bases[S] = _solve_space(P, rows, trivial)
    return [None if bases[S] is None else
            SpeedSpace(base=P, theta=th, basis=bases[S], trivial_basis=trivial,
                       dim=len(bases[S]), parallel=S)
            for th, S in zip(thetas, sets)]


def admissible_space(P, theta):
    """The admissible space of one direction: ``admissible_spaces`` of
    ``[theta]``."""
    return admissible_spaces(P, [theta])[0]


def admissibility_residual(P, theta, alpha):
    """Max violation of the admissibility rows by ``alpha`` (0 means member)."""
    theta = direction(theta)
    alpha = speed_vector(P, alpha)
    rows = _constraint_rows(P, parallel_facets(P, theta), {})
    return _max_violation(rows, alpha.alpha[:P.n_pairs],
                          P.kernel == G.RATIONAL)


def _trivial_frame(P):
    """An orthonormal basis, by float QR, of the trivial span of ``P`` in
    reduced pair coordinates: a (V/2, 3) array.  The trivial speeds from
    w = e1, e2, e3 are the coordinate columns, so the QR reads them from
    ``P.as_array()``."""
    return np.linalg.qr(P.as_array()[:P.n_pairs])[0]


def _off_frame(frame, b):
    """The float residual r = b - Q (Q^T b) of ``b`` off the orthonormal
    columns Q of ``frame``, and ||r|| if it exceeds 1e-9 x ||b||, else 0.0:
    the one triviality rule, on both kernels, is that a speed is
    non-trivial exactly when the second value is positive."""
    r = b - frame @ (frame.T @ b)
    n = float(np.linalg.norm(r))
    return r, n if n > 1e-9 * float(np.linalg.norm(b)) else 0.0


def _sumprod(a, b):
    return sum(map(operator.mul, a, b))


def _off_trivial(S, speeds):
    """Each speed minus its exact orthogonal projection onto the trivial
    span of ``S``, as a list of Fractions in reduced pair coordinates.

    On integer images (``hull._integer_points``): T holds the three trivial
    speeds and v a speed, each scaled to integers, and the residual is
    v - T^T G^-1 T v for the Gram matrix G = T T^T, solved once through its
    adjugate, so that each component is one Fraction over det(G) times the
    scale of v.  The projection onto a span is unique, so this is exactly
    the Gram-Schmidt residual.  A singular G raises InternalInconsistency.
    """
    k = S.base.n_pairs
    T = _integer_points([tv.alpha[:k] for tv in S.trivial_basis])[0]
    gram = [[_sumprod(r, c) for c in T] for r in T]
    adj = [[gram[(i + 1) % 3][(j + 1) % 3] * gram[(i + 2) % 3][(j + 2) % 3]
            - gram[(i + 1) % 3][(j + 2) % 3] * gram[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)] for i in range(3)]   # gram is symmetric
    det = _sumprod(gram[0], adj[0])
    if det == 0:
        raise InternalInconsistency("the trivial speeds are linearly dependent")
    out = []
    for sv in speeds:
        (v,), dv = _integer_points([sv.alpha[:k]])
        Tv = [_sumprod(r, v) for r in T]
        y0, y1, y2 = [_sumprod(a, Tv) for a in adj]
        den = det * dv
        out.append([Fraction(det * x - (y0 * t0 + y1 * t1 + y2 * t2), den)
                    for x, t0, t1, t2 in zip(v, *T)])
    return out


def is_trivial(S, alpha):
    """Whether ``alpha`` lies in the span of the globally affine speeds: by
    ``_off_frame``, whether its float residual off that span is at most
    1e-9 x ||alpha||."""
    alpha = speed_vector(S.base, alpha)
    return not _off_frame(_trivial_frame(S.base),
                          alpha.as_array()[:S.base.n_pairs])[1]


def nontrivial_component(S, alpha):
    """The component of ``alpha`` orthogonal to the trivial span (float)."""
    r = _off_frame(_trivial_frame(S.base),
                   speed_vector(S.base, alpha).as_array()[:S.base.n_pairs])[0]
    return np.concatenate([r, -r])


def nontrivial_speed(S):
    """The largest projection of the admissible basis of ``S`` off the
    trivial span, scaled to max |alpha_i| = 1, or None when ``is_trivial``
    accepts every basis vector.

    The basis is ranked by the residual norms of ``_off_frame`` on both
    kernels.  The rational kernel projects exactly (``_off_trivial``) only
    the vectors within 1e-9 relative of the largest and keeps the first of
    the largest exact squared norm, so the speed is exactly admissible (None
    if all of them project to zero).
    """
    k = S.base.n_pairs
    frame = _trivial_frame(S.base)
    res, norms = zip(*[_off_frame(frame, b.as_array()[:k]) for b in S.basis])
    top = max(norms)
    if top == 0:
        return None
    if S.base.kernel == G.RATIONAL:
        near = [b for b, n in zip(S.basis, norms) if n >= top - 1e-9 * top]
        best = max(_off_trivial(S, near), key=lambda r: _sumprod(r, r))
        if not any(best):
            return None
    else:
        best = res[norms.index(top)].tolist()
    mx = max(abs(x) for x in best)
    return _lift([x / mx for x in best])


def deform(P, theta, alpha, t):
    """conv{x_i + t alpha_i u} for u along theta, rebuilt with labels kept.

    u is the exact near-unit carrier in rational mode and the float unit
    vector in double mode.  Oddness makes the result origin-symmetric; the
    vertex list shrinks if a moved point stops being extreme (callers detect
    that through lattice comparison).
    """
    theta = direction(theta)
    alpha = speed_vector(P, alpha)
    t = G._as_coord(t, P.kernel)
    u = theta.carrier if P.kernel == G.RATIONAL else theta.theta
    reps = []
    for i in P.rep_indices():
        x = P.vertices[i]
        a = alpha.alpha[i]
        reps.append((x[0] + t * a * u[0], x[1] + t * a * u[1], x[2] + t * a * u[2]))
    try:
        return G.from_representatives(reps, P.kernel)
    except DegenerateInput as e:
        raise DegenerateDeformation(f"deformation at t = {float(t)} collapsed: {e}")


@dataclass(frozen=True)
class ShadowSystem:
    """A certified deformation family: base polytope, direction, admissible
    speed, and persistence half-width c (the face lattice holds on [-c, c])."""
    base: object
    theta: Direction
    alpha: SpeedVector
    c: float


def shadow_system(P, theta, alpha, c=None):
    theta = direction(theta)
    alpha = speed_vector(P, alpha)
    if c is None:
        c = persistence_interval(P, theta, alpha)
    c = G._as_coord(c, G.DOUBLE)
    if c <= 0:
        raise InputError("persistence half-width must be positive")
    return ShadowSystem(base=P, theta=theta, alpha=alpha, c=c)


def _lattice_holds(P, theta, alpha, t):
    try:
        Q = deform(P, theta, alpha, t)
    except (DegenerateDeformation, NumericalDegeneracy):
        return False
    return G.same_labeled_lattice(P.lattice, Q.lattice)


def _affine_planes(P, theta, alpha, exact):
    """The system y_i = x_i + t alpha_i u on the fixed lattice of ``P`` as
    ``(n0, n1, h0, h1, s0, s1, incident, unit)``, one row per facet pair
    f < F/2 (the antipode reads the same functions negated).  Facet f lies
    on {x : (n0 + t n1).x = h0 + t h1}, with its Newell normal and its mean
    offset over the cycle, vertex j is s0 + t s1 above that plane, and
    ``incident[f, j]`` marks the corners of f.

    As y_i x y_{i+1} = x_i x x_{i+1} + t (alpha_{i+1} x_i - alpha_i x_{i+1})
    x u, the u x u term vanishing, n1 is orthogonal to u, and the offsets
    and support functions lose their t^2 terms.  Floats of ``P.as_array()``
    and theta, or with ``exact`` the rational coordinates, speed and carrier
    scaled to Python integers, in units of t = ``unit``.
    """
    cycles = P.lattice.facet_cycles[:P.lattice.F // 2]
    m = [len(c) for c in cycles]
    if exact:   # x = X/dx, alpha = a/da, u = U/du: dx y = X + (t/unit) a U
        (X, dx), ((a,), da), ((u,), du) = [_integer_points(v) for v in (
            P.vertices, [alpha.alpha], [theta.carrier])]
        X, a, u = (np.array(v, dtype=object) for v in (X, a, u))
        sizes = np.array([Fraction(k) for k in m], dtype=object)
        unit = Fraction(da * du, dx)
    else:
        X, a, u = P.as_array(), alpha.as_array(), np.array(theta.theta)
        sizes, unit = np.array(m), 1.0
    flat = np.concatenate(cycles)
    succ = np.concatenate([c[1:] + c[:1] for c in cycles])
    starts = np.cumsum([0] + m[:-1])
    owner = np.repeat(np.arange(len(m)), m)
    p, q = X[flat], X[succ]
    n0 = np.add.reduceat(np.cross(p, q), starts)
    n1 = np.add.reduceat(np.cross(a[succ, None] * p - a[flat, None] * q, u),
                         starts)
    nu = n0 @ u
    h0 = np.add.reduceat((n0[owner] * p).sum(axis=1), starts) / sizes
    h1 = (np.add.reduceat((n1[owner] * p).sum(axis=1), starts)
          + nu * np.add.reduceat(a[flat], starts)) / sizes
    incident = np.zeros((len(m), P.V), dtype=bool)
    incident[owner, flat] = True
    return (n0, n1, h0, h1, n0 @ X.T - h0[:, None],
            n1 @ X.T + np.outer(nu, a) - h1[:, None], incident, unit)


def _roots(P, planes, exact):
    """``persistence_root`` read from ``_affine_planes``."""
    n0, _, _, _, s0, s1, incident, unit = planes
    drifting, crossing = incident & (s1 != 0), ~incident & (s1 != 0)
    if exact and drifting.any():
        f, j = np.argwhere(drifting)[0]
        raise NoPersistence(f"vertex {j} leaves the plane of facet {f}; the "
                            "speed is not admissible for this direction")
    roots = -s0[crossing] / s1[crossing]
    if not exact:
        drift = (DIST_TOL_REL * np.abs(P.as_array()).max()
                 * np.linalg.norm(n0, axis=1)[np.nonzero(drifting)[0]]
                 / np.abs(s1[drifting]))
        roots = np.concatenate([roots, -drift, drift])
    below, above = roots[roots < 0], roots[roots >= 0]
    lo = below.max() * unit if below.size else None
    hi = above.min() * unit if above.size else None
    return (lo, hi) if exact else tuple(
        [None if r is None else float(r) for r in (lo, hi)])


def persistence_root(P, theta, alpha):
    """The breakpoints ``(t_minus, t_plus)``, t_minus < 0 < t_plus, nearest
    0 on each side at which the labeled face lattice of the deformation
    stops being certified; a side where nothing binds reads None.

    The lattice holds while every incident support function s0 + t s1 of
    ``_affine_planes`` stays 0 and every other keeps its sign, so each
    non-incident one bounds the side of its zero -s0/s1 (a corner that
    straightens puts a neighbour on an adjacent facet plane, so corners
    need no test).  Rational kernel: exact Fractions, and an incident
    vertex with s1 != 0 raises NoPersistence.  Double kernel: an incident
    vertex bounds both sides by the drift dist_tol |n0| / |s1| within which
    it stays on its facet plane.
    """
    exact = P.kernel == G.RATIONAL
    return _roots(P, _affine_planes(P, direction(theta),
                                    speed_vector(P, alpha), exact), exact)


def persistence_interval(P, theta, alpha):
    """A certified half-width c > 0 on which the deformation keeps the
    labeled face lattice of ``P``.

    The width is analytic: c = 0.9 min(|t_minus|, |t_plus|) over the
    breakpoints of ``persistence_root``, capped at ``DEFAULT_C_MAX`` (the
    cap itself when no support function ever binds, as for a zero speed).  As
    an independent check the body is re-hulled at t = +-c; while the lattice
    differs there, c halves, and NoPersistence is raised once it falls below
    1e-12, which signals a non-admissible speed.
    """
    theta = direction(theta)
    alpha = speed_vector(P, alpha)
    c = DEFAULT_C_MAX
    for root in persistence_root(P, theta, alpha):
        if root is not None:
            c = min(0.9 * abs(float(root)), c)
    while c >= 1e-12:
        if _lattice_holds(P, theta, alpha, c) and \
                _lattice_holds(P, theta, alpha, -c):
            return c
        c *= 0.5
    raise NoPersistence(
        "no positive persistence width down to 1e-12; speed is likely "
        "not admissible for this direction")


def _products(P, planes, ts):
    """|P_t| |P_t polar| over the float vector ``ts`` from float
    ``_affine_planes``, +inf where an offset is not positive.  The Newell
    normal is twice the area vector, so |P_t| is a third of the offset sum
    over the facet pairs; polar vertex f is n/h, fanned over the vertex
    rings.  A collapsing facet has n = (t - t*) n1 and h = (t - t*) h1, so
    where n vanishes its polar vertex is the limit n1/h1.
    """
    n0, n1, h0, h1 = planes[:4]
    ts = np.atleast_1d(np.asarray(ts, dtype=float))[:, None]
    h, n = h0 + ts * h1, n0 + ts[:, :, None] * n1        # (T, F/2 [, 3])
    norm = np.linalg.norm
    collapsed = norm(n, axis=2) <= 1e-12 * (norm(n0, axis=1)
                                            + np.abs(ts) * norm(n1, axis=1))
    tri = np.array([(cyc[0], cyc[k], cyc[k + 1])
                    for cyc in P.lattice.vertex_facet_cycles()
                    for k in range(1, len(cyc) - 1)]).T
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(collapsed[:, :, None], n1 / h1[:, None],
                     n / h[:, :, None])
        q = np.concatenate([q, -q], axis=1)[:, tri]      # (T, 3, tris, 3)
        polar = (q[:, 0] * np.cross(q[:, 1], q[:, 2])).sum(axis=(1, 2)) / 6
        prod = h.sum(axis=1) / 3 * np.abs(polar)
    ok = ((h > 0) | collapsed).all(axis=1) & np.isfinite(prod)
    return np.where(ok, prod, np.inf)


def frozen_product(P, theta, alpha):
    """Closure ts -> array of |P_t| |P_t polar| over a vector of t, with the
    labeled face lattice of ``P`` held fixed: ``_products`` of the float
    ``_affine_planes``, on either kernel.  Valid on the closed interval
    between the breakpoints of ``persistence_root``, where the body is the
    limit of the frozen one.  On fixed cycles the volume is affine by
    construction, so the trajectory checkers re-hull instead.
    """
    planes = _affine_planes(P, direction(theta), speed_vector(P, alpha),
                            False)
    return lambda ts: _products(P, planes, ts)


def sample_grid(c, samples, exact):
    """``samples`` evenly spaced t from -c to c: exact Fractions with
    ``exact``, floats otherwise.  Fewer than 2 samples, or a half-width c
    that is not positive, as in ``shadow_system``, raise InputError."""
    if samples < 2:
        raise InputError(f"need at least 2 samples, got {samples}")
    if c <= 0:
        raise InputError("persistence half-width must be positive")
    if exact:
        c = Fraction(c)
        return [-c + 2 * c * Fraction(i, samples - 1) for i in range(samples)]
    return [float(t) for t in np.linspace(-float(c), float(c), samples)]


def check_volume_affine(S, samples=9):
    """Sample |P_t| on [-c, c] and verify t -> volume is affine.

    Fits a quadratic; the quadratic term's contribution over the interval
    must stay below 1e-8 of the linear scale.  On the rational kernel the
    second differences of the exact volumes must vanish identically.  Every
    sample is a full re-hull: over the frozen cycles of ``frozen_product``
    the volume is affine by construction, so the check would prove nothing.
    """
    if samples < 3:
        raise InputError("need at least 3 samples")
    P, theta, alpha, c = S.base, S.theta, S.alpha, S.c
    exact = P.kernel == G.RATIONAL
    ts = sample_grid(c, samples, exact)
    vols = [G.volume(deform(P, theta, alpha, t)) for t in ts]

    tf = np.array([float(t) for t in ts])
    vf = np.array([float(v) for v in vols])
    a2, a1, a0 = np.polyfit(tf, vf, 2)
    fit = np.polyval([a2, a1, a0], tf)
    max_res = float(np.abs(fit - vf).max())
    lin_scale = max(abs(a0), abs(a1) * c)
    quad_effect = abs(a2) * c * c

    if exact:
        second = [vols[i + 1] - 2 * vols[i] + vols[i - 1]
                  for i in range(1, samples - 1)]
        if any(s != 0 for s in second):
            worst = max(abs(s) for s in second)
            raise AffinenessViolation(
                f"exact second difference {worst} != 0 along shadow system")
    elif quad_effect > 1e-8 * lin_scale:
        raise AffinenessViolation(
            f"quadratic term {quad_effect:.3e} exceeds 1e-8 x linear scale "
            f"{lin_scale:.3e} (max residual {max_res:.3e})")
    return {"slope": float(a1), "intercept": float(a0),
            "quad_coeff": float(a2), "max_residual": max_res,
            "samples": samples, "c": float(c), "exact": exact}


def check_inverse_polar_convexity(S, samples=9):
    """Sample f(t) = 1/|P_t polar| on [-c, c] and verify convexity through
    second differences (exact nonnegativity on the rational kernel, else
    >= -1e-8 x max|f|).  Every sample is a full re-hull, independent of the
    frozen-lattice evaluator that the descent scores its moves with."""
    if samples < 5:
        raise InputError("need at least 5 samples")
    P, theta, alpha, c = S.base, S.theta, S.alpha, S.c
    exact = P.kernel == G.RATIONAL
    ts = sample_grid(c, samples, exact)
    fs = []
    for t in ts:
        Q = deform(P, theta, alpha, t)
        fs.append(1 / G.volume(PO.polar(Q)))
    second = [fs[i + 1] - 2 * fs[i] + fs[i - 1] for i in range(1, samples - 1)]
    fmax = max(abs(float(f)) for f in fs)
    min_d2 = min(float(s) for s in second)
    if exact:
        if any(s < 0 for s in second):
            raise ConvexityViolation(
                f"exact negative second difference {min(second)} in 1/|P_t polar|")
    elif min_d2 < -1e-8 * fmax:
        raise ConvexityViolation(
            f"second difference {min_d2:.3e} below -1e-8 x max|f| = {-1e-8 * fmax:.3e}")
    return {"min_second_diff": min_d2, "max_f": fmax,
            "samples": samples, "c": float(c), "exact": exact}
