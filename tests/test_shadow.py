from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import mahler3d as M
from mahler3d import hull
from mahler3d.errors import (DegenerateDeformation, InputError,
                             InternalInconsistency, NoPersistence,
                             NumericalDegeneracy, ParallelismAmbiguity)

import oracles
from conftest import (CUBE_REPS, CUBOCTA_REPS, HEX_PRISM_REPS, OCTA_REPS,
                      sym)


def test_direction_normalizes_and_rejects_zero():
    d = M.direction((3, 0, 4))
    assert np.allclose(d.theta, (0.6, 0.0, 0.8))
    carrier = np.array([float(c) for c in d.carrier])
    assert np.linalg.norm(carrier) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError):
        M.direction((0, 0, 0))


def _direction_inputs(rng):
    """Triples of floats with exponents -150..150, ints, Fractions and
    decimal strings, with exact rescalings and re-typings of some of them
    so that equal directions occur."""
    def flt():
        return float(rng.choice((-1.0, 1.0)) * rng.random()
                     * 2.0 ** int(rng.integers(-150, 151)))
    floats = [tuple(flt() for _ in range(3)) for _ in range(300)]
    floats += [(flt(), 0.0, flt()), (0.0, -0.0, flt())]
    ints = [tuple(int(x) for x in rng.integers(-10 ** 6, 10 ** 6, 3))
            for _ in range(40)] + [(3, 0, 4), (0, 0, -7)]
    fracs = [tuple(Fraction(int(n), int(d)) for n, d in zip(
        rng.integers(-999, 1000, 3), rng.integers(1, 1000, 3)))
        for _ in range(40)]
    strs = [tuple(f"{int(m)}.{int(f):03d}e{int(e)}" for m, f, e in zip(
        rng.integers(-9999, 10000, 3), rng.integers(0, 1000, 3),
        rng.integers(-40, 41, 3))) for _ in range(40)]
    same = [tuple(float(x) for x in v) for v in ints[:10]]
    same += [tuple(str(x) for x in v) for v in ints[:10]]
    same += [tuple(Fraction(x) for x in v) for v in floats[:10]]
    same += [tuple(4 * x for x in v) for v in floats[:10] + ints[:10]]
    same += [tuple(3 * x for x in v) for v in ints[:10]]
    inputs = floats + ints + fracs + strs + same
    return [v for v in inputs if any(Fraction(x) for x in v)]


def test_direction_matches_the_fraction_oracle():
    inputs = _direction_inputs(np.random.default_rng(17))
    got = [M.direction(v) for v in inputs]
    ref = [oracles.direction_fractions(v) for v in inputs]
    for g, r in zip(got, ref):
        assert [t.hex() for t in g.theta] == [t.hex() for t in r.theta]
        assert g.carrier == r.carrier
        assert hash(g) == hash(r)
    equal = [(i, j) for i, g in enumerate(got) for j, h in enumerate(got)
             if g == h]
    assert equal == [(i, j) for i, g in enumerate(ref)
                     for j, h in enumerate(ref) if g == h]
    assert len(equal) >= len(got) + 40


def test_direction_normalises_every_finite_vector():
    for v in [(1e-200, 0, 0), (1e-170, 1e-170, 0), (1e200, 0.0, 0),
              (1e-160, -1e-160, 0.0), (5e-324, 0.0, -5e-324),
              (1.7e308, -1.7e308, 1.7e308), (Fraction(10 ** 400), 1, 0),
              ("1e-500", "-1e-500", 0), (1e-300, 1.0, 1e300)]:
        d = M.direction(v)
        exact = [Fraction(x) for x in v]
        ref = np.array([float(x / max(abs(y) for y in exact)) for x in exact])
        assert np.allclose(d.theta, ref / np.linalg.norm(ref), rtol=1e-15,
                           atol=1e-300)
        # the carrier lies on the ray of v, near unit length
        assert all(c * y == e * x for c, e in zip(d.carrier, exact)
                   for x, y in zip(d.carrier, exact))
        assert sum(c * e for c, e in zip(d.carrier, exact)) > 0
        assert float(sum(c * c for c in d.carrier)) == pytest.approx(1.0)
    for v in [(float("nan"), 0, 0), (0.0, float("inf"), 1.0),
              (1.0, 0.0, -float("inf")), ("nan", 1, 0), ("1/0", 1, 0),
              (0.0, -0.0, 0), ("0", 0, Fraction(0))]:
        with pytest.raises(InputError):
            M.direction(v)


def test_speed_vector_enforces_oddness(cube_r):
    with pytest.raises(InputError):
        M.speed_vector(cube_r, [1] * cube_r.V)
    alpha = M.speed_vector(cube_r, [1, 2, 3, 4, -1, -2, -3, -4])
    assert alpha.alpha[4] == -alpha.alpha[0]


def test_trivial_speeds_always_admissible(cube_r, cubocta_d):
    for P in (cube_r, cubocta_d):
        th = M.direction((3, 5, 7))
        S = M.admissible_space(P, th)
        for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            tv = M.trivial_speed(P, w)
            res = M.admissibility_residual(P, th, tv)
            assert float(res) <= 1e-9
            assert M.is_trivial(S, tv)


def test_trivial_basis_is_the_trivial_speeds(cube_r, cubocta_r, octa_d,
                                            cubocta_d, corpus50):
    # repr tells a -0.0 from a 0.0, so the bare coordinate columns would
    # fail on the double kernel: cubocta_d has vertices such as
    # (-1.0, 1.0, -0.0), whose e3 speed sums to 0.0
    snapped = [M.snap_to_rational(P) for P in corpus50[:10]]
    for P in [cube_r, cubocta_r, M.polar(cubocta_r), octa_d, cubocta_d] \
            + snapped + [M.polar(P) for P in snapped]:
        want = tuple([M.trivial_speed(P, w)
                      for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
        S = M.admissible_space(P, (3, 5, 7))
        assert repr(S.trivial_basis) == repr(want)


def test_facet_rows_match_cramer_coordinates(cube_r, octa_r, cubocta_r,
                                             hex_prism_r, corpus50):
    named = [cube_r, octa_r, cubocta_r, hex_prism_r]
    bodies = named + [M.snap_to_rational(P) for P in corpus50] \
        + [M.to_double(P) for P in named] + corpus50
    rows = {M.RATIONAL: 0, M.DOUBLE: 0}
    for P in bodies + [M.polar(P) for P in bodies]:
        lat = P.lattice
        for g in range(lat.F // 2):
            got = M.shadow._facet_rows(P, g)
            want = oracles.facet_rows_cramer(P.vertices, lat.facet_cycles[g],
                                             P.n_pairs)
            assert len(got) == len(want) == lat.m(g) - 3
            if P.kernel == M.RATIONAL:
                assert got == want
            else:
                for a, b in zip(got, want):
                    err = np.abs(np.subtract(a, b)).max()
                    assert err <= 1e-12 * np.abs(b).max()
            rows[P.kernel] += len(got)
    assert min(rows.values()) > 100


def test_admissible_dims_fixtures(cube_r, cube_d, octa_r, cubocta_r,
                                  cubocta_d):
    cases = [
        (cube_r, (1, 1, 1), 3),
        (cube_d, (1, 1, 1), 3),
        (octa_r, (3, 5, 7), 3),
        (cubocta_r, (1, 1, 0), 4),   # parallel to a square facet pair
        (cubocta_d, (1, 1, 0), 4),
        (cubocta_r, (3, 5, 7), 3),
    ]
    for P, vec, dim in cases:
        th = M.direction(vec if P.kernel == M.RATIONAL
                         else tuple(float(x) for x in vec))
        assert M.admissible_space(P, th).dim == dim


def test_admissible_dim_matches_dense_oracle(cube_d, cubocta_d, corpus50):
    rng = np.random.default_rng(5)
    bodies = [cube_d, cubocta_d] + corpus50[:8]
    for P in bodies:
        v = tuple(float(x) for x in rng.integers(-9, 10, 3))
        if not any(v):
            v = (1.0, 2.0, 3.0)
        got = M.admissible_space(P, M.direction(v)).dim
        # oracle solutions are full-length but odd, one per reduced vector
        ref = oracles.admissible_dim_oracle(P.as_array(), v)
        assert got == ref


def test_nontrivial_certification_cubocta(cubocta_r):
    th = M.direction((1, 1, 0))
    S = M.admissible_space(cubocta_r, th)
    extra = [b for b in S.basis if not M.is_trivial(S, b)]
    assert extra
    comp = M.nontrivial_component(S, extra[0])
    assert np.abs(np.asarray(comp, dtype=float)).max() > 1e-6
    alpha = M.shadow.nontrivial_speed(S)
    assert all(isinstance(a, Fraction) for a in alpha.alpha)
    assert M.admissibility_residual(cubocta_r, th, alpha) == 0
    assert max(abs(a) for a in alpha.alpha) == 1
    assert any(M.shadow._off_trivial(S, [alpha])[0])
    assert not M.is_trivial(S, alpha)


def test_one_triviality_rule_just_off_the_trivial_span(cube_d):
    # a basis vector off the trivial span by 5e-9, about 2.5e-9 of its
    # norm: non-trivial by the relative rule, while a cutoff on the
    # absolute residual norm, such as 1e-8, would take it as trivial
    S = M.admissible_space(cube_d, (3, 5, 7))
    k = cube_d.n_pairs
    off = M.nontrivial_component(S, M.shadow._lift([1.0, 0, 0, 0]))
    off = off[:k] / np.linalg.norm(off[:k])
    near = list(S.trivial_basis[0].as_array()[:k] + 5e-9 * off)
    b = M.shadow._lift(near)
    rel = np.linalg.norm(M.nontrivial_component(S, b)) / np.linalg.norm(
        b.as_array())
    assert 1e-9 < rel < 1e-8
    T = M.shadow.SpeedSpace(base=cube_d, theta=S.theta,
                            basis=S.trivial_basis + (b,),
                            trivial_basis=S.trivial_basis, dim=4,
                            parallel=S.parallel)
    assert not M.is_trivial(T, b)
    alpha = M.nontrivial_speed(T)
    assert alpha is not None and not M.is_trivial(T, alpha)
    assert np.allclose(np.abs(alpha.as_array()[:k]),
                       np.abs(off) / np.abs(off).max())


def _named_and_corpus_bodies(corpus50):
    """The named bodies and ``corpus50``, on both kernels, with their
    polars."""
    bodies = []
    for kernel in (M.RATIONAL, M.DOUBLE):
        bodies += [sym(r, kernel) for r in (CUBE_REPS, OCTA_REPS,
                                            CUBOCTA_REPS, HEX_PRISM_REPS)]
    bodies += corpus50 + [M.snap_to_rational(P) for P in corpus50]
    return bodies + [M.polar(P) for P in bodies]


def test_nontrivial_speed_follows_is_trivial(corpus50):
    # one rule: nontrivial_speed is None exactly when is_trivial accepts
    # every basis vector, the dimension witness is the first basis vector
    # it rejects, and the rational speed is the exact projection of largest
    # squared norm over the whole basis, the first on ties
    def sq(r):
        return sum(x * x for x in r)
    seen = {M.RATIONAL: 0, M.DOUBLE: 0}
    for P in _named_and_corpus_bodies(corpus50):
        i, j = P.lattice.edges[0]
        thetas = [(3, 5, 7), hull.sub(P.vertices[j], P.vertices[i])]
        for rep in M.dimension_bounds(P, thetas):
            S = rep.space
            rejected = [b for b in S.basis if not M.is_trivial(S, b)]
            alpha = M.nontrivial_speed(S)
            assert (alpha is None) == (not rejected)
            if rep.witness_speed is not None:
                assert rep.witness_speed is rejected[0]
            if alpha is None:
                continue
            seen[P.kernel] += 1
            assert not M.is_trivial(S, alpha)
            assert max(abs(a) for a in alpha.alpha) == 1
            if P.kernel == M.RATIONAL:
                best = max(M.shadow._off_trivial(S, S.basis), key=sq)
                mx = max(abs(x) for x in best)
                assert alpha == M.shadow._lift([x / mx for x in best])
    assert min(seen.values()) > 50


def test_trivial_frame_is_the_qr_of_the_trivial_speeds(corpus50):
    # the trivial speeds from w = e1, e2, e3 are the coordinate columns, so
    # the frame read from the float image is the QR of the stacked speeds
    k3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for P in _named_and_corpus_bodies(corpus50):
        T = np.stack([M.trivial_speed(P, w).as_array()[:P.n_pairs]
                      for w in k3], axis=1)
        assert np.array_equal(M.shadow._trivial_frame(P), np.linalg.qr(T)[0])


def test_double_facet_normals_are_the_stored_unit_normals(corpus50):
    rng = np.random.default_rng(7)
    bodies = [P for P in _named_and_corpus_bodies(corpus50)
              if P.kernel == M.DOUBLE]
    for P in bodies:
        stored = np.array([n for n, _ in P.lattice.facet_planes])
        assert np.all(np.abs(np.linalg.norm(stored, axis=1) - 1) <= 1e-15)
        N = M.shadow._facet_normals(P)
        assert np.array_equal(N, stored[:P.lattice.F // 2].T)
        # renormalising them moves no parallelism decision
        renormed = N / np.linalg.norm(N, axis=0)
        i, j = P.lattice.edges[0]
        thetas = ([M.direction(v) for v in rng.normal(size=(8, 3)).tolist()]
                  + [M.direction(hull.sub(P.vertices[j], P.vertices[i]))])
        assert (M.shadow._parallel_sets(P, N, thetas, ParallelismAmbiguity)
                == M.shadow._parallel_sets(P, renormed, thetas,
                                           ParallelismAmbiguity))


def test_deform_identity_at_zero(cubocta_r):
    th = M.direction((1, 1, 0))
    alpha = M.trivial_speed(cubocta_r, (1, 0, 0))
    Q = M.deform(cubocta_r, th, alpha, 0)
    assert Q.vertices == cubocta_r.vertices


def test_deform_preserves_lattice_small_t(cubocta_d):
    th = M.direction((1.0, 1.0, 0.0))
    S = M.admissible_space(cubocta_d, th)
    for alpha in S.basis:
        Q = M.deform(cubocta_d, th, alpha, 1e-3)
        assert M.same_labeled_lattice(Q.lattice, cubocta_d.lattice)


@pytest.mark.parametrize("kernel", [M.RATIONAL, M.DOUBLE])
def test_deform_to_breakpoint_merges_vertices(kernel):
    # Both breakpoints of this system move vertex 1 onto -vertex 5; the
    # merged body is the one build_sym_polytope makes of the same points.
    P = M.build_sym_polytope(CUBOCTA_REPS, kernel=kernel)
    space = M.admissible_space(P, (1, 1, 0))
    alpha = M.nontrivial_speed(space)
    for t in M.persistence_root(P, space.theta, alpha):
        Q = M.deform(P, space.theta, alpha, t)
        R = M.build_sym_polytope([Q.vertices[i] for i in Q.rep_indices()],
                                 kernel=kernel)
        assert Q.V == R.V == 8
        prod = M.volume_product(Q).product
        assert prod == pytest.approx(float(M.volume_product(R).product),
                                     rel=1e-12)
        assert prod == pytest.approx(100 / 9, rel=1e-12)
        if kernel == M.RATIONAL:
            assert prod == Fraction(100, 9)


def test_deform_collapse_raises(cube_r):
    # alpha_i = x_i with theta = -e1 flattens the body at t = 1
    th = M.direction((-1, 0, 0))
    alpha = M.trivial_speed(cube_r, (1, 0, 0))
    with pytest.raises(DegenerateDeformation):
        M.deform(cube_r, th, alpha, 1)


def test_persistence_zero_speed_hits_cap(cube_r):
    alpha = M.speed_vector(cube_r, [0] * cube_r.V)
    c = M.persistence_interval(cube_r, M.direction((1, 0, 0)), alpha)
    assert c == pytest.approx(1e6)


def test_persistence_expansion_stops_before_collapse(cube_r):
    # volume (1 + t) * 8 along this system; hull degenerates at t = -1
    th = M.direction((1, 0, 0))
    alpha = M.trivial_speed(cube_r, (1, 0, 0))
    c = M.persistence_interval(cube_r, th, alpha)
    assert 0.05 <= float(c) < 1.0
    for t in (-c, Fraction(float(c)) / 2, c):
        Q = M.deform(cube_r, th, alpha, Fraction(float(t)))
        assert M.same_labeled_lattice(Q.lattice, cube_r.lattice)


def test_persistence_root_cube_expansion_exact(cube_r):
    # diag(1 + t, 1, 1) collapses the cube at t = -1 and nowhere else
    th = M.direction((1, 0, 0))
    alpha = M.trivial_speed(cube_r, (1, 0, 0))
    t_minus, t_plus = M.persistence_root(cube_r, th, alpha)
    assert isinstance(t_minus, Fraction) and t_minus == -1
    assert t_plus is None


def _lattice_kept(P, th, alpha, t):
    try:
        Q = M.deform(P, th, alpha, t)
    except (DegenerateDeformation, NumericalDegeneracy):
        return False
    return M.same_labeled_lattice(Q.lattice, P.lattice)


def _dyadic_sphere_body(n_pairs, rng, bits=20):
    pts = rng.normal(size=(n_pairs, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    den = 1 << bits
    return M.build_sym_polytope(
        [tuple(Fraction(round(float(x) * den), den) for x in p) for p in pts],
        kernel=M.RATIONAL)


def test_persistence_root_rational_tight(cubocta_r):
    rng = np.random.default_rng(17)
    cases = [(cubocta_r, (1, 1, 0))]
    for k in (4, 5):
        theta = tuple(int(x) for x in rng.integers(1, 10, 3))
        P = _dyadic_sphere_body(k, rng)
        assert P.V == 2 * k
        cases.append((P, theta))
    eps = Fraction(1, 2 ** 10)
    for P, theta in cases:
        rq = M.dimension_bound(P, theta)
        th, alpha = rq.theta, rq.witness_speed
        assert alpha is not None
        t_minus, t_plus = M.persistence_root(P, th, alpha)
        assert isinstance(t_minus, Fraction) and t_minus < 0
        assert isinstance(t_plus, Fraction) and t_plus > 0
        for root in (t_minus, t_plus):
            assert _lattice_kept(P, th, alpha, (1 - eps) * root)
            assert not _lattice_kept(P, th, alpha, root)


def _root_systems(P, rng):
    """(theta, alpha) pairs of ``P``: three random directions and the first
    four edge directions, each with its non-trivial speed, its first basis
    speed and a trivial speed."""
    dirs = _structural_directions(P)[:4] + [
        M.direction(tuple(float(x) for x in rng.normal(size=3)))
        for _ in range(3)]
    out = []
    for S in M.admissible_spaces(P, dirs, skip=ParallelismAmbiguity):
        if S is not None:
            speed = M.nontrivial_speed(S)
            out += [(S.theta, a) for a in ([speed] if speed else [])
                    + [S.basis[0], S.trivial_basis[0]]]
    return out


def test_persistence_root_matches_the_triangle_oracle(cube_r, cubocta_r,
                                                      hex_prism_r):
    rng = np.random.default_rng(31)
    bodies = [cube_r, cubocta_r, hex_prism_r] + [
        _dyadic_sphere_body(k, rng) for k in (4, 5, 6)]
    systems = 0
    for P in bodies + [M.polar(P) for P in bodies]:
        for th, alpha in _root_systems(P, rng):
            got = M.persistence_root(P, th, alpha)
            ref = oracles.persistence_root_triangles(
                P.vertices, P.lattice.facet_cycles, alpha.alpha, th.carrier,
                True)
            assert got == ref
            assert all(r is None or isinstance(r, Fraction) for r in got)
            systems += 1
    assert systems >= 200
    # a speed that is not admissible fails on both sides
    th = M.direction((3, 5, 7))
    vals = [1, 0, 0, 0, 0, 0]
    alpha = M.speed_vector(cubocta_r, vals + [-v for v in vals])
    with pytest.raises(NoPersistence):
        M.persistence_root(cubocta_r, th, alpha)
    with pytest.raises(ValueError):
        oracles.persistence_root_triangles(
            cubocta_r.vertices, cubocta_r.lattice.facet_cycles, alpha.alpha,
            th.carrier, True)


def test_persistence_root_double_matches_the_triangle_oracle(corpus50):
    # Non-trivial speeds only: a trivial speed's incident-vertex drift
    # bounds are quotients of rounding noise on both sides.
    rng = np.random.default_rng(3)
    roots = 0
    for P in corpus50:
        for B in (P, M.polar(P)):
            dirs = [M.direction(tuple(float(x) for x in rng.normal(size=3)))
                    for _ in range(4)]
            dist_tol = 1e-9 * float(np.abs(B.as_array()).max())
            for S in M.admissible_spaces(B, dirs, skip=ParallelismAmbiguity):
                alpha = S and M.nontrivial_speed(S)
                if alpha is None:
                    continue
                got = M.persistence_root(B, S.theta, alpha)
                ref = oracles.persistence_root_triangles(
                    B.vertices, B.lattice.facet_cycles, alpha.alpha,
                    S.theta.theta, False, dist_tol)
                for g, r in zip(got, ref):
                    assert (g is None) == (r is None)
                    if g is not None:
                        assert abs(g - r) <= 1e-9 * abs(r)
                        roots += 1
    assert roots >= 200


def test_collapsing_breakpoints_read_the_exact_product(cubocta_r):
    # The first moves of a seed-5 descent from the rational cuboctahedron:
    # 6 of their 48 breakpoints collapse a facet, where n and h of the
    # frozen evaluator vanish together and the polar vertex is n1/h1.
    from mahler3d import optimizer
    cfg = M.DescentConfig(seed=5)
    moves = optimizer._candidates(cubocta_r, M.polar(cubocta_r), cfg,
                                  np.random.default_rng(cfg.seed))
    breakpoints = 0
    for _, B, th, alpha in moves:
        for t in M.persistence_root(B, th, alpha):
            ref = M.volume_product(M.deform(B, th, alpha, t)).product
            got = M.frozen_product(B, th, alpha)([float(t)])[0]
            assert abs(got - float(ref)) <= 1e-9 * float(ref)
            breakpoints += 1
    assert breakpoints == 48


def test_frozen_product_matches_rehull(corpus50):
    # Both paths round differently; their gap grows with the cancellation in
    # the fan volumes, which R^3 / |K| bounds (about 1 for round bodies).
    def kappa(B):
        return B.circumradius() ** 3 / float(M.volume(B))

    def at_breakpoints(B, th, alpha):
        # At a breakpoint the lattice changes, but the body is the limit of
        # the frozen one, so the products still agree.  A trivial speed's
        # breakpoint can flatten the body; nothing to compare.
        ts = [float(r) for r in M.persistence_root(B, th, alpha)
              if r is not None]
        compared = 0
        for t, g in zip(ts, M.frozen_product(B, th, alpha)(ts)):
            try:
                Q = M.deform(B, th, alpha, t)
            except DegenerateDeformation:
                continue
            compared += 1
            ref = float(M.volume_product(Q).product)
            tol = 1e-12 * max(1.0, kappa(Q) + kappa(M.polar(Q)))
            assert abs(g - ref) <= tol * ref
        return compared

    rng = np.random.default_rng(23)
    breakpoints = 0
    for P in corpus50[:12]:
        for B in (P, M.polar(P)):
            th = M.direction(tuple(float(x) for x in rng.normal(size=3)))
            space = M.admissible_space(B, th)
            extra = [b for b in space.basis if not M.is_trivial(space, b)]
            alpha = (extra or space.basis)[0]
            c = M.persistence_interval(B, th, alpha)
            ts = np.linspace(-c, c, 9)
            got = M.frozen_product(B, th, alpha)(ts)
            for t, g in zip(ts, got):
                Q = M.deform(B, th, alpha, float(t))
                assert M.same_labeled_lattice(Q.lattice, B.lattice)
                ref = float(M.volume_product(Q).product)
                tol = 1e-12 * max(1.0, kappa(Q) + kappa(M.polar(Q)))
                assert abs(g - ref) <= tol * ref
            breakpoints += at_breakpoints(B, th, alpha)
        # These polars are simple, so a random direction leaves them only
        # trivial speeds, whose roots flatten the body or are drift bounds of
        # rounding noise.  An edge direction is parallel to two facet pairs
        # and can carry a non-trivial speed with genuine breakpoints.
        Q = M.polar(P)
        edges = [M.direction(tuple(a - b for a, b in zip(Q.vertices[j],
                                                          Q.vertices[i])))
                 for i, j in Q.lattice.edges]
        for space in M.admissible_spaces(Q, edges, skip=ParallelismAmbiguity):
            alpha = space and M.nontrivial_speed(space)
            if alpha is not None:
                breakpoints += at_breakpoints(Q, space.theta, alpha)
                break
    assert breakpoints >= 20


def test_persistence_rejects_inadmissible_speed(cubocta_r):
    th = M.direction((3, 5, 7))
    # odd but violates facet affineness for a generic direction
    vals = [1, 0, 0, 0, 0, 0]
    alpha = M.speed_vector(cubocta_r, vals + [-v for v in vals])
    assert float(M.admissibility_residual(cubocta_r, th, alpha)) > 0
    with pytest.raises(NoPersistence):
        M.persistence_interval(cubocta_r, th, alpha)


def test_shadow_system_certifies(cubocta_r):
    th = M.direction((1, 1, 0))
    S = M.admissible_space(cubocta_r, th)
    alpha = next(b for b in S.basis if not M.is_trivial(S, b))
    sys_ = M.shadow_system(cubocta_r, th, alpha)
    assert sys_.c > 0
    assert sys_.base is cubocta_r


def test_volume_affine_exact_slope(cube_r):
    # expansion by diag(1+t, 1, 1): volume 8(1+t), slope exactly 8
    th = M.direction((1, 0, 0))
    alpha = M.trivial_speed(cube_r, (1, 0, 0))
    sys_ = M.shadow_system(cube_r, th, alpha)
    rep = M.check_volume_affine(sys_)
    assert rep["exact"]
    assert rep["slope"] == pytest.approx(8.0, rel=1e-12)
    assert abs(rep["quad_coeff"]) <= 1e-10


def test_volume_affine_matches_scipy(cubocta_d):
    th = M.direction((1.0, 1.0, 0.0))
    S = M.admissible_space(cubocta_d, th)
    alpha = next(b for b in S.basis if not M.is_trivial(S, b))
    sys_ = M.shadow_system(cubocta_d, th, alpha)
    rep = M.check_volume_affine(sys_)
    c = sys_.c
    for t in (-c / 2, c / 3):
        Q = M.deform(cubocta_d, th, alpha, t)
        ref = ConvexHull(Q.as_array()).volume
        assert rep["intercept"] + rep["slope"] * t == pytest.approx(
            ref, rel=1e-8)


def test_inverse_polar_convex(cubocta_r, cubocta_d):
    for P in (cubocta_r, cubocta_d):
        vec = (1, 1, 0) if P.kernel == M.RATIONAL else (1.0, 1.0, 0.0)
        th = M.direction(vec)
        S = M.admissible_space(P, th)
        alpha = next(b for b in S.basis if not M.is_trivial(S, b))
        sys_ = M.shadow_system(P, th, alpha)
        rep = M.check_inverse_polar_convexity(sys_)
        assert float(rep["min_second_diff"]) > 0


def test_parallelism_ambiguity_band(cube_d):
    # |theta . n| lands between 1e-14 and 1e-10 against the z facet
    th = M.direction((1.0, 0.0, 1e-12))
    with pytest.raises(ParallelismAmbiguity):
        M.admissible_space(cube_d, th)


def _structural_directions(P):
    """Every edge direction of ``P`` and, per facet pair, the in-plane
    directions (v2 - v1) + j (v3 - v1), j = 0..2, of its first corners."""
    X, lat = P.vertices, P.lattice
    vecs = [tuple(b - a for a, b in zip(X[i], X[j])) for i, j in lat.edges]
    for g in range(lat.F // 2):
        v1, v2, v3 = (X[i] for i in lat.facet_cycles[g][:3])
        vecs += [tuple(b - a + j * (c - a) for a, b, c in zip(v1, v2, v3))
                 for j in range(3)]
    return [M.direction(v) for v in vecs]


def _band_direction(P):
    """An in-plane direction of a facet pair of the double body ``P``,
    tilted by 1e-12 along the pair's unit normal into the band where
    parallelism is undecidable."""
    lat = P.lattice
    for g in range(lat.F // 2):
        try:
            w = np.array(M.in_plane_direction(P, g).theta)
        except (InternalInconsistency, ParallelismAmbiguity):
            continue
        return M.direction(tuple(w + 1e-12 * np.array(lat.facet_planes[g][0])))
    raise AssertionError("no in-plane direction on any facet pair")


def _parallel_outcome(fn):
    try:
        return fn()
    except (ValueError, ParallelismAmbiguity):
        return "ambiguous"


def test_parallel_facets_match_the_scalar_rule(cube_r, cubocta_r, hex_prism_r,
                                                corpus50):
    named = [cube_r, cubocta_r, hex_prism_r]
    rational = named + [M.snap_to_rational(P) for P in corpus50[:4]]
    double = [M.to_double(P) for P in named] + corpus50[:12]
    bodies = rational + [M.polar(P) for P in rational[3:]] \
        + double + [M.polar(P) for P in double[3:]]
    rng = np.random.default_rng(5)
    sizes = set()
    for P in bodies:
        lat = P.lattice
        normals = [n for n, _ in lat.facet_planes[:lat.F // 2]]
        exact = P.kernel == M.RATIONAL
        dirs = _structural_directions(P) + [
            M.direction(tuple(float(x) for x in rng.normal(size=3)))
            for _ in range(4)]
        if not exact:
            dirs.insert(len(dirs) // 2, _band_direction(P))
        refs = []
        for th in dirs:
            got = _parallel_outcome(lambda: M.parallel_facets(P, th))
            ref = _parallel_outcome(lambda: oracles.parallel_pairs(
                normals, th.theta, th.carrier, exact))
            assert got == ref
            refs.append(ref)
            if got != "ambiguous":
                sizes.add(len(got))
        # all directions at once: each ambiguous one raises, or reads None
        # under skip, on its own
        assert exact or "ambiguous" in refs
        spaces = M.admissible_spaces(P, dirs, skip=ParallelismAmbiguity)
        assert [S.parallel if S else "ambiguous" for S in spaces] == refs
        if "ambiguous" in refs:
            with pytest.raises(ParallelismAmbiguity):
                M.admissible_spaces(P, dirs)
        else:
            assert M.admissible_spaces(P, dirs) == spaces
    # edge and in-plane directions are parallel to one, two or three pairs
    assert {0, 1, 2, 3} <= sizes


def test_parallel_facets_named_sets(cube_r, cubocta_d, hex_prism_r):
    lat = cube_r.lattice
    side = M.parallel_facets(cube_r, (0, 0, 1))
    assert len(side) == 2
    assert all(lat.facet_planes[g][0][2] == 0 for g in side)
    # every side facet of the prism is parallel to its axis
    assert len(M.parallel_facets(hex_prism_r, (0, 0, 1))) == 3
    assert M.parallel_facets(cubocta_d, (3.0, 5.0, 7.0)) == frozenset()
    for f in range(cube_r.lattice.F // 2):
        th = M.in_plane_direction(cube_r, f)
        assert M.parallel_facets(cube_r, th) == {f}
        assert M.parallel_facets(cube_r, th, exempt=(f,)) == frozenset()


def test_parallel_facets_refuse_a_near_parallel_direction(cubocta_d):
    lat = cubocta_d.lattice
    g = next(f for f in range(lat.F // 2) if lat.m(f) == 4)
    n = np.array(lat.facet_planes[g][0])
    w = np.array(M.in_plane_direction(cubocta_d, g).theta)
    th = M.direction(tuple(w + 1e-12 * n))
    d = abs(float(np.dot(th.theta, n)))
    assert 1e-14 < d <= 1e-10
    with pytest.raises(ValueError):
        oracles.parallel_pairs([n], th.theta, th.carrier, False)
    with pytest.raises(ParallelismAmbiguity):
        M.parallel_facets(cubocta_d, th)
    with pytest.raises(ParallelismAmbiguity):
        M.admissible_spaces(cubocta_d, [(3.0, 5.0, 7.0), th])
    assert M.parallel_facets(cubocta_d, th, exempt=(g,)) == frozenset()
    good, skipped = M.admissible_spaces(cubocta_d, [(3.0, 5.0, 7.0), th],
                                        skip=ParallelismAmbiguity)
    assert skipped is None
    assert good == M.admissible_space(cubocta_d, (3.0, 5.0, 7.0))


def test_admissible_spaces_share_one_basis_per_parallel_set(cubocta_r,
                                                            cubocta_d):
    for P in (cubocta_r, cubocta_d):
        one = 1 if P.kernel == M.RATIONAL else 1.0
        thetas = [(3 * one, 5, 7), (1 * one, 1, 0), (-2 * one, 9, 4),
                  (-1 * one, -1, 0), (1 * one, 0, 0)]
        spaces = M.admissible_spaces(P, thetas)
        assert spaces == [M.admissible_space(P, th) for th in thetas]
        assert [S.theta for S in spaces] == [M.direction(th) for th in thetas]
        by_set = {}
        for S in spaces:
            assert S.parallel == M.parallel_facets(P, S.theta)
            assert by_set.setdefault(S.parallel, S.basis) is S.basis
        assert len(by_set) == 3
