from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import mahler3d as M
from mahler3d import _kernels, geometry as G, hull
from mahler3d.errors import (DegenerateInput, InputError,
                             NumericalDegeneracy, SingularMatrix,
                             ToleranceConflict)

import oracles
from conftest import CUBE_REPS, CUBOCTA_REPS, OCTA_REPS, random_corpus


def test_cube_counts_and_volume(cube_r):
    lat = cube_r.lattice
    assert (lat.V, lat.E, lat.F) == (8, 12, 6)
    assert lat.facet_size_census() == {4: 6}
    assert M.volume(cube_r) == Fraction(8)


def test_octa_counts_and_volume(octa_r):
    lat = octa_r.lattice
    assert (lat.V, lat.E, lat.F) == (6, 12, 8)
    assert lat.facet_size_census() == {3: 8}
    assert M.volume(octa_r) == Fraction(4, 3)


def test_cubocta_counts_and_volume(cubocta_r):
    lat = cubocta_r.lattice
    assert (lat.V, lat.E, lat.F) == (12, 24, 14)
    assert lat.facet_size_census() == {3: 8, 4: 6}
    assert M.volume(cubocta_r) == Fraction(20, 3)


def test_double_kernel_matches_rational(cube_d, octa_d, cubocta_d):
    for P, vol in ((cube_d, 8.0), (octa_d, 4 / 3), (cubocta_d, 20 / 3)):
        assert M.volume(P) == pytest.approx(vol, rel=1e-12)


def test_euler_formula_everywhere(corpus50):
    for P in corpus50:
        lat = P.lattice
        assert lat.V - lat.E + lat.F == 2


def test_counts_match_oracle_on_random_bodies(corpus50):
    for P in corpus50[:20]:
        pts = P.as_array()
        assert (P.lattice.V, P.lattice.E, P.lattice.F) == \
            oracles.hull_counts(pts)


def test_volume_matches_scipy_on_random_bodies(corpus50):
    for P in corpus50[:20]:
        ref = ConvexHull(P.as_array()).volume
        assert float(M.volume(P)) == pytest.approx(ref, rel=1e-9)


def test_vertex_layout_reps_first_antipodal_exact(corpus50, cube_r):
    for P in corpus50[:10] + [cube_r]:
        k = P.n_pairs
        assert P.V == 2 * k
        for i in range(k):
            assert P.pairing[i] == i + k
            assert all(P.vertices[i + k][c] == -P.vertices[i][c]
                       for c in range(3))


def test_interior_point_dedup():
    # the origin and a deep interior pair must be dropped
    P = M.build_sym_polytope(CUBE_REPS + [(0, 0, 0), (Fraction(1, 2), 0, 0)],
                             kernel=M.RATIONAL)
    assert P.V == 8


def test_duplicate_points_collapse():
    P = M.build_sym_polytope(CUBE_REPS + CUBE_REPS, kernel=M.RATIONAL)
    assert P.V == 8


def test_degenerate_input_rejected():
    with pytest.raises(DegenerateInput):
        M.build_sym_polytope([(1, 0, 0), (0, 1, 0)], kernel=M.RATIONAL)
    with pytest.raises(DegenerateInput):
        # coplanar through the origin: not full-dimensional
        M.build_sym_polytope([(1, 0, 0), (0, 1, 0), (1, 1, 0)],
                             kernel=M.RATIONAL)


def test_empty_input_rejected():
    with pytest.raises(InputError):
        M.build_sym_polytope([], kernel=M.RATIONAL)


def test_near_duplicate_merges_or_conflicts():
    # an almost-mirror point within the merge tolerance gets absorbed
    pts = [(1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, -1.0, 1.0),
           (-1.0, 1.0, 1.0), (-1.0 + 1e-12, -1.0, -1.0 - 1e-12)]
    P = M.build_sym_polytope(pts, kernel=M.DOUBLE, tol=1e-9)
    assert P.V == 8
    # exact kernel never merges: distinct points inside tol are a conflict
    with pytest.raises(ToleranceConflict):
        M.build_sym_polytope(
            [(1, 0, 0), (Fraction(10 ** 12 + 1, 10 ** 12), 0, 0),
             (0, 1, 0), (0, 0, 1)], kernel=M.RATIONAL, tol=1e-9)


def test_linear_image_scales_volume(cube_r):
    A = [[2, 1, 0], [0, 1, 0], [0, 0, 3]]
    Q = M.linear_image(cube_r, A)
    assert M.volume(Q) == Fraction(8) * 6  # |det A| = 6
    with pytest.raises(SingularMatrix):
        M.linear_image(cube_r, [[1, 0, 0], [2, 0, 0], [0, 0, 1]])


def test_linear_image_random_dets(corpus50):
    rng = np.random.default_rng(3)
    for P in corpus50[:5]:
        A = rng.normal(size=(3, 3))
        while abs(np.linalg.det(A)) < 0.3:
            A = rng.normal(size=(3, 3))
        Q = M.linear_image(P, A)
        assert float(M.volume(Q)) == pytest.approx(
            abs(np.linalg.det(A)) * float(M.volume(P)), rel=1e-9)


def test_snap_and_to_double_round_trip(cubocta_d):
    R = M.snap_to_rational(cubocta_d)
    assert R.kernel == M.RATIONAL
    assert M.same_labeled_lattice(R.lattice, cubocta_d.lattice)
    D = M.to_double(R)
    assert D.kernel == M.DOUBLE
    assert np.allclose(D.as_array(), cubocta_d.as_array())


def test_radii_of_cubes_beyond_the_float_range_of_their_squares(corpus50):
    # the exact cube of half-edge 2^-600 or 2^600: each radius is a normal
    # float while its square underflows or overflows
    for e in (-600, 600):
        P = M.build_sym_polytope([[Fraction(2) ** e * c for c in p]
                                  for p in CUBE_REPS])
        assert P.inradius() == 2.0 ** e
        assert P.circumradius() == np.ldexp(3 ** 0.5, e)
    # where the square is a normal float the radius is its float's root
    for P in [M.snap_to_rational(D) for D in corpus50[:10]]:
        for Q in (P, M.polar(P)):
            planes = Q.lattice.facet_planes
            assert Q.inradius() == float(
                min(h * h / hull.dot(n, n) for n, h in planes)) ** 0.5
            assert Q.circumradius() == max(
                float(hull.dot(v, v)) for v in Q.vertices) ** 0.5


def test_save_load_round_trip_exact(tmp_path, cubocta_r):
    path = tmp_path / "body.json"
    M.save_polytope(cubocta_r, str(path))
    Q = M.load_polytope(str(path), kernel=M.RATIONAL)
    assert Q.vertices == cubocta_r.vertices
    assert M.same_labeled_lattice(Q.lattice, cubocta_r.lattice)


def test_load_accepts_fraction_strings():
    P = M.load_polytope({"vertices": [["1/2", "1/2", "1/2"],
                                      ["1/2", "1/2", "-1/2"],
                                      ["1/2", "-1/2", "1/2"],
                                      ["-1/2", "1/2", "1/2"]],
                         "symmetric": True}, kernel=M.RATIONAL)
    assert M.volume(P) == Fraction(1)


def test_face_lattice_incidences(cubocta_r):
    lat = cubocta_r.lattice
    # every edge lies on exactly two facets, every facet cycle closes
    for e in range(lat.E):
        assert len(lat.phi2[e]) == 2
    for f in lat.I2:
        cyc = lat.facet_cycles[f]
        assert len(set(cyc)) == len(cyc) >= 3
    # opposite facets pair up antipodally
    for f in lat.I2:
        mate = lat.opposite_facet[f]
        assert lat.opposite_facet[mate] == f
        a = frozenset(cyc_v for cyc_v in lat.facet_cycles[f])
        b = frozenset(cubocta_r.pairing[v] for v in lat.facet_cycles[mate])
        assert a == b


def _layout_bodies(kernel, cubocta):
    """Built bodies, bodies deformed to both breakpoints of
    ``persistence_root`` (the cuboctahedron's have coincident pairs, which
    merge), and the polars and bipolars of all of them."""
    # The bodies and directions of test_hull's breakpoint test.
    rng = np.random.default_rng(17)
    theta = tuple(int(x) for x in rng.integers(1, 10, 3))
    pts = rng.normal(size=(4, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    dyadic = M.build_sym_polytope(
        [tuple(Fraction(round(float(c) * 2 ** 20), 2 ** 20) for c in p)
         for p in pts], kernel=kernel)
    built = [M.build_sym_polytope(r, kernel=kernel)
             for r in (CUBE_REPS, OCTA_REPS, CUBOCTA_REPS)] + [dyadic]
    moved = []
    for P, theta in ((cubocta, (1, 1, 0)), (dyadic, theta)):
        rq = M.dimension_bound(P, theta)
        for t in M.persistence_root(P, rq.theta, rq.witness_speed):
            moved.append(M.deform(P, rq.theta, rq.witness_speed, t))
    assert any(Q.V < cubocta.V for Q in moved)
    bodies = built + moved
    polars = [M.polar(P) for P in bodies]
    return bodies + polars + [M.polar(Q) for Q in polars]


@pytest.mark.parametrize("kernel", [M.RATIONAL, M.DOUBLE])
def test_facet_layout_mirrors_at_half(kernel, cubocta_r, cubocta_d):
    cubocta = cubocta_r if kernel == M.RATIONAL else cubocta_d
    for P in _layout_bodies(kernel, cubocta):
        lat, V = P.lattice, P.V
        K = lat.F // 2
        assert lat.F == 2 * K
        for f in range(K):
            g = f + K
            assert lat.opposite_facet[f] == g and lat.opposite_facet[g] == f
            assert lat.facet_cycles[g] == hull._canonical_cycle(tuple(
                (v + V // 2) % V for v in reversed(lat.facet_cycles[f])))
            n, h = lat.facet_planes[f]
            assert lat.facet_planes[g] == (tuple(-c for c in n), h)
        # The member with the smaller vertex set leads each pair.
        keys = [sorted(c) for c in lat.facet_cycles]
        assert all(keys[f] < keys[f + K] for f in range(K))
        assert keys[:K] == sorted(keys[:K])
        Q = M.polar(P)
        for f, (n, h) in enumerate(lat.facet_planes):
            assert Q.vertices[f] == tuple(c / h for c in n)
        full = _kernels.fan_volume(P.vertices, lat.facet_cycles)
        if kernel == M.RATIONAL:
            assert M.volume(P) == full
        else:
            assert M.volume(P) == pytest.approx(full, rel=1e-13)


@pytest.mark.parametrize("seed", range(4))
def test_build_lattice_takes_either_member_of_each_pair(seed, cubocta_r,
                                                        cubocta_d, corpus50):
    rng = np.random.default_rng(seed)
    for P in (cubocta_r, cubocta_d, *corpus50[:10]):
        lat = P.lattice
        K = lat.F // 2
        facets = [hull.Facet(c, n, h)
                  for c, (n, h) in zip(lat.facet_cycles, lat.facet_planes)]
        flip = rng.random(K) < 0.5
        got, order = G._build_lattice(
            P.V, [facets[f + K] if flip[f] else facets[f] for f in range(K)])
        assert got.facet_cycles == lat.facet_cycles
        assert got.facet_planes == lat.facet_planes
        # order names the member each facet was built from: pairs[f] when
        # it was passed, its antipode (index f + K) when the other one was
        assert order == tuple([f + K * bool(flip[f]) for f in range(K)]
                              + [f + K * (not flip[f]) for f in range(K)])


def _octahedron_pairs(p, a1, a2, a3, a4):
    """The four facets through apex p of the octahedron with apices p, -p
    and equator a1 a2 a3 a4 (a3 = -a1, a4 = -a2), outward and canonical;
    their antipodes are the four facets through -p."""
    plane = ((Fraction(1), Fraction(0), Fraction(0)), Fraction(1))
    return [hull.Facet(hull._canonical_cycle(c), *plane)
            for c in ((p, a1, a2), (p, a2, a3), (p, a3, a4), (p, a4, a1))]


def test_lattice_guards_reject_hand_made_facet_lists():
    # The octahedron: apices 0 and 3, equator 1 2 4 5.
    octa = _octahedron_pairs(0, 1, 2, 4, 5)
    lat, _ = G._build_lattice(6, octa)
    assert lat.vertex_facet_cycles() == oracles.vertex_facet_rings(lat)
    with pytest.raises(NumericalDegeneracy, match="not shared by exactly two"):
        G._build_lattice(6, octa[:3])
    # Two disjoint octahedra: V - E + F = 12 - 24 + 16 = 4.
    with pytest.raises(NumericalDegeneracy, match="Euler check failed"):
        G._build_lattice(12, _octahedron_pairs(0, 1, 2, 7, 8)
                         + _octahedron_pairs(3, 4, 5, 10, 11))
    # Two octahedra pinched together at the apices 0 and 5: every edge has
    # two facets and V - E + F = 10 - 24 + 16 = 2, but the ring around 0
    # closes after the four facets of one octahedron.
    pinched, _ = G._build_lattice(10, _octahedron_pairs(0, 1, 2, 6, 7)
                                  + _octahedron_pairs(0, 3, 4, 8, 9))
    with pytest.raises(NumericalDegeneracy, match="misses facets"):
        pinched.vertex_facet_cycles()
    # One pair turned inward: the edges still have two facets each, but
    # the edge 0 -> 2 that leaves 0 in facet (0, 2, 1) has no reverse.
    turned = [hull.Facet((0, 2, 1), f.normal, f.offset) if f.cycle == (0, 1, 2)
              else f for f in octa]
    lat, _ = G._build_lattice(6, turned)
    with pytest.raises(NumericalDegeneracy, match="no reverse edge"):
        lat.vertex_facet_cycles()


@pytest.mark.parametrize("kernel", [M.RATIONAL, M.DOUBLE])
def test_vertex_rings_match_the_edge_label_walk(kernel, cubocta_r, cubocta_d,
                                                corpus50):
    cubocta = cubocta_r if kernel == M.RATIONAL else cubocta_d
    corpus = corpus50 if kernel == M.DOUBLE else [
        M.snap_to_rational(P) for P in corpus50]
    bodies = corpus + [M.polar(P) for P in corpus] + _layout_bodies(kernel,
                                                                   cubocta)
    for P in bodies:
        assert P.lattice.vertex_facet_cycles() == \
            oracles.vertex_facet_rings(P.lattice)


@pytest.mark.parametrize("kernel", [M.RATIONAL, M.DOUBLE])
@pytest.mark.parametrize("build", [M.build_sym_polytope,
                                   M.from_representatives])
@pytest.mark.parametrize("reps,error", [
    ([], DegenerateInput),
    ([(float("nan"), 0, 0), (0, 1, 0), (0, 0, 1)], InputError),
    ([(1, 0, 0), (0, float("inf"), 0), (0, 0, 1)], InputError),
    ([(1, 0, 0), (0, 1, 0), (0, 0, -float("inf"))], InputError),
    ([(1, 0, 0), (0, "nan", 0), (0, 0, 1)], InputError),
    ([(1, 0, 0), (0, 1, 0), (0, 0, "1/0")], InputError),
], ids=["empty", "nan", "inf", "-inf", "nan-string", "zero-denominator"])
def test_bad_points_raise_typed_errors(kernel, build, reps, error):
    with pytest.raises(error):
        build(reps, kernel=kernel)


def test_from_representatives_coerces_to_the_kernel():
    for reps in ([(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                 [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), ("0", 0.0, "1")]):
        R = M.from_representatives(reps, M.RATIONAL)
        assert type(M.volume(R)) is Fraction
        assert M.volume(R) == Fraction(4, 3)
        assert all(type(c) is Fraction for v in R.vertices for c in v)
        D = M.from_representatives(reps, M.DOUBLE)
        assert all(type(c) is float for v in D.vertices for c in v)
        assert M.volume(D) == pytest.approx(4 / 3, rel=1e-15)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_tolerances_follow_the_coordinate_scale(scale):
    # Two vertices 1e-4 apart relative to the body, at any absolute size.
    reps = [tuple(scale * c for c in p)
            for p in ((1, 0, 0), (1, 1e-4, 0), (0, 1, 0), (0, 0, 1))]
    P = M.build_sym_polytope(reps, kernel=M.DOUBLE)
    assert P.V == 8
    R = M.from_representatives([P.vertices[i] for i in P.rep_indices()],
                               M.DOUBLE)
    assert R.V == 8 and M.same_labeled_lattice(R.lattice, P.lattice)
    # A shear there and back keeps every vertex and the lattice.
    alpha = M.trivial_speed(P, (1, 1, 1))
    Q = M.deform(P, (0, 0, 1), alpha, 0.1)
    B = M.deform(Q, (0, 0, 1), alpha, -0.1)
    assert Q.V == B.V == 8
    assert M.same_labeled_lattice(B.lattice, P.lattice)
    assert np.allclose(B.as_array(), P.as_array(), rtol=0, atol=1e-12 * scale)


def _dedupe_cases(scale, tol):
    """Point sets in units of ``tol`` around unit-scale bodies: jittered
    near-duplicates and a chain that merges transitively, clusters that
    contain their own antipode, three ways to a ToleranceConflict, and
    random mixtures of these."""
    rng = np.random.default_rng(int(-np.log10(scale)) + 7)
    base = rng.normal(size=(6, 3))
    base /= np.linalg.norm(base, axis=1)[:, None]
    base *= scale
    e1, e2, e3 = np.eye(3)
    c = base[0]
    z = np.array([0.0, 0.6, 0.8]) * scale
    cases = {
        "near_duplicates": list(base) + [
            base[k] + 0.3 * tol * rng.normal(size=3) / 3 for k in (1, 2, 2)],
        "chain": list(base) + [c + 0.9 * tol * e1, c + 1.8 * tol * e1],
        "self_antipodal": list(base) + [0.4 * tol * e2, -0.3 * tol * e1],
        "near_antipode": list(base) + [-base[3] + 0.5 * tol * e1],
        "conflict": list(base[1:]) + [c - 0.49 * tol * e1, c + 0.49 * tol * e1,
                                      c + 0.9 * tol * e2],
        "conflict_with_mirror": list(base[1:]) + [
            c - 0.49 * tol * e1, c + 0.49 * tol * e1, -(c + 0.9 * tol * e2)],
        # the merged mean z conflicts with the mirror of the second point
        # and with the third; the pair loops report the second
        "two_conflicts": [z - 0.49 * tol * e2, z + 0.49 * tol * e2,
                          -z + 0.9 * tol * e1, z + 0.9 * tol * e3]
        + list(base[1:]),
    }
    for seed in range(8):
        r = np.random.default_rng(seed)
        pts = list(base)
        for _ in range(6):
            k = int(r.integers(0, 6))
            pts.append(r.choice([-1, 1]) * base[k]
                       + 1.2 * tol * r.random() * r.normal(size=3) / 1.7)
        cases[f"mixture_{seed}"] = pts
    return {name: [tuple(float(x) for x in p) for p in pts]
            for name, pts in cases.items()}


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("rel_tol", [1e-9, 1e-3])
def test_dedupe_matches_the_pair_loops(scale, rel_tol):
    tol = rel_tol * scale
    outcome = {}
    for name, pts in _dedupe_cases(scale, tol).items():
        try:
            ref = oracles.dedupe_and_pair_double(pts, tol)
        except ValueError as e:
            with pytest.raises(ToleranceConflict) as got:
                G._dedupe_and_pair(pts, tol, G.DOUBLE)
            assert str(got.value) == str(e), name
            outcome[name] = "conflict"
            continue
        reps = G._dedupe_and_pair(pts, tol, G.DOUBLE)
        assert reps == ref, name
        outcome[name] = len(reps)
    expected = {"near_duplicates": 6, "chain": 6, "self_antipodal": 6,
                "near_antipode": 6, "conflict": "conflict",
                "conflict_with_mirror": "conflict", "two_conflicts": "conflict"}
    assert {k: outcome[k] for k in expected} == expected
    # the random mixtures both merge and keep near-duplicates apart
    assert {v for k, v in outcome.items() if k.startswith("mixture")} >= {6, 7}
