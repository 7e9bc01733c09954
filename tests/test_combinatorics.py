import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import mahler3d as M
from mahler3d.cli import _jsonable

import oracles

FIXTURES = Path(__file__).parent / "fixtures"


def test_c_theta_fixture_values(cube_r, octa_r, cubocta_r):
    # e3 is parallel to the four side facets of the cube
    assert M.c_theta(cube_r, M.direction((0, 0, 1))) == 2
    assert M.c_theta(octa_r, M.direction((3, 5, 7))) == 0
    # in the plane of one square facet pair of the cuboctahedron
    assert M.c_theta(cubocta_r, M.direction((1, 1, 0))) == 1


def test_c_theta_sign_invariant(cubocta_r):
    a = M.c_theta(cubocta_r, M.direction((1, 1, 0)))
    b = M.c_theta(cubocta_r, M.direction((-1, -1, 0)))
    assert a == b


def test_c_theta_matches_oracle(cube_d, cubocta_d, hex_prism_r):
    bodies = [cube_d, cubocta_d, M.to_double(hex_prism_r)]
    dirs = [(0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (3.0, 5.0, 7.0),
            (1.0, 0.0, 0.0)]
    for P in bodies:
        for v in dirs:
            got = M.c_theta(P, M.direction(v))
            ref = oracles.c_theta_oracle(P.as_array(), v)
            assert got == ref


def test_dimension_bound_fixtures(cube_r, octa_r, cubocta_r):
    rep = M.dimension_bound(cube_r, M.direction((0, 0, 1)))
    assert (rep.bound, rep.dim_actual, rep.nontrivial_certified) == \
        (3, 3, False)
    rep = M.dimension_bound(octa_r, M.direction((3, 5, 7)))
    assert (rep.bound, rep.dim_actual, rep.nontrivial_certified) == \
        (3, 3, False)
    rep = M.dimension_bound(cubocta_r, M.direction((1, 1, 0)))
    assert (rep.bound, rep.dim_actual, rep.nontrivial_certified) == \
        (4, 4, True)
    assert rep.witness_speed is not None


def test_dimension_bound_never_violated_on_corpus(corpus50):
    rng = np.random.default_rng(9)
    for P in corpus50[:20]:
        for _ in range(4):
            v = tuple(float(x) for x in rng.normal(size=3))
            rep = M.dimension_bound(P, M.direction(v))
            assert rep.dim_actual >= rep.bound


def test_generic_direction_avoids_facets(cube_r, cubocta_r):
    th = M.generic_direction([cube_r, cubocta_r], seed=1)
    for P in (cube_r, cubocta_r):
        assert M.c_theta(P, th) == 0
        for f in P.lattice.I2:
            n, _ = P.lattice.facet_planes[f]
            assert sum(c * x for c, x in zip(th.carrier, n)) != 0


def test_in_plane_direction_parallel_to_its_facet_only(cubocta_r):
    lat = cubocta_r.lattice
    squares = [f for f in lat.I2 if lat.m(f) == 4]
    f = squares[0]
    th = M.in_plane_direction(cubocta_r, f)
    mate = lat.opposite_facet[f]
    for g in lat.I2:
        n, _ = lat.facet_planes[g]
        d = sum(c * x for c, x in zip(th.carrier, n))
        if g in (f, mate):
            assert d == 0
        else:
            assert d != 0


def test_in_plane_direction_skips_an_ambiguous_candidate():
    # the polar of the fixture is a body where a descent stalled: d_0 of
    # facet 0 has |theta.n| = 1.477e-14 against another facet, inside the
    # undecidable band, so the scan goes on to the next candidate
    data = json.loads((FIXTURES / "in_plane_ambiguous.json").read_text())
    B = M.polar(M.from_representatives(data["vertices"], M.DOUBLE))
    assert B.lattice.facet_size_census() == {3: 8, 4: 2}
    assert B.lattice.m(0) == 4
    th = M.in_plane_direction(B, 0)
    assert not M.parallel_facets(B, th, exempt=(0,))
    n, _ = B.lattice.facet_planes[0]
    assert abs(float(np.dot(th.theta, n))) < 1e-12


def _check_witness(P, cls):
    """Re-derive the claimed witness from scratch and certify it."""
    ev = cls.evidence
    side = ev["witness_side"]
    B = P if side == "primal" else M.polar(P)
    th = M.direction(ev["witness_theta"])
    S = M.admissible_space(B, th)
    alpha = M.speed_vector(B, ev["witness_speed"])
    assert float(M.admissibility_residual(B, th, alpha)) == 0
    assert not M.is_trivial(S, alpha)
    assert ev["witness_dim"] >= ev["witness_bound"] > 3


def test_classify_cube(cube_r):
    cls = M.classify_minimizer_candidate(cube_r)
    assert cls.verdict == M.PARALLELEPIPED
    assert (cls.evidence["V"], cls.evidence["F"]) == (8, 6)


def test_classify_octa(octa_r):
    cls = M.classify_minimizer_candidate(octa_r)
    assert cls.verdict == M.AFFINE_OCTAHEDRON
    assert (cls.evidence["V"], cls.evidence["F"]) == (6, 8)


def test_classify_affine_images(cube_r, octa_r):
    A = [[2, 1, 0], [0, 1, 5], [0, 0, 3]]
    assert M.classify_minimizer_candidate(
        M.linear_image(cube_r, A)).verdict == M.PARALLELEPIPED
    assert M.classify_minimizer_candidate(
        M.linear_image(octa_r, A)).verdict == M.AFFINE_OCTAHEDRON


def test_classify_cubocta_excluded_with_witness(cubocta_r):
    cls = M.classify_minimizer_candidate(cubocta_r)
    assert cls.verdict == M.EXCLUDED
    _check_witness(cubocta_r, cls)


def test_classify_polar_swaps(cube_r, cubocta_r):
    assert M.classify_minimizer_candidate(
        M.polar(cube_r)).verdict == M.AFFINE_OCTAHEDRON
    cls = M.classify_minimizer_candidate(M.polar(cubocta_r))
    assert cls.verdict == M.EXCLUDED


def test_classify_hex_prism_excluded(hex_prism_r):
    lat = hex_prism_r.lattice
    assert (lat.V, lat.F) == (12, 8)
    cls = M.classify_minimizer_candidate(hex_prism_r)
    assert cls.verdict == M.EXCLUDED
    _check_witness(hex_prism_r, cls)


def test_classify_double_input_snaps(cube_d, cubocta_d):
    assert M.classify_minimizer_candidate(cube_d).verdict == M.PARALLELEPIPED
    assert M.classify_minimizer_candidate(cubocta_d).verdict == M.EXCLUDED


def _images(B):
    for s in range(20):
        A = Rotation.random(random_state=s).as_matrix() @ np.diag([1, 1.7, 0.6])
        yield M.linear_image(B, A.tolist())


def test_classify_double_images_on_their_own_lattice(cube_d, octa_d):
    # a 2^-40 snap splits the squares of most cube images into triangles;
    # the verdict is the one of the image's own lattice
    for B, verdict in ((cube_d, M.PARALLELEPIPED),
                       (octa_d, M.AFFINE_OCTAHEDRON)):
        assert [M.classify_minimizer_candidate(I).verdict
                for I in _images(B)] == [verdict] * 20


def test_classification_snaps_only_to_certify_an_exclusion(
        snap_calls, cube_d, octa_d, cubocta_d):
    for B in (cube_d, octa_d, next(_images(cube_d))):
        M.classify_minimizer_candidate(B)
    assert snap_calls == []
    cls = M.classify_minimizer_candidate(cubocta_d)
    assert cls.verdict == M.EXCLUDED and snap_calls == [cubocta_d]
    _check_witness(M.snap_to_rational(cubocta_d), cls)


BRANCH_FIXTURES = sorted(FIXTURES.glob("classify_*.json"))


@pytest.mark.parametrize("path", BRANCH_FIXTURES, ids=lambda p: p.stem)
def test_classify_branch_fixtures(path):
    # integer bodies for the V = F and F = V + 2 branches, which random
    # bodies never reach; the golden verdicts and evidence, keys in order,
    # are those of the classification before it was split into a lattice
    # decision and one witness step.  The double polars of the pentagon
    # and F = V + 2 bodies are excluded on their own lattices, and their
    # witnesses are certified on snaps that have other lattices, so the
    # evidence is the snap's (ROADMAP item 1).
    data = json.loads(path.read_text())
    for kernel, golden in data["golden"].items():
        P = M.load_polytope(data, kernel=kernel)
        for side, B in (("body", P), ("polar", M.polar(P))):
            cls = M.classify_minimizer_candidate(B)
            got = json.loads(json.dumps(_jsonable(cls.evidence)))
            assert cls.verdict == golden[side]["verdict"]
            assert list(got.items()) == list(golden[side]["evidence"].items())
            _check_witness(M.snap_to_rational(B), cls)


def test_classify_random_simplicial_excluded(corpus50):
    # random bodies with more than 3 pairs are neither parallelepipeds nor
    # octahedra; 3-pair bodies are affine octahedra by the 6-vertex census
    for P in corpus50[:8]:
        cls = M.classify_minimizer_candidate(P)
        if P.n_pairs == 3:
            assert cls.verdict == M.AFFINE_OCTAHEDRON
        else:
            assert cls.verdict == M.EXCLUDED


def test_dimension_report_fields(cubocta_r):
    rep = M.dimension_bound(cubocta_r, M.direction((1, 1, 0)))
    assert rep.c_theta == Fraction(1)
    assert rep.space.dim == rep.dim_actual


def test_dimension_bounds_equal_single_calls(cubocta_r, hex_prism_r,
                                             corpus50):
    rng = np.random.default_rng(11)
    snapped = [M.snap_to_rational(P) for P in corpus50[:3]]
    # on the polar of the cuboctahedron the first basis vector of each
    # edge direction's space is trivial, so the witness is the second
    bodies = [cubocta_r, M.polar(cubocta_r), hex_prism_r,
              M.to_double(hex_prism_r)] \
        + corpus50[:10] + [M.polar(P) for P in corpus50[:4]] \
        + snapped + [M.polar(P) for P in snapped]
    certified = {M.RATIONAL: 0, M.DOUBLE: 0}
    for P in bodies:
        lat = P.lattice
        thetas = [M.in_plane_direction(P, f) for f in range(lat.F // 2)
                  if lat.m(f) > 3]
        thetas += [tuple(b - a for a, b in zip(P.vertices[i], P.vertices[j]))
                   for i, j in lat.edges[:3]]
        thetas += [tuple(float(x) for x in rng.normal(size=3))
                   for _ in range(4)]
        reps = M.dimension_bounds(P, thetas)
        singles = [M.dimension_bound(P, th) for th in thetas]
        for rep, one in zip(reps, singles):
            # field by field, the space and the witness included
            for field in ("theta", "c_theta", "bound", "dim_actual",
                          "nontrivial_certified", "space", "witness_speed"):
                assert getattr(rep, field) == getattr(one, field), field
            assert rep.c_theta == M.c_theta(P, rep.theta)
            # the witness is the one a QR per tested vector picks
            S = rep.space
            i = oracles.first_nontrivial_index(
                [b.alpha for b in S.basis],
                [tv.alpha for tv in S.trivial_basis], P.n_pairs)
            expected = S.basis[i] if rep.nontrivial_certified else None
            assert rep.witness_speed == expected
            certified[P.kernel] += rep.nontrivial_certified
    assert min(certified.values()) > 0
    assert M.dimension_bounds(cubocta_r, []) == []
