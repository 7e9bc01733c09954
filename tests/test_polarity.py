from fractions import Fraction

import pytest

import mahler3d as M

import oracles


def test_polar_counts_swap(cube_r, octa_r, cubocta_r):
    for P in (cube_r, octa_r, cubocta_r):
        Q = M.polar(P)
        assert Q.lattice.V == P.lattice.F
        assert Q.lattice.F == P.lattice.V
        assert Q.lattice.E == P.lattice.E


def test_polar_fixture_volumes_exact(cube_r, octa_r, cubocta_r):
    assert M.volume(M.polar(cube_r)) == Fraction(4, 3)
    assert M.volume(M.polar(octa_r)) == Fraction(8)
    assert M.volume(M.polar(cubocta_r)) == Fraction(2)


def test_bipolar_identity_exact(cube_r, cubocta_r, hex_prism_r):
    for P in (cube_r, cubocta_r, hex_prism_r):
        R = M.polar(M.polar(P))
        assert set(R.vertices) == set(P.vertices)


def test_endpoint_products(cube_r, octa_r, cube_d, octa_d):
    for P in (cube_r, octa_r):
        rep = M.volume_product(P)
        assert rep.product == Fraction(32, 3)
        assert rep.mahler_gap == 0
        assert rep.santalo_point == (0, 0, 0)
    for P in (cube_d, octa_d):
        rep = M.volume_product(P)
        assert rep.product == pytest.approx(32 / 3, rel=1e-12)


def test_cubocta_product_exact(cubocta_r):
    rep = M.volume_product(cubocta_r)
    assert rep.product == Fraction(40, 3)
    assert rep.mahler_gap == Fraction(8, 3)


def test_polar_volume_matches_halfspace_oracle(corpus50):
    for P in corpus50[:12]:
        ref = oracles.polar_volume_halfspace(P.as_array())
        assert float(M.volume(M.polar(P))) == pytest.approx(ref, rel=1e-7)


def test_product_polarity_invariant(corpus50):
    for P in corpus50[:15]:
        a = float(M.volume_product(P).product)
        b = float(M.volume_product(M.polar(P)).product)
        assert a == pytest.approx(b, rel=1e-9)


def test_incidence_duality_report(cube_r, cubocta_r, corpus50):
    for P in [cube_r, cubocta_r] + corpus50[:10]:
        rep = M.verify_incidence_duality(P)
        assert rep["transpose_ok"] and rep["reconstruction_ok"] \
            and rep["bipolar_ok"]
        assert rep["polar_V"] == rep["F"] and rep["polar_F"] == rep["V"]


def test_mahler_bound_constant():
    assert M.MAHLER_BOUND == Fraction(32, 3)
