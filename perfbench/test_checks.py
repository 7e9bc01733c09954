"""The benchmark's checkers reject wrong outputs and accept right ones.

    python3 -m pytest perfbench/test_checks.py
"""

from fractions import Fraction

import pytest

import checks

CUBE = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]
OCTAHEDRON = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
CUBOCTAHEDRON = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
                 (0, 1, 1), (0, 1, -1)]


@pytest.mark.parametrize("reps", [CUBE, OCTAHEDRON])
def test_cube_and_octahedron_at_exactly_32_over_3(reps):
    assert checks.exact_product(reps) == Fraction(32, 3)
    assert checks.agrees(32 / 3, checks.qhull_product(reps))


def test_product_off_by_1e6_rejected():
    ref = checks.qhull_product(CUBOCTAHEDRON)
    assert checks.agrees(ref * (1 + 1e-12), ref)
    assert not checks.agrees(ref + 1e-6, ref)
    assert not checks.agrees(ref - 1e-6, ref)


def test_exact_product_of_affine_image_is_invariant():
    # (x, y, z) -> (x + 2y, y, 3z) has determinant 3; the product stays 32/3
    image = [(x + 2 * y, y, 3 * z) for x, y, z in CUBE]
    assert checks.exact_product(image) == Fraction(32, 3)


def test_affine_sequence_accepted_and_bent_one_rejected():
    vols = [Fraction(8) + Fraction(3, 7) * i for i in range(9)]
    assert checks.is_affine_exact(vols)
    vols[4] += Fraction(1, 10 ** 12)
    assert not checks.is_affine_exact(vols)


def test_nonconvex_inverse_polar_volume_rejected():
    f = [Fraction(i * i, 5) + 1 for i in range(-4, 5)]
    assert checks.is_convex_exact(f)
    f[4] += Fraction(1, 4)                 # second difference 2/5 - 1/2
    assert not checks.is_convex_exact(f)


def _rows(vols, pvols):
    ts = [Fraction(i - 2, 4) for i in range(len(vols))]
    return [{"t": str(t), "volume": str(v), "polar_volume": str(q),
             "product": str(v * q)} for t, v, q in zip(ts, vols, pvols)]


def test_deform_trajectory_checker():
    vols = [Fraction(9)] * 5
    pvols = [1 / (Fraction(3, 4) + Fraction(i * i, 100)) for i in range(-2, 3)]
    assert checks.deform_trajectory_problems(_rows(vols, pvols)) == []
    bent = list(vols)
    bent[2] += Fraction(1, 3)
    assert "volume is not affine in t" in \
        checks.deform_trajectory_problems(_rows(bent, pvols))
    concave = [1 / (Fraction(3, 4) - Fraction(i * i, 100)) for i in range(-2, 3)]
    problems = checks.deform_trajectory_problems(_rows(vols, concave))
    assert "1/polar_volume is not convex in t" in problems
    low = checks.deform_trajectory_problems(_rows([Fraction(1)] * 5, pvols))
    assert "product below 32/3" in low


def test_witness_checker():
    points = checks.mirrored([tuple(map(Fraction, p)) for p in CUBOCTAHEDRON])
    theta = (Fraction(1), Fraction(1), Fraction(0))
    trivial = [p[0] - 2 * p[2] for p in points]         # w.x, w = (1, 0, -2)
    assert checks.witness_problems(points, trivial, theta) == []
    bent = list(trivial)
    bent[2] += 1
    bent[2 + len(CUBOCTAHEDRON)] -= 1                   # keep it odd
    assert checks.witness_problems(points, bent, theta)
