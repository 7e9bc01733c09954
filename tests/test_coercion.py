"""Outside numbers enter through one coercion, ``geometry._as_coord``: the
same rule and the same typed error on both kernels."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import mahler3d as M
from mahler3d.errors import InputError, NumericalDegeneracy

from conftest import CUBE_REPS, sym

NAN, INF = float("nan"), float("inf")
ODD = [1, 1, 1, 1, -1, -1, -1, -1]   # an odd speed on the cube


def _with_first(value):
    """The cube's odd speed with ``value`` at vertex 0 and at its antipode."""
    return [value] + ODD[1:4] + [value] + ODD[5:]


def _diagonal(value):
    return [[value, 0, 0], [0, 1, 0], [0, 0, 1]]


# Each raised an untyped ValueError or OverflowError on at least one kernel,
# or was accepted silently, before every outside number went through
# ``_as_coord``.
BAD_NUMBERS = {
    "speed-string": lambda P: M.speed_vector(P, _with_first("x")),
    "speed-nan": lambda P: M.speed_vector(P, _with_first(NAN)),
    "deform-t-string": lambda P: M.deform(P, (0, 0, 1), ODD, "x"),
    "deform-t-nan": lambda P: M.deform(P, (0, 0, 1), ODD, NAN),
    "linear-image-nan": lambda P: M.linear_image(P, _diagonal(NAN)),
    "linear-image-inf": lambda P: M.linear_image(P, _diagonal(INF)),
    "linear-image-string": lambda P: M.linear_image(P, _diagonal("a")),
    "tol-nan": lambda P: M.build_sym_polytope(CUBE_REPS, tol=NAN,
                                              kernel=P.kernel),
    "shadow-system-c-nan": lambda P: M.shadow_system(P, (0, 0, 1), ODD,
                                                     c=NAN),
}


@pytest.mark.parametrize("kernel", [M.RATIONAL, M.DOUBLE])
@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_numbers_raise_input_error(kernel, case):
    with pytest.raises(InputError):
        BAD_NUMBERS[case](sym(CUBE_REPS, kernel))


@pytest.mark.parametrize("kernel", [M.RATIONAL, M.DOUBLE])
def test_numpy_and_decimal_coordinates_keep_their_values(kernel):
    plain = [(1, 2, 3), (-2, 1, 0), (1, 1, -2), (3, -1, 1)]
    halves = [(0.5, 1.25, -2.0), (1.5, -0.75, 0.25), (-1.0, 2.5, 1.75),
              (2.0, 0.5, -0.5)]
    for reps, numbers in ((plain, np.array(plain)),
                          (halves, np.array(halves)),
                          (halves, [[Decimal(repr(c)) for c in p]
                                    for p in halves])):
        want = M.build_sym_polytope(reps, kernel=kernel)
        got = M.build_sym_polytope(numbers, kernel=kernel)
        assert got.vertices == want.vertices
        assert {type(c) for v in got.vertices for c in v} == {
            Fraction if kernel == M.RATIONAL else float}
    tenth = M.build_sym_polytope(
        [(Decimal("0.1"), 0, 0), (0, 1, 0), (0, 0, 1)], kernel=kernel)
    assert max(v[0] for v in tenth.vertices) == (
        Fraction(1, 10) if kernel == M.RATIONAL else 0.1)


def test_fraction_string_speed_is_one_speed_on_both_kernels(cube_r, cube_d):
    half = ["1/2", 1, 1, 1, "-1/2", -1, -1, -1]
    exact = M.speed_vector(cube_r, half).alpha
    rounded = M.speed_vector(cube_d, half).alpha
    assert exact[0] == Fraction(1, 2) and rounded[0] == 0.5
    assert rounded == tuple([float(a) for a in exact])


def test_json_of_a_number_past_the_digit_limit_is_a_typed_error():
    # 2^-15000 has a 4,516-digit denominator, past Python's int-to-str limit
    tiny = Fraction(1, 2 ** 15000)
    P = M.build_sym_polytope([[c * tiny for c in p] for p in CUBE_REPS])
    with pytest.raises(NumericalDegeneracy):
        P.to_json_dict()
