"""The exact steps that run on integer images of rational coordinates,
against the ``Fraction`` implementations they replaced (``oracles``): the
volume, the representative merge of ``from_representatives``, the layout
check of ``hull_3d`` and the trivial-span projection ``shadow._off_trivial``.

Every body is checked on all four: the named bodies, ``corpus50`` snapped
to 2^-40 and their polars, and generated bodies on dyadic grids, where
coplanar facets with more than three corners are common.  Equality is
equality of ``Fraction`` values, whose normalised form makes it byte
identity too.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import mahler3d as M
from mahler3d import hull, shadow as SH
from mahler3d.errors import DegenerateInput, InputError, InternalInconsistency

import oracles
from conftest import (CUBE_REPS, CUBOCTA_REPS, HEX_PRISM_REPS, OCTA_REPS,
                      sym)

LAYOUT_ERROR = "hull input must be k points followed by their negations"


def _spellings(c):
    """The rational coordinate ``c`` and other spellings of it that
    ``as_point`` reads as the same number: a decimal or fraction string, an
    int when it is one and a float when that is exact."""
    out = [c, str(c)]
    if c.denominator == 1:
        out.append(int(c))
    if float(c) == c:
        out.append(float(c))
    return out


def _respelled(p, j):
    """``p`` with each coordinate in its j-th spelling, cyclically."""
    return tuple([s[j % len(s)] for s in map(_spellings, p)])


def check_volume(P):
    vol = M.volume(P)
    assert type(vol) is Fraction
    assert vol == oracles.fan_volume_fractions(P.vertices,
                                               P.lattice.facet_cycles)


def check_merge(P):
    """Every representative repeated, negated and respelled: the kept list
    is the oracle's, the first of each class, whatever its spelling."""
    reps = [P.vertices[i] for i in P.rep_indices()]
    seq = []
    for i, p in enumerate(reps):
        first = p if i % 2 else hull.neg(p)
        seq += [first, _respelled(first, i), hull.neg(first),
                _respelled(hull.neg(first), i + 1)]
    kept = oracles.merge_representatives(seq)
    assert kept == [p if i % 2 else hull.neg(p) for i, p in enumerate(reps)]
    R = M.from_representatives(seq, M.RATIONAL)
    assert R.vertices[:R.n_pairs] == tuple(kept)
    assert all(type(c) is Fraction for v in R.vertices for c in v)


def check_layout(P):
    """The layout check agrees with the Fraction one on the body's own
    layout, on an int-and-Fraction respelling of it, and on four broken
    ones, each off in one place."""
    k = P.n_pairs
    points = list(P.vertices)
    ints = [tuple([int(c) if c.denominator == 1 else c for c in p])
            for p in points]
    nudged = list(points)
    x, y, z = nudged[k]
    nudged[k] = (x, y, z + Fraction(1, 2 ** 70))
    swapped = points[:k] + points[k + 1:k + 2] + points[k:k + 1] + points[k + 2:]
    unmirrored = points[:k] + [points[0]] + points[k + 1:]
    assert oracles.antipodal_layout(points) and oracles.antipodal_layout(ints)
    assert hull.hull_3d(ints, True) == hull.hull_3d(points, True)
    for pts in (nudged, swapped, unmirrored, points + points[:1]):
        assert not oracles.antipodal_layout(pts)
        with pytest.raises(InputError, match=LAYOUT_ERROR):
            hull.hull_3d(pts, True)


def check_projection(P):
    """Every admissible basis vector, the trivial speeds and one odd speed
    with fractional entries, projected off the trivial span, at a generic
    direction and along an edge, where the facets through the edge are
    parallel and impose nothing."""
    i, j = P.lattice.edges[0]
    thetas = [(3, 5, 7), hull.sub(P.vertices[j], P.vertices[i])]
    odd = SH._lift([Fraction(1, a + 2) for a in range(P.n_pairs)])
    got = {}
    for S in M.admissible_spaces(P, thetas):
        speeds = list(S.basis) + list(S.trivial_basis) + [odd]
        got.update(zip(speeds, SH._off_trivial(S, speeds)))
        assert not any(any(got[tv]) for tv in S.trivial_basis)
    want = oracles.off_trivial_gram_schmidt(
        [tv.alpha for tv in S.trivial_basis], [sv.alpha for sv in got],
        P.n_pairs)
    assert list(got.values()) == want
    assert all(type(x) is Fraction for r in got.values() for x in r)


def check_all(P):
    check_volume(P)
    check_merge(P)
    check_layout(P)
    check_projection(P)


def test_named_bodies(cube_r, octa_r, cubocta_r, hex_prism_r):
    # a shear with a fraction makes the Gram matrix of the trivial speeds
    # non-diagonal and the speeds non-integral
    shear = [[1, 1, 0], [0, 1, Fraction(1, 3)], [0, 0, 2]]
    for P in (cube_r, octa_r, cubocta_r, hex_prism_r):
        for Q in (P, M.linear_image(P, shear)):
            check_all(Q)
            check_all(M.polar(Q))


def test_snapped_corpus_and_polars(corpus50):
    for D in corpus50:
        P = M.snap_to_rational(D)
        check_all(P)
        check_all(M.polar(P))


@st.composite
def dyadic_bodies(draw):
    """A rational body from k unit vectors of a seed on the grid 2^-bits;
    coarse grids make coplanar corners and non-extreme points likely."""
    k = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    bits = draw(st.sampled_from([2, 3, 20, 40]))
    pts = np.random.default_rng(seed).normal(size=(k, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    reps = [tuple(Fraction(round(float(c) * 2 ** bits), 2 ** bits) for c in p)
            for p in pts]
    try:
        return M.build_sym_polytope(reps, kernel=M.RATIONAL)
    except DegenerateInput:
        assume(False)


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(dyadic_bodies())
def test_generated_bodies(P):
    check_all(P)


def test_merge_keeps_the_first_spelling_and_sign():
    half = Fraction(1, 2)
    seq = [(1, 0, 0), (Fraction(1), 0, 0), (-1, 0, 0),
           (0, Fraction(2, 4), 0), (0, half, 0), (0, -0.5, "0"),
           (0, 0, "-1"), (0, 0, 1), (1.0, 0, 0)]
    want = [(1, 0, 0), (0, half, 0), (0, 0, -1)]
    assert oracles.merge_representatives(seq) == want
    R = M.from_representatives(seq, M.RATIONAL)
    assert R.vertices[:3] == tuple(want)
    assert M.volume(R) == Fraction(2, 3)


def test_build_merges_exactly_up_to_sign(corpus50):
    # repeated, negated and respelled points and the origin: the body keeps
    # the oracle's first of each class, in its canonical sign max(p, -p),
    # sorted as the public constructor sorts its representatives
    rng = np.random.default_rng(11)
    origin = (0, 0, 0)
    bodies = [sym(r, M.RATIONAL) for r in (CUBE_REPS, OCTA_REPS,
                                           CUBOCTA_REPS, HEX_PRISM_REPS)]
    for P in bodies + [M.snap_to_rational(Q) for Q in corpus50[:10]]:
        reps = [P.vertices[i] for i in P.rep_indices()]
        seq = [origin]
        for i, p in enumerate(reps):
            seq += [hull.neg(p), _respelled(p, i), p, origin]
        seq = [seq[i] for i in rng.permutation(len(seq))]
        want = sorted([max(p, hull.neg(p))
                       for p in oracles.merge_representatives(seq)
                       if any(p)], reverse=True)
        assert want == sorted([max(p, hull.neg(p)) for p in reps],
                              reverse=True)
        R = M.build_sym_polytope(seq, kernel=M.RATIONAL)
        assert R.vertices[:R.n_pairs] == tuple(want)


def test_singular_gram_matrix_is_an_internal_inconsistency(cube_r):
    S = M.admissible_space(cube_r, (3, 5, 7))
    flat = SH._lift([Fraction(1)] * cube_r.n_pairs)
    broken = SH.SpeedSpace(base=S.base, theta=S.theta, basis=S.basis,
                           trivial_basis=(S.trivial_basis[0], flat,
                                          S.trivial_basis[0]),
                           dim=S.dim, parallel=S.parallel)
    with pytest.raises(InternalInconsistency, match="linearly dependent"):
        SH._off_trivial(broken, S.basis)
