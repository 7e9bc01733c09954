from fractions import Fraction

import numpy as np
import pytest

import mahler3d as M
from mahler3d.errors import GenerationFailure, InputError

from conftest import CUBOCTA_REPS


def test_config_validation():
    with pytest.raises(InputError):
        M.DescentConfig(max_vertices=5)
    with pytest.raises(InputError):
        M.DescentConfig(max_vertices=7)


def test_config_rejects_settings_that_break_the_descent():
    # a NaN tolerance made every move fail ``after < before - tol``, so the
    # descent stopped at once with no-improving-move; a negative one let a
    # move raise the product
    P = M.random_symmetric_polytope(4, seed=1)
    tr = M.descend(P, M.DescentConfig(seed=1, max_iters=3))
    assert (len(tr.steps), tr.meta["terminated_by"]) == (1, "classification")
    for bad in ({"termination_tol": float("nan")},
                {"termination_tol": float("inf")},
                {"termination_tol": -1e-9}, {"termination_tol": "x"},
                {"max_iters": -1}, {"max_iters": 2.0},
                {"direction_budget": -1}, {"direction_budget": 1.5}):
        with pytest.raises(InputError):
            M.DescentConfig(seed=1, **bad)
    # the values stay as given, so the trace metadata reports them
    cfg = M.DescentConfig(seed=1, max_iters=3, termination_tol="1e-9")
    assert cfg.termination_tol == "1e-9"
    tr = M.descend(P, cfg)
    assert tr.meta["config"]["termination_tol"] == "1e-9"
    assert (len(tr.steps), tr.meta["terminated_by"]) == (1, "classification")
    zero = M.DescentConfig(termination_tol=0, max_iters=0, direction_budget=0)
    assert (zero.termination_tol, zero.max_iters, zero.direction_budget) == \
        (0, 0, 0)


def test_random_polytope_counts_and_determinism():
    for pairs in (3, 4, 5, 6):
        P = M.random_symmetric_polytope(pairs, seed=42)
        assert P.V == 2 * pairs
        Q = M.random_symmetric_polytope(pairs, seed=42)
        assert P.vertices == Q.vertices
    with pytest.raises(InputError):
        M.random_symmetric_polytope(2, seed=0)
    with pytest.raises(GenerationFailure):
        M.random_symmetric_polytope(3, seed=0, retries=0)


def test_descend_cube_terminates_immediately(cube_r):
    tr = M.descend(cube_r, M.DescentConfig(seed=0))
    assert len(tr.steps) == 0
    assert tr.final_classification.verdict == M.PARALLELEPIPED
    assert tr.final_gap == 0
    assert tr.meta["terminated_by"] == "classification"
    assert not tr.stall_with_nontrivial_speed


def test_descend_octa_terminates_immediately(octa_r):
    tr = M.descend(octa_r, M.DescentConfig(seed=0))
    assert len(tr.steps) == 0
    assert tr.final_classification.verdict == M.AFFINE_OCTAHEDRON
    assert tr.final_gap == 0


def test_descend_rejects_oversized_start(corpus50):
    big = next(P for P in corpus50 if P.V > 8)
    with pytest.raises(InputError):
        M.descend(big, M.DescentConfig(max_vertices=8))


def test_descend_cubocta_improves_monotonically(cubocta_d):
    tr = M.descend(cubocta_d, M.DescentConfig(seed=0, max_iters=6))
    assert tr.steps[0].product_before == pytest.approx(40 / 3, rel=1e-9)
    for s in tr.steps:
        assert s.product_after < s.product_before - 1e-9
    assert tr.meta["terminated_by"] == "classification"
    assert tr.final_classification.verdict == M.AFFINE_OCTAHEDRON
    assert abs(tr.final_gap) <= 1e-12


def test_descend_stays_in_vertex_class(cubocta_d):
    tr = M.descend(cubocta_d, M.DescentConfig(seed=1, max_iters=4))
    for s in tr.steps:
        assert len(s.snapshot["vertices"]) * 2 <= 12
    assert tr.final.V <= 12


def test_descend_rational_bit_identical():
    P = M.build_sym_polytope(CUBOCTA_REPS, kernel=M.RATIONAL)
    cfg = M.DescentConfig(seed=5, max_iters=2)
    tr1 = M.descend(P, cfg)
    tr2 = M.descend(P, cfg)
    assert len(tr1.steps) == len(tr2.steps) >= 1
    for a, b in zip(tr1.steps, tr2.steps):
        assert a.theta.theta == b.theta.theta
        assert a.alpha.alpha == b.alpha.alpha
        assert a.t == b.t
        assert a.product_before == b.product_before
        assert a.product_after == b.product_after
        assert a.snapshot == b.snapshot
    assert tr1.final.vertices == tr2.final.vertices
    assert tr1.final_gap == tr2.final_gap
    assert tr1.final.kernel == M.RATIONAL


@pytest.mark.parametrize("start,seed", [("cubocta", 5), ("random1", 1),
                                        ("random2", 2)])
def test_descend_exact_ends_at_mahler_bound(start, seed):
    # Exact moves land on exact breakpoints, so the descent is a chain of
    # exact products ending on exactly 32/3 with a terminal verdict.
    if start == "cubocta":
        P = M.build_sym_polytope(CUBOCTA_REPS, kernel=M.RATIONAL)
    else:
        D = M.random_symmetric_polytope(4, seed=seed)
        den = 1 << 20
        P = M.build_sym_polytope(
            [tuple(Fraction(round(x * den), den) for x in D.vertices[i])
             for i in D.rep_indices()], kernel=M.RATIONAL)
    tr = M.descend(P, M.DescentConfig(seed=seed, max_iters=8))
    assert tr.final.kernel == M.RATIONAL
    assert M.volume_product(tr.final).product == Fraction(32, 3)
    assert tr.final_classification.verdict in (M.PARALLELEPIPED,
                                               M.AFFINE_OCTAHEDRON)
    assert tr.meta["terminated_by"] == "classification"


def test_exact_descent_projects_few_speeds_exactly(monkeypatch):
    # nontrivial_speed ranks the basis in floats and projects exactly only
    # the near-largest vectors: 8 exact projections over the 4 steps of
    # this descent and its final witness, where projecting every basis
    # vector took 101
    built = []
    project = M.shadow._off_trivial

    def counted(S, speeds):
        built.extend(speeds)
        return project(S, speeds)

    monkeypatch.setattr(M.shadow, "_off_trivial", counted)
    P = M.snap_to_rational(M.random_symmetric_polytope(5, seed=7022))
    tr = M.descend(P, M.DescentConfig(seed=22, max_iters=12))
    assert len(tr.steps) == 4
    assert tr.final_classification.verdict == M.AFFINE_OCTAHEDRON
    assert len(built) == 8


def test_descend_seeded_random_start():
    P = M.random_symmetric_polytope(5, seed=3)
    tr = M.descend(P, M.DescentConfig(seed=3, max_iters=4))
    for s in tr.steps:
        assert s.product_after <= s.product_before - 1e-9
    assert float(tr.final_gap) >= -1e-6


def test_corpus_verify_cube_fixture(cube_d):
    summary = M.corpus_verify(1, bodies=[cube_d])
    assert summary["count"] == 1
    assert summary["min_product"] == pytest.approx(float(Fraction(32, 3)),
                                                   rel=1e-12)
    assert not summary["alarm"]


def test_corpus_verify_thin_affine_octahedron():
    # A thin affine octahedron (det 6e-6) whose double-kernel product
    # rounds to 10.66666666470405, below 32/3 - 1e-9; its exact product is
    # 32/3, so it must not raise the alarm.
    reps = [(0.42158398987781437, 0.5397692010958358, 0.7286399309858511),
            (0.5843260741857422, 0.5108817278784602, 0.6305258909407268),
            (0.7944886333272518, 0.42792949575784905, 0.4308876398485207)]
    P = M.build_sym_polytope(reps, kernel=M.DOUBLE)
    assert float(M.volume_product(P).product) < float(Fraction(32, 3)) - 1e-9
    summary = M.corpus_verify(1, bodies=[P], dirs_per_body=0)
    assert summary["min_product"] == float(Fraction(32, 3))
    assert not summary["alarm"]


def test_corpus_verify_random_batch():
    summary = M.corpus_verify(20, n_pairs_max=6, seed=77)
    assert summary["count"] == 20
    assert summary["min_gap"] >= -1e-9
    assert summary["directions_checked"] > 0
    assert not summary["alarm"]


def test_corpus_verify_validates_args():
    with pytest.raises(InputError):
        M.corpus_verify(0)
    with pytest.raises(InputError):
        M.corpus_verify(5, n_pairs_max=2)
    # no body verified has no product to summarize
    with pytest.raises(InputError, match="no body"):
        M.corpus_verify(1, bodies=[])


def test_no_state_left_on_input_bodies(corpus50, cubocta_d):
    """Verification and descent keep nothing on the bodies they are given:
    a per-body cache would live as long as the whole corpus."""
    bodies = corpus50[:8] + [cubocta_d]

    def keys():
        return [(sorted(vars(P)), sorted(vars(P.lattice))) for P in bodies]

    before = keys()
    M.corpus_verify(len(bodies), bodies=bodies)
    M.descend(cubocta_d, M.DescentConfig(seed=1, max_iters=2))
    M.descend(corpus50[2], M.DescentConfig(seed=2, max_iters=2))
    assert keys() == before


def test_double_verification_and_descent_build_no_carrier(
        monkeypatch, corpus50, cube_r, cubocta_r):
    """The exact carrier of a direction is built the first time it is read.
    Double-kernel verification and descent never read it; only the
    classification does, which reasons on rational bodies."""
    from mahler3d import combinatorics, shadow
    builds, classifying = [], []
    real_carrier = shadow._exact_carrier
    real_classify = combinatorics.classify_minimizer_candidate

    def carrier(ray):
        builds.append(bool(classifying))
        return real_carrier(ray)

    def classify(P):
        classifying.append(P)
        try:
            return real_classify(P)
        finally:
            classifying.pop()

    monkeypatch.setattr(shadow, "_exact_carrier", carrier)
    monkeypatch.setattr(combinatorics, "classify_minimizer_candidate",
                        classify)
    M.corpus_verify(len(corpus50), bodies=corpus50)
    assert builds == []
    for seed, P in enumerate(corpus50[:4]):
        M.descend(P, M.DescentConfig(seed=seed, max_iters=2))
    assert builds and all(builds)
    # the classification evidence still reads the carrier
    assert M.classify_minimizer_candidate(cube_r).evidence == {
        "V": 8, "E": 12, "F": 6, "max_degree": 3, "facet_size_census": {4: 6}}
    ev = M.classify_minimizer_candidate(cubocta_r).evidence
    assert ev["witness_theta"] == (
        Fraction(0), Fraction(-2251799813685248, 2373605415329393),
        Fraction(2251799813685248, 7120816245988179))
    assert ev["witness_speed"] == tuple(
        Fraction(x) for x in (0, 1, 1, 0, 0, 0, 0, -1, -1, 0, 0, 0))


def test_rational_descend_builds_no_double_hull(monkeypatch):
    # Moves are scored on the float coefficients of the exact body itself,
    # so no double proxy is hulled.
    from mahler3d import hull
    calls = []
    real = hull.hull_3d

    def counted(points, exact, dist_tol=None):
        calls.append(exact)
        return real(points, exact, dist_tol)

    monkeypatch.setattr(hull, "hull_3d", counted)
    P = M.build_sym_polytope(CUBOCTA_REPS, kernel=M.RATIONAL)
    tr = M.descend(P, M.DescentConfig(seed=5, max_iters=2))
    assert tr.steps
    assert calls and all(calls)


def test_tied_moves_ignore_score_noise(monkeypatch):
    # The seed-5 cuboctahedron has several moves with one exact product;
    # their float scores differ by rounding only, and noise of that size
    # must not change which move is taken.
    from mahler3d import optimizer
    P = M.build_sym_polytope(CUBOCTA_REPS, kernel=M.RATIONAL)
    cfg = M.DescentConfig(seed=5, max_iters=1)
    first = M.descend(P, cfg).steps[0]
    real = optimizer._line_search
    for seed in range(10):
        rng = np.random.default_rng(seed)

        def noisy(*args):
            t, prod, change = real(*args)
            return t, prod * (1 + 1e-12 * rng.uniform(-1, 1)), change

        monkeypatch.setattr(optimizer, "_line_search", noisy)
        step = M.descend(P, cfg).steps[0]
        assert (step.side, step.theta) == (first.side, first.theta)


def test_descent_builds_witness_evidence_once(monkeypatch, cubocta_r):
    # the descent reads only verdicts on its iterates; the witness of the
    # final classification is the one it certifies.  The first start ends at
    # a parallelepiped, which needs none; cut after one move it ends excluded
    # on a lattice that its snap changes, and the witness is certified once
    from mahler3d import combinatorics
    calls = []
    real = combinatorics._witness_evidence

    def witness_evidence(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(combinatorics, "_witness_evidence", witness_evidence)
    start = M.random_symmetric_polytope(5, seed=2)
    counts = []
    traces = []
    for P, cfg in ((start, M.DescentConfig(seed=2)),
                   (start, M.DescentConfig(seed=2, max_iters=1)),
                   (cubocta_r, M.DescentConfig(seed=5, max_iters=1))):
        calls.clear()
        tr = M.descend(P, cfg)
        counts.append(len(calls))
        traces.append(tr)
        assert len(calls) == (tr.final_classification.verdict == M.EXCLUDED)
    assert counts == [0, 1, 0]
    tr = traces[1]
    census = M.snap_to_rational(tr.final).lattice.facet_size_census()
    assert tr.final.lattice.facet_size_census() == {3: 12, 4: 2}
    assert census == tr.final_classification.evidence["facet_size_census"]
    assert census == {3: 16}


@pytest.mark.parametrize("n_pairs, seed, cfg", [
    # acceptance-7 run 21: the snap of its final parallelepiped has triangles
    (4, 7021, M.DescentConfig(seed=21, max_iters=12)),
    # stalled while the in-plane witness of a quadrilateral raised
    (7, 9100, M.DescentConfig(seed=0, max_iters=40, max_vertices=14)),
], ids=["acceptance-7-run-21", "in-plane-ambiguous"])
def test_descent_judges_its_own_lattice(snap_calls, n_pairs, seed, cfg):
    tr = M.descend(M.random_symmetric_polytope(n_pairs, seed=seed), cfg)
    assert tr.final_classification.verdict == M.PARALLELEPIPED
    assert tr.meta["terminated_by"] == "classification"
    assert tr.final.lattice.facet_size_census() == {4: 6}
    assert abs(tr.final_gap) <= 1e-9
    assert snap_calls == []
