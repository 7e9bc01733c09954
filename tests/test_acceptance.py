"""End-to-end acceptance gate for the toolkit.

Eight independent checks, one test each, covering: exact endpoint products,
the duality suite on a fixed random corpus, affine invariance of the volume
product, the admissible-dimension bound sweep, shadow-system mechanics along
certified systems, minimizer classification with re-verifiable witnesses, a
seeded batch of descent runs, and the corpus-wide lower-bound alarm.

Every test prints a single machine-greppable line
``acceptance N: PASS/FAIL - <measured quantities>`` before asserting, so a
log scan shows the whole gate at a glance.  Stated time budgets are asserted
with wall-clock timers.
"""

import time
from collections import Counter
from fractions import Fraction

import numpy as np

import mahler3d as M
from mahler3d import errors as E
from mahler3d.cli import _sweep_directions

import conftest
from conftest import CUBE_REPS, HEX_PRISM_REPS, OCTA_REPS, sym

MAHLER = 32.0 / 3.0


def _verdict(num, ok, detail):
    line = f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line, flush=True)
    conftest.GATE_LINES.append(line)
    assert ok, line


def test_1_endpoint_products():
    t0 = time.perf_counter()
    cube_r = sym(CUBE_REPS, M.RATIONAL)
    octa_r = sym(OCTA_REPS, M.RATIONAL)
    exact_ok = (M.volume_product(cube_r).product == Fraction(32, 3)
                and M.volume_product(octa_r).product == Fraction(32, 3))
    cube_d = sym(CUBE_REPS, M.DOUBLE)
    octa_d = sym(OCTA_REPS, M.DOUBLE)
    rel = max(abs(M.volume_product(cube_d).product - MAHLER),
              abs(M.volume_product(octa_d).product - MAHLER)) / MAHLER
    dt = time.perf_counter() - t0
    ok = exact_ok and rel <= 1e-12 and dt < 1.0
    _verdict(1, ok, f"cube and octahedron products 32/3 (exact={exact_ok}, "
                    f"double rel err {rel:.1e} <= 1e-12), {dt:.2f}s < 1s")


def test_2_duality_suite(corpus50, cube_d, octa_d, cubocta_d):
    bodies = list(corpus50) + [cube_d, octa_d, cubocta_d,
                               sym(HEX_PRISM_REPS, M.DOUBLE)]
    t0 = time.perf_counter()
    counts_ok = True
    worst_vertex = 0.0
    worst_rel = 0.0
    for P in bodies:
        Q = M.polar(P)
        counts_ok = counts_ok and Q.V == P.lattice.F and Q.lattice.F == P.V
        R = M.polar(Q)
        # set recovery: bipolar vertex order may differ from the original
        d = np.abs(R.as_array()[:, None, :] - P.as_array()[None, :, :]).max(axis=2)
        dev = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
        worst_vertex = max(worst_vertex, dev)
        pP = float(M.volume_product(P).product)
        pQ = float(M.volume_product(Q).product)
        worst_rel = max(worst_rel, abs(pQ - pP) / pP)
    dt = time.perf_counter() - t0
    ok = (len(bodies) >= 50 and counts_ok and worst_vertex <= 1e-9
          and worst_rel <= 1e-9 and dt < 30.0)
    _verdict(2, ok, f"{len(bodies)} bodies: count swaps={counts_ok}, bipolar "
                    f"vertex dev {worst_vertex:.1e} <= 1e-9, product dev "
                    f"{worst_rel:.1e} <= 1e-9 rel, {dt:.1f}s < 30s")


def test_3_affine_invariance(corpus50):
    rng = np.random.default_rng(31415)
    worst = 0.0
    for P in corpus50:
        base = float(M.volume_product(P).product)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            while abs(np.linalg.det(A)) < 0.1:
                A = rng.normal(size=(3, 3))
            img = float(M.volume_product(M.linear_image(P, A)).product)
            worst = max(worst, abs(img - base) / base)
    ok = worst <= 1e-6
    _verdict(3, ok, f"{len(corpus50)} bodies x 20 invertible maps: product "
                    f"drift {worst:.1e} <= 1e-6 rel")


def test_4_dimension_bound_sweep(corpus50, cube_r, octa_r, cubocta_r):
    t0 = time.perf_counter()
    bodies = list(corpus50) + [cube_r, octa_r, cubocta_r]
    violations = 0
    total = 0
    min_checked = None
    for i, P in enumerate(bodies):
        checked = 0
        for th in _sweep_directions(P, 72, 4000 + i):
            try:
                rep = M.dimension_bound(P, th)
            except E.ParallelismAmbiguity:
                continue
            except E.BoundViolation:
                violations += 1
                checked += 1
                continue
            checked += 1
            if rep.dim_actual < rep.bound:
                violations += 1
        min_checked = checked if min_checked is None else min(min_checked, checked)
        total += checked

    rc = M.dimension_bound(cube_r, (0, 0, 1))
    ro = M.dimension_bound(octa_r, M.generic_direction([octa_r], seed=7))
    rq = M.dimension_bound(cubocta_r, (1, 1, 0))
    anchors_ok = (rc.bound == 3 and ro.bound == 3 and ro.dim_actual == 3
                  and rq.bound == 4 and rq.dim_actual == 4
                  and rq.nontrivial_certified and rq.witness_speed is not None)
    if anchors_ok:
        # the witness must be re-certifiable: exactly admissible, outside the
        # trivial span, and persisting on a positive interval
        res = M.admissibility_residual(cubocta_r, rq.theta, rq.witness_speed)
        S = M.shadow_system(cubocta_r, rq.theta, rq.witness_speed)
        anchors_ok = (res == 0 and S.c > 0
                      and not M.is_trivial(rq.space, rq.witness_speed))
    dt = time.perf_counter() - t0
    ok = (violations == 0 and min_checked >= 64 and anchors_ok and dt < 120.0)
    _verdict(4, ok, f"{len(bodies)} bodies, {total} directions (>= {min_checked}"
                    f"/body): {violations} bound violations, anchor dims "
                    f"3/3/4={anchors_ok}, {dt:.1f}s < 120s")


def test_5_shadow_system_mechanics(corpus50, cube_r, octa_r, cubocta_r):
    systems = []
    rq = M.dimension_bound(cubocta_r, (1, 1, 0))
    systems.append(M.shadow_system(cubocta_r, rq.theta, rq.witness_speed))
    systems.append(M.shadow_system(cube_r, (0, 0, 1),
                                   M.trivial_speed(cube_r, (0, 0, 1))))
    gd = M.generic_direction([octa_r], seed=3)
    systems.append(M.shadow_system(octa_r, gd, M.trivial_speed(octa_r, (1, 0, 0))))
    for i, P in enumerate(corpus50):
        th = M.generic_direction([P], seed=100 + i)
        space = M.admissible_space(P, th)
        systems.append(M.shadow_system(P, th, space.basis[0]))

    worst_quad = 0.0
    worst_d2 = 0.0
    lattice_ok = True
    for S in systems:
        rep_v = M.check_volume_affine(S, samples=9)
        lin = max(abs(rep_v["intercept"]), abs(rep_v["slope"]) * rep_v["c"])
        worst_quad = max(worst_quad,
                         abs(rep_v["quad_coeff"]) * rep_v["c"] ** 2 / lin)
        rep_c = M.check_inverse_polar_convexity(S, samples=9)
        worst_d2 = min(worst_d2, rep_c["min_second_diff"])
        for t in np.linspace(-S.c, S.c, 9):
            Pt = M.deform(S.base, S.theta, S.alpha, float(t))
            if not M.same_labeled_lattice(S.base.lattice, Pt.lattice):
                lattice_ok = False
    ok = worst_quad <= 1e-8 and lattice_ok and worst_d2 >= -1e-8
    _verdict(5, ok, f"{len(systems)} certified systems: volume quad term "
                    f"{worst_quad:.1e} <= 1e-8 rel, lattice constant="
                    f"{lattice_ok}, inverse-polar 2nd diff {worst_d2:.1e} "
                    f">= -1e-8")


def test_6_minimizer_classification(cube_r, octa_r, cubocta_r):
    rc = M.classify_minimizer_candidate(cube_r)
    ro = M.classify_minimizer_candidate(octa_r)
    rq = M.classify_minimizer_candidate(cubocta_r)
    verdicts_ok = (rc.verdict == M.PARALLELEPIPED
                   and ro.verdict == M.AFFINE_OCTAHEDRON
                   and rq.verdict == M.EXCLUDED)
    witness_ok = False
    if verdicts_ok:
        ev = rq.evidence
        B = cubocta_r if ev["witness_side"] == "primal" else M.polar(cubocta_r)
        th = ev["witness_theta"]
        alpha = M.speed_vector(B, ev["witness_speed"])
        space = M.admissible_space(B, th)
        witness_ok = (M.admissibility_residual(B, th, alpha) == 0
                      and not M.is_trivial(space, alpha)
                      and space.dim > 3)
    ok = verdicts_ok and witness_ok
    _verdict(6, ok, f"cube={rc.verdict}, octahedron={ro.verdict}, "
                    f"cuboctahedron={rq.verdict}, witness re-verified="
                    f"{witness_ok}")


def test_7_descent_batch():
    t0 = time.perf_counter()
    thr = 0.15 * MAHLER
    pairs_cycle = (3, 4, 5, 6)
    monotone_ok = True
    floor_ok = True
    hits = 0
    gaps = []
    verdicts = Counter()
    endings = Counter()
    for i in range(25):
        P = M.random_symmetric_polytope(pairs_cycle[i % 4], seed=7000 + i)
        tr = M.descend(P, M.DescentConfig(seed=i, max_iters=12))
        verdicts[tr.final_classification.verdict] += 1
        endings[tr.meta["terminated_by"]] += 1
        for s in tr.steps:
            monotone_ok = monotone_ok and s.product_after <= s.product_before + 1e-12
        for a, b in zip(tr.steps, tr.steps[1:]):
            monotone_ok = monotone_ok and b.product_before <= a.product_after + 1e-9
        floor_ok = floor_ok and tr.final_gap >= -1e-6
        gaps.append(tr.final_gap)
        hits += tr.final_gap <= thr
    frac = hits / 25.0
    dt = time.perf_counter() - t0
    ok = monotone_ok and floor_ok and frac >= 0.60 and dt < 600.0
    _verdict(7, ok, f"25 descents: monotone={monotone_ok}, floor 32/3-1e-6="
                    f"{floor_ok}, {hits}/25 = {frac:.0%} with gap <= "
                    f"{thr:.2f} (need >= 60%), median gap "
                    f"{float(np.median(gaps)):.2f}, verdicts {dict(verdicts)}, "
                    f"terminated by {dict(endings)}, {dt:.0f}s < 600s")


def test_8_corpus_alarm():
    t0 = time.perf_counter()
    summary = M.corpus_verify(200, seed=2024)
    dt = time.perf_counter() - t0
    ok = (summary["alarm"] is False and summary["count"] == 200
          and summary["min_product"] >= MAHLER - 1e-9)
    _verdict(8, ok, f"200 bodies, no alarm, min product "
                    f"{summary['min_product']:.12f} >= 32/3 - 1e-9, "
                    f"min gap {summary['min_gap']:.1e}, {dt:.1f}s")
