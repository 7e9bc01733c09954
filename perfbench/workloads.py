"""The benchmark's workloads: descent, exact and corpus.

A workload makes all of its inputs from the seed when it is constructed
(set-up time).  ``run_round`` then runs one round of fixed operations
through mahler3d's public API and ``mahler3d.cli.main``; every round of a
run repeats the same operations on the same inputs.  ``check`` verifies a
round's outputs against ``checks`` (Qhull and Fraction arithmetic) outside
the timed region, and returns the round's quality numbers.

Functions are always called as module attributes (``geometry.volume``, not
a name bound at import) so that the tracer's wrappers see the calls.
"""

import csv
import json
import os
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

from mahler3d import cli, combinatorics, geometry, optimizer, polarity, shadow

import checks

BOUND = float(checks.MAHLER_BOUND)
HIT_GAP = 0.15 * BOUND     # a descent "hits" when its final gap is this or less

CUBE = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
OCTAHEDRON = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
CUBOCTAHEDRON = ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
                 (0, 1, 1), (0, 1, -1))
HEXAGONAL_PRISM = ((2, 0, 1), (1, 2, 1), (-1, 2, 1),
                   (2, 0, -1), (1, 2, -1), (-1, 2, -1))


class OpFailed(Exception):
    pass


class Round:
    """Operation counts and outputs of one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs = {}
        self.op_s = {}

    def op(self, key, fn):
        """Run one operation; a raised error counts it as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.outputs[key] = fn()
        except Exception:
            self.failed += 1
            self.outputs[key] = None
            sys.stderr.write(f"operation {key} failed:\n{traceback.format_exc()}")
        self.op_s[key] = time.perf_counter() - t0


def _descent_quality(drop, gaps):
    """Quality numbers of a workload's descents: the summed product drop
    (start minus final product), each final gap to 32/3, and how many
    gaps are at most 0.15 x 32/3."""
    return {"product_drop": drop, "final_gaps": gaps,
            "hits": sum(g <= HIT_GAP for g in gaps), "descents": len(gaps)}


def _rng(seed, stream):
    return np.random.default_rng([seed % 2 ** 63, stream])


def _sphere_points(rng, k, base=None, jitter=0.0, min_sep=1e-3):
    """k unit vectors whose antipodally closed set keeps every two points
    at least ``min_sep`` apart; ``base`` plus Gaussian jitter if given."""
    while True:
        pts = rng.normal(size=(k, 3)) if base is None \
            else base + jitter * rng.normal(size=(k, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        full = np.vstack([pts, -pts])
        d = np.linalg.norm(full[:, None] - full[None, :], axis=2)
        if d[np.triu_indices(2 * k, 1)].min() >= min_sep:
            return pts


def _write_body(path, reps):
    with open(path, "w") as fh:
        json.dump({"vertices": [[str(c) for c in p] for p in reps],
                   "symmetric": True}, fh)


def _cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"mahler3d {argv[0]} exited with {rc}")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return list(csv.DictReader(lines[1:]))   # line 0 is the manifest


class Descent:
    """``mahler3d optimize`` on the double kernel from unit-sphere starts at
    V = 8, 10 and 12, a few iterations each.

    Each start is one of three fixed sphere configurations, drawn once from
    BASE_SEED, perturbed by jitter drawn from the run's seed; the descent's
    own direction seed belongs to the configuration.  A descent picks the
    best of many candidate moves, so unrelated random starts take different
    paths and ask for different amounts of work; perturbed starts keep the
    work of a run comparable across seeds.
    """

    PAIRS = (4, 5, 6)
    ITERS = 2
    BASE_SEED = 8128       # the fixed configurations the seed perturbs
    JITTER = 1e-3

    def __init__(self, seed, workdir):
        rng = _rng(seed, 1)
        self.starts = []
        for k in self.PAIRS:
            base_rng = _rng(self.BASE_SEED, k)
            base = _sphere_points(base_rng, k, min_sep=0.3)
            pts = _sphere_points(rng, k, base=base, jitter=self.JITTER,
                                 min_sep=0.2)
            name = f"optimize_V{2 * k}"
            path = os.path.join(workdir, f"{name}_start.json")
            with open(path, "w") as fh:
                json.dump({"vertices": pts.tolist(), "symmetric": True}, fh)
            self.starts.append((name, path, int(base_rng.integers(0, 2 ** 31))))
        self.workdir = workdir

    def run_round(self):
        rnd = Round()
        for name, path, op_seed in self.starts:
            out = os.path.join(self.workdir, name)

            def op():
                _cli(["optimize", "--input", path, "--max-iters",
                      str(self.ITERS), "--seed", str(op_seed),
                      "--out", out + ".json", "--csv", out + ".csv"])
                return _read_json(out + ".json")

            rnd.op(name, op)
        return rnd

    def check(self, outputs):
        problems, gaps, drop = [], [], 0.0
        for key, data in outputs.items():
            if data is None:
                continue
            steps = data["steps"]
            for s in steps:
                if not float(s["product_after"]) < float(s["product_before"]):
                    problems.append(f"{key}: step {s['step']} did not lower "
                                    "the product")
            gap = float(data["final_gap"])
            final = BOUND + gap
            if final < BOUND - 1e-6:
                problems.append(f"{key}: final product {final!r} below 32/3")
            reps = [[float(c) for c in v] for v in data["final"]["vertices"]]
            if 2 * len(reps) > 12:
                problems.append(f"{key}: final body has V = {2 * len(reps)}")
            if not checks.agrees(final, checks.qhull_product(reps)):
                problems.append(f"{key}: final product {final!r} disagrees "
                                "with Qhull")
            start = float(steps[0]["product_before"]) if steps else final
            drop += start - final
            gaps.append(gap)
        return problems, _descent_quality(drop, gaps)

    def fingerprint(self, outputs):
        return {k: v and v["final_gap"] for k, v in outputs.items()}


class Exact:
    """Rational-kernel work: certified ``deform`` trajectories with the two
    trajectory checkers, ``classify`` and ``product`` on the named bodies,
    and a one-iteration rational descent of the cuboctahedron (seed 5)."""

    SAMPLES = 9
    DYADIC_BITS = 20
    DESCENT = optimizer.DescentConfig(seed=5, max_iters=1)
    VERDICTS = {"cube": "Parallelepiped", "octahedron": "AffineOctahedron",
                "cuboctahedron": "Excluded"}

    def __init__(self, seed, workdir):
        rng = _rng(seed, 2)
        den = 1 << self.DYADIC_BITS
        self.reps = {"cube": CUBE, "octahedron": OCTAHEDRON,
                     "cuboctahedron": CUBOCTAHEDRON,
                     "hexagonal_prism": HEXAGONAL_PRISM}
        self.deforms = [("cuboctahedron", (1, 1, 0)),
                        ("hexagonal_prism", (1, 0, 0))]
        for k in (4, 5):
            pts = _sphere_points(rng, k, min_sep=0.2)
            self.reps[f"dyadic_V{2 * k}"] = tuple(
                tuple(Fraction(round(float(x) * den), den) for x in p)
                for p in pts)
            theta = (0, 0, 0)
            while theta == (0, 0, 0):
                theta = tuple(int(x) for x in rng.integers(-9, 10, 3))
            self.deforms.append((f"dyadic_V{2 * k}", theta))
        self.reps = {n: tuple(tuple(Fraction(c) for c in p) for p in r)
                     for n, r in self.reps.items()}
        self.paths = {}
        for name, reps in self.reps.items():
            self.paths[name] = os.path.join(workdir, f"{name}.json")
            _write_body(self.paths[name], reps)
        self.workdir = workdir

    def _deform(self, name, theta):
        P = geometry.build_sym_polytope(self.reps[name], kernel=geometry.RATIONAL)
        alpha = combinatorics.dimension_bound(P, theta).witness_speed
        speed = ",".join(str(a) for a in alpha.alpha[:P.n_pairs])
        out = os.path.join(self.workdir, f"deform_{name}.csv")
        _cli(["deform", self.paths[name], "--theta=" + ",".join(map(str, theta)),
              "--speed=" + speed, "--samples", str(self.SAMPLES), "--csv", out])
        rows = _read_csv(out)
        S = shadow.shadow_system(P, theta, alpha, c=-Fraction(rows[0]["t"]))
        shadow.check_volume_affine(S, samples=self.SAMPLES)
        shadow.check_inverse_polar_convexity(S, samples=self.SAMPLES)
        return rows

    def _command(self, command, name):
        out = os.path.join(self.workdir, f"{command}_{name}.json")
        _cli([command, self.paths[name], "--out", out])
        return _read_json(out)

    def run_round(self):
        rnd = Round()
        for name, theta in self.deforms:
            rnd.op(f"deform_{name}", lambda: self._deform(name, theta))
        for name in self.VERDICTS:
            rnd.op(f"classify_{name}", lambda: self._command("classify", name))
        for name in ("cube", "octahedron"):
            rnd.op(f"product_{name}", lambda: self._command("product", name))
        rnd.op("descend_cuboctahedron", lambda: optimizer.descend(
            geometry.build_sym_polytope(self.reps["cuboctahedron"],
                                        kernel=geometry.RATIONAL),
            self.DESCENT))
        return rnd

    def check(self, outputs):
        problems = []
        for name, _ in self.deforms:
            rows = outputs[f"deform_{name}"]
            if rows is not None:
                problems += [f"deform {name}: {p}"
                             for p in checks.deform_trajectory_problems(rows)]
        for name, verdict in self.VERDICTS.items():
            data = outputs[f"classify_{name}"]
            if data is not None and data["verdict"] != verdict:
                problems.append(f"classify {name}: {data['verdict']} "
                                f"!= {verdict}")
        data = outputs["classify_cuboctahedron"]
        if data is not None and data["verdict"] == "Excluded":
            problems += self._witness_problems(data["evidence"])
        for name in ("cube", "octahedron"):
            data = outputs[f"product_{name}"]
            if data is not None and data["product"] != "32/3":
                problems.append(f"product {name}: {data['product']} != 32/3")
            if checks.exact_product(self.reps[name]) != checks.MAHLER_BOUND:
                problems.append(f"{name}: Qhull fan product != 32/3")
        tr = outputs["descend_cuboctahedron"]
        drop, gaps = 0.0, []
        if tr is not None:
            for s in tr.steps:
                if not s.product_after < s.product_before:
                    problems.append("descend: a step did not lower the product")
            final = polarity.volume_product(tr.final).product
            reps = [tr.final.vertices[i] for i in tr.final.rep_indices()]
            if final != checks.exact_product(reps):
                problems.append("descend: final exact product disagrees with "
                                "the Qhull fan product")
            if final < checks.MAHLER_BOUND:
                problems.append("descend: final product below 32/3")
            start = tr.steps[0].product_before if tr.steps else float(final)
            drop = start - float(final)
            gaps.append(float(final - checks.MAHLER_BOUND))
        return problems, _descent_quality(drop, gaps)

    def _witness_problems(self, evidence):
        B = geometry.build_sym_polytope(self.reps["cuboctahedron"],
                                        kernel=geometry.RATIONAL)
        if evidence["witness_side"] == "polar":
            B = polarity.polar(B)
        speeds = [Fraction(a) for a in evidence["witness_speed"]]
        theta = [Fraction(x) for x in evidence["witness_theta"]]
        return [f"classify cuboctahedron witness: {p}" for p in
                checks.witness_problems(list(B.vertices), speeds, theta)]

    def fingerprint(self, outputs):
        out = {}
        for key, v in outputs.items():
            if key.startswith("descend") and v is not None:
                v = v.final.vertices
            out[key] = v
        return out


class Corpus:
    """About two thousand random bodies with 3..12 pairs (V = 6..24), each
    built with ``build_sym_polytope`` and verified by ``corpus_verify``:
    its volume product plus ``dimension_bound`` at four directions."""

    BODIES = 2000
    PAIRS = range(3, 13)

    def __init__(self, seed, workdir):
        rng = _rng(seed, 3)
        self.points = []
        for i in range(self.BODIES):
            k = self.PAIRS[i % len(self.PAIRS)]
            self.points.append([tuple(map(float, p))
                                for p in _sphere_points(rng, k)])
        self.verify_seed = int(rng.integers(0, 2 ** 31))

    def run_round(self):
        rnd = Round()
        bodies = []
        for i, pts in enumerate(self.points):
            rnd.op(f"body_{i}", lambda: bodies.append(
                geometry.build_sym_polytope(pts, kernel=geometry.DOUBLE)))
        try:
            summary = optimizer.corpus_verify(
                len(bodies), n_pairs_max=max(self.PAIRS),
                seed=self.verify_seed, bodies=bodies)
        except Exception:
            # one verification covers every body, so each of them failed
            summary = None
            rnd.failed = rnd.attempted
            sys.stderr.write(f"corpus_verify failed:\n{traceback.format_exc()}")
        rnd.outputs = {"summary": summary, "V": [P.V for P in bodies]}
        return rnd

    def check(self, outputs):
        problems = []
        summary = outputs["summary"]
        if summary is None:
            return problems, {}
        prods = np.array([checks.qhull_product(p) for p in self.points])
        for stat, ref in (("min_product", prods.min()),
                          ("median_product", np.median(prods)),
                          ("max_product", prods.max())):
            if not checks.agrees(summary[stat], ref):
                problems.append(f"{stat} {summary[stat]!r} disagrees with "
                                f"Qhull {ref!r}")
        if prods.min() < BOUND - 1e-9:
            problems.append("a Qhull product is below 32/3 - 1e-9")
        if summary["alarm"] or summary["count"] != len(self.points):
            problems.append("corpus_verify raised an alarm or skipped bodies")
        if outputs["V"] != [2 * len(p) for p in self.points]:
            problems.append("a body lost vertices")
        return problems, {"min_product": summary["min_product"],
                          "median_product": summary["median_product"]}

    def fingerprint(self, outputs):
        return outputs


WORKLOADS = {"descent": Descent, "exact": Exact, "corpus": Corpus}
