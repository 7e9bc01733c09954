"""Volume-product descent over origin-symmetric polytopes with a bounded
vertex budget, using certified non-trivial admissible speeds as moves.

Each iteration assembles candidate directions, extracts a non-trivial speed
from the admissible space of the current body or of its polar, and scores
the deformation at its two lattice breakpoints, where the product takes its
minimum over the persistence interval.  The best improving candidate moves
to its breakpoint, where a vertex meets a facet plane and the lattice
changes.  Polar-side moves re-polarize afterwards.  A breakpoint only
merges facets or drops vertices of the body it deforms, so the vertex count
(the polar's facet count) never grows; every move is still checked against
the budget.  Descent stops at a terminal classification (Parallelepiped or
AffineOctahedron), or when no candidate improves the product beyond the
termination tolerance.

The optimizer is heuristic: failing to find an improving move is evidence,
not proof, of local minimality, and the trace metadata says so.
"""

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import combinatorics as CB, geometry as G, polarity as PO, shadow as SH
from .errors import (CounterexampleAlarm, DegenerateDeformation,
                     GenerationFailure, InputError, NoPersistence,
                     NumericalDegeneracy, ParallelismAmbiguity)


@dataclass(frozen=True)
class DescentConfig:
    max_vertices: int = 12
    direction_budget: int = 8
    termination_tol: float = 1e-9
    seed: int = 0
    max_iters: int = 40

    def __post_init__(self):
        if self.max_vertices < 6 or self.max_vertices % 2:
            raise InputError("max_vertices must be an even integer >= 6")
        if G._as_coord(self.termination_tol, G.DOUBLE) < 0:
            raise InputError("termination_tol must be >= 0")
        for name in ("max_iters", "direction_budget"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise InputError(f"{name} must be an integer >= 0")


@dataclass(frozen=True)
class DescentStep:
    snapshot: dict
    side: str
    theta: SH.Direction
    alpha: SH.SpeedVector
    t: float
    product_before: float
    product_after: float


@dataclass(frozen=True)
class DescentTrace:
    steps: tuple
    final: object
    final_classification: CB.MinimizerClassification
    final_gap: float
    stall_with_nontrivial_speed: bool
    meta: dict


def random_symmetric_polytope(n_pairs, seed, kernel=G.DOUBLE, retries=50):
    """A random SymPolytope with exactly ``n_pairs`` antipodal vertex pairs,
    sampled as unit-sphere points (deterministic per seed).

    Sphere points are in strictly convex position, so a draw only fails on
    near-degenerate configurations; such draws are retried from the same
    stream until the budget runs out.
    """
    if n_pairs < 3:
        raise InputError("need at least 3 vertex pairs")
    rng = np.random.default_rng(seed)
    for _ in range(retries):
        pts = rng.normal(size=(n_pairs, 3))
        norms = np.linalg.norm(pts, axis=1)
        if norms.min() < 1e-12:
            continue
        pts = pts / norms[:, None]
        try:
            P = G.build_sym_polytope([tuple(map(float, p)) for p in pts],
                                     kernel=kernel)
        except (InputError, NumericalDegeneracy):
            continue
        if P.V == 2 * n_pairs:
            return P
    raise GenerationFailure(
        f"no valid {n_pairs}-pair polytope within {retries} draws (seed {seed})")


def _direction_key(d):
    t = d.theta
    lead = next((x for x in t if abs(x) > 1e-12), 1.0)
    s = 1.0 if lead > 0 else -1.0
    return tuple([round(s * x, 9) for x in t])


def _candidate_directions(P, Q, cfg, rng):
    """Random directions plus structure-derived ones: in-plane directions of
    non-triangular facets and shared-edge directions of adjacent
    quadrilateral pairs, on both the body and its polar."""
    dirs = []
    for _ in range(cfg.direction_budget):
        v = rng.normal(size=3)
        if float(np.linalg.norm(v)) < 1e-9:
            v = np.array([1.0, 0.0, 0.0])
        dirs.append(SH.direction(tuple([float(x) for x in v])))
    for B in (P, Q):
        dirs += CB._structural_directions(B, CB._adjacent_quad_edges(B.lattice))
    uniq = {}
    for d in dirs:
        uniq.setdefault(_direction_key(d), d)
    return list(uniq.values())


def _candidates(P, Q, cfg, rng):
    """(side, body, direction, non-trivial speed) for every candidate
    direction and side, ``P`` or its polar ``Q``, that has such a speed."""
    dirs = _candidate_directions(P, Q, cfg, rng)
    sides = (("primal", P), ("polar", Q))
    spaces = [SH.admissible_spaces(B, dirs, skip=ParallelismAmbiguity)
              for _, B in sides]
    speeds = {}  # (side, parallel set) -> its non-trivial speed or None
    candidates = []
    for i, th in enumerate(dirs):
        for (side, B), side_spaces in zip(sides, spaces):
            space = side_spaces[i]
            if space is None:
                continue
            key = (side, space.parallel)
            if key not in speeds:
                speeds[key] = SH.nontrivial_speed(space)
            if speeds[key] is not None:
                candidates.append((side, B, th, speeds[key]))
    return candidates


def _snap_iterate(P):
    """Round an exact iterate to the dyadic 2^-40 grid when that preserves
    the labeled face lattice; plain descent arithmetic otherwise compounds
    coordinate bit length move over move until hulls become intractable."""
    if P.kernel != G.RATIONAL:
        return P
    try:
        snapped = G._snap(P)
    except (InputError, NumericalDegeneracy):
        return P
    if snapped.V == P.V and G.same_labeled_lattice(snapped.lattice, P.lattice):
        return snapped
    return P


def _line_search(B, theta, alpha, tol):
    """Score the deformation at its lattice breakpoints.

    On a fixed lattice |P_t| is affine and 1/|P_t polar| convex in t, so the
    product is quasi-concave on the persistence interval and takes its
    minimum at an endpoint: one of the breakpoints.  The float coefficients
    of the shadow system, built once on either kernel, give the breakpoints
    and the frozen-lattice products there and at t = 0.  Returns (t,
    product at t, largest finite |product change| at a breakpoint), with t
    the lower breakpoint when it improves on t = 0 by more than ``tol``,
    and t = 0 otherwise.
    """
    planes = SH._affine_planes(B, theta, alpha, False)
    ts = [0.0] + [r for r in SH._roots(B, planes, False) if r is not None]
    vals = SH._products(B, planes, ts).tolist()
    change = max((abs(v - vals[0]) for v in vals if math.isfinite(v)),
                 default=0.0)
    best_f, best_t = min(zip(vals, ts))
    if best_f >= vals[0] - tol:
        best_t, best_f = 0.0, vals[0]
    return best_t, best_f, change


def descend(P0, cfg=None):
    """Greedy certified descent of the volume product from ``P0``.

    Candidates are scored by ``_line_search`` on the body itself, on both
    kernels, and tried best first; near-ties go by side and direction.  An
    accepted move goes to the breakpoint of ``persistence_root`` (exact on
    the rational kernel), is re-hulled there, and strictly decreases the
    true product by more than the termination tolerance.  The descent stops
    at an iterate whose own lattice ``_decide`` judges a minimizer, and only
    its final body is classified with a witness.  The trace records each
    move, the final classification, and the gap to 32/3; it also flags the
    suspicious stall where a non-trivial speed has a breakpoint product
    different from the current one, but neither breakpoint improves it.
    """
    cfg = cfg or DescentConfig()
    N = cfg.max_vertices
    if P0.V > N:
        raise InputError(f"start has V = {P0.V} > max_vertices = {N}")
    rng = np.random.default_rng(cfg.seed)
    tol = G._as_coord(cfg.termination_tol, G.DOUBLE)
    bound = float(Fraction(32, 3))
    P = P0
    steps = []
    stall = False
    terminated_by = "iteration-budget"
    for _ in range(cfg.max_iters):
        if CB._decide(P.lattice)[0] != CB.EXCLUDED:
            terminated_by = "classification"
            break
        Q = PO.polar(P)
        before = float(G.volume(P) * G.volume(Q))
        saw_variation = False
        scored = []
        candidates = _candidates(P, Q, cfg, rng)
        for idx, (side, B, th, alpha) in enumerate(candidates):
            try:
                t, prod, change = _line_search(B, th, alpha, tol)
            except NumericalDegeneracy:
                continue
            if change > max(tol, 1e-9 * before):
                saw_variation = True
            if prod < before - tol:
                scored.append((prod, abs(t), idx, side, B, th, alpha, t))
        # scores within 1e-9 relative of the best are one move up to
        # rounding: take those in (side, direction key) order
        cut = min([s[0] for s in scored], default=0.0) * (1 + 1e-9)
        scored.sort(key=lambda s: (0, s[3], _direction_key(s[5]))
                    if s[0] <= cut else (1,) + s[:3])
        for *_, side, B, th, alpha, t in scored:
            try:
                t = SH.persistence_root(B, th, alpha)[t > 0]
                if t is None:
                    continue
                moved = SH.deform(B, th, alpha, t)
            except (NoPersistence, DegenerateDeformation, NumericalDegeneracy):
                continue
            newP = moved if side == "primal" else PO.polar(moved)
            after = float(PO.volume_product(newP).product)
            if after < before - tol and newP.V <= N:
                break
        else:
            stall = saw_variation   # only a non-trivial candidate sets it
            terminated_by = "no-improving-move"
            break
        steps.append(DescentStep(snapshot=P.to_json_dict(), side=side,
                                 theta=th, alpha=alpha, t=float(t),
                                 product_before=before, product_after=after))
        P = _snap_iterate(newP)
    final_cls = CB.classify_minimizer_candidate(P)
    gap = float(PO.volume_product(P).product) - bound
    if gap < -1e-6:
        raise CounterexampleAlarm(
            f"final product {bound + gap} below 32/3 - 1e-6",
            dump=P.to_json_dict())
    meta = {
        "iterations": len(steps),
        "terminated_by": terminated_by,
        "stall_with_nontrivial_speed": stall,
        "note": ("descent is heuristic: absence of an improving move is "
                 "evidence, not proof, of local minimality"),
        "config": asdict(cfg),
    }
    if stall:
        meta["stall_note"] = ("non-trivial speed found whose breakpoint "
                              "product differs from the current one, but "
                              "no breakpoint improved it; a strict local "
                              "minimum cannot look like this")
    return DescentTrace(steps=tuple(steps), final=P,
                        final_classification=final_cls, final_gap=gap,
                        stall_with_nontrivial_speed=stall, meta=meta)


def corpus_verify(count, n_pairs_max=6, seed=2024, dirs_per_body=4,
                  bodies=None):
    """Generate ``count`` random symmetric polytopes (or verify the given
    bodies), assert the Mahler bound and the dimension bound on each, and
    summarize.

    Raises CounterexampleAlarm with a full polytope dump if any product
    falls below 32/3 - 1e-9 (on the double kernel, only if the product of
    the same vertices read as exact Fractions does too), if a 6-vertex body
    fails to carry the octahedral lattice, and propagates BoundViolation
    from the dimension sweep.
    """
    if bodies is None and count < 1:
        raise InputError("count must be >= 1")
    if n_pairs_max < 3:
        raise InputError("n_pairs_max must be >= 3")
    rng = np.random.default_rng(seed)
    products = []
    checked_dirs = 0
    v6 = 0
    span = max(1, n_pairs_max - 2)
    floor = float(Fraction(32, 3)) - 1e-9
    if bodies is None:
        bodies = (random_symmetric_polytope(3 + (i % span),
                                            int(rng.integers(0, 2 ** 62)))
                  for i in range(count))
    for P in bodies:
        prod = float(PO.volume_product(P).product)
        if prod < floor and P.kernel == G.DOUBLE:
            # rounding in a thin body's fan volumes can dip below the floor
            exact = G.from_representatives(
                [P.vertices[i] for i in P.rep_indices()], G.RATIONAL)
            prod = float(PO.volume_product(exact).product)
        if prod < floor:
            raise CounterexampleAlarm(
                f"volume product {prod!r} below 32/3 - 1e-9",
                dump=P.to_json_dict())
        products.append(prod)
        dirs = [SH.direction(v.tolist())
                for v in rng.normal(size=(dirs_per_body, 3))
                if float(np.linalg.norm(v)) >= 1e-9]
        reports = CB.dimension_bounds(P, dirs, skip=ParallelismAmbiguity)
        checked_dirs += sum(rep is not None for rep in reports)
        if P.V == 6:
            v6 += 1
            lat = P.lattice
            if lat.F != 8 or lat.facet_size_census() != {3: 8}:
                raise CounterexampleAlarm(
                    "6-vertex symmetric body without the octahedral lattice",
                    dump=P.to_json_dict())
    if not products:
        raise InputError("no body to verify")
    arr = np.array(products)
    return {
        "count": len(products),
        "min_product": float(arr.min()),
        "median_product": float(np.median(arr)),
        "max_product": float(arr.max()),
        "mahler_bound": float(Fraction(32, 3)),
        "min_gap": float(arr.min()) - float(Fraction(32, 3)),
        "directions_checked": checked_dirs,
        "v6_bodies_checked": v6,
        "alarm": False,
    }
