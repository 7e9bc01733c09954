"""Parallelism census, the Euler-type dimension bound, and the combinatorial
classification of volume-product minimizer candidates.

The census C_theta(P) = 1/2 sum (m(G) - 3) over facets parallel to theta
feeds the lower bound (F - V)/2 + 2 + C_theta(P) on the dimension of the
admissible speed space.  Whenever that bound exceeds 3 a certified
non-trivial speed exists, which is the engine behind every Excluded verdict:
a candidate whose counts or facet shapes leave room for such a direction
cannot minimize the volume product.

Verdicts read the lattice; exact arithmetic only certifies the witness.
``_decide`` reaches the verdict from the counts, degrees and facet sizes of
the labeled lattice alone, and names the side and the rule for the witness
direction; ``classify_minimizer_candidate`` then certifies that one witness
on the exact kernel.  The lattice that is judged is the body's own; only an
exclusion with a witness snaps a double-kernel body to dyadic rationals, to
certify the witness that ``_decide`` names on the snapped lattice.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry as G, polarity as PO, shadow as SH
from .errors import (BoundViolation, InputError, InternalInconsistency,
                     MahlerError, ParallelismAmbiguity)
from .hull import sub

PARALLELEPIPED = "Parallelepiped"
AFFINE_OCTAHEDRON = "AffineOctahedron"
EXCLUDED = "Excluded"
_DIRECTION_TRIES = 100   # candidates scanned for a witness direction


def _census(lat, parallel):
    return Fraction(sum(lat.m(g) - 3 for g in parallel))


def c_theta(P, theta):
    """1/2 sum of (m(G) - 3) over facets G parallel to theta, as an exact
    Fraction: the sum over the parallel facet pairs of ``parallel_facets``,
    since a facet and its antipode have the same size."""
    return _census(P.lattice, SH.parallel_facets(P, theta))


@dataclass(frozen=True)
class DimensionReport:
    theta: SH.Direction
    c_theta: Fraction
    bound: Fraction
    dim_actual: int
    nontrivial_certified: bool
    space: SH.SpeedSpace
    witness_speed: object


def dimension_bounds(P, thetas, skip=()):
    """Evaluate the dimension bound at each direction of ``thetas`` and
    certify it against the actually computed admissible space.

    Raises BoundViolation if dim A < (F - V)/2 + 2 + C_theta, which can only
    come from a kernel bug.  When the bound exceeds 3 the report carries a
    basis vector certified non-trivial: the first one that ``SH.is_trivial``
    rejects, by the one rule of ``SH._off_frame`` (float residual off the
    trivial span above 1e-9 of the vector's norm).  The census, the bound
    and the witness depend on theta only through its parallel facet set, so
    each is computed once per set, and the witness searches of one call
    share one ``SH._trivial_frame`` of ``P``.
    A direction that ``SH.admissible_spaces`` skips for an error type in
    ``skip`` gets None in place of its report.
    """
    lat = P.lattice
    per_set = {}   # parallel set -> (census, bound, witness)
    frame = None
    reports = []
    for space in SH.admissible_spaces(P, thetas, skip):
        if space is None:
            reports.append(None)
            continue
        if space.parallel not in per_set:
            ct = _census(lat, space.parallel)
            bound = Fraction(lat.F - lat.V, 2) + 2 + ct
            if space.dim < bound:
                raise BoundViolation(
                    f"admissible dimension {space.dim} below bound {bound} "
                    f"at theta = {space.theta.theta}")
            witness = None
            if bound > 3:
                if frame is None:
                    frame = SH._trivial_frame(P)
                witness = next((b for b in space.basis if SH._off_frame(
                    frame, b.as_array()[:P.n_pairs])[1]), None)
                if witness is None:
                    raise InternalInconsistency(
                        "bound > 3 but every basis vector tested trivial")
            per_set[space.parallel] = ct, bound, witness
        ct, bound, witness = per_set[space.parallel]
        reports.append(DimensionReport(
            theta=space.theta, c_theta=ct, bound=bound, dim_actual=space.dim,
            nontrivial_certified=bound > 3, space=space,
            witness_speed=witness))
    return reports


def dimension_bound(P, theta):
    """The dimension report of one direction: ``dimension_bounds`` of
    ``[theta]``."""
    return dimension_bounds(P, [theta])[0]


def generic_direction(bodies, seed=0):
    """A small-integer direction parallel to no facet of any given body.

    Deterministic for a fixed seed; each of the ``_DIRECTION_TRIES``
    candidates is rejected only if parallel to a facet, which a random
    integer triple almost never is.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_DIRECTION_TRIES):
        v = tuple([int(x) for x in rng.integers(-9, 10, 3)])
        if v == (0, 0, 0):
            continue
        d = SH.direction(v)
        if not any(SH.parallel_facets(B, d) for B in bodies):
            return d
    raise InternalInconsistency("no generic direction found in budget")


def in_plane_direction(B, facet):
    """A direction in the plane of the given facet, parallel to no other
    facet of ``B`` (the antipodal facet is necessarily parallel and exempt).

    Scans d_j = (v2 - v1) + j (v3 - v1) for j < ``_DIRECTION_TRIES`` and
    skips a d_j that is parallel to another facet or too nearly parallel to
    decide (``ParallelismAmbiguity``); each other facet rules out at most
    one j, so the scan succeeds on any body with fewer facets than that.
    Raises InternalInconsistency only when the budget ends.
    """
    lat = B.lattice
    cyc = lat.facet_cycles[facet]
    v1, v2, v3 = (B.vertices[cyc[i]] for i in (0, 1, 2))
    u = sub(v2, v1)
    w = sub(v3, v1)
    own = (facet % (lat.F // 2),)
    for j in range(_DIRECTION_TRIES):
        cand = tuple([u[c] + j * w[c] for c in range(3)])
        if all(x == 0 for x in cand):
            continue
        d = SH.direction(cand)
        try:
            if not SH.parallel_facets(B, d, exempt=own):
                return d
        except ParallelismAmbiguity:
            pass
    raise InternalInconsistency(
        f"no in-plane witness direction for facet {facet} in budget")


@dataclass(frozen=True)
class MinimizerClassification:
    verdict: str
    evidence: dict


def _witness_evidence(side, B, rep):
    """Re-verify a witness and package it: its bound must exceed 3, and its
    speed must satisfy every admissibility row exactly and sit outside the
    trivial span."""
    if not rep.nontrivial_certified:
        raise InternalInconsistency(f"witness direction gives bound {rep.bound} <= 3")
    residual = SH.admissibility_residual(B, rep.theta, rep.witness_speed)
    if residual != 0:
        raise InternalInconsistency(
            f"witness speed fails admissibility rows (residual {residual})")
    if not any(SH._off_trivial(rep.space, [rep.witness_speed])[0]):
        raise InternalInconsistency("witness speed is exactly trivial")
    return {
        "witness_side": side,
        "witness_theta": tuple(rep.theta.carrier),
        "witness_c_theta": rep.c_theta,
        "witness_bound": rep.bound,
        "witness_dim": rep.dim_actual,
        "witness_speed": tuple(rep.witness_speed.alpha),
    }


def _adjacent_quad_edges(lat):
    """The edges (i, j) of ``lat`` shared by two quadrilateral facets, in
    label order."""
    for (i, j), (f1, f2) in zip(lat.edges, lat.phi2):
        if lat.m(f1) == 4 and lat.m(f2) == 4:
            yield i, j


def _structural_directions(B, edges):
    """The in-plane direction of each non-triangular facet pair of ``B``,
    then the direction from i to j of each edge (i, j) in ``edges``; a facet
    or edge without a direction is left out."""
    lat = B.lattice
    dirs = []
    for k in range(lat.F // 2):
        if lat.m(k) > 3:
            try:
                dirs.append(in_plane_direction(B, k))
            except MahlerError:
                pass
    for i, j in edges:
        try:
            dirs.append(SH.direction(sub(B.vertices[j], B.vertices[i])))
        except InputError:
            pass
    return dirs


def _decide(lat):
    """The verdict on a labeled lattice, from its counts, vertex degrees and
    facet sizes alone, as (verdict, notes, side, pick).  ``notes`` are the
    evidence entries that explain an Excluded verdict, "reason" first.  When
    a direction whose dimension bound exceeds 3 certifies the exclusion,
    ``pick`` maps the body on ``side`` ("primal" or "polar") to it; else both
    are None.  Counts that contradict Euler's relation raise
    InternalInconsistency."""
    def in_first_facet_with(m):   # the in-plane direction of a large facet
        return lambda B: in_plane_direction(
            B, next(k for k in B.lattice.I2 if B.lattice.m(k) >= m))

    V, F = lat.V, lat.F
    census = lat.facet_size_census()
    if abs(V - F) > 2:
        return (EXCLUDED, {"reason": "|V - F| > 2"}, "primal" if F > V else "polar",
                lambda B: generic_direction([B]))
    if V == F + 2:
        if max(lat.d(v) for v in lat.I0) > 3:
            return (EXCLUDED, {"reason": "vertex of degree > 3 in the V = F + 2 case"},
                    "polar", in_first_facet_with(4))
        if (V, F) != (8, 6):
            raise InternalInconsistency(
                f"all degrees 3 with V = F + 2 forces (V,F) = (8,6), got {(V, F)}")
        return PARALLELEPIPED, {}, None, None
    if F == V + 2:
        if max(census) > 3:
            return (EXCLUDED,
                    {"reason": "facet with more than 3 vertices in the F = V + 2 case"},
                    "primal", in_first_facet_with(4))
        if (V, F) != (6, 8):
            raise InternalInconsistency(
                f"all triangles with F = V + 2 forces (V,F) = (6,8), got {(V, F)}")
        return AFFINE_OCTAHEDRON, {}, None, None
    # V == F
    if max(census) >= 5:
        return (EXCLUDED, {"reason": "facet with 5 or more vertices in the V = F case"},
                "primal", in_first_facet_with(5))
    for i, j in _adjacent_quad_edges(lat):
        return (EXCLUDED,
                {"reason": "edge-adjacent quadrilateral facets in the V = F case",
                 "adjacent_quad_edge": (i, j)},
                "primal", lambda B: SH.direction(sub(B.vertices[j], B.vertices[i])))
    if census != {3: 4, 4: V - 4}:
        raise InternalInconsistency(
            f"V = F lattice census {census} contradicts Euler counting "
            f"(expected 4 triangles and V - 4 quadrilaterals)")
    return (EXCLUDED, {"reason": ("V = F with 4 triangles and V - 4 quadrilaterals, "
                                  "none adjacent: contradicts 4q <= 3p = 12"),
                       "census_contradiction": True}, None, None)


def classify_minimizer_candidate(P):
    """The combinatorial decision procedure for volume-product minimizer
    candidates.

    Returns Parallelepiped (V=8, F=6, all vertex degrees 3), AffineOctahedron
    (the polar case), or Excluded together with machine-checked evidence: a
    direction theta on P or its polar whose dimension bound exceeds 3 plus
    the certified non-trivial admissible speed, except in the one
    arithmetically impossible V = F census, which is excluded by counting.
    The lattice of ``P`` decides; an exclusion with a witness is decided,
    certified and reported again on ``G.snap_to_rational(P)``.
    """
    verdict, notes, side, pick = _decide(P.lattice)
    if side is not None:
        P = G.snap_to_rational(P)
        verdict, notes, side, pick = _decide(P.lattice)
    lat = P.lattice
    evidence = {"V": lat.V, "E": lat.E, "F": lat.F,
                "max_degree": max(lat.d(v) for v in lat.I0),
                "facet_size_census": lat.facet_size_census()}
    if side is not None:
        B = P if side == "primal" else PO.polar(P)
        rep = dimension_bound(B, pick(B))
        evidence.update(_witness_evidence(side, B, rep))
    evidence.update(notes)
    return MinimizerClassification(verdict, evidence)
