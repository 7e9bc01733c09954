"""Polar duality and the volume product.

The polar body K deg = {y : x.y <= 1 for all x in K} of a vertex-presented
polytope is produced directly from facet planes: the facet {n.x = h}
contributes the vertex n/h, and the face lattice of the polar is the
order-reversed lattice of the input (facets become vertices, vertex rings
become facet cycles).  No half-space intersection is performed anywhere in
this module; verify_incidence_duality instead re-hulls the produced vertex
set and compares lattices.

Both layouts carry over: polar vertex f is n_f/h_f for facet f of the
input, so the facet layout (facet f + F/2 is the antipode of f) becomes the
vertex layout of the polar, and the polar's facets, one per input vertex,
are built from the k representatives' rings and laid out by
``geometry._build_lattice``, as the hull's are.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry as G
from .errors import DualityViolation
from .hull import Facet, _canonical_cycle, dot, neg

MAHLER_BOUND = Fraction(32, 3)


@dataclass(frozen=True)
class VolumeProductReport:
    volume_primal: object
    volume_polar: object
    product: object
    santalo_point: tuple
    mahler_gap: object
    kernel: str


def polar(P):
    """The polar body of ``P`` as a SymPolytope with the order-reversed lattice.

    Vertex f is n_f/h_f for facet f of ``P``, so the facet layout of ``P``
    is the vertex layout of the polar.  The facet cycle attached to each
    original vertex v is v's facet ring reversed: ``vertex_facet_cycles``
    walks every ring clockwise seen from outside along v, so the reversed
    ring turns counterclockwise about the polar facet's outward normal v.
    It is computed for the representatives only: ``_build_lattice`` builds
    the cycle of v + k as the mirror of v's, reversed, and lays the facets
    out, and ``Q._primal_vertex_of_facet[j]`` is the vertex of ``P`` that
    facet j of the polar belongs to.
    """
    lat = P.lattice
    K = lat.F // 2
    reps = []
    for n, h in lat.facet_planes[:K]:
        reps.append((n[0] / h, n[1] / h, n[2] / h))
    vertices = tuple(reps) + tuple([neg(p) for p in reps])

    rings = lat.vertex_facet_cycles()
    facets = []    # facets[v] and its antipode belong to vertices v, v + k of P
    for v in range(P.n_pairs):
        pv = P.vertices[v]
        if P.kernel == G.RATIONAL:
            normal, offset = pv, Fraction(1)
        else:
            L = float(dot(pv, pv)) ** 0.5
            normal, offset = (pv[0] / L, pv[1] / L, pv[2] / L), 1.0 / L
        facets.append(Facet(_canonical_cycle(tuple(reversed(rings[v]))),
                            normal, offset))
    lattice, order = G._build_lattice(2 * K, facets)
    Q = G.SymPolytope(vertices, lattice, P.kernel)
    # bookkeeping for the order reversal, consumed by verify_incidence_duality
    Q._primal_vertex_of_facet = order
    return Q


def volume_product(P):
    """|P| x |P deg| with its gap against the sharp cube value 32/3.

    Exact rational arithmetic end to end under the rational kernel; the
    reported santalo_point is the exact origin, as forced by symmetry.
    """
    vol = G.volume(P)
    pol = G.volume(polar(P))
    prod = vol * pol
    zero = prod * 0
    # a float minus a Fraction is float arithmetic on float(MAHLER_BOUND)
    gap = prod - MAHLER_BOUND
    return VolumeProductReport(volume_primal=vol, volume_polar=pol,
                               product=prod, santalo_point=(zero, zero, zero),
                               mahler_gap=gap, kernel=P.kernel)


def _hausdorff_vertex_distance(A, B):
    a, b = A.as_array(), B.as_array()
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))


def verify_incidence_duality(P):
    """Cross-check the order-reversal construction of polar(P).

    Checks, raising DualityViolation on any failure:
      1. count swap: V(P deg) = F(P) and F(P deg) = V(P);
      2. incidence transpose: v in facet k of P iff the dual vertex of k lies
         on the dual facet of v;
      3. independent reconstruction: re-hulling the polar's vertex set
         reproduces its labeled face lattice exactly;
      4. bipolarity: vertex set of (P deg) deg matches that of P (exactly in
         rational mode, within 1e-9 x scale Hausdorff in double mode).
    """
    Q = polar(P)
    latP, latQ = P.lattice, Q.lattice
    if Q.V != latP.F or latQ.F != P.V:
        raise DualityViolation(
            f"count swap failed: V(polar)={Q.V} vs F={latP.F}, "
            f"F(polar)={latQ.F} vs V={P.V}")

    pairs_P = {(v, k) for k in latP.I2 for v in latP.facet_cycles[k]}
    ver_of = Q._primal_vertex_of_facet
    pairs_Q = {(ver_of[j], q) for j in latQ.I2 for q in latQ.facet_cycles[j]}
    if pairs_P != pairs_Q:
        raise DualityViolation(
            f"incidence transpose failed: {len(pairs_P ^ pairs_Q)} mismatches")

    R = G.from_representatives([Q.vertices[i] for i in Q.rep_indices()], Q.kernel)
    if not G.same_labeled_lattice(latQ, R.lattice):
        raise DualityViolation("polar lattice fails independent re-hull")

    B = polar(Q)
    if P.kernel == G.RATIONAL:
        ok = set(B.vertices) == set(P.vertices)
        haus = 0.0 if ok else None
    else:
        scale = max(1.0, P.circumradius())
        haus = _hausdorff_vertex_distance(B, P)
        ok = haus <= 1e-9 * scale
    if not ok:
        raise DualityViolation(
            f"bipolar vertex set mismatch (Hausdorff {haus})")

    return {"V": P.V, "F": latP.F, "polar_V": Q.V, "polar_F": latQ.F,
            "transpose_ok": True, "reconstruction_ok": True, "bipolar_ok": True}
