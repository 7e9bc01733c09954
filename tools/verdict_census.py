"""Census of descent endings: final verdict and how each descent stopped.

    PYTHONPATH=src python3 tools/verdict_census.py

Runs ``descend`` on the double kernel over three sets of starts:

- ``acceptance-7``: the 25 descents of the acceptance gate,
  ``random_symmetric_polytope((3, 4, 5, 6)[i % 4], seed=7000 + i)`` with
  ``DescentConfig(seed=i, max_iters=12)``;
- ``larger-starts``: 100 starts ``random_symmetric_polytope(k, seed=9200 +
  i)`` with k = 3 + i % 10 and ``DescentConfig(seed=i, max_iters=40,
  max_vertices=2k)``;
- ``images``: the 20 images ``Rotation.random(random_state=s).as_matrix() @
  diag(1, 1.7, 0.6)`` (s = 0..19) of the cube and of the octahedron, with
  ``DescentConfig(seed=s)``; each is a minimizer, so it should stop at once.

For each set it prints the count of every (verdict, ``terminated_by``) pair
and then every ``Excluded`` ending, and every run that raised, with its gap
to 32/3 and its facet-size census.  It exits 1 if any run ends ``Excluded``
at |gap| <= 1e-9 (a minimizer's product on a lattice that is not judged a
minimizer) or raises.
"""

import sys
from collections import Counter

import numpy as np
from scipy.spatial.transform import Rotation

import mahler3d as M
from mahler3d.errors import MahlerError

GAP_TOL = 1e-9
CUBE = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]
OCTAHEDRON = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def acceptance_7():
    for i in range(25):
        yield (f"i={i}", M.random_symmetric_polytope((3, 4, 5, 6)[i % 4],
                                                     seed=7000 + i),
               M.DescentConfig(seed=i, max_iters=12))


def larger_starts():
    for i in range(100):
        k = 3 + i % 10
        yield (f"i={i} k={k}", M.random_symmetric_polytope(k, seed=9200 + i),
               M.DescentConfig(seed=i, max_iters=40, max_vertices=2 * k))


def images():
    for name, reps in (("cube", CUBE), ("octahedron", OCTAHEDRON)):
        B = M.build_sym_polytope(reps, kernel=M.DOUBLE)
        for s in range(20):
            A = Rotation.random(random_state=s).as_matrix() @ np.diag([1, 1.7, 0.6])
            yield (f"{name} s={s}", M.linear_image(B, A.tolist()),
                   M.DescentConfig(seed=s))


SETS = {"acceptance-7": acceptance_7, "larger-starts": larger_starts,
        "images": images}


def main():
    failed = False
    for set_name, starts in SETS.items():
        census = Counter()
        listed = []
        for label, P, cfg in starts():
            try:
                tr = M.descend(P, cfg)
            except MahlerError as exc:
                census[(type(exc).__name__, "raised")] += 1
                listed.append(f"  {label}: raised {type(exc).__name__}: {exc}")
                failed = True
                continue
            verdict = tr.final_classification.verdict
            census[(verdict, tr.meta["terminated_by"])] += 1
            if verdict == M.EXCLUDED:
                at_bound = abs(tr.final_gap) <= GAP_TOL
                failed = failed or at_bound
                listed.append(
                    f"  {label}: Excluded by {tr.meta['terminated_by']}, "
                    f"gap {tr.final_gap:.3g}, facets "
                    f"{dict(sorted(tr.final.lattice.facet_size_census().items()))}"
                    + (" (at the bound)" if at_bound else ""))
        print(f"{set_name}: {sum(census.values())} runs")
        for (verdict, ending), count in sorted(census.items()):
            print(f"  {count:3d}  {verdict}  {ending}")
        print("\n".join(listed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
