"""Spans around the calls into mahler3d's layers, recorded from outside.

The package looks its functions up as module attributes at call time
(``SH.deform``, ``_hull.hull_3d``, ``G.volume``, ...), so replacing those
attributes with timing wrappers sees every call without editing ``src/``.
A span's self time is its duration minus the time of the spans it caused.
"""

import functools
import gzip
import time
from collections import defaultdict

from mahler3d import (_kernels, cli, combinatorics, geometry, hull, optimizer,
                      polarity, shadow)

# (module, attribute, span name); "kernels" stands for the _kernels module
# because metric names start with a letter.
TARGETS = (
    (hull, "hull_3d", "hull.hull_3d"),
    (_kernels, "support_planes", "kernels.support_planes"),
    (_kernels, "fan_volume", "kernels.fan_volume"),
    (geometry, "build_sym_polytope", "geometry.build_sym_polytope"),
    (geometry, "from_representatives", "geometry.from_representatives"),
    (geometry, "volume", "geometry.volume"),
    (geometry, "same_labeled_lattice", "geometry.same_labeled_lattice"),
    (polarity, "polar", "polarity.polar"),
    (polarity, "volume_product", "polarity.volume_product"),
    (shadow, "deform", "shadow.deform"),
    (shadow, "persistence_interval", "shadow.persistence_interval"),
    (shadow, "admissible_space", "shadow.admissible_space"),
    (shadow, "check_volume_affine", "shadow.check_volume_affine"),
    (shadow, "check_inverse_polar_convexity",
     "shadow.check_inverse_polar_convexity"),
    (combinatorics, "dimension_bound", "combinatorics.dimension_bound"),
    (combinatorics, "classify_minimizer_candidate",
     "combinatorics.classify_minimizer_candidate"),
    (optimizer, "descend", "optimizer.descend"),
    (optimizer, "_line_search", "optimizer.line_search"),
    (optimizer, "corpus_verify", "optimizer.corpus_verify"),
    (cli, "main", "cli.main"),
)

LAYERS = ("hull", "kernels", "geometry", "polarity", "shadow",
          "combinatorics", "optimizer", "cli")
HULL_BUCKETS = ((8, "V8"), (12, "V12"), (16, "V16"))
PERSISTENCE = "shadow.persistence_interval"


def hull_bucket(n_points):
    """Vertex bucket of a hull call: V8 (<= 8), V12, V16, V24 (> 16)."""
    for limit, name in HULL_BUCKETS:
        if n_points <= limit:
            return name
    return "V24"


def wrapper_cost(n=100_000):
    """Seconds a traced call adds to an untraced one, timed on a no-op."""
    def noop(*args):
        return None

    wrapped = Tracer()._wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop(1, 2)
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped(1, 2)
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n


class Tracer:
    """Installs the wrappers, keeps spans in memory, and aggregates them."""

    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.kept = 0            # same_labeled_lattice calls returning True
        self.moves = 0           # accepted descent steps
        self.persistence_deforms = 0
        self._stack = []         # [span id, name, child time]
        self._saved = []

    def install(self):
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def remove(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "hull.hull_3d":
                exact = kwargs["exact"] if "exact" in kwargs else args[1]
                kind = "rational" if exact else "double"
                span = f"hull.hull_3d.{kind}@{hull_bucket(len(args[0]))}"
            elif name == "shadow.deform" and any(f[1] == PERSISTENCE
                                                 for f in stack):
                self.persistence_deforms += 1
            parent = stack[-1] if stack else None
            frame = [len(spans), span, 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                spans[frame[0]] = (frame[0], parent[0] if parent else -1,
                                   span, t0, t1)
                self.calls[span] += 1
                self.self_s[span] += dur - frame[2]
                if name == "geometry.same_labeled_lattice" and result:
                    self.kept += 1
                elif name == "optimizer.descend" and result is not None:
                    self.moves += len(result.steps)

        return wrapper

    def write_spans(self, path):
        """Spans as gzipped CSV: id, parent id (-1 at the root), name,
        start and end in seconds of the perf_counter clock."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start,end\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]:.9f},{s[4]:.9f}\n")

    def metrics(self, rounds):
        """Per-round figures for every traced function, hull bucket and
        layer, plus the ratios; ``rounds`` traced rounds of identical work."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for span, n in self.calls.items():
            base, _, bucket = span.partition("@")
            calls[base] += n
            self_s[base] += self.self_s[span]
            if bucket:
                calls[f"{base}.{bucket}"] += n
                self_s[f"{base}.{bucket}"] += self.self_s[span]

        def per_round_count(n):
            return n // rounds if n % rounds == 0 else n / rounds

        out = {}
        for _, _, name in TARGETS:
            names = [name]
            if name == "hull.hull_3d":
                names = [f"hull.hull_3d.{k}" for k in ("rational", "double")]
            for base in names:
                out[f"{base}.calls"] = (per_round_count(calls[base]), "count")
                out[f"{base}.self_s"] = (self_s[base] / rounds, "s")
                if base.startswith("hull."):
                    for _, bucket in HULL_BUCKETS + ((None, "V24"),):
                        key = f"{base}.{bucket}"
                        per_call = self_s[key] / calls[key] if calls[key] else 0.0
                        out[f"{base}.per_call_s.{bucket}"] = (per_call, "s")
        layer_s = defaultdict(float)
        for span, s in self.self_s.items():
            layer_s[span.split(".")[0]] += s
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = (layer_s[layer] / rounds, "s")
        n_pers = calls[PERSISTENCE]
        n_same = calls["geometry.same_labeled_lattice"]
        out["shadow.deforms_per_persistence"] = (
            self.persistence_deforms / n_pers if n_pers else 0.0, "1")
        out["geometry.same_labeled_lattice.kept_share"] = (
            self.kept / n_same if n_same else 0.0, "1")
        out["optimizer.moves"] = (per_round_count(self.moves), "count")
        out["optimizer.moves_per_persistence"] = (
            self.moves / n_pers if n_pers else 0.0, "1")
        return out
