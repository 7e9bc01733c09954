"""Single command line entry point: analyze / polar / product / speeds /
bound-sweep / classify / deform / optimize / corpus over the JSON polytope
format.

Every output embeds a run manifest (command, config, kernel, version, seed,
input digest); with the rational kernel, identical manifests imply identical
outputs.  Exit codes: 0 success, 1 input or numerical error, 2 for findings
that falsify a checked property (bound violations, counterexample alarms).
Numeric output is decimal-stringified: exact fraction strings on the
rational kernel, 17 significant digits on the double kernel.
"""

import argparse
import csv
import functools
import hashlib
import json
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import __version__
from . import combinatorics as CB
from . import geometry as G
from . import optimizer as OPT
from . import polarity as PO
from . import shadow as SH
from .errors import (FindingError, InputError, MahlerError,
                     NumericalDegeneracy, ParallelismAmbiguity)


def _jsonable(x):
    if isinstance(x, Fraction):
        return G.fraction_text(x)
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset, np.ndarray)):
        return [_jsonable(v) for v in x]
    return str(x)


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _manifest(args, kernel):
    skip = {"func", "command"}
    config = {k: _jsonable(v) for k, v in sorted(vars(args).items())
              if k not in skip and v is not None}
    return {
        "command": args.command,
        "config": config,
        "kernel": kernel,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "input_digest": _digest(args.input) if getattr(args, "input", None) else None,
    }


def _write_json(obj, out):
    text = json.dumps(_jsonable(obj), indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header, rows, manifest):
    fh = open(path, "w", newline="") if path else sys.stdout
    try:
        fh.write("# manifest: "
                 + json.dumps(manifest, separators=(",", ":")) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    finally:
        if path:
            fh.close()


def _parse_theta(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise InputError("--theta expects three comma-separated components")
    return SH.direction(parts)


def _parse_speed(text, P):
    vals = [G._as_coord(p.strip(), P.kernel) for p in text.split(",")]
    if len(vals) == P.n_pairs:
        vals = vals + [-v for v in vals]
    return SH.speed_vector(P, vals)


# Each command maps (body, args) to (JSON fields, CSV (header, rows)), either
# of them None; the body is None when no input was given.

def _analyze(P, args):
    lat = P.lattice
    return {
        "kernel": P.kernel,
        "n_vertices": lat.V,
        "n_edges": lat.E,
        "n_facets": lat.F,
        "euler_characteristic": lat.V - lat.E + lat.F,
        "facet_size_census": dict(sorted(lat.facet_size_census().items())),
        "volume": G.volume(P),
        "inradius": P.inradius(),
        "circumradius": P.circumradius(),
        "polytope": P.to_json_dict(),
    }, None


def _polar(P, args):
    Q = PO.polar(P)
    return {"report": asdict(PO.volume_product(P)),
            "polar": Q.to_json_dict()}, None


def _product(P, args):
    return asdict(PO.volume_product(P)), None


def _speeds(P, args):
    rep = CB.dimension_bound(P, _parse_theta(args.theta))
    return {
        "dim": int(rep.dim_actual),
        "bound": int(rep.bound),
        "c_theta": rep.c_theta,
        "nontrivial": rep.nontrivial_certified,
        "basis": [sv.alpha for sv in rep.space.basis],
        "trivial_basis": [sv.alpha for sv in rep.space.trivial_basis],
    }, None


def _sweep_directions(P, n, seed):
    """The structural directions of ``P`` (``CB._structural_directions`` over
    every edge), then random integer directions from ``seed``, without
    repeats, cut to ``n``."""
    dirs = {}
    for d in CB._structural_directions(P, P.lattice.edges):
        dirs.setdefault(OPT._direction_key(d), d)
    rng = np.random.default_rng(seed)
    for _ in range(50 * n):
        if len(dirs) >= n:
            break
        v = tuple([int(c) for c in rng.integers(-9, 10, size=3)])
        if v != (0, 0, 0):
            d = SH.direction(v)
            dirs.setdefault(OPT._direction_key(d), d)
    return list(dirs.values())[:max(n, 0)]


def _bound_sweep(P, args):
    dirs = _sweep_directions(P, args.dirs, args.seed)
    rows = []
    # a direction whose parallel set or rows cannot be decided is left out;
    # findings still raise
    skip = (ParallelismAmbiguity, NumericalDegeneracy)
    for th, rep in zip(dirs, CB.dimension_bounds(P, dirs, skip=skip)):
        if rep is None:
            continue
        tx, ty, tz = (format(float(x), ".17g") for x in th.theta)
        rows.append([tx, ty, tz, str(rep.c_theta), rep.bound, rep.dim_actual,
                     str(bool(rep.nontrivial_certified)).lower()])
    return None, (["theta_x", "theta_y", "theta_z", "c_theta", "bound", "dim",
                   "nontrivial"], rows)


def _classify(P, args):
    return asdict(CB.classify_minimizer_candidate(P)), None


def _deform(P, args):
    theta = _parse_theta(args.theta)
    if args.speed:
        alpha = _parse_speed(args.speed, P)
    else:
        space = SH.admissible_space(P, theta)
        alpha = SH.nontrivial_speed(space)
        if alpha is None:
            raise InputError("no non-trivial admissible speed for this "
                             "direction; pass --speed explicitly")
    if args.t_max is not None:
        c = G._as_coord(args.t_max, P.kernel)
    else:
        c = SH.persistence_interval(P, theta, alpha)
    ts = SH.sample_grid(c, args.samples, P.kernel == G.RATIONAL)
    rows = []
    # Full re-hull per row, not SH.frozen_product: on frozen cycles the
    # volume is affine by construction and the CSV could not test it.
    for t in ts:
        Q = SH.deform(P, theta, alpha, t)
        vol = G.volume(Q)
        pvol = G.volume(PO.polar(Q))
        rows.append([_jsonable(t), _jsonable(vol), _jsonable(pvol),
                     _jsonable(vol * pvol)])
    return None, (["t", "volume", "polar_volume", "product"], rows)


def _optimize(P0, args):
    if P0 is None:
        pairs = args.pairs if args.pairs else max(3, args.n_max // 2)
        P0 = OPT.random_symmetric_polytope(pairs, seed=args.seed,
                                           kernel=args.kernel)
    cfg = OPT.DescentConfig(max_vertices=args.n_max,
                            direction_budget=args.direction_budget,
                            termination_tol=args.termination_tol,
                            seed=args.seed, max_iters=args.max_iters)
    tr = OPT.descend(P0, cfg)
    fields = {
        "start": P0.to_json_dict(),
        "steps": [{"step": i + 1, "side": s.side, "theta": s.theta.theta,
                   "alpha": s.alpha.alpha, "t": s.t,
                   "product_before": s.product_before,
                   "product_after": s.product_after, "snapshot": s.snapshot}
                  for i, s in enumerate(tr.steps)],
        "final": tr.final.to_json_dict(),
        "final_classification": asdict(tr.final_classification),
        "final_gap": tr.final_gap,
        "stall_with_nontrivial_speed": tr.stall_with_nontrivial_speed,
        "meta": tr.meta,
    }
    if not args.csv:
        return fields, None
    bound = float(Fraction(32, 3))
    start_prod = (tr.steps[0].product_before if tr.steps
                  else bound + tr.final_gap)
    rows = [[0, format(start_prod, ".17g"),
             format(start_prod - bound, ".17g"), "", "", ""]]
    for i, s in enumerate(tr.steps):
        theta_txt = " ".join(format(float(x), ".17g") for x in s.theta.theta)
        rows.append([i + 1, format(s.product_after, ".17g"),
                     format(s.product_after - bound, ".17g"),
                     s.side, theta_txt, format(s.t, ".17g")])
    return fields, (["step", "product", "gap", "move_side", "theta", "t"], rows)


def _corpus(_, args):
    return OPT.corpus_verify(args.count, n_pairs_max=args.pairs_max,
                             seed=args.seed), None


def _run(args):
    """Load the body of ``args.input``, if any, on ``--kernel`` with
    ``--tol``, run the command on it, and write its JSON fields to ``--out``
    and its CSV to ``--csv``, each with the run manifest first."""
    kernel = getattr(args, "kernel", G.DOUBLE)
    body = (G.load_polytope(args.input, kernel=kernel, tol=args.tol)
            if getattr(args, "input", None) else None)
    fields, table = args.func(body, args)
    manifest = _manifest(args, kernel)
    if fields is not None:
        _write_json({"manifest": manifest, **fields}, args.out)
    if table is not None:
        _write_csv(args.csv, *table, manifest)


def _add_common(sp, kernel_default, with_out=True):
    sp.add_argument("--kernel", choices=("rational", "double"),
                    default=kernel_default)
    sp.add_argument("--tol", type=float, default=None,
                    help="point-identification tolerance: input points this "
                         "close merge on the double kernel and raise "
                         "ToleranceConflict on the rational kernel "
                         "(default 1e-9 x scale on double, 0 on rational)")
    if with_out:
        sp.add_argument("--out", default=None, help="output path (default stdout)")


_CSV = ("--csv", dict(default=None, help="CSV path (default stdout)"))

# (name, help, command, options between the input and --kernel) of the
# commands on one input body; a command with --csv has no --out.
_BODY_COMMANDS = (
    ("analyze", "face lattice and volume summary", _analyze, ()),
    ("polar", "polar dual plus volume product report", _polar, ()),
    ("product", "volume product report", _product, ()),
    ("speeds", "admissible speed space for a direction", _speeds,
     (("--theta", dict(required=True, help="x,y,z (fractions allowed)")),)),
    ("bound-sweep", "dimension bound report over many directions",
     _bound_sweep, (("--dirs", dict(type=int, default=64)),
                    ("--seed", dict(type=int, default=0)), _CSV)),
    ("classify", "minimizer candidate classification", _classify, ()),
    ("deform", "volume/product trajectory along a shadow system", _deform,
     (("--theta", dict(required=True)),
      ("--speed", dict(default=None,
                       help="comma-separated values, one per vertex pair "
                            "(default: a certified non-trivial speed)")),
      ("--t-max", dict(default=None,
                       help="half-width of the t range (default: certified "
                            "persistence interval)")),
      ("--samples", dict(type=int, default=21)), _CSV)),
)


@functools.lru_cache(maxsize=None)
def _build_parser():
    p = argparse.ArgumentParser(
        prog="mahler3d",
        description="Symmetric 3D polytope toolkit for the volume product "
                    "lower bound 32/3: polarity, shadow systems, dimension "
                    "bounds, minimizer classification, descent.")
    sub = p.add_subparsers(dest="command", required=True)

    for name, help_text, func, options in _BODY_COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input")
        for flag, kw in options:
            sp.add_argument(flag, **kw)
        _add_common(sp, "rational", with_out=_CSV not in options)
        sp.set_defaults(func=func)

    sp = sub.add_parser("optimize", help="volume product descent")
    sp.add_argument("--input", default=None,
                    help="start body (default: random with --pairs pairs)")
    sp.add_argument("--n-max", type=int, default=12)
    sp.add_argument("--pairs", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-iters", type=int, default=40)
    sp.add_argument("--direction-budget", type=int, default=8)
    sp.add_argument("--termination-tol", type=float, default=1e-9)
    sp.add_argument("--csv", default=None, help="per-step trajectory CSV")
    _add_common(sp, "double")
    sp.set_defaults(func=_optimize)

    sp = sub.add_parser("corpus", help="random-body property verification")
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--pairs-max", type=int, default=6)
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_corpus)

    return p


def _emit_error(e):
    payload = {"error": type(e).__name__, "message": str(e)}
    dump = getattr(e, "dump", None)
    if dump is not None:
        payload["dump"] = _jsonable(dump)
    offending = getattr(e, "offending", None)
    if offending is not None:
        payload["offending"] = _jsonable(offending)
    sys.stderr.write(json.dumps(payload, indent=2) + "\n")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _run(args)
    except FindingError as e:
        _emit_error(e)
        return 2
    except (MahlerError, OSError, json.JSONDecodeError) as e:
        _emit_error(e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
