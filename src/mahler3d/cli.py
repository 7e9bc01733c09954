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
import hashlib
import json
import sys
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
        return str(x)
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
    text = json.dumps(obj, indent=2) + "\n"
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


def _kernel(args):
    return G.RATIONAL if args.kernel == "rational" else G.DOUBLE


def _load(args, kernel):
    return G.load_polytope(args.input, kernel=kernel, tol=args.tol)


def _parse_theta(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise InputError("--theta expects three comma-separated components")
    try:
        vec = tuple([Fraction(p) for p in parts])
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad theta component: {e}")
    return SH.direction(vec)


def _parse_speed(text, P):
    parts = [p.strip() for p in text.split(",")]
    try:
        vals = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad speed component: {e}")
    if len(vals) == P.n_pairs:
        vals = vals + [-v for v in vals]
    if P.kernel == G.DOUBLE:
        vals = [float(v) for v in vals]
    return SH.speed_vector(P, vals)


def _cmd_analyze(args):
    kernel = _kernel(args)
    P = _load(args, kernel)
    lat = P.lattice
    out = {
        "manifest": _manifest(args, kernel),
        "kernel": kernel,
        "n_vertices": lat.V,
        "n_edges": lat.E,
        "n_facets": lat.F,
        "euler_characteristic": lat.V - lat.E + lat.F,
        "facet_size_census": {str(k): v
                              for k, v in sorted(lat.facet_size_census().items())},
        "volume": G.volume(P),
        "inradius": P.inradius(),
        "circumradius": P.circumradius(),
        "polytope": P.to_json_dict(),
    }
    _write_json(_jsonable(out), args.out)


def _report_dict(rep):
    return {
        "volume_primal": rep.volume_primal,
        "volume_polar": rep.volume_polar,
        "product": rep.product,
        "santalo_point": rep.santalo_point,
        "mahler_gap": rep.mahler_gap,
        "kernel": rep.kernel,
    }


def _cmd_polar(args):
    kernel = _kernel(args)
    P = _load(args, kernel)
    Q = PO.polar(P)
    out = {
        "manifest": _manifest(args, kernel),
        "report": _report_dict(PO.volume_product(P)),
        "polar": Q.to_json_dict(),
    }
    _write_json(_jsonable(out), args.out)


def _cmd_product(args):
    kernel = _kernel(args)
    P = _load(args, kernel)
    out = {"manifest": _manifest(args, kernel)}
    out.update(_report_dict(PO.volume_product(P)))
    _write_json(_jsonable(out), args.out)


def _cmd_speeds(args):
    kernel = _kernel(args)
    P = _load(args, kernel)
    theta = _parse_theta(args.theta)
    rep = CB.dimension_bound(P, theta)
    out = {
        "manifest": _manifest(args, kernel),
        "dim": int(rep.dim_actual),
        "bound": int(rep.bound),
        "c_theta": rep.c_theta,
        "nontrivial": rep.nontrivial_certified,
        "basis": [sv.alpha for sv in rep.space.basis],
        "trivial_basis": [sv.alpha for sv in rep.space.trivial_basis],
    }
    _write_json(_jsonable(out), args.out)


def _sweep_directions(P, n, seed):
    lat = P.lattice
    dirs, used = [], set()

    def push(d):
        key = OPT._direction_key(d)
        if key not in used:
            used.add(key)
            dirs.append(d)

    for f in range(lat.F // 2):
        if lat.m(f) > 3:
            try:
                push(CB.in_plane_direction(P, f))
            except MahlerError:
                pass
    for i, j in lat.edges:
        try:
            push(SH.direction(tuple([b - a for a, b in
                                     zip(P.vertices[i], P.vertices[j])])))
        except InputError:
            pass
    rng = np.random.default_rng(seed)
    guard = 0
    while len(dirs) < n and guard < 50 * n:
        guard += 1
        v = tuple([int(c) for c in rng.integers(-9, 10, size=3)])
        if v == (0, 0, 0):
            continue
        push(SH.direction(v))
    return dirs[:max(n, 0)]


def _cmd_bound_sweep(args):
    kernel = _kernel(args)
    P = _load(args, kernel)
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
    _write_csv(args.csv, ["theta_x", "theta_y", "theta_z", "c_theta",
                          "bound", "dim", "nontrivial"],
               rows, _manifest(args, kernel))


def _cmd_classify(args):
    kernel = _kernel(args)
    P = _load(args, kernel)
    cls = CB.classify_minimizer_candidate(P)
    out = {
        "manifest": _manifest(args, kernel),
        "verdict": cls.verdict,
        "evidence": cls.evidence,
    }
    _write_json(_jsonable(out), args.out)


def _cmd_deform(args):
    kernel = _kernel(args)
    P = _load(args, kernel)
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
        try:
            c = Fraction(args.t_max)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad --t-max: {e}")
        if kernel == G.DOUBLE:
            c = float(c)
    else:
        c = SH.persistence_interval(P, theta, alpha)
    ts = SH.sample_grid(c, args.samples, kernel == G.RATIONAL)
    rows = []
    # Full re-hull per row, not SH.frozen_product: on frozen cycles the
    # volume is affine by construction and the CSV could not test it.
    for t in ts:
        Q = SH.deform(P, theta, alpha, t)
        vol = G.volume(Q)
        pvol = G.volume(PO.polar(Q))
        rows.append([_jsonable(t), _jsonable(vol), _jsonable(pvol),
                     _jsonable(vol * pvol)])
    _write_csv(args.csv, ["t", "volume", "polar_volume", "product"],
               rows, _manifest(args, kernel))


def _cmd_optimize(args):
    kernel = _kernel(args)
    if args.input:
        P0 = _load(args, kernel)
    else:
        pairs = args.pairs if args.pairs else max(3, args.n_max // 2)
        P0 = OPT.random_symmetric_polytope(pairs, seed=args.seed,
                                           kernel=kernel)
    cfg = OPT.DescentConfig(max_vertices=args.n_max,
                            direction_budget=args.direction_budget,
                            termination_tol=args.termination_tol,
                            seed=args.seed, max_iters=args.max_iters)
    tr = OPT.descend(P0, cfg)
    manifest = _manifest(args, kernel)
    steps = []
    for i, s in enumerate(tr.steps):
        steps.append({
            "step": i + 1,
            "side": s.side,
            "theta": _jsonable(s.theta.theta),
            "alpha": _jsonable(s.alpha.alpha),
            "t": _jsonable(s.t),
            "product_before": _jsonable(s.product_before),
            "product_after": _jsonable(s.product_after),
            "snapshot": _jsonable(s.snapshot),
        })
    out = {
        "manifest": manifest,
        "start": _jsonable(P0.to_json_dict()),
        "steps": steps,
        "final": _jsonable(tr.final.to_json_dict()),
        "final_classification": {
            "verdict": tr.final_classification.verdict,
            "evidence": _jsonable(tr.final_classification.evidence),
        },
        "final_gap": _jsonable(tr.final_gap),
        "stall_with_nontrivial_speed": tr.stall_with_nontrivial_speed,
        "meta": _jsonable(tr.meta),
    }
    _write_json(out, args.out)
    if args.csv:
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
        _write_csv(args.csv, ["step", "product", "gap", "move_side",
                              "theta", "t"], rows, manifest)


def _cmd_corpus(args):
    summary = OPT.corpus_verify(args.count, n_pairs_max=args.pairs_max,
                                seed=args.seed)
    out = {"manifest": _manifest(args, G.DOUBLE)}
    out.update(_jsonable(summary))
    _write_json(out, args.out)


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


def _build_parser():
    p = argparse.ArgumentParser(
        prog="mahler3d",
        description="Symmetric 3D polytope toolkit for the volume product "
                    "lower bound 32/3: polarity, shadow systems, dimension "
                    "bounds, minimizer classification, descent.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="face lattice and volume summary")
    sp.add_argument("input")
    _add_common(sp, "rational")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("polar", help="polar dual plus volume product report")
    sp.add_argument("input")
    _add_common(sp, "rational")
    sp.set_defaults(func=_cmd_polar)

    sp = sub.add_parser("product", help="volume product report")
    sp.add_argument("input")
    _add_common(sp, "rational")
    sp.set_defaults(func=_cmd_product)

    sp = sub.add_parser("speeds", help="admissible speed space for a direction")
    sp.add_argument("input")
    sp.add_argument("--theta", required=True, help="x,y,z (fractions allowed)")
    _add_common(sp, "rational")
    sp.set_defaults(func=_cmd_speeds)

    sp = sub.add_parser("bound-sweep",
                        help="dimension bound report over many directions")
    sp.add_argument("input")
    sp.add_argument("--dirs", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", default=None, help="CSV path (default stdout)")
    _add_common(sp, "rational", with_out=False)
    sp.set_defaults(func=_cmd_bound_sweep)

    sp = sub.add_parser("classify", help="minimizer candidate classification")
    sp.add_argument("input")
    _add_common(sp, "rational")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("deform",
                        help="volume/product trajectory along a shadow system")
    sp.add_argument("input")
    sp.add_argument("--theta", required=True)
    sp.add_argument("--speed", default=None,
                    help="comma-separated values, one per vertex pair "
                         "(default: a certified non-trivial speed)")
    sp.add_argument("--t-max", default=None,
                    help="half-width of the t range (default: certified "
                         "persistence interval)")
    sp.add_argument("--samples", type=int, default=21)
    sp.add_argument("--csv", default=None, help="CSV path (default stdout)")
    _add_common(sp, "rational", with_out=False)
    sp.set_defaults(func=_cmd_deform)

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
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("corpus", help="random-body property verification")
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--pairs-max", type=int, default=6)
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_corpus)

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
        args.func(args)
    except FindingError as e:
        _emit_error(e)
        return 2
    except (MahlerError, OSError, json.JSONDecodeError) as e:
        _emit_error(e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
