"""Compare the CLI outputs of two checkouts, file by file.

    python3 tools/cli_identity.py PARENT CHANGE [--work DIR]

Runs one fixed set of ``python -m mahler3d`` commands with the package of
each checkout (``<checkout>/src``): ``analyze``, ``polar``, ``product``,
``classify``, ``speeds``, ``deform`` and ``bound-sweep`` on named bodies
on the rational kernel and again with ``--kernel double`` (names ending in
``-double``), then ``optimize`` on both kernels and ``corpus``; then
``--help`` of the top level and of each subcommand, and one argparse usage
error (``speeds`` without ``--theta``); then the runs that must end in a
typed JSON error (``error_commands()``).
Each side runs in its own work directory from the same relative paths, so
the manifests, which record the paths, match.  Every command leaves its
output file, stdout, stderr and exit code under ``out/``; the script lists
every file that differs or exists on one side only and exits 1 if any does.
Each differing file is labelled "numbers only" when its tokens match apart
from float values, with the largest relative difference of those, and
"structural" otherwise (an integer, a fraction, a word or the number of
values differs, or the file exists on one side only).
"""

import argparse
import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np


def _dyadic(n_pairs, seed, bits=20):
    """``n_pairs`` unit vectors from ``seed`` on the grid 2^-bits."""
    pts = np.random.default_rng(seed).normal(size=(n_pairs, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return [[str(Fraction(round(float(c) * 2 ** bits), 2 ** bits)) for c in p]
            for p in pts]


BODIES = {
    "cube": [[1, 1, 1], [1, 1, -1], [1, -1, 1], [-1, 1, 1]],
    "octahedron": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "cuboctahedron": [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1],
                      [0, 1, 1], [0, 1, -1]],
    "hexagonal_prism": [[2, 0, 1], [1, 2, 1], [-1, 2, 1],
                        [2, 0, -1], [1, 2, -1], [-1, 2, -1]],
    "dyadic4": _dyadic(4, 4),
    "dyadic5": _dyadic(5, 5),
}
# Bodies that only ``error_commands()`` reads: the cube of half-edge
# 2^-5000, whose exact volume has more digits than Python writes as text.
ERROR_BODIES = {
    "tiny_cube": [[str(Fraction(c, 2 ** 5000)) for c in p]
                  for p in BODIES["cube"]],
}
THETAS = ("0,0,1", "1,1,0", "1,0,0", "3,5,7")
# A decimal with a point or an exponent; integers and fractions such as
# 32/3 are left to the text comparison.
FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?"
                   r"|[-+]?\d+[eE][-+]?\d+")


def commands():
    """(name, argv) of the fixed command set; a command writing a file
    writes ``out/<name>.json`` or ``out/<name>.csv``."""
    cmds = []
    for body in BODIES:
        path = f"bodies/{body}.json"
        for suffix, kernel in (("", []), ("-double", ["--kernel", "double"])):
            for cmd in ("analyze", "polar", "product", "classify"):
                name = f"{cmd}-{body}{suffix}"
                cmds.append((name, [cmd, path, *kernel,
                                    "--out", f"out/{name}.json"]))
            for i, theta in enumerate(THETAS):
                name = f"speeds-{body}-theta{i}{suffix}"
                cmds.append((name, ["speeds", path, "--theta", theta, *kernel,
                                    "--out", f"out/{name}.json"]))
                for width in ("certified", "eighth"):
                    name = f"deform-{body}-theta{i}-{width}{suffix}"
                    extra = ["--t-max", "1/8"] if width == "eighth" else []
                    cmds.append((name, ["deform", path, "--theta", theta,
                                        *extra, *kernel,
                                        "--csv", f"out/{name}.csv"]))
            name = f"bound-sweep-{body}{suffix}"
            cmds.append((name, ["bound-sweep", path, "--dirs", "16",
                                "--seed", "3", *kernel,
                                "--csv", f"out/{name}.csv"]))
    for name, extra in (
            ("optimize-cuboctahedron-rational",
             ["--input", "bodies/cuboctahedron.json", "--kernel", "rational",
              "--seed", "5"]),
            ("optimize-dyadic4-rational",
             ["--input", "bodies/dyadic4.json", "--kernel", "rational",
              "--seed", "1"]),
            ("optimize-dyadic5-rational",
             ["--input", "bodies/dyadic5.json", "--kernel", "rational",
              "--seed", "1"]),
            ("optimize-random5-double", ["--pairs", "5", "--seed", "7"]),
            ("optimize-dyadic4-double",
             ["--input", "bodies/dyadic4.json", "--seed", "1"])):
        cmds.append((name, ["optimize", *extra, "--out", f"out/{name}.json",
                            "--csv", f"out/{name}.csv"]))
    cmds.append(("corpus", ["corpus", "--count", "40", "--seed", "11",
                            "--out", "out/corpus.json"]))
    return cmds


def help_commands():
    """(name, argv) of the runs that write no file: ``--help`` of the top
    level and of each subcommand of ``commands()``, and ``speeds`` without
    its required ``--theta``, an argparse usage error (exit 2)."""
    subcommands = dict.fromkeys(argv[0] for _, argv in commands())
    return ([("help", ["--help"])]
            + [(f"help-{sub}", [sub, "--help"]) for sub in subcommands]
            + [("usage-speeds-without-theta", ["speeds", "bodies/cube.json"])])


def error_commands():
    """(name, argv) of the runs that end in a typed error, exit 1 with a
    JSON error on stderr: a NaN ``--tol`` on the double kernel, a speed
    that is not a number, ``product`` and ``analyze`` of ``tiny_cube``,
    ``optimize`` with a NaN ``--termination-tol``, and ``deform`` with fewer
    than 2 samples and with a negative ``--t-max`` on each kernel."""
    return [
        ("error-product-tol-nan-double",
         ["product", "bodies/cube.json", "--kernel", "double", "--tol", "nan"]),
        ("error-deform-speed-not-a-number",
         ["deform", "bodies/cube.json", "--theta", "0,0,1",
          "--speed", "x,1,1,1"]),
        ("error-product-tiny_cube", ["product", "bodies/tiny_cube.json"]),
        ("error-analyze-tiny_cube", ["analyze", "bodies/tiny_cube.json"]),
        ("error-optimize-termination-tol-nan",
         ["optimize", "--pairs", "4", "--seed", "1",
          "--termination-tol", "nan"]),
    ] + [(f"error-deform-samples-{n}-{kernel}",
          ["deform", "bodies/cube.json", "--kernel", kernel, "--theta",
           "0,0,1", "--speed", "1,1,1,1", "--t-max", "1/8", "--samples", n])
         for n in ("1", "0") for kernel in ("rational", "double")] + [
        (f"error-deform-t-max-negative-{kernel}",
         ["deform", "bodies/cube.json", "--kernel", kernel, "--theta",
          "0,0,1", "--speed", "1,1,1,1", "--t-max=-1/8", "--samples", "3"])
        for kernel in ("rational", "double")]


def run_side(checkout, workdir, cmds=None):
    """Run ``cmds`` (default: ``commands()``, ``help_commands()`` and
    ``error_commands()``) with
    ``checkout``'s package from ``workdir``; returns the ``out/``
    directory."""
    workdir = Path(workdir)
    (workdir / "bodies").mkdir(parents=True, exist_ok=True)
    out = workdir / "out"
    out.mkdir(exist_ok=True)
    for body, reps in {**BODIES, **ERROR_BODIES}.items():
        with open(workdir / "bodies" / f"{body}.json", "w") as fh:
            json.dump({"vertices": reps, "symmetric": True}, fh)
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    if cmds is None:
        cmds = commands() + help_commands() + error_commands()
    for name, argv in cmds:
        done = subprocess.run([sys.executable, "-m", "mahler3d", *argv],
                              cwd=workdir, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(done.stdout)
        (out / f"{name}.stderr").write_bytes(done.stderr)
        (out / f"{name}.exit").write_text(f"{done.returncode}\n")
    return out


def differences(parent_out, change_out):
    """Sorted names of the files that differ or exist on one side only."""
    parent = {p.name for p in Path(parent_out).iterdir()}
    change = {p.name for p in Path(change_out).iterdir()}
    both = sorted(parent & change)
    _, mismatch, errors = filecmp.cmpfiles(parent_out, change_out, both,
                                           shallow=False)
    return sorted(set(mismatch) | set(errors) | (parent ^ change))


def label(parent_file, change_file):
    """"numbers only (max rel X)" when the two files have the same tokens
    apart from float values, X the largest relative difference of those;
    "structural" otherwise, also when either file is missing."""
    try:
        a = Path(parent_file).read_text()
        b = Path(change_file).read_text()
    except FileNotFoundError:
        return "structural"
    if FLOAT.split(a) != FLOAT.split(b):
        return "structural"
    rel = max([abs(x - y) / max(abs(x), abs(y))
               for x, y in zip(map(float, FLOAT.findall(a)),
                               map(float, FLOAT.findall(b))) if x != y],
              default=0.0)
    return f"numbers only (max rel {rel:.1e})"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--work", default=None,
                    help="directory for the two work trees (default: a new "
                         "temporary directory, kept)")
    args = ap.parse_args(argv)
    work = Path(args.work or tempfile.mkdtemp(prefix="cli_identity-"))
    outs = [run_side(checkout, work / side)
            for side, checkout in (("parent", args.parent),
                                   ("change", args.change))]
    diff = differences(*outs)
    for name in diff:
        print(f"DIFFERS ({label(outs[0] / name, outs[1] / name)}): {name}")
    total = len({p.name for out in outs for p in out.iterdir()})
    print(f"{len(diff)} of {total} files differ (work trees under {work})")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
