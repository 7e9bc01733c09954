"""Benchmark of the mahler3d package: one workload per run.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs to be installed.  The run sets up its workload a few
times in fresh interpreters (set-up time), then repeats whole rounds of the
workload's operations for about ``--seconds`` seconds, checks the outputs,
and prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
It exits 1 when a check fails.  Scratch files, results and traces go to
``.perfbench/`` under the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("descent", "exact", "corpus"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only, print the monotonic clock, and exit")
    return p.parse_args(argv)


def _probe_setup(args):
    """Seconds from starting a fresh interpreter until its workload inputs
    are ready: interpreter start, imports and input generation."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-probe"], check=True, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - t0


def _run_rounds(wl, seconds):
    """Whole rounds for about ``seconds``: at least one, and another only
    while it is expected to end within the budget."""
    durations, rounds = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(wl.run_round())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return durations, rounds


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "mahler3d" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no mahler3d package under {SRC}\n")
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy
    from mahler3d import _kernels

    import workloads

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT / "tmp")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print(repr(time.monotonic()))
            return 0
        setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
        tracer = None
        if args.trace:
            import tracer as tracing
            baseline, _ = _run_rounds(wl, 0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                durations, rounds = _run_rounds(wl, args.seconds)
            finally:
                tracer.remove()
        else:
            durations, rounds = _run_rounds(wl, args.seconds)
        problems, quality = wl.check(rounds[0].outputs)
        first = wl.fingerprint(rounds[0].outputs)
        if any(wl.fingerprint(r.outputs) != first for r in rounds[1:]):
            problems.append("rounds of one run gave different outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = statistics.median(durations)
    if tracer is None:
        measured = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        wanted = spec["end_to_end"]
    else:
        measured = tracer.metrics(len(rounds))
        measured["trace.overhead_s"] = (wall - baseline[0], "s")
        calls = sum(tracer.calls.values()) / len(rounds)
        measured["trace.wrapper_cost_s"] = (tracing.wrapper_cost() * calls, "s")
        wanted = spec["per_layer"]
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / f"{args.workload}-seed{args.seed}.csv.gz")

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "round_s": durations, "setup_samples_s": setup,
        "first_round_op_s": {k: v for k, v in rounds[0].op_s.items()
                             if not k.startswith("body_")},
        "quality": quality, "problems": problems,
        "backend": _kernels.backend_name(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "measured": {k: {"value": v, "unit": u}
                     for k, (v, u) in sorted(measured.items())},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
              ".json", "w") as fh:
        json.dump(info, fh, indent=1)

    for name, (value, unit) in sorted(measured.items()):
        print(f"{name:<56} {value:>16.6f} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("quality:", json.dumps(quality))
    print(f"backend {info['backend']}, python {info['python']}, "
          f"numpy {info['numpy']}, scipy {info['scipy']}")
    metrics = {}
    for m in wanted:
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit} != {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
