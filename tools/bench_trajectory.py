"""Assemble a before/after benchmark record from two perfbench result sets.

    python3 tools/bench_trajectory.py PARENT_RESULTS CHANGE_RESULTS --out BENCH_N.json

Each directory is the ``.perfbench/results/`` of one checkout, run with
``perfbench/run.py``: one ``<workload>-seed<n>-trace<t>.json`` per run.  For
each workload with untraced (``trace0``) runs on both sides, the record gives
per side the seeds, the median and quartiles of ``wall_s``, ``setup_s`` and
``peak_rss_mb``, the quality numbers and check problems of every run, and
the numeric backend and versions; and, over the seeds run on both sides, how
many pairs each side won on each metric (lower is better, ties count for
neither).  Traced (``trace1``) runs present on both sides for the same
workload and seed add their per-round self times.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def _load(results_dir):
    """{(workload, trace): {seed: result}} from one results directory."""
    runs = {}
    for path in sorted(Path(results_dir).glob("*-seed*-trace*.json")):
        with open(path) as fh:
            info = json.load(fh)
        key = (info["workload"], info["trace"])
        runs.setdefault(key, {})[info["seed"]] = info
    return runs


def _spread(values):
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _one_or_all(values):
    distinct = sorted(set(values))
    return distinct[0] if len(distinct) == 1 else distinct


def _side(runs):
    seeds = sorted(runs)
    out = {"seeds": seeds, "runs": len(seeds)}
    for m in METRICS:
        out[m] = _spread([runs[s]["measured"][m]["value"] for s in seeds])
    out["quality"] = {str(s): runs[s]["quality"] for s in seeds}
    out["problems"] = {str(s): runs[s]["problems"] for s in seeds
                       if runs[s]["problems"]}
    out["backend"] = _one_or_all([runs[s]["backend"] for s in seeds])
    out["versions"] = {k: _one_or_all([runs[s][k] for s in seeds])
                       for k in ("python", "numpy", "scipy")}
    return out


def _pairs(parent, change):
    seeds = sorted(set(parent) & set(change))
    out = {"seeds": seeds}
    for m in METRICS:
        p = [parent[s]["measured"][m]["value"] for s in seeds]
        c = [change[s]["measured"][m]["value"] for s in seeds]
        out[m] = {"change_better": sum(b < a for a, b in zip(p, c)),
                  "parent_better": sum(b > a for a, b in zip(p, c))}
    return out


def _self_times(info):
    return {k: v["value"] for k, v in sorted(info["measured"].items())
            if k.endswith(".self_s")}


def trajectory(parent_dir, change_dir):
    parent, change = _load(parent_dir), _load(change_dir)
    record = {"workloads": {}, "traced": {}}
    for (workload, trace) in sorted(set(parent) & set(change)):
        p, c = parent[(workload, trace)], change[(workload, trace)]
        if trace == 0:
            record["workloads"][workload] = {
                "parent": _side(p), "change": _side(c), "pairs": _pairs(p, c)}
            continue
        for seed in sorted(set(p) & set(c)):
            record["traced"][f"{workload}-seed{seed}"] = {
                "rounds": {"parent": p[seed]["rounds"],
                           "change": c[seed]["rounds"]},
                "self_s_per_round": {"parent": _self_times(p[seed]),
                                     "change": _self_times(c[seed])}}
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="results directory of the parent commit")
    ap.add_argument("change", help="results directory of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    record = trajectory(args.parent, args.change)
    if not record["workloads"]:
        sys.stderr.write("no workload has untraced runs on both sides\n")
        return 1
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
