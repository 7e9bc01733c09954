import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_trajectory  # noqa: E402


def _write(d, workload, seed, trace, wall, setup=0.5, rss=70.0, problems=()):
    info = {"workload": workload, "seed": seed, "trace": trace, "rounds": 3,
            "quality": {"product_drop": 0.1}, "problems": list(problems),
            "backend": "numpy", "python": "3.11.7", "numpy": "2.4.0",
            "scipy": "1.17.0",
            "measured": {"wall_s": {"value": wall, "unit": "s"},
                         "setup_s": {"value": setup, "unit": "s"},
                         "peak_rss_mb": {"value": rss, "unit": "MB"},
                         "hull.hull_3d.rational.self_s": {"value": wall / 2,
                                                          "unit": "s"}}}
    d.mkdir(exist_ok=True)
    with open(d / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(info, fh)


def test_spread_pairs_and_traces(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(4.0, 1.0), (5.0, 1.0), (3.0, 3.0),
                                   (2.0, 2.5)], start=101):
        _write(parent, "exact", seed, 0, p)
        _write(change, "exact", seed, 0, c, rss=71.0)
    _write(parent, "exact", 105, 0, 6.0, problems=["bad"])
    _write(parent, "corpus", 101, 0, 9.0)
    _write(parent, "exact", 1, 1, 4.0)
    _write(change, "exact", 1, 1, 1.0)
    out = tmp_path / "bench.json"
    assert bench_trajectory.main([str(parent), str(change), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert sorted(rec["workloads"]) == ["exact"]
    ex = rec["workloads"]["exact"]
    assert ex["parent"]["seeds"] == [101, 102, 103, 104, 105]
    assert ex["parent"]["wall_s"] == {"median": 4.0, "q1": 3.0, "q3": 5.0}
    assert ex["change"]["wall_s"]["median"] == 1.75
    assert ex["parent"]["problems"] == {"105": ["bad"]}
    assert ex["pairs"]["seeds"] == [101, 102, 103, 104]
    assert ex["pairs"]["wall_s"] == {"change_better": 2, "parent_better": 1}
    assert ex["pairs"]["peak_rss_mb"] == {"change_better": 0, "parent_better": 4}
    assert ex["change"]["backend"] == "numpy"
    traced = rec["traced"]["exact-seed1"]["self_s_per_round"]
    assert traced["parent"] == {"hull.hull_3d.rational.self_s": 2.0}
    assert traced["change"] == {"hull.hull_3d.rational.self_s": 0.5}


def test_no_common_workload_is_an_error(tmp_path):
    _write(tmp_path / "parent", "exact", 1, 0, 1.0)
    _write(tmp_path / "change", "corpus", 1, 0, 1.0)
    out = tmp_path / "bench.json"
    assert bench_trajectory.main([str(tmp_path / "parent"),
                                  str(tmp_path / "change"),
                                  "--out", str(out)]) == 1
    assert not out.exists()
