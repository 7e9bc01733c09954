import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mahler3d as M
from mahler3d import cli
from mahler3d.errors import CounterexampleAlarm

from conftest import CUBE_REPS, CUBOCTA_REPS, OCTA_REPS

ROOT = Path(__file__).resolve().parents[1]


def write_body(tmp_path, name, reps):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"vertices": [list(v) for v in reps], "symmetric": True}))
    return str(path)


@pytest.fixture()
def cube_json(tmp_path):
    return write_body(tmp_path, "cube.json", CUBE_REPS)


@pytest.fixture()
def octa_json(tmp_path):
    return write_body(tmp_path, "octa.json", OCTA_REPS)


@pytest.fixture()
def cubocta_json(tmp_path):
    return write_body(tmp_path, "cubocta.json", CUBOCTA_REPS)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_product_cube_exact(capsys, cube_json):
    rc, out, _ = run_cli(capsys, "product", cube_json)
    assert rc == 0
    data = json.loads(out)
    assert data["product"] == "32/3"
    assert data["mahler_gap"] == "0"
    assert data["santalo_point"] == ["0", "0", "0"]
    assert data["manifest"]["command"] == "product"
    assert data["manifest"]["kernel"] == "rational"
    assert len(data["manifest"]["input_digest"]) == 64


def test_product_double_17_digits(capsys, cube_json):
    rc, out, _ = run_cli(capsys, "product", cube_json, "--kernel", "double")
    assert rc == 0
    data = json.loads(out)
    assert data["product"] == "10.666666666666666"
    assert float(data["volume_polar"]) == pytest.approx(4 / 3, rel=1e-15)


def test_classify_verdicts(capsys, cube_json, octa_json, cubocta_json):
    for path, verdict in ((cube_json, "Parallelepiped"),
                          (octa_json, "AffineOctahedron"),
                          (cubocta_json, "Excluded")):
        rc, out, _ = run_cli(capsys, "classify", path)
        assert rc == 0
        assert json.loads(out)["verdict"] == verdict


def test_speeds_contract(capsys, cubocta_json):
    rc, out, _ = run_cli(capsys, "speeds", cubocta_json,
                         "--theta", "1,1,0")
    assert rc == 0
    data = json.loads(out)
    assert data["dim"] == 4
    assert data["bound"] == 4
    assert data["nontrivial"] is True
    assert len(data["basis"]) == 4
    assert len(data["basis"][0]) == 12


def test_bound_sweep_csv(capsys, tmp_path, cubocta_json):
    out_csv = str(tmp_path / "sweep.csv")
    rc, _, _ = run_cli(capsys, "bound-sweep", cubocta_json,
                       "--dirs", "64", "--csv", out_csv)
    assert rc == 0
    lines = open(out_csv).read().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    assert manifest["command"] == "bound-sweep"
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) >= 60
    assert all(int(r["dim"]) >= int(r["bound"]) for r in rows)
    assert any(int(r["bound"]) == 4 for r in rows)


def test_analyze_round_trip(capsys, cubocta_json):
    rc, out, _ = run_cli(capsys, "analyze", cubocta_json)
    assert rc == 0
    data = json.loads(out)
    assert (data["n_vertices"], data["n_edges"], data["n_facets"]) \
        == (12, 24, 14)
    assert data["volume"] == "20/3"
    P = M.load_polytope(data["polytope"], kernel=M.RATIONAL)
    assert M.volume(P) == Fraction(20, 3)


def test_polar_round_trip_exact(capsys, cube_json):
    rc, out, _ = run_cli(capsys, "polar", cube_json)
    assert rc == 0
    data = json.loads(out)
    assert data["report"]["product"] == "32/3"
    Q = M.load_polytope(data["polar"], kernel=M.RATIONAL)
    cube = M.build_sym_polytope(CUBE_REPS, kernel=M.RATIONAL)
    assert set(Q.vertices) == set(M.polar(cube).vertices)


def test_rational_output_deterministic(capsys, cubocta_json):
    rc1, out1, _ = run_cli(capsys, "analyze", cubocta_json)
    rc2, out2, _ = run_cli(capsys, "analyze", cubocta_json)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_shared_parser_keeps_no_state_between_runs(capsys, cube_json):
    # main parses every argv with one parser per process; one run's
    # options must not reach the next run's manifest or output
    assert cli._build_parser() is cli._build_parser()
    speeds = ("speeds", cube_json, "--theta", "1,1,0")
    rc, first, _ = run_cli(capsys, *speeds)
    assert rc == 0
    assert json.loads(first)["manifest"]["config"]["theta"] == "1,1,0"
    rc, out, _ = run_cli(capsys, "product", cube_json)
    assert rc == 0
    assert json.loads(out)["manifest"]["config"] == {
        "input": cube_json, "kernel": "rational"}
    rc, again, _ = run_cli(capsys, *speeds)
    assert rc == 0 and again == first


def test_deform_csv_consistency(capsys, tmp_path, cubocta_json):
    out_csv = str(tmp_path / "def.csv")
    rc, _, _ = run_cli(capsys, "deform", cubocta_json, "--theta", "1,1,0",
                       "--samples", "7", "--csv", out_csv)
    assert rc == 0
    lines = open(out_csv).read().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 7
    for r in rows:
        prod = Fraction(r["volume"]) * Fraction(r["polar_volume"])
        assert prod == Fraction(r["product"])
        assert prod >= Fraction(32, 3)


def test_optimize_trace_and_csv(capsys, tmp_path, cubocta_json):
    out_json = str(tmp_path / "trace.json")
    out_csv = str(tmp_path / "traj.csv")
    rc, _, _ = run_cli(capsys, "optimize", "--input", cubocta_json,
                       "--n-max", "12", "--seed", "0", "--max-iters", "2",
                       "--out", out_json, "--csv", out_csv)
    assert rc == 0
    data = json.load(open(out_json))
    for s in data["steps"]:
        assert float(s["product_after"]) < float(s["product_before"]) - 1e-9
    assert data["meta"]["terminated_by"] == "classification"
    assert data["final_classification"]["verdict"] == "AffineOctahedron"
    assert abs(float(data["final_gap"])) <= 1e-12
    lines = open(out_csv).read().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert [r["step"] for r in rows] == ["0", "1"]
    assert rows[0]["move_side"] == ""
    assert rows[1]["move_side"] in ("primal", "polar")


def test_corpus_summary(capsys):
    rc, out, _ = run_cli(capsys, "corpus", "--count", "8", "--seed", "4")
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 8
    assert data["alarm"] is False
    assert float(data["min_product"]) >= 32 / 3 - 1e-9


def test_exit_1_on_input_errors(capsys, tmp_path, cubocta_json):
    rc, _, err = run_cli(capsys, "product", str(tmp_path / "missing.json"))
    assert rc == 1
    assert json.loads(err)["error"] == "FileNotFoundError"

    rc, _, err = run_cli(capsys, "speeds", cubocta_json, "--theta", "0,0")
    assert rc == 1
    assert json.loads(err)["error"] == "InputError"

    bad = tmp_path / "flat.json"
    bad.write_text(json.dumps({"vertices": [[1, 0, 0], [0, 1, 0]],
                               "symmetric": True}))
    rc, _, err = run_cli(capsys, "product", str(bad))
    assert rc == 1
    assert json.loads(err)["error"] == "DegenerateInput"


def test_exit_1_on_bad_numbers(capsys, cube_json):
    # a NaN --tol or --t-max and a speed that is not a number are
    # InputError on either kernel
    for kernel in ("rational", "double"):
        for argv in (["product", cube_json, "--tol", "nan"],
                     ["deform", cube_json, "--theta", "0,0,1",
                      "--speed", "x,1,1,1"],
                     ["deform", cube_json, "--theta", "0,0,1",
                      "--speed", "1,1,1,1", "--t-max", "nan"]):
            rc, out, err = run_cli(capsys, *argv, "--kernel", kernel)
            assert rc == 1 and out == ""
            assert json.loads(err)["error"] == "InputError"


def test_exit_1_on_fewer_than_two_samples(capsys, cube_json):
    # a grid from -c to c needs both ends; one sample divided by zero on
    # the rational kernel and none wrote an empty table
    for kernel in ("rational", "double"):
        for samples in ("1", "0"):
            rc, out, err = run_cli(capsys, "deform", cube_json, "--theta",
                                   "0,0,1", "--speed", "1,1,1,1", "--t-max",
                                   "1/8", "--samples", samples,
                                   "--kernel", kernel)
            assert rc == 1 and out == ""
            assert json.loads(err)["error"] == "InputError"


def test_exit_1_on_a_half_width_that_is_not_positive(capsys, cube_json):
    # a negative --t-max wrote the reversed grid 1/8, 0, -1/8
    for kernel in ("rational", "double"):
        for t_max in ("-1/8", "0"):
            rc, out, err = run_cli(capsys, "deform", cube_json, "--theta",
                                   "0,0,1", "--speed", "1,1,1,1",
                                   f"--t-max={t_max}", "--samples", "3",
                                   "--kernel", kernel)
            assert rc == 1 and out == ""
            assert json.loads(err) == {
                "error": "InputError",
                "message": "persistence half-width must be positive"}


def test_exit_1_on_run_settings_that_break_the_descent(capsys):
    for argv in (["--termination-tol", "nan"], ["--max-iters", "-1"],
                 ["--direction-budget", "-1"]):
        rc, out, err = run_cli(capsys, "optimize", "--pairs", "4", "--seed",
                               "1", *argv)
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"


def test_exit_1_on_numbers_past_the_digit_limit(capsys, tmp_path):
    # the cube of half-edge 2^-5000: its exact volume has a denominator of
    # more than 4,300 digits, which Python does not write as text
    tiny = write_body(tmp_path, "tiny.json",
                      [[str(Fraction(c, 2 ** 5000)) for c in p]
                       for p in CUBE_REPS])
    for cmd in ("product", "analyze"):
        rc, out, err = run_cli(capsys, cmd, tiny)
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == "NumericalDegeneracy"


def test_theta_at_extreme_scales(capsys, cube_json):
    # a finite direction normalises at any scale on either kernel, also
    # beyond the float range; a component that is not finite is an
    # InputError
    for kernel in ("rational", "double"):
        for theta, unit in (("1e-200,0,0", "1,0,0"),
                            ("1e-170,1e-170,0", "1,1,0"),
                            ("1e200,0,0", "1,0,0"),
                            ("1e-400,0,0", "1,0,0"),
                            ("1e400,0,0", "1,0,0")):
            outs = []
            for th in (theta, unit):
                rc, out, err = run_cli(capsys, "speeds", cube_json,
                                       "--kernel", kernel, f"--theta={th}")
                assert (rc, err) == (0, "")
                outs.append({k: v for k, v in json.loads(out).items()
                             if k != "manifest"})
            assert outs[0] == outs[1]
        for th in ("nan,0,0", "0,inf,0"):
            rc, out, err = run_cli(capsys, "speeds", cube_json,
                                   "--kernel", kernel, f"--theta={th}")
            assert rc in (1, 2) and out == ""
            assert json.loads(err)["error"] == "InputError"


def test_tol_identifies_points_on_each_kernel(capsys, tmp_path):
    # Two vertices 1e-4 apart: --tol 1e-3 merges them on the double kernel
    # and is a conflict on the rational one; the default keeps both.
    body = write_body(tmp_path, "close.json",
                      [(1, 0, 0), (1, "1/10000", 0), (0, 1, 0), (0, 0, 1)])
    for tol, n_vertices in ((None, 8), ("1e-3", 6)):
        extra = ["--tol", tol] if tol else []
        rc, out, _ = run_cli(capsys, "analyze", body, "--kernel", "double",
                             *extra)
        assert rc == 0
        assert json.loads(out)["n_vertices"] == n_vertices
    rc, out, _ = run_cli(capsys, "analyze", body)
    assert rc == 0 and json.loads(out)["n_vertices"] == 8
    rc, out, err = run_cli(capsys, "analyze", body, "--tol", "1e-3")
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "ToleranceConflict"
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--help"])
    assert "point-identification tolerance" in capsys.readouterr().out


def test_product_rejects_non_symmetric_body(capsys, tmp_path):
    # Mirroring the simplex would silently report the octahedron's 32/3.
    simplex = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"vertices": simplex, "symmetric": False}))
    rc, out, err = run_cli(capsys, "product", str(path))
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "InputError"

    path.write_text(json.dumps({"vertices": simplex}))
    rc, out, _ = run_cli(capsys, "product", str(path))
    assert rc == 0
    assert json.loads(out)["product"] == "32/3"


def test_exit_2_on_finding(capsys, monkeypatch):
    def fake_corpus_verify(count, n_pairs_max=6, seed=0, **kw):
        raise CounterexampleAlarm("product 10.0 below 32/3 - 1e-9",
                                  dump={"vertices": [[1, 0, 0]]})
    monkeypatch.setattr(cli.OPT, "corpus_verify", fake_corpus_verify)
    rc, _, err = run_cli(capsys, "corpus", "--count", "1")
    assert rc == 2
    payload = json.loads(err)
    assert payload["error"] == "CounterexampleAlarm"
    assert "dump" in payload


def test_console_script_help():
    # `python -m mahler3d` runs the same main as the installed script, which
    # pyproject.toml must keep pointing at it.
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "mahler3d", "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "bound-sweep" in out.stdout
    import tomllib  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["mahler3d"] == "mahler3d.cli:main"
