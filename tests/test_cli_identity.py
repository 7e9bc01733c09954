import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import cli_identity  # noqa: E402

# A stand-in package: echoes its arguments, writes "<answer>\n" to any
# --out file and fails on "classify".
FAKE_MAIN = '''import sys
args = sys.argv[1:]
if "--out" in args:
    with open(args[args.index("--out") + 1], "w") as fh:
        fh.write("{answer}\\n")
print(" ".join(args))
if args[0] == "classify":
    sys.exit("no verdict")
'''


def _checkout(root, answer):
    pkg = root / "src" / "mahler3d"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text(FAKE_MAIN.format(answer=answer))
    return root


def test_command_set_covers_every_command():
    cmds = cli_identity.commands()
    assert len({name for name, _ in cmds}) == len(cmds)
    assert {argv[0] for _, argv in cmds} == {
        "analyze", "polar", "product", "classify", "speeds", "deform",
        "bound-sweep", "optimize", "corpus"}
    names = {name for name, _ in cmds}
    for name, argv in cmds:
        written = [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--csv")]
        assert all(Path(w).stem == name for w in written)
        if argv[0] not in ("optimize", "corpus"):
            # every per-body command also runs on the double kernel
            double = name.endswith("-double")
            assert ("--kernel" in argv) == double
            assert double or f"{name}-double" in names


def test_help_runs_cover_every_command():
    cmds = cli_identity.help_commands()
    names = [name for name, _ in cmds]
    assert len(set(names)) == len(names)
    assert set(names).isdisjoint(name for name, _ in cli_identity.commands())
    helped = [argv[:-1] for _, argv in cmds if argv[-1] == "--help"]
    assert helped[0] == []
    assert sorted(tuple(h) for h in helped[1:]) == sorted(
        {(argv[0],) for _, argv in cli_identity.commands()})
    assert ("usage-speeds-without-theta",
            ["speeds", "bodies/cube.json"]) in cmds


def test_error_runs_are_listed_apart():
    cmds = cli_identity.error_commands()
    names = [name for name, _ in cmds]
    assert len(set(names)) == len(names)
    others = cli_identity.commands() + cli_identity.help_commands()
    assert set(names).isdisjoint(name for name, _ in others)
    argvs = [argv for _, argv in cmds]
    assert ["product", "bodies/cube.json", "--kernel", "double",
            "--tol", "nan"] in argvs
    assert ["deform", "bodies/cube.json", "--theta", "0,0,1",
            "--speed", "x,1,1,1"] in argvs
    for cmd in ("product", "analyze"):
        assert [cmd, "bodies/tiny_cube.json"] in argvs
    for n in ("1", "0"):
        for kernel in ("rational", "double"):
            assert ["deform", "bodies/cube.json", "--kernel", kernel,
                    "--theta", "0,0,1", "--speed", "1,1,1,1", "--t-max",
                    "1/8", "--samples", n] in argvs
    assert ["optimize", "--pairs", "4", "--seed", "1", "--termination-tol",
            "nan"] in argvs
    for kernel in ("rational", "double"):
        assert ["deform", "bodies/cube.json", "--kernel", kernel, "--theta",
                "0,0,1", "--speed", "1,1,1,1", "--t-max=-1/8",
                "--samples", "3"] in argvs
    assert not any("--out" in argv or "--csv" in argv for argv in argvs)
    tiny = cli_identity.ERROR_BODIES["tiny_cube"]
    assert [[Fraction(c) * 2 ** 5000 for c in p] for p in tiny] == \
        cli_identity.BODIES["cube"]
    assert set(cli_identity.ERROR_BODIES).isdisjoint(cli_identity.BODIES)


def test_fake_pair_lists_the_differing_files(tmp_path):
    cmds = [("product-cube", ["product", "bodies/cube.json",
                              "--out", "out/product-cube.json"]),
            ("classify-cube", ["classify", "bodies/cube.json"])]
    outs = [cli_identity.run_side(_checkout(tmp_path / side, answer),
                                  tmp_path / f"work-{side}", cmds)
            for side, answer in (("parent", "32/3"), ("change", "10"))]
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["classify-cube.exit", "classify-cube.stderr",
                     "classify-cube.stdout", "product-cube.exit",
                     "product-cube.json", "product-cube.stderr",
                     "product-cube.stdout"]
    assert (outs[0] / "classify-cube.exit").read_text() == "1\n"
    assert (outs[0] / "product-cube.stdout").read_text() == (
        "product bodies/cube.json --out out/product-cube.json\n")
    assert cli_identity.differences(*outs) == ["product-cube.json"]
    (outs[1] / "product-cube.json").unlink()
    (outs[1] / "extra.csv").write_text("")
    assert cli_identity.differences(*outs) == ["extra.csv", "product-cube.json"]


def test_label_separates_float_digits_from_structure(tmp_path):
    def pair(a, b):
        (tmp_path / "a").write_text(a)
        (tmp_path / "b").write_text(b)
        return cli_identity.label(tmp_path / "a", tmp_path / "b")

    assert pair('{"gap": 1.5e-15, "t": -0.577, "steps": 3}\n',
                '{"gap": 1.2e-15, "t": -0.905, "steps": 3}\n') == \
        "numbers only (max rel 3.6e-01)"
    assert pair("x,10.666666666666668\n", "x,10.666666666666666\n") == \
        "numbers only (max rel 1.7e-16)"
    assert pair('{"steps": 3, "v": 0.5}\n',
                '{"steps": 4, "v": 0.5}\n') == "structural"
    assert pair("32/3\n", "31/3\n") == "structural"
    assert pair("1.0, 2.0\n", "1.0\n") == "structural"
    assert pair("Excluded 0.5\n", "AffineOctahedron 0.5\n") == "structural"
    assert cli_identity.label(tmp_path / "a", tmp_path / "missing") == \
        "structural"
