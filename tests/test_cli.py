import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from uaforge.cli import main
from uaforge.core import loads_algebra


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def files(tmp_path_factory, runner):
    """Algebra files written through the build command itself."""
    d = tmp_path_factory.mktemp("algs")
    paths = {}
    for cid, fname in (
        ("sec2.A", "A.json"),
        ("sec2.A-minus-a4", "Am.json"),
        ("sec2.B", "B.json"),
        ("An?n=3", "A3.json"),
        ("Bn?n=3", "B3.json"),
    ):
        path = d / fname
        res = runner.invoke(main, ["build", cid, "-o", str(path)])
        assert res.exit_code == 0, res.output
        paths[cid] = str(path)
    return paths


def test_build_algebra_stdout(runner):
    res = runner.invoke(main, ["build", "sec2.A"])
    assert res.exit_code == 0
    alg = loads_algebra(res.output)
    assert alg.name == "sec2.A" and alg.size == 8
    # byte-stable output
    again = runner.invoke(main, ["build", "sec2.A"])
    assert again.output == res.output


def test_build_partition_and_formula(runner):
    res = runner.invoke(main, ["build", "sec2.theta"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data == {"size": 7, "blocks": [[0], [1], [2], [3], [4], [5, 6]]}

    res2 = runner.invoke(main, ["build", "sec2.phi"])
    assert res2.exit_code == 0
    assert res2.output.strip() == "exists z . plus(x, y) = dia(z)"

    res3 = runner.invoke(main, ["build", "phi?k=1&n=3"])
    assert res3.exit_code == 0
    assert res3.output.startswith("exists z1_1")


def test_build_unknown_id(runner):
    res = runner.invoke(main, ["build", "nope"])
    assert res.exit_code == 2
    assert "unknown catalog id" in res.output

    for ident in ("phi?k=1&n=30", "An?n=20000"):
        big = runner.invoke(main, ["build", ident])
        assert big.exit_code == 2, ident
        assert "size guard" in big.output
        assert "Traceback" not in big.output

    twice = runner.invoke(main, ["build", "An?n=3&n=2"])
    assert twice.exit_code == 2
    assert "given twice" in twice.output


def test_sg(runner, files):
    res = runner.invoke(main, ["sg", files["sec2.A"]])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["elements"] == [0, 1, 2, 3, 5, 6, 7]
    assert data["names"] == ["0", "a1", "a2", "a3", "a5", "a6", "1"]

    res2 = runner.invoke(main, ["sg", files["An?n=3"], "--gens", "{0}"])
    assert res2.exit_code == 0
    assert json.loads(res2.output)["names"] == ["0", "{0}", "{1,2}", "e", "1"]


def test_sg_refuses_a_huge_universe(runner, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "x", "size": 1000000000000, "operations": []}))
    res = runner.invoke(main, ["sg", str(path)])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert "universe limit" in res.output


def test_con(runner, files):
    res = runner.invoke(main, ["con", files["sec2.A"]])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["count"] == 2

    # numeric tokens are element indices; the top of the 7-chain is index 6
    res2 = runner.invoke(main, ["con", files["sec2.A-minus-a4"], "--principal", "a6,6"])
    assert res2.exit_code == 0
    blocks = json.loads(res2.output)["blocks"]
    assert blocks == [["0"], ["a1"], ["a2"], ["a3"], ["a5"], ["a6", "1"]]

    res3 = runner.invoke(main, ["con", files["sec2.A"], "--principal", "a6"])
    assert res3.exit_code == 2


def test_bad_algebra_files_exit_2(runner, tmp_path):
    def doc(arity=1, entry=1):
        op = {"symbol": "f", "arity": arity, "table": [0, entry]}
        return {"name": "bad", "size": 2, "operations": [op]}

    # one element, so the one-entry table of an arity-100 operation is valid
    huge_arity = {"name": "t", "size": 1,
                  "operations": [{"symbol": "f", "arity": 100, "table": [0]}]}
    for i, bad in enumerate([doc(entry="x"), doc(entry=1.5), doc(entry=None),
                             doc(entry=True), doc(arity="1"), huge_arity]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(bad))
        res = runner.invoke(main, ["con", str(path)])
        assert res.exit_code == 2, (bad, res.output)
        assert "Traceback" not in res.output
        assert "cannot load" in res.output


def test_element_tokens_outside_ascii_digits_exit_2(runner, files):
    # "²" is a digit to str.isdigit, and "--1" strips to one, but int() takes neither
    A = files["sec2.A"]
    for args in (["sg", A, "--gens=²"], ["sg", A, "--gens=--1"],
                 ["eval", A, "--formula", "plus(x, x) = x", "--assign", "x=²"],
                 ["con", A, "--principal", "²,1"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
        assert "Traceback" not in res.output
        assert "no element named" in res.output


def test_build_to_an_unwritable_path_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["build", "sec2.A", "-o", str(tmp_path / "missing" / "x")])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert "cannot write" in res.output


def test_eval(runner, files):
    base = ["eval", files["sec2.B"], "--formula", "exists z . plus(x, y) = dia(z)"]
    res = runner.invoke(main, base + ["--assign", "x=0,y=a6|1"])
    assert res.exit_code == 0 and res.output.strip() == "true"

    res2 = runner.invoke(main, base + ["--assign", "x=0,y=a1"])
    assert res2.exit_code == 0 and res2.output.strip() == "false"

    missing = runner.invoke(main, base + ["--assign", "x=0"])
    assert missing.exit_code == 2 and "without assignment" in missing.output

    unknown = runner.invoke(main, base + ["--assign", "x=0,y=a1,q=0"])
    assert unknown.exit_code == 2

    twice = runner.invoke(main, ["eval", files["sec2.A"], "--formula", "x = x",
                                 "--assign", "x=0,x=1"])
    assert twice.exit_code == 2 and "assigned twice" in twice.output

    bad = runner.invoke(main, ["eval", files["sec2.B"], "--formula", "foo(x) = x",
                               "--assign", "x=0"])
    assert bad.exit_code == 2 and "unknown operation symbol" in bad.output


def test_functional(runner, files):
    res = runner.invoke(
        main,
        [
            "functional",
            files["sec2.A"],
            files["sec2.A-minus-a4"],
            files["sec2.B"],
            "--formula",
            "exists z . plus(x, y) = dia(z)",
            "--arity",
            "1",
        ],
    )
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "sec2.A: functional, total"
    assert lines[1] == "sec2.A-minus-a4: functional, domain 6/7"
    assert lines[2] == "sec2.B: functional, total"

    bad = runner.invoke(
        main,
        ["functional", files["An?n=3"], "--formula", "exists z . join(x, z) = y",
         "--arity", "1"],
    )
    assert bad.exit_code == 1
    assert "not functional" in bad.output


def test_functional_vars_option(runner, files):
    res = runner.invoke(
        main,
        ["functional", files["An?n=3"], "--formula", "meet(x, y) = z",
         "--arity", "2", "--vars", "x,y,z"],
    )
    assert res.exit_code == 0 and "total" in res.output
    bad = runner.invoke(
        main,
        ["functional", files["An?n=3"], "--formula", "meet(x, y) = z",
         "--arity", "2", "--vars", "x,q,z"],
    )
    assert bad.exit_code == 2


def test_functional_refuses_undesignated_variables(runner, files):
    base = ["functional", files["sec2.A"], "--formula", "exists z . plus(x, w) = dia(y)",
            "--arity", "1"]
    for extra, name in (([], "y"), (["--vars", "x,y"], "w")):
        res = runner.invoke(main, base + extra)
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output
        assert f"outside the designated ones: {name}" in res.output
    negative = runner.invoke(main, ["functional", files["sec2.A"], "--formula", "zero = zero",
                                    "--arity", "-1"])
    assert negative.exit_code == 2 and "Traceback" not in negative.output


def test_eval_and_functional_refuse_unbounded_work(runner, files):
    a = files["sec2.A"]
    for args in (
        # 8^9 assignments for the reference evaluator
        ["eval", a, "--formula", "forall a b c d e f g h i . meet(a, b) = meet(b, a) \\/ x = x",
         "--assign", "x=0"],
        # a tuple of 10^9 variables
        ["functional", a, "--formula", "x = y", "--arity", "1000000000"],
        # 8^9 solves
        ["functional", a, "--formula", "meet(x, x) = y", "--arity", "9",
         "--vars", "x,x,x,x,x,x,x,x,x,y"],
    ):
        start = time.perf_counter()
        res = runner.invoke(main, args)
        assert time.perf_counter() - start < 5
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output and "over the limit" in res.output


def test_solver_steps_over_the_work_bound_exit_2(runner, tmp_path):
    # one equation over nine bound variables: a 17^9-cell step on A4
    path = tmp_path / "A4.json"
    assert runner.invoke(main, ["build", "An?n=4", "-o", str(path)]).exit_code == 0
    src = ("exists a b c d e f g h i . "
           "join(join(join(a, b), join(c, d)), join(join(e, f), join(g, h))) = meet(i, x)")
    start = time.perf_counter()
    res = runner.invoke(main, ["eval", str(path), "--formula", src, "--assign", "x=0"])
    assert time.perf_counter() - start < 10
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output and "over the limit" in res.output


def test_deeply_nested_formulas_exit_2(runner, files):
    a = files["sec2.A"]
    for src in ("(" * 200 + "x = x" + ")" * 200,
                "box(" * 1000 + "x" + ")" * 1000 + " = x",
                "!" * 990 + "x = x"):
        for args in (["eval", a, "--formula", src, "--assign", "x=0"],
                     ["functional", a, "--formula", src, "--arity", "0"]):
            start = time.perf_counter()
            res = runner.invoke(main, args)
            assert time.perf_counter() - start < 10
            assert res.exit_code == 2, res.output
            assert "Traceback" not in res.output and "nested over 100 levels" in res.output


def test_operation_free_files_exit_2(runner, tmp_path, monkeypatch):
    # 10^10 maps and Bell(12) = 4,213,597 congruences: both refused past the
    # bound, which is lowered here to keep the test fast; the held maps pass
    # it (1,001 maps of 10 cells) before the search nodes do
    from uaforge import analysis, congruences

    monkeypatch.setattr(analysis, "MAX_UNIVERSE", 10_000)
    monkeypatch.setattr(congruences, "MAX_UNIVERSE", 10_000)
    paths = {}
    for n in (10, 12):
        paths[n] = tmp_path / f"E{n}.json"
        paths[n].write_text(json.dumps({"name": f"E{n}", "size": n, "operations": []}))
    for args, message in ((["homs", str(paths[10]), str(paths[10])], "over 10000 cells"),
                          (["con", str(paths[12])], "over 10000 joins")):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "Traceback" not in res.output and message in res.output


def test_homs(runner, files):
    res = runner.invoke(main, ["homs", files["Bn?n=3"], files["Bn?n=3"], "--auto"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["count"] == 6 and data["kind"] == "bijective"
    assert [0, 1, 2, 3, 4, 5, 6, 7, 8] in data["maps"]

    res2 = runner.invoke(main, ["homs", files["Bn?n=3"], files["Bn?n=3"]])
    assert json.loads(res2.output)["count"] == 9

    res3 = runner.invoke(main, ["homs", files["sec2.A-minus-a4"], files["sec2.A"],
                                "--injective"])
    assert json.loads(res3.output)["count"] == 1


def test_check_single(runner):
    res = runner.invoke(main, ["check", "S2.SG-EMPTY"])
    assert res.exit_code == 0
    assert res.output.startswith("PASS S2.SG-EMPTY")
    assert "1/1 claims passed" in res.output


def test_check_json(runner):
    res = runner.invoke(main, ["check", "S2.SUBALGS", "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["summary"] == {"pass": 1, "fail": 0}
    assert data["claims"][0]["id"] == "S2.SUBALGS"


def test_check_rejects_bad_requests(runner):
    res = runner.invoke(main, ["check", "--n", "5"])
    assert res.exit_code == 2
    assert "size guard" in res.output

    res2 = runner.invoke(main, ["check", "--n", "2"])
    assert res2.exit_code == 2

    res3 = runner.invoke(main, ["check", "NO.SUCH"])
    assert res3.exit_code == 2

    res4 = runner.invoke(main, ["check", "S2.SG-EMPTY", "--all"])
    assert res4.exit_code == 2

    res5 = runner.invoke(main, ["check", "S3.HEYTING?n=9"])
    assert res5.exit_code == 2

    # both the --n value and the claim's own n are checked, and a huge n is
    # refused without a traceback
    for args in (
        ["check", "--n", "5", "S3.HEYTING?n=3"],
        ["check", "--n", "2", "S3.HEYTING?n=3"],
        ["check", "S3.HEYTING?n=2"],
        ["check", "S3.HEYTING?n=20000"],
        ["check", "--n", "20000"],
        ["check", "S3.EPIC?n=3&n=4"],
    ):
        res6 = runner.invoke(main, args)
        assert res6.exit_code == 2, args
        assert "Traceback" not in res6.output


def test_check_reports_a_crashing_claim(runner, monkeypatch):
    from uaforge import claims

    def crash(ws, n):
        raise ZeroDivisionError("boom")

    statement, _fn = claims._REGISTRY["S2.SUBALGS"]
    monkeypatch.setitem(claims._REGISTRY, "S2.SUBALGS", (statement, crash))
    res = runner.invoke(main, ["check", "S2.SUBALGS"])
    assert res.exit_code == 1
    assert "ERROR S2.SUBALGS" in res.output and "ZeroDivisionError: boom" in res.output


def test_check_all(runner):
    res = runner.invoke(main, ["check", "--all"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[-1] == "23/23 claims passed (n=3)"
    assert len([l for l in lines if l.startswith("PASS")]) == 23
    # every evidence string matches the one the benchmark gates on
    expected_file = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    expected = json.loads(expected_file.read_text())["registry-n3"]
    got = {l.split()[1]: l.split(" ms  ", 1)[1] for l in lines[:-1]}
    assert got == expected
