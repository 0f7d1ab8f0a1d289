"""Acceptance gate: one timed pass/fail line per criterion.

Each test prints its verdict to the real stdout (bypassing capture) so the
gate is readable straight off a plain pytest run.  Time limits are part of
the criteria; the asserts fire when the work is wrong or too slow.  The last
two criteria run the whole registry at n=4 (`check --all --deep`) and at
n=5 (`check --all --n 5`).
"""

import contextlib
import itertools
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from uaforge import catalog, claims
from uaforge.analysis import (
    atom_permutation_automorphism,
    automorphisms,
    hs_classify,
    is_group_under_composition,
    is_isomorphic,
)
from uaforge.cli import main as cli_main
from uaforge.congruences import congruence_lattice, monolith
from uaforge.core import SIZE_GUARD, all_subuniverses, sg_closure
from uaforge.logic import eval_exists_decomposed, eval_formula, induced_partial_function
from uaforge.partitions import Partition

# the first atom count the size guard refuses: the smallest n with 2^n + 1 > SIZE_GUARD
FIRST_REFUSED_N = next(n for n in itertools.count() if 2**n + 1 > SIZE_GUARD)

_ws = claims.Workspace()
_CAP = None


@pytest.fixture(autouse=True)
def _terminal(capfd):
    # let the criterion lines bypass pytest's fd capture
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


@contextmanager
def criterion(num, label, limit):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed <= limit else "FAIL"
        line = f"ACCEPTANCE {status} {num:02d} {label:<36} {elapsed:8.2f}s / {limit:.0f}s"
        with _CAP.disabled() if _CAP is not None else contextlib.nullcontext():
            print(line, flush=True)
    assert elapsed <= limit, f"criterion {num} exceeded the {limit}s budget"


def _claim_ok(claim_id, n=3):
    r = claims.run_claim(claim_id, n=n, workspace=_ws)
    assert r.status == "pass", f"{claim_id}: {r.evidence}"
    return r


def test_criterion_01_generated_subuniverse_census():
    with criterion(1, "empty-set closure + subuniverse census", 1.0):
        a = catalog.build("sec2.A")
        assert sg_closure(a) == (0, 1, 2, 3, 5, 6, 7)
        subs = all_subuniverses(a)
        assert len(subs) == 2
        assert sorted(subs) == [
            tuple(range(8)),
            (0, 1, 2, 3, 5, 6, 7),
        ]


def test_criterion_02_congruence_lattices():
    with criterion(2, "congruence lattices + monolith", 1.0):
        a = catalog.build("sec2.A")
        am = catalog.build("sec2.A-minus-a4")
        theta = catalog.build("sec2.theta")
        assert list(congruence_lattice(a)) == [
            Partition.identity(8),
            Partition.full(8),
        ]
        lam = congruence_lattice(am)
        assert list(lam) == [Partition.identity(7), theta, Partition.full(7)]
        assert monolith(lam) == theta


def test_criterion_03_si_members_of_hs():
    with criterion(3, "SI quotients of subalgebras", 5.0):
        cls = hs_classify(catalog.build("sec2.A"))
        reps = [cls.representatives[i] for i in cls.si_classes()]
        assert sorted(r.size for r in reps) == [6, 7, 8]
        for cid in ("sec2.A", "sec2.A-minus-a4", "sec2.B"):
            assert any(is_isomorphic(r, catalog.build(cid)) for r in reps)


def test_criterion_04_definable_function():
    with criterion(4, "pp-definable function tables", 1.0):
        a = catalog.build("sec2.A")
        am = catalog.build("sec2.A-minus-a4")
        b = catalog.build("sec2.B")
        f = catalog.build("sec2.phi")[0]
        ta = induced_partial_function(a, f, 1)
        assert len(ta) == 8
        assert tuple(ta[(x,)] for x in range(8)) == (3,) + (1,) * 7
        tb = induced_partial_function(b, f, 1)
        assert len(tb) == 6
        assert tuple(tb[(x,)] for x in range(6)) == (5,) + (1,) * 5
        # on the 7-element subalgebra the bottom has no witness: the function
        # is defined exactly on the six nonzero elements, with constant value a1
        tam = induced_partial_function(am, f, 1)
        assert frozenset(tam) == frozenset((x,) for x in range(1, 7))
        assert all(tam[(x,)] == 1 for x in range(1, 7))


def test_criterion_05_quasi_identity_transfer_failure():
    with criterion(5, "quasi-identity fails in the quotient", 1.0):
        c = catalog.build("sec2.C")
        cq = catalog.build("sec2.C-mod-theta")
        phi = catalog.build("sec2.phi")[0]
        bad_c = [
            (x, y)
            for x, y in itertools.product(range(7), repeat=2)
            if eval_exists_decomposed(c, phi, {0: x, 1: y}) and c.op("gf", x) != y
        ]
        assert bad_c == []
        bad_q = [
            (x, y)
            for x, y in itertools.product(range(6), repeat=2)
            if eval_exists_decomposed(cq, phi, {0: x, 1: y}) and cq.op("gf", x) != y
        ]
        assert bad_q == [(0, 5)]
        assert cq.op("gf", 0) == 3


def test_criterion_06_phi_tables_and_solver_agreement():
    with criterion(6, "phi(k,3) tables + solver cross-check", 30.0):
        a3 = catalog.build("An?n=3")
        for k in (1, 2):
            f = catalog.build(f"phi?k={k}&n=3")[0]
            rel = {
                (x, y)
                for x, y in itertools.product(range(9), repeat=2)
                if eval_exists_decomposed(a3, f, {0: x, 1: y})
            }
            want = {(x, catalog.expected_phi_value(a3, k, x)) for x in range(9)}
            assert rel == want  # both directions, all 81 pairs
        # decomposed solver vs the reference evaluator, exhaustively
        f13 = catalog.build("phi?k=1&n=3")[0]
        for x, y in itertools.product(range(9), repeat=2):
            env = {0: x, 1: y}
            assert eval_exists_decomposed(a3, f13, env) == eval_formula(
                a3, f13, env
            )


def test_criterion_07_automorphism_groups():
    with criterion(7, "automorphisms = atom permutations", 5.0):
        a3 = catalog.build("An?n=3")
        b3 = catalog.build("Bn?n=3")
        auts_a = automorphisms(a3)
        auts_b = automorphisms(b3)
        assert len(auts_a) == 6 and len(auts_b) == 6
        atoms = catalog.atoms_of(b3)
        induced = set()
        for perm in itertools.permutations(atoms):
            sigma = dict(zip(atoms, perm))
            mapping, ok = atom_permutation_automorphism(b3, sigma)
            assert ok
            induced.add(mapping)
        assert induced == set(auts_b.maps) == set(auts_a.maps)
        assert is_group_under_composition(auts_b.maps)


def test_criterion_08_embedding_rigidity():
    with criterion(8, "embeddings between subalgebras are rigid", 60.0):
        _claim_ok("S3.AUT-RIGID")
        _claim_ok("S3.AUT-FIX")


def test_criterion_09_fsi_classification():
    with criterion(9, "FSI classification + congruence transfer", 60.0):
        _claim_ok("S3.FSI-AN")
        _claim_ok("S3.FSI-BN")
        _claim_ok("S3.CON-PRES")


def test_criterion_10_amalgamation():
    with criterion(10, "amalgamation over all spans", 120.0):
        _claim_ok("S3.AMALG")


def test_criterion_11_no_epic_subalgebras():
    with criterion(11, "no proper epic subalgebras", 60.0):
        _claim_ok("S3.EPIC")


def test_criterion_12_order_witness():
    with criterion(12, "reduct symmetry vs expansion rigidity", 1.0):
        _claim_ok("S3.NONEQ")


def test_criterion_13_cli_gate():
    with criterion(13, "cli: check --all exits 0, deep wired", 300.0):
        runner = CliRunner()
        res = runner.invoke(cli_main, ["check", "--all"])
        assert res.exit_code == 0, res.output
        assert "23/23 claims passed (n=3)" in res.output
        # the deep switch is wired: range-checked and runnable at n=4
        guard = runner.invoke(cli_main, ["check", "--n", str(FIRST_REFUSED_N)])
        assert guard.exit_code == 2
        probe = runner.invoke(cli_main, ["check", "S3.HEYTING", "--deep"])
        assert probe.exit_code == 0, probe.output


def test_criterion_13_deep_registry():
    with criterion(13, "cli: check --all --deep exits 0", 180.0):
        runner = CliRunner()
        res = runner.invoke(cli_main, ["check", "--all", "--deep"])
        assert res.exit_code == 0, res.output
        assert "23/23 claims passed (n=4)" in res.output


def test_criterion_14_registry_at_n5():
    # 4.9 s wall on 2 vCPUs when the budget was fixed, most of it the B5 build
    with criterion(14, "cli: check --all --n 5 exits 0", 60.0):
        res = CliRunner().invoke(cli_main, ["check", "--all", "--n", "5"])
        assert res.exit_code == 0, res.output
        assert "23/23 claims passed (n=5)" in res.output
