import collections
import json
from unittest import mock

import pytest

from uaforge import analysis, catalog, claims, congruences, core, logic
from uaforge.analysis import HomSet, embeddings, hs_classify
from uaforge.core import AlgebraError
from uaforge.logic import FunctionalityError
from uaforge.claims import (
    Workspace,
    report_dict,
    run_all,
    run_claim,
)

S2_IDS = [
    "S2.SG-EMPTY",
    "S2.SUBALGS",
    "S2.THETA-CONG",
    "S2.SIMPLE-A",
    "S2.CON-A4",
    "S2.CHAIN-SI",
    "S2.SI-LIST",
    "S2.PHI-FUNC",
    "S2.PHI-TABLE",
    "S2.H-FAIL",
]
S3_IDS = [
    "S3.HEYTING",
    "S3.EQ1-8",
    "S3.PHI-CHAR",
    "S3.FKN",
    "S3.FSI-AN",
    "S3.CON-PRES",
    "S3.FSI-BN",
    "S3.AUT-SIGMA",
    "S3.AUT-FIX",
    "S3.AUT-RIGID",
    "S3.AMALG",
    "S3.EPIC",
    "S3.NONEQ",
]


# the evidence of check --all --deep, pinned as the n=3 strings are by perfbench/expected.json
DEEP_EVIDENCE = {
    "S2.SG-EMPTY": "Sg(empty) = {0,a1,a2,a3,a5,a6,1}",
    "S2.SUBALGS": "2 subuniverses, sizes [7, 8]",
    "S2.THETA-CONG": (
        "Cg(a6,1) on sec2.A-minus-a4 glues only {a6,1}; on sec2.A it is the full relation"
    ),
    "S2.SIMPLE-A": "|Con(sec2.A)| = 2",
    "S2.CON-A4": "quotients by the 3 congruences: itself, sec2.B, trivial",
    "S2.CHAIN-SI": "monolith of sec2.A-minus-a4 = Cg(a6,1); sec2.A is simple hence SI",
    "S2.SI-LIST": "3 SI classes, sizes [6, 7, 8]",
    "S2.PHI-FUNC": "pp shape confirmed; at most one output per argument on all three algebras",
    "S2.PHI-TABLE": (
        "sec2.A: f(0)=a3, f(a)=a1 otherwise; sec2.A-minus-a4: 0 outside the domain, value a1 "
        "elsewhere; sec2.B: f(0)=a6|1, value a1 otherwise"
    ),
    "S2.H-FAIL": (
        "holds at all 49 pairs of sec2.C; in the quotient gf(0)=a3 but the formula relates 0 "
        "to a6|1"
    ),
    "S3.HEYTING": "residuation at 5425 triples; sec2 reduct is the 8-chain",
    "S3.EQ1-8": (
        "facts (1)-(8) verified on A4 and, for the atom facts, on its 16 subalgebras; (3) "
        "holds in the corrected form: double negation is 1 exactly on {e,1}"
    ),
    "S3.PHI-CHAR": (
        "all 867 pairs match for k=1..3: output 1 when a is 0, e, 1 or has at most k atoms, "
        "output e otherwise"
    ),
    "S3.FKN": "lf1..lf3 total on A4; expansion tables agree",
    "S3.FSI-AN": "FSI classes have sizes [2, 3, 5, 9, 17] = 2^j+1 for j=0..4",
    "S3.CON-PRES": "lattices coincide on all 16 subalgebras",
    "S3.FSI-BN": "6 classes on both sides, sizes [2, 3, 5, 5, 9, 17]",
    "S3.AUT-SIGMA": "24 atom permutations = the whole automorphism group, closed under composition",
    "S3.AUT-FIX": "160 (subalgebra, element) instances witnessed",
    "S3.AUT-RIGID": "1614 embedding pairs rigid",
    "S3.AMALG": "983 spans amalgamated inside the member list",
    "S3.EPIC": "60 proper inclusions separated by endomorphism pairs",
    "S3.NONEQ": (
        "Sg(atom) = {0,{0},{1,2,3},e,1}; lf1(atom)=1, lf1(complement)=e; swapping them is a "
        "reduct automorphism but no expansion homomorphism"
    ),
}


def test_registry_lists_every_claim():
    # registration order: the S2 group precedes the S3 group
    assert list(claims._REGISTRY) == S2_IDS + S3_IDS


def test_single_claim_result_shape():
    r = run_claim("S2.SG-EMPTY")
    assert r.id == "S2.SG-EMPTY"
    assert r.status == "pass"
    assert r.statement and r.evidence
    assert r.elapsed_ms >= 0
    d = r._asdict()
    assert set(d) == {"id", "statement", "status", "evidence", "elapsed_ms"}
    json.dumps(d)  # serializable


def test_claim_result_asdict_keeps_the_report_key_order():
    # check --json prints the keys in this order
    r = run_claim("S2.SG-EMPTY")
    keys = ["id", "statement", "status", "evidence", "elapsed_ms"]
    assert list(r._asdict()) == list(report_dict([r])["claims"][0]) == keys
    assert tuple(r._asdict().values()) == r


def test_every_claim_passes_at_n3():
    ws = Workspace()
    results = run_all(n=3, workspace=ws)
    failing = [r.id for r in results if r.status != "pass"]
    assert failing == []
    assert sorted(r.id for r in results) == sorted(S2_IDS + S3_IDS)


def test_deep_evidence_is_pinned():
    results = run_all(n=4)
    assert all(r.status == "pass" for r in results)
    assert {r.id: r.evidence for r in results} == DEEP_EVIDENCE


def test_prefix_filter_and_report():
    ws = Workspace()
    results = [r for r in run_all(n=3, workspace=ws) if r.id.startswith("S2")]
    assert sorted(r.id for r in results) == sorted(S2_IDS)
    rep = report_dict(results)
    assert rep["summary"] == {"pass": len(S2_IDS), "fail": 0}
    assert len(rep["claims"]) == len(S2_IDS)


def test_claim_id_parameters():
    r = run_claim("S3.HEYTING?n=3")
    assert r.status == "pass"
    with pytest.raises(AlgebraError):
        run_claim("S3.HEYTING?k=2")
    with pytest.raises(AlgebraError):
        run_claim("S3.HEYTING?n=x")
    with pytest.raises(AlgebraError):
        run_claim("NO.SUCH")


def test_oversized_n_reports_failure_not_crash():
    r = run_claim("S3.HEYTING?n=9")
    assert r.status == "fail"
    assert "error:" in r.evidence


def test_run_order_does_not_matter():
    # shuffled execution yields the same statuses and evidence
    forward = {r.id: (r.status, r.evidence) for r in run_all(n=3)}
    ws = Workspace()
    backward = {}
    for cid in reversed(list(claims._REGISTRY)):
        r = run_claim(cid, n=3, workspace=ws)
        backward[r.id] = (r.status, r.evidence)
    assert forward == backward


def test_each_table_and_classification_is_computed_once_per_run(monkeypatch):
    # a fresh catalog memo, so the sec2.C and B3 builds are counted too: one
    # table of sec2.phi on sec2.A for sec2.C, lf1 and lf2 for B3, and the three
    # sec2.phi tables that S2.PHI-FUNC and S2.PHI-TABLE share; every table is
    # one run of the solve loop, orbit build or plain
    monkeypatch.setattr(catalog, "_memo", {})
    spy = mock.Mock(wraps=logic._function_table)
    monkeypatch.setattr(catalog, "_function_table", spy)
    monkeypatch.setattr(logic, "_function_table", spy)
    with mock.patch.object(claims, "hs_classify", wraps=hs_classify) as hs:
        assert all(r.status == "pass" for r in run_all(n=3))
    assert spy.call_count == 6
    # sec2.A, A3 and B3; S3.AMALG reads the classification S3.FSI-BN made
    assert [c.args[0].name for c in hs.call_args_list] == ["sec2.A", "A3", "B3"]


_FACT_HOMES = {
    "all_subuniverses": core,
    "congruence_lattice": congruences,
    "subalgebra": core,
    "automorphisms": analysis,
    "hs_classify": analysis,
}


@pytest.mark.parametrize(
    "n, distinct",
    [
        # sec2.A, An and Bn: their subuniverses, subalgebras and HS classes;
        # the automorphisms of An and Bn
        (3, dict(all_subuniverses=3, congruence_lattice=11, subalgebra=14, automorphisms=2, hs_classify=3)),
        (4, dict(all_subuniverses=3, congruence_lattice=16, subalgebra=34, automorphisms=2, hs_classify=3)),
    ],
)
def test_each_structure_fact_is_computed_once_per_tables_per_run(monkeypatch, n, distinct):
    # a first run builds every catalog object the run reads: the automorphisms
    # pp_expand asks for and the subalgebras the sec2 builders take are
    # catalog work, memoized for the process
    run_all(n=n)
    # every module that calls a routine by name sees the spy; a call is keyed
    # by what the result depends on: size, signature and tables, plus the
    # subuniverse for a subalgebra
    seen = {name: collections.Counter() for name in _FACT_HOMES}

    def spy(name, fn):
        def counted(alg, *args, **kwargs):
            tables = tuple(alg.tables[sym] for sym in alg.signature.names())
            extra = args[:1] if name == "subalgebra" else ()
            seen[name][(alg.size, alg.signature, tables, extra)] += 1
            return fn(alg, *args, **kwargs)

        return counted

    for name, home in _FACT_HOMES.items():
        original = getattr(home, name)
        counted = spy(name, original)
        for mod in (core, congruences, analysis, catalog, claims):
            if mod.__dict__.get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    assert all(r.status == "pass" for r in run_all(n=n))
    for name, keys in seen.items():
        assert set(keys.values()) == {1}, name
    assert {name: len(keys) for name, keys in seen.items()} == distinct


@pytest.mark.parametrize("claim_id", ["S3.FSI-BN", "S3.AMALG"])
def test_hs_claims_alone_give_the_pinned_evidence(claim_id):
    r = run_claim(claim_id, n=4, workspace=Workspace())
    assert (r.status, r.evidence) == ("pass", DEEP_EVIDENCE[claim_id])


def test_a_non_functional_phi_fails_phi_func_naming_the_arguments(monkeypatch):
    def two_outputs(alg, f, arity):
        raise FunctionalityError(alg.name, (0,), 1, 3)

    monkeypatch.setattr(claims, "induced_partial_function", two_outputs)
    r = run_claim("S2.PHI-FUNC", workspace=Workspace())
    assert r.status == "fail"
    assert r.evidence.startswith("error: formula is not functional on 'sec2.A': arguments (0,)")


@pytest.mark.parametrize(
    "force, evidence",
    [
        # no atoms in a subalgebra: its e is no join of atoms
        (lambda alg, ats: [], "(4) fails at e in {0,e,1}"),
        # zero among the atoms: it is below both a and its negation
        (lambda alg, ats: [alg.const("zero"), *ats], "(5) fails at atom 0"),
    ],
    ids=["fact4", "fact5"],
)
def test_eq18_fails_with_subalgebra_evidence(monkeypatch, force, evidence):
    # the atom facts (4) and (5) fail on a subalgebra, whose elements the
    # evidence names by An's names; the facts on A3 itself still hold
    an, atoms_of = catalog.build("An?n=3"), catalog.atoms_of
    monkeypatch.setattr(catalog, "atoms_of", lambda alg: atoms_of(alg) if alg is an else force(alg, atoms_of(alg)))
    r = run_claim("S3.EQ1-8", workspace=Workspace())
    assert (r.status, r.evidence) == ("fail", evidence)


def test_con_pres_fails_naming_the_subalgebra(monkeypatch):
    # a reduct with other congruences than the subalgebra: the trivial algebra
    monkeypatch.setattr(catalog, "heyting_reduct", lambda alg: catalog.trivial_algebra(catalog.HEYTING_SIGNATURE))
    r = run_claim("S3.CON-PRES", workspace=Workspace())
    assert (r.status, r.evidence) == ("fail", "congruences differ on B3.sub(0,8)")


def test_noneq_fails_naming_the_generated_universe(monkeypatch):
    # an atom that generates the whole of B3
    monkeypatch.setattr(claims, "sg_closure", lambda alg, gens: tuple(range(alg.size)))
    r = run_claim("S3.NONEQ", workspace=Workspace())
    assert (r.status, r.evidence) == ("fail", "generated universe is {0,{0},{1},{0,1},{2},{0,2},{1,2},e,1}")


def test_section2_claims_ignore_n():
    a = run_claim("S2.SG-EMPTY", n=3)
    b = run_claim("S2.SG-EMPTY", n=4)
    assert a.status == b.status == "pass"
    assert a.evidence == b.evidence


def test_a_crashing_claim_is_recorded_and_the_rest_still_run(monkeypatch):
    def crash(ws, n):
        raise ZeroDivisionError("boom")

    statement, _fn = claims._REGISTRY["S2.SUBALGS"]
    monkeypatch.setitem(claims._REGISTRY, "S2.SUBALGS", (statement, crash))
    results = run_all(n=3)
    assert [r.id for r in results] == S2_IDS + S3_IDS
    crashed = results[S2_IDS.index("S2.SUBALGS")]
    assert crashed.status == "error"
    assert crashed.evidence == "ZeroDivisionError: boom"
    assert all(r.status == "pass" for r in results if r is not crashed)
    assert report_dict(results)["summary"] == {"pass": 22, "fail": 1}


def test_phi_claims_catch_a_wrong_table(monkeypatch):
    # PHI-CHAR and FKN read the lf_k tables of Bn; both must still fail when
    # the atom-count oracle they compare against disagrees at one element
    An = catalog.build("An?n=3")
    atom, zero, one = catalog.atoms_of(An)[0], An.const("zero"), An.const("one")
    right = catalog.expected_phi_value

    def wrong(alg, k, a):
        return zero if (k, a) == (1, atom) else right(alg, k, a)

    assert right(An, 1, atom) == one
    monkeypatch.setattr(catalog, "expected_phi_value", wrong)
    ws = Workspace()
    char = run_claim("S3.PHI-CHAR", n=3, workspace=ws)
    fkn = run_claim("S3.FKN", n=3, workspace=ws)
    assert char.status == "fail"
    assert char.evidence == f"k=1: relation differs at {[(atom, zero), (atom, one)]}"
    assert fkn.status == "fail"
    assert fkn.evidence == f"k=1: wrong value at {An.element_name(atom)}"


def aut_fix_by_elements(ws, n):
    """S3.AUT-FIX by definition: one search of the automorphisms per
    (subalgebra, element) instance."""
    Bn = ws.bn(n)
    aut = ws.automorphisms(Bn)
    e = Bn.index_of("e")
    checked = 0
    for s in ws.subuniverses(Bn):
        for b in range(Bn.size):
            if b in s or b == e:
                continue
            if not any(all(h[a] == a for a in s) and h[b] != b for h in aut):
                return False, f"no automorphism fixes {claims._names(Bn, s)} and moves {Bn.element_name(b)}"
            checked += 1
    return True, f"{checked} (subalgebra, element) instances witnessed"


def aut_rigid_by_pairs(ws, n):
    """S3.AUT-RIGID by definition: every pair of embeddings against every
    automorphism."""
    Bn = ws.bn(n)
    aut = ws.automorphisms(Bn)
    pairs = 0
    for sub in ws.subalgebras(Bn):
        embs = embeddings(sub, Bn)
        for g in embs:
            for h in embs:
                if not any(all(g[x] == i[h[x]] for x in range(sub.size)) for i in aut):
                    return False, f"embeddings of {sub.name} not related by any automorphism"
                pairs += 1
    return True, f"{pairs} embedding pairs rigid"


def claim_matches_definition(claim_id, definition, n, ws):
    r = run_claim(claim_id, n=n, workspace=ws)
    assert (r.status == "pass", r.evidence) == definition(ws, n)
    return r


@pytest.mark.parametrize("n", [3, 4])
def test_aut_claims_match_their_definitions(n):
    ws = Workspace()
    for claim_id, definition in (("S3.AUT-FIX", aut_fix_by_elements), ("S3.AUT-RIGID", aut_rigid_by_pairs)):
        assert claim_matches_definition(claim_id, definition, n, ws).status == "pass"


def test_aut_claims_fail_like_their_definitions_on_the_trivial_group(monkeypatch):
    # the identity alone is a group, but it fixes everything and relates no
    # two distinct embeddings
    ws = Workspace()
    size = ws.bn(3).size
    monkeypatch.setattr(Workspace, "automorphisms", lambda self, alg: HomSet((tuple(range(size)),)))
    fix = claim_matches_definition("S3.AUT-FIX", aut_fix_by_elements, 3, ws)
    rigid = claim_matches_definition("S3.AUT-RIGID", aut_rigid_by_pairs, 3, ws)
    assert fix.status == rigid.status == "fail"
    assert fix.evidence.startswith("no automorphism fixes ")
    assert rigid.evidence.endswith(" not related by any automorphism")
