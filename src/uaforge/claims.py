"""Claim registry: every finitely checkable statement behind the catalog.

Each claim binds an id to an executable check over the built-in algebras.
S2.* claims concern the eight-element chain family and are fixed-size; S3.*
claims concern the An/Bn family and take the atom count n as a parameter
(default 3, n = 4 behind the deep flag; the size guard rules out n >= 6).

run_claim/run_all produce ClaimResult records carrying pass/fail, a short
evidence string phrased with catalog element names, and wall time.
"""

from __future__ import annotations

import time
from itertools import permutations, product
from typing import NamedTuple

from . import catalog
from .analysis import (
    atom_permutation_automorphism,
    automorphisms,
    check_amalgamation,
    check_epic_subalgebras,
    compose,
    embeddings,
    hs_classify,
    is_chain,
    is_group_under_composition,
    is_homomorphism,
    is_isomorphic,
    lattice_leq,
)
from .congruences import (
    congruence_lattice,
    is_congruence,
    is_simple,
    is_si,
    monolith,
    principal_congruence,
)
from .core import AlgebraError, all_subuniverses, quotient, sg_closure, subalgebra
from .logic import eval_formula, induced_partial_function, is_pp
from .partitions import Partition


class ClaimResult(NamedTuple):
    id: str
    statement: str
    status: str  # pass | fail | error (the check raised)
    evidence: str
    elapsed_ms: int


class Workspace:
    """Per-run memo of the structure facts several claims read; the catalog
    memoizes the algebras themselves, so each lf_k table of Bn is solved once.

    Each fact of an algebra (its subuniverse list, its subalgebras in that
    order, its congruence lattice, its automorphisms, its HS classification)
    is held by its kind and the algebra's size, signature and tables in
    signature order, since it depends on nothing else: a subalgebra built by
    two claims, or the Heyting reduct of a Bn subalgebra and the An
    subalgebra with the same tables, share one entry.  A held subalgebra is
    named after the first algebra asked with those tables; names appear only
    in the failure evidence of S3.CON-PRES and S3.AUT-RIGID, which ask only
    about Bn.  The entries live as long as the workspace, one run."""

    def __init__(self):
        self._store: dict = {}

    def _memo(self, key, thunk):
        if key not in self._store:
            self._store[key] = thunk()
        return self._store[key]

    def _fact(self, kind, fn, alg):
        tables = tuple(alg.tables[sym] for sym in alg.signature.names())
        return self._memo((kind, alg.size, alg.signature, tables), lambda: fn(alg))

    def subuniverses(self, alg):
        return self._fact("subs", all_subuniverses, alg)

    def subalgebras(self, alg):
        """The subalgebras of alg, index-aligned with subuniverses(alg)."""
        return self._fact("subalgs", lambda a: [subalgebra(a, s)[0] for s in self.subuniverses(a)], alg)

    def lattice(self, alg):
        return self._fact("con", congruence_lattice, alg)

    def automorphisms(self, alg):
        return self._fact("aut", automorphisms, alg)

    def hs(self, alg):
        return self._fact("hs", lambda a: hs_classify(a, self.subalgebras, self.lattice), alg)

    def an(self, n):
        return catalog.build(f"An?n={n}")

    def bn(self, n):
        return catalog.build(f"Bn?n={n}")

    def sec2_phi_tables(self):
        """The partial function sec2.phi induces on sec2.A, sec2.A-minus-a4 and
        sec2.B, by catalog id; FunctionalityError if it is not functional."""

        def build():
            phi, _ = catalog.build("sec2.phi")
            ids = ("sec2.A", "sec2.A-minus-a4", "sec2.B")
            return {c: induced_partial_function(catalog.build(c), phi, 1) for c in ids}

        return self._memo("sec2-phi", build)


_REGISTRY: dict[str, tuple[str, object]] = {}


def _claim(claim_id: str, statement: str):
    def wrap(fn):
        _REGISTRY[claim_id] = (statement, fn)
        return fn

    return wrap


def _names(alg, elems) -> str:
    return "{" + ",".join(alg.element_name(e) for e in elems) + "}"


# ---------------------------------------------------------------------------
# chain-family claims


@_claim("S2.SG-EMPTY", "constants of sec2.A generate exactly the universe minus a4")
def _sg_empty(ws, n):
    A = catalog.build("sec2.A")
    got = sg_closure(A)
    want = (0, 1, 2, 3, 5, 6, 7)
    return got == want, f"Sg(empty) = {_names(A, got)}"


@_claim("S2.SUBALGS", "sec2.A has exactly two subuniverses: itself and the one minus a4")
def _subalgs(ws, n):
    A = catalog.build("sec2.A")
    subs = ws.subuniverses(A)
    want = [(0, 1, 2, 3, 5, 6, 7), tuple(range(8))]
    return subs == want, f"{len(subs)} subuniverses, sizes {[len(s) for s in subs]}"


@_claim("S2.THETA-CONG", "gluing a6 with 1 is a congruence of sec2.A-minus-a4 but collapses sec2.A")
def _theta_cong(ws, n):
    A = catalog.build("sec2.A")
    Am = catalog.build("sec2.A-minus-a4")
    theta = catalog.build("sec2.theta")
    ok = (
        is_congruence(Am, theta)
        and principal_congruence(Am, 5, 6) == theta
        and theta.blocks() == ((0,), (1,), (2,), (3,), (4,), (5, 6))
        and principal_congruence(A, 6, 7) == Partition.full(8)
    )
    return ok, "Cg(a6,1) on sec2.A-minus-a4 glues only {a6,1}; on sec2.A it is the full relation"


@_claim("S2.SIMPLE-A", "sec2.A is simple")
def _simple_a(ws, n):
    A = catalog.build("sec2.A")
    lat = ws.lattice(A)
    return is_simple(lat), f"|Con(sec2.A)| = {len(lat)}"


@_claim("S2.CON-A4", "nontrivial quotients of sec2.A-minus-a4 are itself and sec2.B only")
def _con_a4(ws, n):
    Am = catalog.build("sec2.A-minus-a4")
    B = catalog.build("sec2.B")
    lat = ws.lattice(Am)
    if len(lat) != 3:
        return False, f"|Con| = {len(lat)}, expected 3"
    kinds = []
    for theta in lat:
        q = quotient(Am, theta)
        if q.is_trivial:
            kinds.append("trivial")
        elif is_isomorphic(q, Am):
            kinds.append("itself")
        elif is_isomorphic(q, B):
            kinds.append("sec2.B")
        else:
            return False, f"unexpected quotient of size {q.size}"
    return sorted(kinds) == ["itself", "sec2.B", "trivial"], (
        "quotients by the 3 congruences: " + ", ".join(kinds)
    )


@_claim("S2.CHAIN-SI", "sec2.A-minus-a4 is subdirectly irreducible with monolith gluing a6 and 1")
def _chain_si(ws, n):
    A = catalog.build("sec2.A")
    Am = catalog.build("sec2.A-minus-a4")
    lat = ws.lattice(Am)
    theta = catalog.build("sec2.theta")
    ok = is_si(lat) and monolith(lat) == theta and is_si(ws.lattice(A))
    return ok, "monolith of sec2.A-minus-a4 = Cg(a6,1); sec2.A is simple hence SI"


@_claim("S2.SI-LIST", "the SI quotients of subalgebras of sec2.A are sec2.A, sec2.A-minus-a4, sec2.B")
def _si_list(ws, n):
    A = catalog.build("sec2.A")
    hs = ws.hs(A)
    reps = [hs.representatives[c] for c in hs.si_classes()]
    targets = [A, catalog.build("sec2.A-minus-a4"), catalog.build("sec2.B")]
    ok = len(reps) == 3 and all(
        sum(1 for r in reps if is_isomorphic(r, t)) == 1 for t in targets
    )
    return ok, f"{len(reps)} SI classes, sizes {sorted(r.size for r in reps)}"


@_claim("S2.PHI-FUNC", "the witness formula is pp and functional on sec2.A, sec2.A-minus-a4, sec2.B")
def _phi_func(ws, n):
    phi, _ = catalog.build("sec2.phi")
    ws.sec2_phi_tables()  # FunctionalityError, an AlgebraError, fails the claim
    return is_pp(phi), "pp shape confirmed; at most one output per argument on all three algebras"


@_claim("S2.PHI-TABLE", "induced function: a3 at 0 and a1 elsewhere on sec2.A; on the subalgebra 0 has no output")
def _phi_table(ws, n):
    tables = ws.sec2_phi_tables()
    tA, tAm, tB = tables["sec2.A"], tables["sec2.A-minus-a4"], tables["sec2.B"]
    okA = len(tA) == 8 and tA[(0,)] == 3 and all(tA[(a,)] == 1 for a in range(1, 8))
    okAm = sorted(x for (x,) in tAm) == list(range(1, 7)) and all(
        tAm[(a,)] == 1 for a in range(1, 7)
    )
    okB = len(tB) == 6 and tB[(0,)] == 5 and all(tB[(a,)] == 1 for a in range(1, 6))
    return okA and okAm and okB, (
        "sec2.A: f(0)=a3, f(a)=a1 otherwise; sec2.A-minus-a4: 0 outside the domain, "
        "value a1 elsewhere; sec2.B: f(0)=a6|1, value a1 otherwise"
    )


@_claim("S2.H-FAIL", "the implicit-operation quasi-identity holds in sec2.C but fails in its quotient")
def _h_fail(ws, n):
    phi, _ = catalog.build("sec2.phi")
    C = catalog.build("sec2.C")
    Cq = catalog.build("sec2.C-mod-theta")
    for alg in (C, Cq):
        if "gf" not in alg.signature:
            return False, "expansion operation missing"
    holds_in_C = all(
        not eval_formula(C, phi, {0: a, 1: b}) or C.op("gf", a) == b
        for a in range(C.size)
        for b in range(C.size)
    )
    failures = [
        (a, b)
        for a in range(Cq.size)
        for b in range(Cq.size)
        if eval_formula(Cq, phi, {0: a, 1: b}) and Cq.op("gf", a) != b
    ]
    ok = holds_in_C and failures == [(0, 5)] and Cq.op("gf", 0) == 3
    ev = (
        "holds at all 49 pairs of sec2.C; in the quotient gf(0)="
        f"{Cq.element_name(Cq.op('gf', 0))} but the formula relates 0 to "
        f"{Cq.element_name(5)}"
    )
    return ok, ev


# ---------------------------------------------------------------------------
# powerset-family claims


@_claim("S3.HEYTING", "the lattice reducts satisfy Heyting residuation")
def _heyting(ws, n):
    chain = catalog.heyting_reduct(catalog.build("sec2.A"))
    An = ws.an(n)
    checked = 0
    for alg in (chain, An):
        for a, b, c in product(range(alg.size), repeat=3):
            lhs = lattice_leq(alg, alg.op("meet", a, c), b)
            rhs = lattice_leq(alg, c, alg.op("imp", a, b))
            if lhs != rhs:
                return False, f"residuation fails at ({a},{b},{c}) in {alg.name}"
            checked += 1
    if not is_chain(chain):
        return False, "the sec2 reduct is not a chain"
    if not all(lattice_leq(chain, a, a + 1) for a in range(7)):
        return False, "chain order broken"
    return True, f"residuation at {checked} triples; sec2 reduct is the 8-chain"


@_claim("S3.EQ1-8", "the eight arithmetic facts of the powerset-with-top algebras hold")
def _eq18(ws, n):
    An = ws.an(n)
    size, zero, one = An.size, An.const("zero"), An.const("one")

    def neg(a):
        return An.op("imp", a, zero)

    e = zero
    for p in catalog.atoms_of(An):
        e = An.op("join", e, p)
    for a, b in product(range(size), repeat=2):
        if (An.op("join", a, b) == one) != (a == one or b == one):
            return False, f"(1) fails at ({a},{b})"
        if lattice_leq(An, a, b) != (An.op("imp", a, b) == one):
            return False, f"(7) fails at ({a},{b})"
        if lattice_leq(An, a, b) and not lattice_leq(An, neg(neg(a)), neg(neg(b))):
            return False, f"(8) fails at ({a},{b})"
        if (An.op("meet", neg(a), neg(b)) == one) != (a == zero and b == zero):
            return False, f"(6) fails at ({a},{b})"
    for a in range(size):
        if (a != zero and lattice_leq(An, a, e)) != (An.op("join", a, neg(a)) == e):
            return False, f"(2) fails at {a}"
        # (3) as displayed reads "a in {0,e,1}" but fails at a=0; the correct
        # right-to-left class is {e,1}, which is what the arguments rely on
        if (neg(neg(a)) == one) != (a in (e, one)):
            return False, f"(3) fails at {a}"
        if (a != e or a == zero) != (neg(neg(a)) == a):
            return False, f"(3b) fails at {a}"
        if (An.op("meet", neg(a), neg(a)) == one) != (a == zero):
            return False, f"(6) fails at {a}"
    # (4) and (5) quantify over subalgebras
    subs = ws.subuniverses(An)
    for s, sub in zip(subs, ws.subalgebras(An)):
        ats = catalog.atoms_of(sub)
        top = sub.const("one")
        for a in range(sub.size):
            if a != top:
                join = sub.const("zero")
                for p in ats:
                    if lattice_leq(sub, p, a):
                        join = sub.op("join", join, p)
                if join != a:
                    return False, f"(4) fails at {sub.element_name(a)} in {_names(An, s)}"
            for b in ats:
                below_a = lattice_leq(sub, b, a)
                below_na = lattice_leq(sub, b, sub.op("imp", a, sub.const("zero")))
                if below_a == below_na:
                    return False, f"(5) fails at atom {sub.element_name(b)}"
    return True, (
        f"facts (1)-(8) verified on A{n} and, for the atom facts, on its "
        f"{len(subs)} subalgebras; (3) holds in the corrected "
        "form: double negation is 1 exactly on {e,1}"
    )


@_claim("S3.PHI-CHAR", "the defining formulas relate a to exactly the value picked by its atom count")
def _phi_char(ws, n):
    # pp_expand builds Bn only if phi(k, n) gives one output per argument:
    # it solves one argument per automorphism orbit and carries the outputs
    # over the orbit by verified automorphisms of An, so the relation of
    # phi(k, n) is the graph of lf_k
    An, Bn = ws.an(n), ws.bn(n)
    checked = 0
    for k in range(1, n):
        want = frozenset(
            (a, catalog.expected_phi_value(An, k, a)) for a in range(An.size)
        )
        got = frozenset((a, Bn.op(f"lf{k}", a)) for a in range(An.size))
        if got != want:
            diff = sorted(got ^ want)[:3]
            return False, f"k={k}: relation differs at {diff}"
        checked += An.size * An.size
    return True, (
        f"all {checked} pairs match for k=1..{n - 1}: output 1 when a is 0, e, 1 "
        f"or has at most k atoms, output e otherwise"
    )


@_claim("S3.FKN", "each defining formula induces a total function matching the atom-count table")
def _fkn(ws, n):
    # totality and functionality are checked by pp_expand when it builds Bn,
    # per automorphism orbit of the arguments, carried by verified automorphisms
    An, Bn = ws.an(n), ws.bn(n)
    for k in range(1, n):
        for a in range(An.size):
            if Bn.op(f"lf{k}", a) != catalog.expected_phi_value(An, k, a):
                return False, f"k={k}: wrong value at {An.element_name(a)}"
    return True, f"lf1..lf{n - 1} total on A{n}; expansion tables agree"


@_claim("S3.FSI-AN", "the FSI quotients of subalgebras of An are A0..An, one class each")
def _fsi_an(ws, n):
    hs = ws.hs(ws.an(n))
    reps = [hs.representatives[c] for c in hs.fsi_classes()]
    if len(reps) != n + 1:
        return False, f"{len(reps)} FSI classes, expected {n + 1}"
    for j in range(n + 1):
        target = catalog.build(f"An?n={j}")
        if sum(1 for r in reps if is_isomorphic(r, target)) != 1:
            return False, f"A{j} not matched exactly once"
    return True, f"FSI classes have sizes {sorted(r.size for r in reps)} = 2^j+1 for j=0..{n}"


@_claim("S3.CON-PRES", "every subalgebra of Bn has the same congruences as its Heyting reduct")
def _con_pres(ws, n):
    count = 0
    for sub in ws.subalgebras(ws.bn(n)):
        full = set(ws.lattice(sub))
        red = set(ws.lattice(catalog.heyting_reduct(sub)))
        if full != red:
            return False, f"congruences differ on {sub.name}"
        count += 1
    return True, f"lattices coincide on all {count} subalgebras"


@_claim("S3.FSI-BN", "the FSI quotients of subalgebras of Bn are exactly its subalgebras")
def _fsi_bn(ws, n):
    hs = ws.hs(ws.bn(n))
    fsi_reps = [hs.representatives[c] for c in hs.fsi_classes()]
    sub_reps = hs.subalgebras
    if len(fsi_reps) != len(sub_reps):
        return False, f"{len(fsi_reps)} FSI classes vs {len(sub_reps)} subalgebra classes"
    ok = all(
        sum(1 for r in fsi_reps if is_isomorphic(r, t)) == 1 for t in sub_reps
    )
    return ok, f"{len(fsi_reps)} classes on both sides, sizes {sorted(r.size for r in sub_reps)}"


@_claim("S3.AUT-SIGMA", "every atom permutation induces an automorphism of An and Bn; there are n! in total")
def _aut_sigma(ws, n):
    An, Bn = ws.an(n), ws.bn(n)
    ats = catalog.atoms_of(An)
    maps_an, maps_bn = set(), set()
    for perm in permutations(ats):
        sigma = dict(zip(ats, perm))
        m1, ok1 = atom_permutation_automorphism(An, sigma)
        m2, ok2 = atom_permutation_automorphism(Bn, sigma)
        if not (ok1 and ok2):
            return False, f"permutation {sigma} did not induce an automorphism"
        maps_an.add(m1)
        maps_bn.add(m2)
    aut = ws.automorphisms(Bn)
    ok = (
        len(maps_an) == len(maps_bn) == len(aut) == len(ws.automorphisms(An))
        and maps_bn == set(aut)
        and is_group_under_composition(aut)
    )
    return ok, f"{len(maps_bn)} atom permutations = the whole automorphism group, closed under composition"


@_claim("S3.AUT-FIX", "any element outside a subalgebra (except e) is moved by an automorphism fixing the subalgebra")
def _aut_fix(ws, n):
    Bn = ws.bn(n)
    aut = ws.automorphisms(Bn)
    e = Bn.index_of("e")
    checked = 0
    for s in ws.subuniverses(Bn):
        stabilizer = [h for h in aut if all(h[a] == a for a in s)]
        moved = {b for h in stabilizer for b in range(Bn.size) if h[b] != b}
        outside = set(range(Bn.size)) - set(s) - {e}
        unmoved = outside - moved
        if unmoved:
            return False, f"no automorphism fixes {_names(Bn, s)} and moves {Bn.element_name(min(unmoved))}"
        checked += len(outside)
    return True, f"{checked} (subalgebra, element) instances witnessed"


@_claim("S3.AUT-RIGID", "any two embeddings of a subalgebra into Bn differ by an automorphism of Bn")
def _aut_rigid(ws, n):
    Bn = ws.bn(n)
    aut = ws.automorphisms(Bn)
    pairs = 0
    for sub in ws.subalgebras(Bn):
        embs = embeddings(sub, Bn)
        # aut must be the whole group (S3.AUT-SIGMA checks it): then two
        # embeddings differ by an automorphism exactly when both lie in the
        # orbit of the first embedding
        orbit = {compose(i, embs[0]) for i in aut}
        if not orbit.issuperset(embs):
            return False, f"embeddings of {sub.name} not related by any automorphism"
        pairs += len(embs) ** 2
    return True, f"{pairs} embedding pairs rigid"


@_claim("S3.AMALG", "every span of embeddings among the subalgebra classes of Bn (plus trivial) amalgamates")
def _amalg(ws, n):
    Bn = ws.bn(n)
    members = list(ws.hs(Bn).subalgebras) + [catalog.trivial_algebra(Bn.signature)]
    ok, reports = check_amalgamation(members)
    return ok, f"{len(reports)} spans amalgamated inside the member list"


@_claim("S3.EPIC", "no proper subalgebra of a subalgebra of Bn is epic: an endomorphism pins it and moves the rest")
def _epic(ws, n):
    ok, witnesses = check_epic_subalgebras(ws.bn(n), ws.subuniverses)
    return ok, f"{len(witnesses)} proper inclusions separated by endomorphism pairs"


@_claim("S3.NONEQ", "the subalgebra generated by an atom breaks equational axiomatizability of the expansion")
def _noneq(ws, n):
    Bn = ws.bn(n)
    atom = catalog.atoms_of(Bn)[0]
    sg = sg_closure(Bn, [atom])
    # Sg(atom) is a subuniverse, so its subalgebra is held; sg is its embedding
    C = ws.subalgebras(Bn)[ws.subuniverses(Bn).index(sg)]
    zero, one = C.const("zero"), C.const("one")
    a = sg.index(atom)
    na = C.op("imp", a, zero)
    e = C.index_of("e")
    if set(range(C.size)) != {zero, a, na, e, one}:
        return False, f"generated universe is {_names(Bn, sg)}"
    if C.op("lf1", a) != one or C.op("lf1", na) != e:
        return False, "lf1 values differ from the expected 1 and e"
    swap = list(range(C.size))
    swap[a], swap[na] = na, a
    CH = catalog.heyting_reduct(C)
    ok = (
        is_homomorphism(CH, CH, swap)
        and not is_homomorphism(C, C, swap)
        and is_isomorphic(CH, catalog.build("An?n=2"))
    )
    return ok, (
        f"Sg(atom) = {_names(Bn, sg)}; lf1(atom)=1, lf1(complement)=e; "
        "swapping them is a reduct automorphism but no expansion homomorphism"
    )


# ---------------------------------------------------------------------------
# running


def run_claim(claim_id: str, n: int = 3, workspace: Workspace | None = None) -> ClaimResult:
    base, params = catalog.parse_id(claim_id)
    if set(params) - {"n"}:
        raise AlgebraError(f"unknown claim parameter in {claim_id!r}")
    if base not in _REGISTRY:
        raise AlgebraError(f"unknown claim id {claim_id!r}")
    n = params.get("n", n)
    statement, fn = _REGISTRY[base]
    ws = workspace if workspace is not None else Workspace()
    start = time.perf_counter()
    try:
        passed, evidence = fn(ws, n)
        status = "pass" if passed else "fail"
    except AlgebraError as exc:
        status, evidence = "fail", f"error: {exc}"
    except Exception as exc:  # a crashing check is reported; the other claims still run
        status, evidence = "error", f"{type(exc).__name__}: {exc}"
    elapsed = int((time.perf_counter() - start) * 1000)
    return ClaimResult(base, statement, status, evidence, elapsed)


def run_all(n: int = 3, workspace: Workspace | None = None) -> list[ClaimResult]:
    ws = workspace if workspace is not None else Workspace()
    return [run_claim(claim_id, n=n, workspace=ws) for claim_id in _REGISTRY]


def report_dict(results) -> dict:
    return {
        "claims": [r._asdict() for r in results],
        "summary": {
            "pass": sum(1 for r in results if r.status == "pass"),
            "fail": sum(1 for r in results if r.status != "pass"),
        },
    }
