import itertools
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uaforge import analysis, catalog
from uaforge.analysis import (
    Amalgam,
    EpicWitness,
    HSClassification,
    HomSet,
    SpanReport,
    _commuting,
    atom_permutation_automorphism,
    atoms_of,
    automorphisms,
    check_amalgamation,
    check_epic_subalgebras,
    compose,
    embeddings,
    endomorphisms,
    homs,
    hs_classify,
    inverse,
    is_chain,
    is_group_under_composition,
    is_homomorphism,
    is_isomorphic,
    lattice_leq,
)
from uaforge.congruences import congruence_lattice, is_si, quotient_is_si
from uaforge.core import (
    AlgebraError,
    Signature,
    SizeGuardError,
    all_subuniverses,
    direct_product,
    make_algebra,
    quotient,
    subalgebra,
)
from uaforge.partitions import Partition

SIG = Signature((("f", 2), ("g", 1), ("c", 0)))
# a ternary operation takes the hom search's generic propagation path
SIGNATURES = (SIG, SIG.extended((("h", 3),)))


@st.composite
def small_algebras(draw, max_size=3, sig=SIG):
    size = draw(st.integers(1, max_size))
    elem = st.integers(0, size - 1)
    tables = {
        sym: tuple(draw(st.lists(elem, min_size=size**arity, max_size=size**arity)))
        for sym, arity in sig.symbols
    }
    return make_algebra("rand", sig, size, tables)


@st.composite
def algebra_pairs(draw, max_size=3):
    sig = draw(st.sampled_from(SIGNATURES))
    return draw(small_algebras(max_size, sig)), draw(small_algebras(max_size, sig))


def commutes(A, B, m):
    """The definition of a homomorphism, one op call per argument tuple."""
    return all(
        m[A.op(sym, *args)] == B.op(sym, *(m[a] for a in args))
        for sym, arity in A.signature.symbols
        for args in itertools.product(range(A.size), repeat=arity)
    )


def brute_homs(A, B):
    return sorted(
        m
        for m in itertools.product(range(B.size), repeat=A.size)
        if commutes(A, B, m)
    )


@given(algebra_pairs())
@example((  # mapping 2 to 1 clashes at f(1, 2), where 2 is in the second slot only
    make_algebra("A", SIG, 3, {"f": (1, 0, 0, 0, 1, 0, 0, 1, 1), "g": (1, 1, 1), "c": (0,)}),
    make_algebra("B", SIG, 3, {"f": (1, 0, 0, 0, 1, 0, 0, 0, 0), "g": (1, 1, 0), "c": (0,)}),
))
@example((  # f a projection, g the identity: the nine maps fixing 0, in order
    make_algebra("P", SIG, 3, {"f": (0, 0, 0, 1, 1, 1, 2, 2, 2), "g": (0, 1, 2), "c": (0,)}),
) * 2)
@example((  # one f entry apart: each element is as often a value and as idempotent, yet no iso
    make_algebra("A", SIG, 3, {"f": (0, 0, 1, 1, 2, 1, 2, 2, 1), "g": (0, 2, 1), "c": (0,)}),
    make_algebra("B", SIG, 3, {"f": (0, 0, 2, 1, 2, 1, 2, 2, 1), "g": (0, 2, 1), "c": (0,)}),
))
@settings(max_examples=50)
def test_homs_match_brute_force(pair):
    A, B = pair
    expected = brute_homs(A, B)
    maps = itertools.product(range(B.size), repeat=A.size)
    assert [m for m in maps if is_homomorphism(A, B, m)] == expected
    leaf_checks = []

    def recorded(*args):
        ok = _commuting(*args)
        leaf_checks.extend(ok.tolist())
        return ok

    with mock.patch("uaforge.analysis._commuting", recorded):
        got = homs(A, B)
        inj = homs(A, B, kind="injective")
        bij = homs(A, B, kind="bijective")
    # propagation checks every argument tuple, so each complete map is a
    # homomorphism before the search re-checks it
    assert all(leaf_checks)
    # the search branches on the least unmapped element, trying images in
    # increasing order, so the maps come out in lexicographic order
    assert list(got.maps) == expected
    assert list(inj.maps) == [m for m in expected if len(set(m)) == A.size]
    brute_bij = [m for m in expected if A.size == B.size and len(set(m)) == A.size]
    assert list(bij.maps) == brute_bij
    assert is_isomorphic(A, B) == bool(brute_bij)


@given(algebra_pairs(max_size=4))
@settings(max_examples=100, deadline=None)
def test_every_kind_and_first_only_match_brute_force(pair):
    # up to 4^4 candidate maps per pair; A -> A always has the identity
    A, B = pair
    for src, dst in ((A, B), (A, A)):
        expected = brute_homs(src, dst)
        injective = [m for m in expected if len(set(m)) == src.size]
        wanted = {
            "all": expected,
            "injective": injective,
            "bijective": injective if src.size == dst.size else [],
        }
        for kind, maps in wanted.items():
            assert list(homs(src, dst, kind).maps) == maps
            assert list(homs(src, dst, kind, first_only=True).maps) == maps[:1]


def test_homs_raise_on_a_map_the_full_table_check_rejects():
    b3 = catalog.build("Bn?n=3")
    last = automorphisms(b3).maps[-1]

    def reject_last(*args):
        ok = _commuting(*args)
        ok[-1] = False
        return ok

    with mock.patch("uaforge.analysis._commuting", reject_last):
        with pytest.raises(RuntimeError, match=re.escape(str(last))):
            automorphisms(b3)


def test_full_table_check_in_blocks():
    # a block of at most 200 table cells holds two maps of a binary table
    b3 = catalog.build("Bn?n=3")
    maps = np.array(list(itertools.product((0, 8), repeat=b3.size)))
    want = [is_homomorphism(b3, b3, m) for m in maps.tolist()]
    assert any(want) and not all(want)
    with mock.patch("uaforge.core.MAX_UNIVERSE", 200):
        assert _commuting(b3, b3, maps).tolist() == want


def test_injective_homs_reject_images_forced_in_one_step():
    # the constant fixes 0; one propagation step then maps both 2 = f(0,0)
    # and 1 = g(0) onto 1
    A = make_algebra("A", SIG, 3, {"f": (2,) + (1,) * 8, "g": (1, 1, 1), "c": (0,)})
    B = make_algebra("B", SIG, 3, {"f": (1,) * 9, "g": (1, 1, 1), "c": (0,)})
    assert homs(A, B).maps == ((0, 1, 1),)
    assert homs(A, B, kind="injective").maps == ()


def test_hom_search_stops_past_the_node_bound():
    # images of the identity's fixed points must be fixed by the swap of 4 and 5:
    # 1 + 4 + 12 + 24 + 24 = 65 nodes place four elements and leave none for the fifth
    sig = Signature((("s", 1),))
    I6 = make_algebra("I6", sig, 6, {"s": (0, 1, 2, 3, 4, 5)})
    S6 = make_algebra("S6", sig, 6, {"s": (0, 1, 2, 3, 5, 4)})
    with mock.patch("uaforge.analysis.MAX_UNIVERSE", 64):
        with pytest.raises(SizeGuardError, match="visits over 64 nodes"):
            homs(I6, S6, "bijective", first_only=True)
    with mock.patch("uaforge.analysis.MAX_UNIVERSE", 65):
        assert homs(I6, S6, "bijective", first_only=True).maps == ()


def test_homs_refuse_an_unknown_kind_and_mismatched_signatures():
    a3 = catalog.build("An?n=3")
    with pytest.raises(AlgebraError, match="unknown hom kind 'surjective'"):
        homs(a3, a3, "surjective")
    with pytest.raises(AlgebraError, match="common signature"):
        homs(a3, catalog.build("Bn?n=3"))


@given(small_algebras(), small_algebras())
@settings(max_examples=30)
def test_first_only_agrees_with_emptiness(A, B):
    first = homs(A, B, kind="injective", first_only=True)
    full = homs(A, B, kind="injective")
    assert (len(first) > 0) == (len(full) > 0)
    if first.maps:
        assert first.maps[0] in full.maps


def test_is_homomorphism_requires_matching_signature():
    A = catalog.build("An?n=1")
    other = make_algebra("o", SIG, 3, {"f": (0,) * 9, "g": (0,) * 3, "c": (0,)})
    assert not is_homomorphism(A, other, (0, 0, 0))
    assert not is_homomorphism(A, A, (0, 0))  # wrong length


def test_is_homomorphism_rejects_images_outside_the_target():
    # g constantly 0: (0, 1) commutes, so only the range check rejects
    # (0, -1), which numpy's negative indexing would read as (0, 1)
    A = make_algebra("A", Signature((("g", 1),)), 2, {"g": (0, 0)})
    assert is_homomorphism(A, A, (0, 1))
    assert not is_homomorphism(A, A, (0, -1))
    assert not is_homomorphism(A, A, (0, 2))


def test_endo_auto_embed_wrappers():
    b3 = catalog.build("Bn?n=3")
    auts = automorphisms(b3)
    ends = endomorphisms(b3)
    assert len(auts) == 6
    assert len(ends) == 9
    assert set(auts.maps) <= set(ends.maps)
    assert tuple(range(9)) in auts.maps
    assert is_group_under_composition(auts.maps)
    assert not is_group_under_composition(ends.maps)
    a3 = catalog.build("An?n=3")
    embs = embeddings(a3, a3)
    assert sorted(embs.maps) == sorted(automorphisms(a3).maps)


def test_compose_and_inverse():
    b3 = catalog.build("Bn?n=3")
    auts = automorphisms(b3).maps
    ident = tuple(range(9))
    for f in auts:
        assert compose(f, inverse(f)) == ident
        assert compose(inverse(f), f) == ident
        for g in auts:
            fg = compose(f, g)
            assert fg in auts
            for x in range(9):
                assert fg[x] == f[g[x]]


@pytest.mark.parametrize(
    "maps",
    [
        pytest.param([(0, 1, 2), (1, 2, 0)], id="no-inverse"),  # (1, 2, 0)^-1 = (2, 0, 1)
        pytest.param([(0, 1, 2), (1, 0, 2), (0, 2, 1)], id="not-closed"),  # their product is a 3-cycle
    ],
)
def test_is_group_under_composition_refuses(maps):
    assert not is_group_under_composition(maps)


@given(small_algebras(), st.data())
@settings(max_examples=40)
def test_is_isomorphic_accepts_relabelings(A, data):
    perm = tuple(data.draw(st.permutations(range(A.size))))
    tables = {}
    for sym, arity in SIG.symbols:
        table = [0] * (A.size**arity)
        for args in itertools.product(range(A.size), repeat=arity):
            k = 0
            for a in args:
                k = k * A.size + perm[a]
            table[k] = perm[A.op(sym, *args)]
        tables[sym] = tuple(table)
    B = make_algebra("perm", SIG, A.size, tables)
    assert is_isomorphic(A, B)
    (witness,) = homs(A, B, "bijective", first_only=True).maps
    assert commutes(A, B, witness) and len(set(witness)) == A.size


def test_is_isomorphic_negatives():
    a1 = catalog.build("An?n=1")
    a2 = catalog.build("An?n=2")
    assert not is_isomorphic(a1, a2)  # different sizes
    # same size, different structure: 3-chain vs its order dual is iso, so
    # compare against a non-Heyting-looking table instead
    sig = Signature((("g", 1),))
    x = make_algebra("x", sig, 2, {"g": (0, 1)})
    y = make_algebra("y", sig, 2, {"g": (1, 0)})
    assert not is_isomorphic(x, y)


def test_equal_tables_are_isomorphic_without_a_search():
    a = catalog.build("sec2.A")
    names = tuple(f"t{i}" for i in range(a.size))
    twin = make_algebra("twin", a.signature, a.size, a.tables, names)
    # one symbol renamed: the same tables under another signature
    rename = {"meet": "meet2"}
    sig = Signature(tuple((rename.get(s, s), r) for s, r in a.signature.symbols))
    renamed = make_algebra("renamed", sig, a.size, {rename.get(s, s): t for s, t in a.tables.items()})
    with mock.patch.object(analysis, "homs", wraps=homs) as spy:
        assert is_isomorphic(a, twin) is True
        assert is_isomorphic(twin, a) is True
        assert not is_isomorphic(a, renamed)
    assert spy.call_count == 0


def test_hs_classify_and_the_epic_survey_take_their_routines_from_the_caller():
    b3 = catalog.build("Bn?n=3")
    subs = mock.Mock(wraps=all_subuniverses)
    subalgs = mock.Mock(wraps=lambda alg: [subalgebra(alg, s)[0] for s in all_subuniverses(alg)])
    lattice = mock.Mock(wraps=congruence_lattice)
    with mock.patch.object(analysis, "all_subuniverses") as own_subs, mock.patch.object(
        analysis, "subalgebra"
    ) as own_subalg, mock.patch.object(analysis, "congruence_lattice") as own_lattice:
        hs = hs_classify(b3, subalgs, lattice)
        ok, witnesses = check_epic_subalgebras(b3, subs)
    assert own_subs.call_count == own_subalg.call_count == own_lattice.call_count == 0
    assert [c.args[0] for c in subalgs.call_args_list] == [b3]
    assert [c.args[0] for c in subs.call_args_list] == [b3]
    assert [c.args[0] for c in lattice.call_args_list] == list(hs.subalgebras)
    assert hs == hs_classify(b3)
    assert (ok, witnesses) == check_epic_subalgebras(b3)


def test_hs_classify_sec2():
    a = catalog.build("sec2.A")
    cls = hs_classify(a)
    # subalgebras: A and A-minus-a4; quotients: A, trivial, Am, B, trivial
    assert sorted(r.size for r in cls.representatives) == [1, 6, 7, 8]
    assert [s.size for s in cls.subalgebras] == [7, 8]
    si_sizes = sorted(cls.representatives[i].size for i in cls.si_classes())
    assert si_sizes == [6, 7, 8]
    fsi_sizes = sorted(cls.representatives[i].size for i in cls.fsi_classes())
    assert fsi_sizes == [6, 7, 8]
    # the three SI representatives are A, A-minus-a4 and B themselves
    reps = [cls.representatives[i] for i in cls.si_classes()]
    for expected_id in ("sec2.A", "sec2.A-minus-a4", "sec2.B"):
        assert any(is_isomorphic(r, catalog.build(expected_id)) for r in reps)


def hs_classify_by_definition(A):
    """Every quotient of every subalgebra, each with its own lattice and
    quotient, classified against the representatives found so far; SI read
    off each quotient's own congruence lattice."""
    subs, reps, si = [], [], []
    for s in all_subuniverses(A):
        sub, _embed = subalgebra(A, s)
        if not any(is_isomorphic(first, sub) for first in subs):
            subs.append(sub)
        for theta in congruence_lattice(sub):
            q = quotient(sub, theta)
            cls = next((i for i, rep in enumerate(reps) if is_isomorphic(q, rep)), None)
            if cls is None:
                reps.append(q)
                si.append(is_si(congruence_lattice(q)))
            else:
                assert is_si(congruence_lattice(q)) == si[cls], "SI is an isomorphism invariant"
    return [(a.name, a.size, a.tables) for a in subs], [(r.name, r.size, r.tables) for r in reps], si


def assert_hs_classify_matches_definition(A):
    got = hs_classify(A)
    subs, reps, si = hs_classify_by_definition(A)
    assert [(a.name, a.size, a.tables) for a in got.subalgebras] == subs
    assert [(r.name, r.size, r.tables) for r in got.representatives] == reps
    assert list(got.si) == si


@pytest.mark.parametrize("cid", ["sec2.A", "An?n=3", "Bn?n=3", "An?n=4", "Bn?n=4"])
def test_hs_classify_matches_definition(cid):
    assert_hs_classify_matches_definition(catalog.build(cid))


# 2-element factors only: the square of a 3-element factor with f a projection
# and g the identity has 2^8 subuniverses, every partition of each is a
# congruence, and classifying them takes over 100 s
@given(st.sampled_from(SIGNATURES).flatmap(lambda sig: small_algebras(max_size=2, sig=sig)))
# f a projection, g the identity: {0} x A and A x {0} are isomorphic subalgebras
@example(make_algebra("p", SIG, 2, {"f": (0, 0, 1, 1), "g": (0, 1), "c": (0,)}))
@settings(max_examples=40, deadline=None)
def test_hs_classify_matches_definition_on_squares(X):
    assert_hs_classify_matches_definition(direct_product([X, X]))


@pytest.mark.parametrize("cid", ["An?n=4", "Bn?n=4"])
def test_hs_classify_decides_si_once_per_class(cid):
    A = catalog.build(cid)
    with mock.patch("uaforge.analysis.quotient_is_si", wraps=quotient_is_si) as spy:
        hs = hs_classify(A)
    assert spy.call_count == len(hs.representatives)


@pytest.mark.parametrize("cid", ["An?n=4", "Bn?n=4"])
def test_hs_classify_opens_one_subalgebra_per_isomorphism_type(cid):
    A = catalog.build(cid)
    with mock.patch("uaforge.analysis.congruence_lattice", wraps=congruence_lattice) as spy:
        hs = hs_classify(A)
    # later subalgebras of a type are skipped, not opened
    assert spy.call_count == len(hs.subalgebras) < len(all_subuniverses(A))
    assert all(c.args[0] is sub for c, sub in zip(spy.call_args_list, hs.subalgebras))


@pytest.mark.parametrize("n", [3, 4])
def test_automorphisms_of_Bn_are_the_atom_permutations(n):
    b = catalog.build(f"Bn?n={n}")
    atoms = atoms_of(b)
    induced = set()
    for perm in itertools.permutations(atoms):
        mapping, ok = atom_permutation_automorphism(b, dict(zip(atoms, perm)))
        assert ok
        induced.add(mapping)
    auts = automorphisms(b).maps
    assert set(auts) == induced
    assert list(auts) == sorted(auts)


def test_endomorphisms_of_B3_commute():
    b3 = catalog.build("Bn?n=3")
    ends = endomorphisms(b3).maps
    assert ends and all(commutes(b3, b3, m) for m in ends)


def test_amalgamation_positive_and_negative():
    b3 = catalog.build("Bn?n=3")

    members = []
    seen = []
    for s in all_subuniverses(b3):
        sub, _ = subalgebra(b3, s)
        if not any(is_isomorphic(sub, m) for m in seen):
            seen.append(sub)
            members.append(sub)
    ok, reports = check_amalgamation(members)
    assert ok
    assert all(r.ok for r in reports)
    assert len(reports) > 0
    # verify the returned embeddings actually commute on a sample
    r = reports[0]
    for x in range(len(r.f)):
        assert r.amalgam.p[r.f[x]] == r.amalgam.q[r.g[x]]
    # g = (0, 0, 2) on U3 fixes 0 and 2; the only member that both of U1's
    # embeddings into U3 (at 0 and at 2) reach is U3, whose one embedding
    # into itself is the identity, so those two spans have no amalgam
    unary = Signature((("g", 1),))
    u1 = make_algebra("U1", unary, 1, {"g": (0,)})
    u3 = make_algebra("U3", unary, 3, {"g": (0, 0, 2)})
    ok2, reports2 = check_amalgamation([u1, u3])
    assert not ok2
    assert len(reports2) == 10
    failed = [(r.apex, r.left, r.right, r.f, r.g) for r in reports2 if not r.ok]
    assert failed == [("U1", "U3", "U3", (0,), (2,)), ("U1", "U3", "U3", (2,), (0,))]
    assert_amalgamation_matches_definition([u1, u3], reports2)


def assert_amalgamation_matches_definition(members, reports):
    """The spans are every (apex, left, f, right, g) in member and embedding
    order; an amalgam is a pair of embeddings into a member that agree on the
    apex, and a span without one has none among the embeddings."""
    spans = [
        (apex.name, left.name, right.name, f, g)
        for apex in members
        for left in members
        for f in embeddings(apex, left)
        for right in members
        for g in embeddings(apex, right)
    ]
    assert [(r.apex, r.left, r.right, r.f, r.g) for r in reports] == spans
    by_name = {m.name: m for m in members}
    assert len(by_name) == len(members)
    for r in reports:
        apex, left, right = by_name[r.apex], by_name[r.left], by_name[r.right]
        f, g = r.f, r.g
        if r.ok:
            target, p, q = by_name[r.amalgam.target], r.amalgam.p, r.amalgam.q
            for emb, src in ((p, left), (q, right)):
                assert is_homomorphism(src, target, emb) and len(set(emb)) == src.size
            assert all(p[f[a]] == q[g[a]] for a in range(apex.size))
        else:
            assert not any(
                all(p[f[a]] == q[g[a]] for a in range(apex.size))
                for target in members
                for p in embeddings(left, target)
                for q in embeddings(right, target)
            )


@pytest.mark.parametrize("n", [3, 4])
def test_amalgamation_matches_definition_on_the_Bn_member_lists(n):
    # the member list of S3.AMALG: one subalgebra per isomorphism type, plus trivial
    bn = catalog.build(f"Bn?n={n}")
    members = list(hs_classify(bn).subalgebras) + [catalog.trivial_algebra(bn.signature)]
    with mock.patch.object(analysis, "embeddings", wraps=embeddings) as emb:
        ok, reports = check_amalgamation(members)
    assert ok
    # one embedding search per ordered pair of members
    assert emb.call_count == len(members) ** 2
    emb_count = {(x.name, y.name): len(embeddings(x, y)) for x in members for y in members}
    assert len(reports) == sum(
        emb_count[a.name, b.name] * emb_count[a.name, c.name]
        for a in members
        for b in members
        for c in members
    )
    assert_amalgamation_matches_definition(members, reports)


def test_epic_subalgebras():
    b3 = catalog.build("Bn?n=3")
    ok, witnesses = check_epic_subalgebras(b3)
    assert ok
    assert witnesses and all(w.ok for w in witnesses)
    ends = set(endomorphisms(b3).maps)
    for w in witnesses:
        assert w.endo in ends
        assert all(w.endo[a] == a for a in w.inner)
        assert w.endo[w.moved] != w.moved and w.moved in w.subalgebra
    # the chain expansion has a proper subalgebra but only rigid endomorphisms,
    # so some pair (C, A) has no separating endomorphism
    a = catalog.build("sec2.A")
    ok_a, wit_a = check_epic_subalgebras(a)
    assert not ok_a
    assert any(not w.ok for w in wit_a)


def subuniverses_by_definition(alg):
    """Every subset closed under every operation, one op call per tuple,
    sorted by (size, elements)."""
    subs = [
        elems
        for r in range(alg.size + 1)
        for elems in itertools.combinations(range(alg.size), r)
        if all(
            alg.op(sym, *args) in elems
            for sym, arity in alg.signature.symbols
            for args in itertools.product(elems, repeat=arity)
        )
    ]
    return sorted(subs, key=lambda s: (len(s), s))


@pytest.mark.parametrize("cid", ["Bn?n=3", "sec2.A"])
def test_epic_survey_covers_every_proper_pair(cid):
    alg = catalog.build(cid)
    subs = subuniverses_by_definition(alg)
    want = [(c, a) for c in subs for a in subs if set(a) < set(c)]
    _ok, witnesses = check_epic_subalgebras(alg)
    assert [(w.subalgebra, w.inner) for w in witnesses] == want


def test_order_helpers():
    a3 = catalog.build("An?n=3")
    assert lattice_leq(a3, 0, 5) and not lattice_leq(a3, 5, 2)
    assert not is_chain(a3)
    assert is_chain(catalog.build("An?n=1"))
    assert is_chain(catalog.build("sec2.A"))


def test_atom_permutation_automorphism():
    a3 = catalog.build("An?n=3")
    atoms = catalog.atoms_of(a3)
    ident = {p: p for p in atoms}
    mapping, ok = atom_permutation_automorphism(a3, ident)
    assert ok and mapping == tuple(range(9))
    swap = {1: 2, 2: 1, 4: 4}
    mapping2, ok2 = atom_permutation_automorphism(a3, swap)
    assert ok2
    assert mapping2[1] == 2 and mapping2[2] == 1 and mapping2[3] == 3
    collapse = {1: 1, 2: 1, 4: 4}  # not a permutation
    _m, ok3 = atom_permutation_automorphism(a3, collapse)
    assert not ok3


def test_size_guard_on_search():
    sig = Signature((("c", 0),))
    big = make_algebra("big", sig, 30, {"c": (0,)})
    with pytest.raises(SizeGuardError):
        homs(big, big)
    with pytest.raises(SizeGuardError):
        hs_classify(big)


def test_hom_set_is_the_tuple_of_its_maps():
    a1, a3 = catalog.build("An?n=1"), catalog.build("An?n=3")
    for found in (homs(a3, a3), embeddings(a1, a3), automorphisms(a3), embeddings(a3, a1)):
        plain = tuple(found)
        assert isinstance(found, HomSet) and found == plain and hash(found) == hash(plain)
        assert found.maps == plain  # read by the benchmark workloads
        back = pickle.loads(pickle.dumps(found))
        assert type(back) is HomSet and back == plain and back.maps == plain
    assert embeddings(a3, a1) == () and not embeddings(a3, a1)


def test_span_hs_and_epic_results_are_flat_named_tuples():
    assert SpanReport._fields == ("apex", "left", "right", "f", "g", "amalgam")
    assert Amalgam._fields == ("target", "p", "q")
    assert HSClassification._fields == ("subalgebras", "representatives", "si")
    assert EpicWitness._fields == ("subalgebra", "inner", "endo", "moved")
    unary = Signature((("g", 1),))
    u1 = make_algebra("U1", unary, 1, {"g": (0,)})
    u3 = make_algebra("U3", unary, 3, {"g": (0, 0, 2)})
    _ok, reports = check_amalgamation([u1, u3])
    assert [r.ok for r in reports] == [r.amalgam is not None for r in reports]
    assert ("U1", "U3", "U3", (0,), (2,), None) in reports
    assert pickle.loads(pickle.dumps(reports)) == reports
    hs = hs_classify(catalog.build("sec2.A"))
    assert hs.fsi_classes() == hs.si_classes() == [c for c, si in enumerate(hs.si) if si]
    _ok, witnesses = check_epic_subalgebras(catalog.build("An?n=2"))
    assert witnesses and all(w.ok == (w.endo is not None) for w in witnesses)
    assert pickle.loads(pickle.dumps(witnesses)) == witnesses
