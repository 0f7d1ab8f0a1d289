import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uaforge import catalog
from uaforge.analysis import (
    atom_permutation_automorphism,
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
from uaforge.core import Signature, SizeGuardError, make_algebra, quotient, subalgebra
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
def algebra_pairs(draw):
    sig = draw(st.sampled_from(SIGNATURES))
    return draw(small_algebras(sig=sig)), draw(small_algebras(sig=sig))


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
        leaf_checks.append(is_homomorphism(*args))
        return leaf_checks[-1]

    with mock.patch("uaforge.analysis.is_homomorphism", recorded):
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


def test_injective_homs_reject_images_forced_in_one_step():
    # the constant fixes 0; one propagation step then maps both 2 = f(0,0)
    # and 1 = g(0) onto 1
    A = make_algebra("A", SIG, 3, {"f": (2,) + (1,) * 8, "g": (1, 1, 1), "c": (0,)})
    B = make_algebra("B", SIG, 3, {"f": (1,) * 9, "g": (1, 1, 1), "c": (0,)})
    assert homs(A, B).maps == ((0, 1, 1),)
    assert homs(A, B, kind="injective").maps == ()


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


def test_hs_classify_sec2():
    a = catalog.build("sec2.A")
    cls = hs_classify(a)
    # subalgebras: A and A-minus-a4; quotients: A, trivial, Am, B, trivial
    assert {e.size for e in cls.entries} == {1, 6, 7, 8}
    si_sizes = sorted(cls.representatives[i].size for i in cls.si_classes())
    assert si_sizes == [6, 7, 8]
    fsi_sizes = sorted(cls.representatives[i].size for i in cls.fsi_classes())
    assert fsi_sizes == [6, 7, 8]
    assert all(e.fsi == e.si for e in cls.entries)
    # the three SI representatives are A, A-minus-a4 and B themselves
    reps = [cls.representatives[i] for i in cls.si_classes()]
    for expected_id in ("sec2.A", "sec2.A-minus-a4", "sec2.B"):
        assert any(is_isomorphic(r, catalog.build(expected_id)) for r in reps)


def test_amalgamation_positive_and_negative():
    b3 = catalog.build("Bn?n=3")
    from uaforge.core import all_subuniverses

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
    for x in range(len(r.span.f)):
        assert r.amalgam.p[r.span.f[x]] == r.amalgam.q[r.span.g[x]]
    # forcing a trivial-only target starves every span with a nontrivial apex
    ok2, reports2 = check_amalgamation(
        members, targets=[catalog.trivial_algebra(b3.signature)]
    )
    assert not ok2


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
