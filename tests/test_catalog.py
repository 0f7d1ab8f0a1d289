import itertools
from unittest import mock

import pytest

from uaforge import analysis, catalog, core, logic
from uaforge.analysis import atoms_below, automorphisms
from uaforge.catalog import (
    HEYTING_SIGNATURE,
    atoms_of,
    build,
    build_An,
    build_phi,
    catalog_ids,
    check_n,
    expected_phi_value,
    heyting_reduct,
    pp_expand,
    trivial_algebra,
)
from uaforge.core import (
    SIZE_GUARD,
    AlgebraError,
    Signature,
    SizeGuardError,
    all_subuniverses,
    is_closed_subset,
    make_algebra,
    reduct,
)
from uaforge.logic import (
    Eq,
    Or,
    Variable,
    FunctionalityError,
    TotalityError,
    free_variables,
    induced_partial_function,
    is_pp,
    parse_formula,
)

# the first atom count the size guard refuses: the smallest n with 2^n + 1 > SIZE_GUARD
FIRST_REFUSED_N = next(n for n in itertools.count() if 2**n + 1 > SIZE_GUARD)


# --- the eight-element chain expansion ---------------------------------------


def test_sec2_A_tables():
    a = build("sec2.A")
    assert a.size == 8
    assert a.element_names == ("0", "a1", "a2", "a3", "a4", "a5", "a6", "1")
    assert a.const("zero") == 0 and a.const("one") == 7 and a.const("a5") == 5

    # chain order: meet = min, join = max, imp(a,b) = 1 if a <= b else b
    for x, y in itertools.product(range(8), repeat=2):
        assert a.op("meet", x, y) == min(x, y)
        assert a.op("join", x, y) == max(x, y)
        assert a.op("imp", x, y) == (7 if x <= y else y)

    assert tuple(a.op("plus", 0, b) for b in range(8)) == (2, 2, 2, 5, 2, 2, 6, 6)
    for x in range(1, 8):
        assert tuple(a.op("plus", x, b) for b in range(8)) == (2, 1, 2, 2, 2, 2, 2, 2)
    for x, y in itertools.product(range(8), repeat=2):
        assert a.op("ast", x, y) == (7 if (x, y) == (4, 6) else 0)
    assert a.tables["box"] == (0, 0, 0, 0, 0, 7, 0, 0)
    assert a.tables["dia"] == (7, 1, 1, 3, 5, 3, 7, 7)


def test_sec2_subalgebra_and_quotient():
    am = build("sec2.A-minus-a4")
    assert am.size == 7
    assert am.element_names == ("0", "a1", "a2", "a3", "a5", "a6", "1")
    theta = build("sec2.theta")
    assert theta.blocks() == ((0,), (1,), (2,), (3,), (4,), (5, 6))
    b = build("sec2.B")
    assert b.size == 6
    assert b.element_names == ("0", "a1", "a2", "a3", "a5", "a6|1")


def test_sec2_expansion_chain():
    exp = build("sec2.A-exp")
    assert "gf" in exp.signature
    assert reduct(exp, build("sec2.A").signature.names()).tables == build("sec2.A").tables
    # gf realizes the induced function
    assert tuple(exp.op("gf", x) for x in range(8)) == (3, 1, 1, 1, 1, 1, 1, 1)
    c = build("sec2.C")
    assert c.size == 7 and "gf" in c.signature
    cq = build("sec2.C-mod-theta")
    assert cq.size == 6 and cq.element_names[-1] == "a6|1"


# --- powerset-with-new-top algebras -------------------------------------------


def test_An_shapes_and_names():
    a3 = build("An?n=3")
    assert a3.size == 9
    assert a3.element_names == (
        "0", "{0}", "{1}", "{0,1}", "{2}", "{0,2}", "{1,2}", "e", "1"
    )
    assert a3.const("zero") == 0 and a3.const("one") == 8
    assert build_An(0).size == 2
    assert build_An(1).size == 3
    assert build_An(2).size == 5
    with pytest.raises(SizeGuardError):
        build_An(FIRST_REFUSED_N)
    with pytest.raises(AlgebraError):
        build_An(-1)


def test_An_operations():
    a3 = build("An?n=3")
    top, e = 8, 7
    for a, b in itertools.product(range(8), repeat=2):  # both masks
        assert a3.op("meet", a, b) == (a & b)
        assert a3.op("join", a, b) == (a | b)
        if a | b == b:
            assert a3.op("imp", a, b) == top
        else:
            assert a3.op("imp", a, b) == ((e & ~a) | b)
    for x in range(9):
        assert a3.op("meet", top, x) == x
        assert a3.op("join", top, x) == top
        assert a3.op("imp", x, top) == top
    assert a3.op("imp", top, 3) == 3
    # spot value: {0} -> {1} = complement of {0} joined with {1} = {1,2}
    assert a3.op("imp", 1, 2) == 6


def test_A1_is_the_three_chain():
    from uaforge.analysis import is_isomorphic

    chain = make_algebra(
        "c3",
        HEYTING_SIGNATURE,
        3,
        {
            "meet": tuple(min(a, b) for a, b in itertools.product(range(3), repeat=2)),
            "join": tuple(max(a, b) for a, b in itertools.product(range(3), repeat=2)),
            "imp": tuple(
                2 if a <= b else b for a, b in itertools.product(range(3), repeat=2)
            ),
            "zero": (0,),
            "one": (2,),
        },
    )
    assert is_isomorphic(build_An(1), chain)


def test_An_subuniverse_counts():
    a3 = build("An?n=3")
    brute = [
        s
        for r in range(a3.size + 1)
        for s in itertools.combinations(range(a3.size), r)
        if is_closed_subset(a3, s)
    ]
    got = all_subuniverses(a3)
    assert sorted(got) == sorted(brute)
    assert len(got) == 6
    # one subuniverse per partition of the atoms, plus the 0-e-1 chain
    assert len(all_subuniverses(build("An?n=4"))) == 16


def test_atoms():
    a3 = build("An?n=3")
    assert atoms_of(a3) == [1, 2, 4]
    assert atoms_below(a3, 6) == [2, 4]
    assert atoms_below(a3, 8) == [1, 2, 4]
    assert atoms_below(a3, 0) == []


# --- the defining formulas -----------------------------------------------------


def test_build_phi_shape():
    for k, n in ((1, 3), (2, 3), (2, 4)):
        f, names = build_phi(k, n)
        assert is_pp(f)
        assert free_variables(f) == frozenset({0, 1})
        assert len(f.vars) == k * (n + 2)
        assert names[0] == "x" and names[1] == "y"
        assert sum(1 for v in names.values() if v.startswith("w")) == k
        assert sum(1 for v in names.values() if v.startswith("z")) == k * (n + 1)


def test_build_phi_validation():
    for k, n in ((0, 3), (3, 3), (1, 2), (-1, 3), (1, FIRST_REFUSED_N), (1, 30)):
        with pytest.raises(AlgebraError):
            build_phi(k, n)


def test_check_n_bounds():
    for n in range(FIRST_REFUSED_N):
        check_n(n)
    with pytest.raises(AlgebraError):
        check_n(-1)
    for n in (FIRST_REFUSED_N, 20000, 10**11):  # the last would need gigabytes to form 2**n
        with pytest.raises(SizeGuardError, match="size guard"):
            check_n(n)


def test_phi_induces_the_expected_functions():
    a3 = build("An?n=3")
    lf1 = induced_partial_function(a3, build("phi?k=1&n=3")[0], 1)
    assert len(lf1) == 9
    assert tuple(lf1[(a,)] for a in range(9)) == (8, 8, 8, 7, 8, 7, 7, 8, 8)
    lf2 = induced_partial_function(a3, build("phi?k=2&n=3")[0], 1)
    assert tuple(lf2[(a,)] for a in range(9)) == (8,) * 9
    for a in range(9):
        assert lf1[(a,)] == expected_phi_value(a3, 1, a)
        assert lf2[(a,)] == expected_phi_value(a3, 2, a)


def test_expected_phi_value_cases():
    a3 = build("An?n=3")
    assert expected_phi_value(a3, 1, 0) == 8  # zero
    assert expected_phi_value(a3, 1, 7) == 8  # e
    assert expected_phi_value(a3, 1, 8) == 8  # one
    assert expected_phi_value(a3, 1, 1) == 8  # single atom
    assert expected_phi_value(a3, 1, 3) == 7  # two atoms, k = 1
    assert expected_phi_value(a3, 2, 3) == 8  # two atoms, k = 2


def test_Bn_expansion():
    b3 = build("Bn?n=3")
    assert b3.signature.names() == HEYTING_SIGNATURE.names() + ("lf1", "lf2")
    assert b3.tables["lf1"] == (8, 8, 8, 7, 8, 7, 7, 8, 8)
    assert b3.tables["lf2"] == (8,) * 9
    assert reduct(b3, HEYTING_SIGNATURE.names()).tables == build("An?n=3").tables


@pytest.mark.parametrize("n", [3, 4])
def test_Bn_orbit_build_equals_the_full_solve(n):
    # induced_partial_function solves every argument tuple: the oracle of the
    # orbit build
    an, bn = build(f"An?n={n}"), build(f"Bn?n={n}")
    for k in range(1, n):
        values = induced_partial_function(an, build(f"phi?k={k}&n={n}")[0], 1)
        assert bn.tables[f"lf{k}"] == tuple(values[(a,)] for a in range(an.size))


def test_Bn_build_solves_once_per_orbit():
    # An has n+2 atom-count orbits (0, one atom, .., n-1 atoms, e, 1), for each of lf1..lf(n-1):
    # 5 * 2 solves at n=3, 6 * 3 at n=4
    for n, solves in ((3, 10), (4, 18)):
        with mock.patch.object(logic, "project_exists", wraps=logic.project_exists) as solve:
            catalog.build_Bn(n)
        assert solve.call_count == solves


def test_Bn_build_checks_the_automorphism_group_once(monkeypatch):
    # homs re-checks every map it finds; pp_expand solves with that group as is
    an, checked = build("An?n=4"), []

    def spy(A, B, maps):
        checked.append((A.name, len(maps)))
        return commuting(A, B, maps)

    commuting = core._commuting
    for mod in (core, analysis, logic, catalog):
        if getattr(mod, "_commuting", None) is commuting:
            monkeypatch.setattr(mod, "_commuting", spy)
    catalog.build_Bn(4)
    assert checked == [(an.name, 24)]


def test_pp_expand_refuses_an_algebra_over_the_size_guard_before_any_solve():
    size = SIZE_GUARD + 1
    sig = Signature((("s", 1),))
    big = make_algebra("big", sig, size, {"s": tuple(range(size))})
    f = parse_formula("s(x) = y", sig)
    with mock.patch.object(logic, "project_exists", wraps=logic.project_exists) as solve:
        with pytest.raises(SizeGuardError):
            pp_expand(big, [("t", f, 1)])
    assert solve.call_count == 0


def test_pp_expand_errors():
    am = build("sec2.A-minus-a4")
    phi = build("sec2.phi")[0]
    with pytest.raises(TotalityError):
        pp_expand(am, [("gf", phi, 1)])
    a3 = build("An?n=3")
    bad = Or((Eq(Variable(0), Variable(1)), Eq(Variable(0), Variable(1))))
    with pytest.raises(AlgebraError):
        pp_expand(a3, [("h", bad, 1)])


def test_pp_expand_functionality_error_is_that_of_the_plain_solve():
    a3 = build("An?n=3")
    # outputs above x: every x has two outputs from 0 on; outputs below x:
    # the first non-functional x is the atom {0}, with outputs 0 and {0}
    cases = {"exists z . join(x, z) = y": ((0,), 0, 1), "exists z . meet(x, z) = y": ((1,), 0, 1)}
    for src, want in cases.items():
        f = parse_formula(src, HEYTING_SIGNATURE)
        errors = []
        for expand in (lambda: induced_partial_function(a3, f, 1), lambda: pp_expand(a3, [("h", f, 1)])):
            with pytest.raises(FunctionalityError) as exc:
                expand()
            errors.append((exc.value.arguments, exc.value.first, exc.value.second))
        assert errors == [want] * 2


def test_pp_expand_totality_error_names_the_first_tuple_without_output():
    a3 = build("An?n=3")
    f = parse_formula("imp(x, y) = z /\\ meet(x, y) = zero", HEYTING_SIGNATURE)  # partial
    plain = induced_partial_function(a3, f, 2)
    first = min(set(itertools.product(range(9), repeat=2)) - set(plain))
    assert first == (1, 1)
    with pytest.raises(TotalityError) as exc:
        pp_expand(a3, [("h", f, 2)])
    assert exc.value.arguments == first


def test_pp_expand_solves_once_per_orbit_of_argument_tuples():
    a3 = build("An?n=3")
    auts = automorphisms(a3)
    f = parse_formula("imp(x, y) = z", HEYTING_SIGNATURE)
    with mock.patch.object(logic, "project_exists", wraps=logic.project_exists) as solve:
        expanded = pp_expand(a3, [("h", f, 2)])
    assert expanded.tables["h"] == a3.tables["imp"]
    # one solve per orbit of pairs under the 6 atom permutations, not one per pair
    pairs = itertools.product(range(9), repeat=2)
    assert solve.call_count == len({min(tuple(g[v] for v in p) for g in auts) for p in pairs})


def test_pp_expand_refuses_a_huge_arity_before_any_solve():
    a3 = build("An?n=3")
    f = parse_formula("imp(x, y) = z", HEYTING_SIGNATURE)
    with mock.patch.object(logic, "project_exists", wraps=logic.project_exists) as solve:
        for arity in (7, 10**9):  # 9^7 argument tuples, and an arity whose var_order is too big to form
            with pytest.raises(SizeGuardError):
                pp_expand(a3, [("h", f, arity)])
    assert solve.call_count == 0


# --- helpers and the resolver ---------------------------------------------------


def test_trivial_algebra_and_reduct():
    t = trivial_algebra(HEYTING_SIGNATURE)
    assert t.size == 1 and t.is_trivial
    assert all(set(tab) == {0} for tab in t.tables.values())
    b3 = build("Bn?n=3")
    h = heyting_reduct(b3)
    assert h.signature == HEYTING_SIGNATURE
    assert h.name.endswith("|heyting")


def test_build_memo_is_keyed_by_the_parsed_id():
    for spellings in (("An?n=3", "An?n=03", "An?n= 3 "), ("phi?k=1&n=3", "phi?n=3&k=1")):
        objs = [build(s) for s in spellings]
        assert all(o is objs[0] for o in objs)
        assert sum(v is objs[0] for v in catalog._memo.values()) == 1


def test_build_resolver():
    assert build("sec2.A") is build("sec2.A")  # memoized
    assert build("An?n=3") is build("An?n=3")
    for bad in (
        "nope",
        "An",
        "An?m=3",
        "An?n=x",
        "phi?k=1",
        "sec2.A?n=3",
        "An?n",
    ):
        with pytest.raises(AlgebraError):
            build(bad)
    ids = catalog_ids()
    assert "sec2.A" in ids and "sec2.theta" in ids
