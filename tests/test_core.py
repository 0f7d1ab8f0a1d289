import itertools
import json
import random
import re
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uaforge import catalog
from uaforge.core import (
    AlgebraError,
    ArityError,
    Apply,
    FiniteAlgebra,
    NotClosedError,
    NotCongruenceError,
    Signature,
    SizeGuardError,
    UnassignedVariableError,
    UnknownSymbolError,
    Variable,
    algebra_from_dict,
    algebra_to_dict,
    all_subuniverses,
    direct_product,
    dumps_algebra,
    eval_term,
    is_closed_subset,
    load_algebra,
    loads_algebra,
    make_algebra,
    quotient,
    quotient_map,
    reduct,
    save_algebra,
    sg_closure,
    subalgebra,
    term_variables,
)
from uaforge.partitions import Partition

SIG = Signature((("f", 2), ("g", 1), ("c", 0)))


@st.composite
def small_algebras(draw, max_size=4):
    size = draw(st.integers(1, max_size))
    elem = st.integers(0, size - 1)
    tables = {
        "f": tuple(draw(st.lists(elem, min_size=size * size, max_size=size * size))),
        "g": tuple(draw(st.lists(elem, min_size=size, max_size=size))),
        "c": (draw(elem),),
    }
    return make_algebra("rand", SIG, size, tables)


def closed_by_definition(alg, elems):
    """Every operation applied to members gives a member, one op call per tuple."""
    return all(
        alg.op(sym, *args) in elems
        for sym, arity in alg.signature.symbols
        for args in itertools.product(elems, repeat=arity)
    )


def two_chain():
    sig = Signature((("meet", 2), ("one", 0)))
    return make_algebra(
        "c2", sig, 2, {"meet": (0, 0, 0, 1), "one": (1,)}, ("0", "1")
    )


def _point():
    return make_algebra("point", SIG, 1, {"f": (0,), "g": (0,), "c": (0,)})


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: Variable(-1), AlgebraError, "variable index must be non-negative", id="variable"
        ),
        pytest.param(
            lambda: make_algebra("x", SIG, 1.0, {"f": (0,), "g": (0,), "c": (0,)}),
            AlgebraError,
            "size must be an integer, got 1.0",
            id="size-type",
        ),
        pytest.param(
            lambda: make_algebra("x", SIG, 1, {"f": (0,), "g": (0,)}),
            AlgebraError,
            "tables ['f', 'g'] do not match signature ['c', 'f', 'g']",
            id="tables",
        ),
        pytest.param(
            lambda: _point().index_of("a"),
            AlgebraError,
            "algebra 'point' has no element names",
            id="index-of-unnamed",
        ),
        pytest.param(
            lambda: eval_term(_point(), Apply("f", (Variable(0),)), {0: 0}),
            ArityError,
            "'f' expects 2 arguments, got 1",
            id="eval-term-arity",
        ),
        pytest.param(
            lambda: direct_product([two_chain()], signature=SIG),
            AlgebraError,
            "explicit signature disagrees with the factors",
            id="product-signature",
        ),
        pytest.param(
            lambda: direct_product([two_chain()] * 20),  # 2^20 elements
            SizeGuardError,
            "product universe too large",
            id="product-size",
        ),
        pytest.param(
            lambda: quotient(two_chain(), Partition.identity(3)),
            AlgebraError,
            "partition size does not match the algebra",
            id="quotient-size",
        ),
        # the 6-element sec2.B: more blocks than elements, and fewer
        pytest.param(
            lambda: quotient_map(catalog.build("sec2.B"), Partition.identity(8)),
            AlgebraError,
            "partition size does not match the algebra",
            id="quotient-map-larger",
        ),
        pytest.param(
            lambda: quotient_map(catalog.build("sec2.B"), Partition.identity(5)),
            AlgebraError,
            "partition size does not match the algebra",
            id="quotient-map-smaller",
        ),
        pytest.param(
            lambda: loads_algebra('{"name": "x", "size": 1, "operations": [], "elements": [0]}'),
            AlgebraError,
            "elements must be a list of strings",
            id="json-elements",
        ),
        pytest.param(
            lambda: loads_algebra('{"name": '), AlgebraError, "invalid JSON: ", id="json-syntax"
        ),
    ],
)
def test_refusals_name_the_fault(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_signature_basics():
    assert SIG.arity("f") == 2 and SIG.arity("c") == 0
    assert "g" in SIG and "h" not in SIG
    assert SIG.names() == ("f", "g", "c")
    assert SIG.constants() == ("c",)
    ext = SIG.extended((("h", 3),))
    assert ext.arity("h") == 3 and "f" in ext
    assert SIG.restricted(("g",)).names() == ("g",)
    with pytest.raises(UnknownSymbolError):
        SIG.arity("nope")
    with pytest.raises(AlgebraError):
        Signature((("f", 2), ("f", 1)))  # duplicate symbol
    with pytest.raises(AlgebraError):
        Signature((("f", -1),))
    # numpy 1.x arrays have at most 32 axes; a one-element table fits any arity
    assert Signature((("f", 32),)).arity("f") == 32
    with pytest.raises(AlgebraError, match="over 32"):
        Signature((("f", 33),))


def test_algebra_validation():
    with pytest.raises(AlgebraError):
        make_algebra("bad", SIG, 2, {"f": (0,) * 3, "g": (0, 0), "c": (0,)})
    with pytest.raises(AlgebraError):
        make_algebra("bad", SIG, 2, {"f": (0,) * 4, "g": (0, 2), "c": (0,)})
    with pytest.raises(AlgebraError):
        make_algebra("bad", SIG, 2, {"f": (0,) * 4, "g": (0, 0), "c": (0,)},
                     element_names=("x",))
    with pytest.raises(AlgebraError):
        make_algebra("bad", SIG, 0, {"f": (), "g": (), "c": ()})


def test_op_and_names():
    alg = two_chain()
    assert alg.op("meet", 1, 0) == 0
    assert alg.const("one") == 1
    assert alg.element_name(1) == "1"
    assert alg.index_of("0") == 0
    with pytest.raises(AlgebraError):
        alg.index_of("z")
    with pytest.raises(ArityError):
        alg.op("meet", 0)
    with pytest.raises(UnknownSymbolError):
        alg.op("join", 0, 1)
    assert not alg.is_trivial
    assert alg.grids["meet"][1, 0] == 0 and alg.grids["meet"][1, 1] == 1
    assert alg.grids["one"][()] == 1
    # the arrays are shared by every caller, so none may write to them
    with pytest.raises(ValueError):
        alg.grids["meet"][0, 0] = 1


def test_eval_term():
    alg = two_chain()
    t = Apply("meet", (Variable(0), Apply("one", ())))
    assert term_variables(t) == frozenset({0})
    assert eval_term(alg, t, {0: 1}) == 1
    with pytest.raises(UnassignedVariableError):
        eval_term(alg, t, {})


@given(small_algebras())
@settings(max_examples=60)
def test_sg_closure_is_a_closure_operator(alg):
    base = sg_closure(alg)
    assert is_closed_subset(alg, base)
    again = sg_closure(alg, base)
    assert again == base  # idempotent
    bigger = sg_closure(alg, range(alg.size))
    assert set(base) <= set(bigger)


SIG3 = Signature((("f", 2), ("h", 3), ("c", 0)))


@st.composite
def noncommutative_algebras(draw, max_size=4):
    """A binary f with f(0,1) != f(1,0), so a transposed table shows, and a ternary h."""
    size = draw(st.integers(1, max_size))
    elem = st.integers(0, size - 1)
    tables = {
        sym: draw(st.lists(elem, min_size=size**arity, max_size=size**arity))
        for sym, arity in SIG3.symbols
    }
    if size > 1:
        tables["f"][size] = (tables["f"][1] + 1) % size
    return make_algebra("rand", SIG3, size, tables)


@given(noncommutative_algebras(), noncommutative_algebras(max_size=3))
@settings(max_examples=40, deadline=None)
def test_table_walkers_match_op_definitions(alg, other):
    size = alg.size
    for r in range(size + 1):
        for s in itertools.combinations(range(size), r):
            closed = closed_by_definition(alg, s)
            assert is_closed_subset(alg, s) == closed
            if not closed:
                with pytest.raises(NotClosedError):
                    subalgebra(alg, s)
                continue
            sub, embed = subalgebra(alg, s)
            for sym, arity in SIG3.symbols:
                for args in itertools.product(range(sub.size), repeat=arity):
                    assert embed[sub.op(sym, *args)] == alg.op(sym, *(embed[a] for a in args))

    parts = {
        Partition.from_pairs(size, [(i, j) for i in range(size) for j in range(i) if lab[i] == lab[j]])
        for lab in itertools.product(range(size), repeat=size)
    }
    for part in parts:
        # blocks numbered by least member; the operations on blocks read off
        # every argument tuple, and the symbols on which two tuples disagree
        reps = sorted(set(part.rep))
        cls = [reps.index(part.rep[x]) for x in range(size)]
        on_blocks, clashes = {}, []
        for sym, arity in SIG3.symbols:
            for args in itertools.product(range(size), repeat=arity):
                key, v = (sym, tuple(cls[a] for a in args)), cls[alg.op(sym, *args)]
                if on_blocks.setdefault(key, v) != v and sym not in clashes:
                    clashes.append(sym)
        if clashes:
            with pytest.raises(NotCongruenceError, match=repr(clashes[0])):
                quotient(alg, part)
            continue
        q = quotient(alg, part)
        assert q.size == len(reps)
        for (sym, args), v in on_blocks.items():
            assert q.op(sym, *args) == v

    prod = direct_product([alg, other])
    assert prod.size == size * other.size
    for sym, arity in SIG3.symbols:
        for args in itertools.product(range(prod.size), repeat=arity):
            # row-major: element i is the pair divmod(i, other.size)
            coords = [divmod(a, other.size) for a in args]
            left = alg.op(sym, *(c[0] for c in coords))
            right = other.op(sym, *(c[1] for c in coords))
            assert prod.op(sym, *args) == left * other.size + right


@given(
    st.one_of(
        small_algebras(),
        noncommutative_algebras(),
        small_algebras().map(lambda alg: reduct(alg, ("f", "g"))),  # no constant
    )
)
@example(reduct(two_chain(), ("meet",)))  # the empty set is a subuniverse
@settings(max_examples=60, deadline=None)
def test_all_subuniverses_matches_powerset_oracle(alg):
    brute = [
        s
        for r in range(alg.size + 1)
        for s in itertools.combinations(range(alg.size), r)
        if closed_by_definition(alg, s)
    ]
    assert all_subuniverses(alg) == brute  # sorted by (size, elements)
    # a bound of 64 cells still holds the at most 16 subuniverses of 4 elements,
    # and closes one row per chunk for a ternary operation
    with mock.patch("uaforge.core.MAX_UNIVERSE", 64):
        assert all_subuniverses(alg) == brute


def test_all_subuniverses_bounds_the_cells_held():
    # a constant and the identity map: each of the 2^19 sets holding the
    # constant is a subuniverse
    sig = Signature((("c", 0), ("g", 1)))
    alg = make_algebra("id20", sig, 20, {"c": (0,), "g": tuple(range(20))})
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="hold over 1000000 cells"):
        all_subuniverses(alg)
    assert time.perf_counter() - start < 5


def test_sg_closure_refuses_non_integer_generators():
    sig = Signature((("g", 1),))
    alg = make_algebra("a", sig, 4, {"g": (0, 3, 1, 3)})
    assert sg_closure(alg, [1]) == sg_closure(alg, [np.int64(1)]) == (1, 3)
    # numpy would read a bool as a mask over every element, and refuse a float
    for gen in (True, np.bool_(True), 1.0, "1"):
        with pytest.raises(AlgebraError, match="not an integer"):
            sg_closure(alg, [gen])


def test_sg_closure_matches_a_fixpoint_beyond_the_size_guard():
    # each entry is one of its arguments, or rarely any element, so that
    # closures of different sizes take several rounds
    rng = random.Random(19)
    n = 40
    sig = Signature((("u", 1), ("b", 2), ("t", 3)))
    rare = {1: 0.1, 2: 0.01, 3: 0.001}
    tables = {
        sym: [
            rng.randrange(n) if rng.random() < rare[arity] else rng.choice(args)
            for args in itertools.product(range(n), repeat=arity)
        ]
        for sym, arity in sig.symbols
    }
    alg = make_algebra("rand40", sig, n, tables)
    for gens in ((), (0,), (12, 3), (25, 31, 2), (5, 9, 14, 20, 33), range(0, n, 4), range(0, n, 2)):
        members = set(gens)
        while True:
            images = {
                alg.op(sym, *args)
                for sym, arity in sig.symbols
                for args in itertools.product(members, repeat=arity)
            }
            if images <= members:
                break
            members |= images
        assert sg_closure(alg, gens) == tuple(sorted(members))


def test_is_closed_subset_definition():
    alg = two_chain()
    assert is_closed_subset(alg, (1,))
    assert not is_closed_subset(alg, (0,))  # missing the constant
    assert is_closed_subset(alg, (0, 1))


def test_subalgebra_reindexes():
    sig = Signature((("g", 1),))
    alg = make_algebra("a", sig, 4, {"g": (0, 3, 1, 3)}, ("p", "q", "r", "s"))
    sub, embed = subalgebra(alg, (1, 3))
    assert embed == (1, 3)
    assert sub.size == 2
    assert sub.tables["g"] == (1, 1)  # g(q)=s, g(s)=s in local indices
    assert sub.element_names == ("q", "s")
    with pytest.raises(NotClosedError):
        subalgebra(alg, (2,))
    # -1 would index from the end of a table, 4 past it
    for outside in (range(-1, 4), (1, 3, 4)):
        with pytest.raises(AlgebraError, match="out of range"):
            subalgebra(alg, outside)


def test_direct_product_componentwise():
    alg = two_chain()
    prod = direct_product([alg, alg])
    assert prod.size == 4
    # row-major: index = first_coord * 2 + second_coord
    for a in itertools.product(range(2), repeat=2):
        for b in itertools.product(range(2), repeat=2):
            want = alg.op("meet", a[0], b[0]) * 2 + alg.op("meet", a[1], b[1])
            assert prod.op("meet", a[0] * 2 + a[1], b[0] * 2 + b[1]) == want
    assert prod.element_name(1) == "(0,1)"
    empty = direct_product([], signature=alg.signature)
    assert empty.size == 1 and empty.tables["meet"] == (0,)
    with pytest.raises(AlgebraError):
        direct_product([])
    other = make_algebra("o", SIG, 1, {"f": (0,), "g": (0,), "c": (0,)})
    with pytest.raises(AlgebraError):
        direct_product([alg, other])


def test_quotient_by_identity_and_full():
    alg = two_chain()
    same = quotient(alg, Partition.identity(2))
    assert same.size == 2 and same.tables == alg.tables
    one = quotient(alg, Partition.full(2))
    assert one.size == 1 and one.is_trivial
    assert one.element_names == ("0|1",)
    assert quotient_map(alg, Partition.full(2)) == (0, 0)


def test_quotient_rejects_non_congruence():
    sig = Signature((("g", 1),))
    alg = make_algebra("a", sig, 3, {"g": (1, 2, 0)})
    with pytest.raises(NotCongruenceError) as exc:
        quotient(alg, Partition.from_pairs(3, [(0, 1)]))
    assert "g" in str(exc.value)


def test_quotient_map_is_compatible():
    sig = Signature((("g", 1),))
    alg = make_algebra("a", sig, 4, {"g": (1, 0, 3, 2)})
    theta = Partition.from_pairs(4, [(0, 2), (1, 3)])
    q = quotient(alg, theta)
    qmap = quotient_map(alg, theta)
    for x in range(4):
        assert qmap[alg.op("g", x)] == q.op("g", qmap[x])


def test_reduct():
    alg = two_chain()
    red = reduct(alg, ("meet",))
    assert red.signature.names() == ("meet",)
    assert red.tables == {"meet": alg.tables["meet"]}
    with pytest.raises(UnknownSymbolError):
        reduct(alg, ("join",))


def test_json_round_trip(tmp_path):
    alg = two_chain()
    text = dumps_algebra(alg)
    assert text == dumps_algebra(alg)  # byte-stable
    assert text.endswith("\n")
    back = loads_algebra(text)
    assert back == alg
    data = algebra_to_dict(alg)
    assert json.loads(text) == data
    assert algebra_from_dict(data) == alg
    path = tmp_path / "alg.json"
    save_algebra(alg, path)
    assert load_algebra(path) == alg


def test_json_schema_errors():
    with pytest.raises(AlgebraError):
        algebra_from_dict({"name": "x", "size": 2})
    with pytest.raises(AlgebraError):
        algebra_from_dict(
            {"name": "x", "size": 2,
             "operations": [{"symbol": "f", "arity": 1, "table": [0, 9]}]}
        )


def test_json_rejects_non_integer_values():
    def doc(size=2, arity=1, table=(0, 1)):
        op = {"symbol": "f", "arity": arity, "table": list(table)}
        return {"name": "x", "size": size, "operations": [op]}

    for bad in (doc(table=(0, "x")), doc(table=(0, 1.5)), doc(table=(0, None)),
                doc(table=(0, True)), doc(arity="1"), doc(arity=True), doc(size=2.0),
                doc(size=True), doc(arity=10**18)):
        with pytest.raises(AlgebraError):
            algebra_from_dict(bad)
    with pytest.raises(AlgebraError):
        make_algebra("bad", SIG, 2, {"f": (0,) * 4, "g": (0, 1.0), "c": (0,)})


_json_leaf = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
)
_json_any = st.recursive(
    _json_leaf,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


def _or_any(strategy):
    return st.one_of(strategy, strategy, _json_any)


_json_operation = st.fixed_dictionaries(
    {
        "symbol": _or_any(st.sampled_from(["f", "g", "c"])),
        "arity": _or_any(st.integers(0, 2)),
        "table": _or_any(st.lists(_or_any(st.integers(0, 2)), max_size=9)),
    }
)
_json_documents = st.one_of(
    st.fixed_dictionaries(
        {
            "name": _or_any(st.text(max_size=3)),
            "size": _or_any(st.integers(0, 3)),
            "operations": _or_any(st.lists(_json_operation, max_size=3)),
        },
        optional={"elements": _or_any(st.lists(_or_any(st.text(max_size=2)), max_size=3))},
    ),
    _json_any,
)


@given(_json_documents)
@settings(max_examples=300)
def test_any_document_loads_or_raises_algebra_error(doc):
    try:
        alg = algebra_from_dict(doc)
    except AlgebraError:
        return
    assert algebra_from_dict(algebra_to_dict(alg)) == alg


def test_size_guard():
    sig = Signature((("c", 0),))
    big = FiniteAlgebra("big", sig, 30, {"c": (0,)}, None)
    with pytest.raises(SizeGuardError):
        all_subuniverses(big)
