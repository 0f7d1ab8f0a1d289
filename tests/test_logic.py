import collections
import functools
import itertools
import math
import pickle
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uaforge import analysis, catalog, logic
from uaforge.catalog import HEYTING_SIGNATURE
from uaforge.core import (
    Apply,
    ArityError,
    Signature,
    SizeGuardError,
    UnassignedVariableError,
    Variable,
    eval_term,
    make_algebra,
    term_variables,
)
from uaforge.formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    ParseError,
    eval_formula,
    free_variables,
    parse_formula,
)
from uaforge.logic import (
    FunctionalityError,
    eval_exists_decomposed,
    eval_term_batch,
    induced_partial_function,
    project_exists,
)

SIG = Signature((("f", 2), ("g", 1), ("c", 0)))
TSIG = SIG.extended((("h", 3),))
HSIG = HEYTING_SIGNATURE


@st.composite
def small_algebras(draw, max_size=4, min_size=1, sig=SIG):
    size = draw(st.integers(min_size, max_size))
    elem = st.integers(0, size - 1)
    tables = {
        symbol: tuple(draw(st.lists(elem, min_size=size**arity, max_size=size**arity)))
        for symbol, arity in sig.symbols
    }
    return make_algebra("rand", sig, size, tables)


# the strategies are built once per key and shared by every draw: hypothesis
# validates a strategy on first use, which costs more than the draw itself
def terms(variables, depth):
    return _terms(tuple(variables), depth)


@functools.lru_cache(maxsize=None)
def _terms(variables, depth):
    leaf = st.just(Apply("c", ()))
    if variables:
        leaf = st.one_of(st.builds(Variable, st.sampled_from(variables)), leaf)
    return st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.builds(lambda a: Apply("g", (a,)), kids),
            st.builds(lambda a, b: Apply("f", (a, b)), kids, kids),
        ),
        max_leaves=depth,
    )


@functools.lru_cache(maxsize=None)
def _pp_atoms(max_var, free):
    t = terms(range(max_var), 4)
    # some right-hand sides are over free variables only: ground once they are assigned
    return st.builds(Eq, t, st.one_of(t, terms(free, 2)))


@st.composite
def pp_formulas(draw, max_var=4):
    n_bound = draw(st.integers(0, max_var))
    bound = draw(
        st.lists(st.integers(0, max_var - 1), min_size=n_bound, max_size=n_bound, unique=True)
    )
    atoms = _pp_atoms(max_var, tuple(v for v in range(max_var) if v not in bound))
    body = draw(st.lists(atoms, min_size=1, max_size=4))
    f = body[0] if len(body) == 1 else And(tuple(body))
    return Exists(tuple(bound), f) if bound else f


@functools.lru_cache(maxsize=None)
def any_formulas(max_var=3, depth=2):
    t = terms(range(max_var), 3)
    atom = st.builds(Eq, t, t)

    def extend(kids):
        return st.one_of(
            st.builds(lambda a, b: And((a, b)), kids, kids),
            st.builds(lambda a, b: Or((a, b)), kids, kids),
            st.builds(Implies, kids, kids),
            st.builds(Not, kids),
            st.builds(
                lambda v, b: Exists((v,), b), st.integers(0, max_var - 1), kids
            ),
            st.builds(
                lambda v, b: Forall((v,), b), st.integers(0, max_var - 1), kids
            ),
        )

    return st.recursive(atom, extend, max_leaves=depth * 3)


# --- term walks ---------------------------------------------------------------


def _plain_walk(t):
    if isinstance(t, Variable):
        return [t.index]
    return [i for a in t.args for i in _plain_walk(a)]


def _rebuilt(t):
    if isinstance(t, Variable):
        return Variable(t.index)
    return Apply(t.symbol, tuple(_rebuilt(a) for a in t.args))


@given(terms(range(4), 8))
@settings(max_examples=100)
def test_terms_carry_their_variable_walk(t):
    # the walk a term stores at construction is the recursive one, and it
    # is not a field: equal terms built apart compare, hash and print alike
    assert list(t._walk) == _plain_walk(t)
    assert term_variables(t) == frozenset(t._walk)
    twin = _rebuilt(t)
    assert twin is not t
    assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
    back = pickle.loads(pickle.dumps(t))  # restores the stored walk, not a new one
    assert back == t and back._walk == t._walk and term_variables(back) == term_variables(t)


def _point():
    return make_algebra("point", SIG, 1, {"f": (0,), "g": (0,), "c": (0,)})


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: eval_term_batch(_point(), Variable(1), {0: 0}),
            UnassignedVariableError,
            "variable v1 unassigned",
            id="batch-unassigned",
        ),
        pytest.param(
            lambda: eval_term_batch(_point(), Apply("f", (Variable(0),)), {0: 0}),
            ArityError,
            "'f' expects 2 arguments, got 1",
            id="batch-arity",
        ),
        pytest.param(
            lambda: induced_partial_function(_point(), Eq(Variable(0), Variable(0)), -1),
            ArityError,
            "arity must be non-negative",
            id="negative-arity",
        ),
        pytest.param(
            lambda: parse_formula("x = $", SIG),
            ParseError,
            "unexpected character '$'",
            id="parse-character",
        ),
        pytest.param(
            lambda: parse_formula("x = exists", SIG),
            ParseError,
            "'exists' is a reserved word",
            id="parse-reserved-term",
        ),
        pytest.param(
            lambda: parse_formula("neg(x, y) = x", HSIG),
            ParseError,
            "'neg' expects 1 argument, got 2",
            id="parse-neg-arity",
        ),
    ],
)
def test_refusals_name_the_fault(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_a_false_ground_check_comes_before_the_cuts():
    # the cut of z reads q, which env leaves unassigned: like the reference
    # evaluator, the solver checks x = y first and needs q only when it holds
    a3 = catalog.build("An?n=3")
    f = parse_formula("exists z . x = y /\\ meet(q, z) = z", HSIG)  # x:0 y:1 q:2 z:3
    for decide in (eval_formula, eval_exists_decomposed):
        assert not decide(a3, f, {0: 0, 1: 1})
        with pytest.raises(UnassignedVariableError):
            decide(a3, f, {0: 1, 1: 1})


# --- batch term evaluation ---------------------------------------------------


@given(small_algebras(), terms(range(2), 6))
@settings(max_examples=50)
def test_batch_matches_scalar(alg, t):
    grid = list(itertools.product(range(alg.size), repeat=2))
    env = {
        0: np.array([p[0] for p in grid]),
        1: np.array([p[1] for p in grid]),
    }
    batch = np.broadcast_to(eval_term_batch(alg, t, env), (len(grid),))
    for row, (x, y) in enumerate(grid):
        assert int(batch[row]) == eval_term(alg, t, {0: x, 1: y})


def test_eval_term_batch_scalar_passthrough():
    a3 = catalog.build("An?n=3")
    t = Apply("meet", (Variable(0), Apply("one", ())))
    assert eval_term_batch(a3, t, {0: 5}) == 5
    arr = eval_term_batch(a3, t, {0: np.array([0, 5])})
    assert arr.tolist() == [0, 5]


# --- decomposed existential solver -------------------------------------------


# small limits send the solver through the ground-side split, the
# definition-image cut and step slicing, which the default limit never
# reaches on these algebras.  Each example is checked at every limit, since
# drawing the formulas costs most of these tests' time
BATCH_LIMITS = (1, 16, logic.BATCH_LIMIT)


def assert_decomposed_agrees_at_every_limit(alg, f, env):
    want = eval_formula(alg, f, env)
    for limit in BATCH_LIMITS:
        with mock.patch.object(logic, "BATCH_LIMIT", limit):
            assert eval_exists_decomposed(alg, f, env) == want, f"BATCH_LIMIT = {limit}"


@given(small_algebras(), pp_formulas(), st.data())
@settings(max_examples=120)
def test_decomposed_agrees_with_reference_on_pp(alg, f, data):
    env = {
        v: data.draw(st.integers(0, alg.size - 1)) for v in range(4)
    }
    assert_decomposed_agrees_at_every_limit(alg, f, env)


@given(small_algebras(), any_formulas(), st.data())
@settings(max_examples=80)
def test_decomposed_agrees_with_reference_on_everything(alg, f, data):
    env = {
        v: data.draw(st.integers(0, alg.size - 1)) for v in range(3)
    }
    assert_decomposed_agrees_at_every_limit(alg, f, env)


def _spread(draw, leaves):
    """A random term over f and g that holds each leaf once, in order."""
    if len(leaves) == 1:
        t = leaves[0]
    else:
        cut = draw(st.integers(1, len(leaves) - 1))
        t = Apply("f", (_spread(draw, leaves[:cut]), _spread(draw, leaves[cut:])))
    return Apply("g", (t,)) if draw(st.booleans()) else t


@st.composite
def definition_formulas(draw):
    """exists 1 2 3 4 over a definition v = t, t over 2 or 3 other bound
    variables, an equation over 3 or 4 bound variables, and at most one
    atom of pp_formulas, in any order; variable 0 is free.  A t of three or
    four leaves may be h of the first two and the rest, for algebras of TSIG."""
    bound = (1, 2, 3, 4)
    extra = st.lists(st.sampled_from((Variable(0), Apply("c", ()))), max_size=1)
    v = draw(st.sampled_from(bound))
    others = st.sampled_from([u for u in bound if u != v])
    uses = draw(st.lists(others, min_size=2, max_size=3, unique=True))
    leaves = draw(st.permutations([Variable(u) for u in uses] + draw(extra)))
    if len(leaves) > 2 and draw(st.booleans()):
        t = Apply("h", (*leaves[:2], _spread(draw, leaves[2:])))
    else:
        t = _spread(draw, leaves)
    definition = Eq(Variable(v), t)
    spread = draw(st.lists(st.sampled_from(bound), min_size=3, max_size=4, unique=True))
    leaves = [Variable(u) for u in spread] + draw(extra)
    cut = draw(st.integers(1, len(leaves) - 1))
    equation = Eq(_spread(draw, leaves[:cut]), _spread(draw, leaves[cut:]))
    body = [definition, equation] + draw(st.lists(_pp_atoms(5, (0,)), max_size=1))
    return Exists(bound, And(tuple(draw(st.permutations(body)))))


# the big-grid paths at small limits: a definition over two or more bound
# variables is an image cut at limit 1 (and over three at 16), and an
# equation over three bound variables makes a step over 16 cells.  The
# algebras carry a ternary h, whose image is read through np.ix_
@given(small_algebras(min_size=3, sig=TSIG), definition_formulas(), st.data())
@settings(max_examples=60, deadline=None)
def test_decomposed_agrees_with_reference_on_definitions(alg, f, data):
    assert_decomposed_agrees_at_every_limit(alg, f, {0: data.draw(st.integers(0, alg.size - 1))})


@st.composite
def pinned_formulas(draw):
    """exists over two to four of the variables 0..4, which pins at least one
    bound variable, and maybe free ones, to one value by v = t, t
    constant-valued; an equation over the pinned bound variables, when there
    are two or more, a definition u = t whose term reads a pinned variable
    and up to two atoms of pp_formulas may join them, in any order."""
    variables = range(5)
    bound = draw(st.lists(st.sampled_from(variables), min_size=2, max_size=4, unique=True))
    free = [v for v in variables if v not in bound]
    pinned = draw(st.lists(st.sampled_from(bound), min_size=1, max_size=3, unique=True))
    pinned_free = draw(st.lists(st.sampled_from(free), max_size=2, unique=True)) if free else []
    body = []
    for v in pinned + pinned_free:
        sides = (Variable(v), draw(terms((), 3)))
        body.append(Eq(*(sides if draw(st.booleans()) else sides[::-1])))
    others = [u for u in bound if u not in pinned]
    if others and draw(st.booleans()):
        u = draw(st.sampled_from(others))
        leaves = [Variable(draw(st.sampled_from(pinned)))]
        rest = [Variable(w) for w in variables if w != u]
        leaves += draw(st.lists(st.sampled_from(rest), max_size=1))
        body.append(Eq(Variable(u), _spread(draw, leaves)))
    if len(pinned) > 1:
        leaves = [Variable(v) for v in draw(st.permutations(pinned))]
        cut = draw(st.integers(1, len(leaves) - 1))
        sides = _spread(draw, leaves[:cut]), _spread(draw, leaves[cut:])
        # a bare variable on either side would make it a definition, not a factor
        body.append(Eq(*(Apply("g", (t,)) if isinstance(t, Variable) else t for t in sides)))
    body += draw(st.lists(_pp_atoms(5, tuple(free)), max_size=2))
    return Exists(tuple(bound), And(tuple(draw(st.permutations(body)))))


# a solver variable with one value is ground, unless it is kept or a
# definition defines or reads it, and a factor over ground variables only is
# checked once: pinned kept variables, definitions reading a pinned variable
# and factors over pinned variables, which may fail, on algebras of 1 to 4
# elements
@given(small_algebras(), pinned_formulas(), st.data())
@settings(max_examples=200, deadline=None)
def test_decomposed_agrees_with_reference_on_pinned_variables(alg, f, data):
    env = {v: data.draw(st.integers(0, alg.size - 1)) for v in range(5)}
    assert_decomposed_agrees_at_every_limit(alg, f, env)
    free = [v for v in range(5) if v not in f.vars]
    kept = tuple(data.draw(st.lists(st.sampled_from(free), max_size=2, unique=True)))
    want = _reference_projection(alg, f, kept, env)
    for limit in BATCH_LIMITS:
        with mock.patch.object(logic, "BATCH_LIMIT", limit):
            assert (project_exists(alg, f, kept, env) == want).all(), f"BATCH_LIMIT = {limit}"


def test_a_variable_a_definition_reads_is_not_ground():
    # v0 has one value on one element, and g(v0) = v3 defines the kept v3:
    # grounding v0 and dropping it from the definition's reads left the step
    # over v3 with no grid, whose 0-d mask broke np.nonzero
    alg = make_algebra("one", SIG, 1, {"f": (0,), "g": (0,), "c": (0,)})
    f = parse_formula("exists v0 v1 v2 . c = c /\\ g(v0) = v3", SIG)  # v3:0 v0:1
    for limit in BATCH_LIMITS:
        with mock.patch.object(logic, "BATCH_LIMIT", limit):
            assert project_exists(alg, f, (0,)).tolist() == [True]


def test_decomposed_handles_vacuous_bound_variables():
    a3 = catalog.build("An?n=3")
    f = Exists((5, 6), Eq(Variable(0), Variable(0)))
    assert eval_exists_decomposed(a3, f, {0: 2})


def test_decomposed_env_does_not_leak_bound_assignments():
    a3 = catalog.build("An?n=3")
    env = {0: 1, 1: 2}
    f = Exists((1,), Eq(Variable(0), Variable(1)))
    assert eval_exists_decomposed(a3, f, env)
    assert env == {0: 1, 1: 2}  # caller's dict untouched


def _reference_projection(alg, f, kept, env):
    cells = itertools.product(range(alg.size), repeat=len(kept))
    found = [eval_formula(alg, f, {**env, **dict(zip(kept, c))}) for c in cells]
    return np.array(found, dtype=bool).reshape((alg.size,) * len(kept))


def test_solver_slices_steps_over_the_batch_limit():
    seen = {"sliced": 0, "largest": 0, "split": 0, "branched": 0}
    run_step, term_batch, members = logic._run_step, logic.eval_term_batch, logic._members

    def spy_step(alg, env, fs, ds, grid, out, values, dom, result):
        seen["sliced"] += np.prod([len(values[v]) for v in grid]) > logic.BATCH_LIMIT
        seen["largest"] = max(seen["largest"], result.size)
        run_step(alg, env, fs, ds, grid, out, values, dom, result)

    def spy_terms(alg, t, env):
        value = term_batch(alg, t, env)
        seen["largest"] = max(seen["largest"], np.size(value))
        return value

    def spy_members(alg, t, allowed, env, preimages):
        alternatives = members(alg, t, allowed, env, preimages)
        seen["split"] += 1
        seen["branched"] += len(alternatives) > 1
        return alternatives

    @given(small_algebras(), pp_formulas(), st.data())
    @settings(max_examples=150, deadline=None)
    def check(alg, f, data):
        # room for a factor over one or two variables, never for a full grid
        logic.BATCH_LIMIT = alg.size ** data.draw(st.integers(1, 2))
        seen["largest"] = 0
        env = {v: data.draw(st.integers(0, alg.size - 1)) for v in range(4)}
        assert eval_exists_decomposed(alg, f, env) == eval_formula(alg, f, env)
        kept = tuple(data.draw(st.lists(st.integers(0, 3), max_size=2, unique=True)))
        got = project_exists(alg, f, kept, env)
        assert (got == _reference_projection(alg, f, kept, env)).all()
        assert seen["largest"] <= logic.BATCH_LIMIT

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logic, "BATCH_LIMIT", logic.BATCH_LIMIT)
        mp.setattr(logic, "_run_step", spy_step)
        mp.setattr(logic, "eval_term_batch", spy_terms)
        mp.setattr(logic, "_members", spy_members)
        check()
        # phi(k, 3) with its steps cut into slices of at most 64 cells; at this
        # limit the cover conjunct of each z-block is split and branches
        logic.BATCH_LIMIT, seen["largest"] = 64, 0
        a3 = catalog.build("An?n=3")
        for k in (1, 2):
            f = catalog.build(f"phi?k={k}&n=3")[0]
            for x in range(a3.size):
                got = np.flatnonzero(project_exists(a3, f, (1,), {0: x}))
                assert got.tolist() == [catalog.expected_phi_value(a3, k, x)]
        # a side over assigned free variables is ground too
        split, f = seen["split"], parse_formula("exists u v w . join(join(u, v), w) = x", HSIG)
        for x in range(a3.size):
            assert eval_exists_decomposed(a3, f, {0: x}) == eval_formula(a3, f, {0: x})
        assert seen["split"] > split
        assert seen["largest"] <= 64
    assert seen["sliced"] > 0
    # equations over more than BATCH_LIMIT cells with a ground side were split, some into branches
    assert seen["split"] > 0 and seen["branched"] > 0


@pytest.mark.parametrize(
    "cid, limit, src, inner",
    [
        # dia's preimage passes to plus(u, v): the unary branch
        ("sec2.A", 8, "exists u v . dia(plus(u, v)) = x", "plus"),
        # x is ground, so a row of join's preimage passes to meet(u, v)
        ("An?n=3", 9, "exists u v . join(x, meet(u, v)) = y", "meet"),
    ],
)
def test_members_passes_through_unary_operations_and_ground_arguments(cid, limit, src, inner):
    alg = catalog.build(cid)
    f = parse_formula(src, alg.signature)
    with mock.patch.object(logic, "BATCH_LIMIT", limit), mock.patch.object(
        logic, "_members", wraps=logic._members
    ) as members:
        for values in itertools.product(range(alg.size), repeat=len(free_variables(f))):
            env = dict(enumerate(values))
            assert eval_exists_decomposed(alg, f, env) == eval_formula(alg, f, env)
    # the inner term is reached only through the branch under test
    split = [call.args[1] for call in members.call_args_list]
    assert any(isinstance(t, Apply) and t.symbol == inner for t in split)


@pytest.mark.parametrize(
    "src",
    [
        # v = t(v) is no definition
        "exists v u . v = imp(v, u) /\\ meet(u, x) = y",
        # v has two definitions; the second is a factor
        "exists v u w . v = join(u, w) /\\ v = meet(u, x) /\\ imp(u, w) = y",
        # v equals a free variable
        "exists v u . v = x /\\ join(v, u) = y",
        # u = meet(v, x) would close a cycle through v = neg(u)
        "exists v u . v = neg(u) /\\ u = meet(v, x) /\\ join(u, y) = one",
        # a chain of definitions, and one bound variable equal to another
        "exists u v w . w = join(v, x) /\\ v = imp(u, y) /\\ meet(w, u) = x",
        "exists v w . v = w /\\ meet(v, x) = y",
        # the kept variable y is itself defined
        "exists u . y = join(u, x) /\\ meet(u, x) = zero",
    ],
)
def test_definition_edge_cases(src):
    a3 = catalog.build("An?n=3")
    f = parse_formula(src, HSIG)  # x:0 y:1
    for x, y in itertools.product(range(a3.size), repeat=2):
        env = {0: x, 1: y}
        assert eval_exists_decomposed(a3, f, env) == eval_formula(a3, f, env)
    for x in range(a3.size):
        got = project_exists(a3, f, (1,), {0: x})
        assert (got == _reference_projection(a3, f, (1,), {0: x})).all()


def test_project_exists_refuses_a_repeated_kept_variable():
    # kept=(y, y) would bind y to two values at once; the reference evaluator
    # and the plan used to answer it differently (36 cells against 4)
    a3 = catalog.build("An?n=3")
    sources = ("meet(x, y) = y", "exists z . meet(x, y) = y /\\ z = z")
    with mock.patch.object(logic, "_compile", wraps=logic._compile) as compile_, mock.patch.object(
        logic, "eval_formula", wraps=logic.eval_formula
    ) as reference:
        for src in sources:
            with pytest.raises(ArityError, match=re.escape("kept repeats a variable: (1, 1)")):
                project_exists(a3, parse_formula(src, HSIG), (1, 1), {0: 3})
    assert compile_.call_count == reference.call_count == 0


def atom_count(alg, a):
    return sum(analysis.lattice_leq(alg, p, a) for p in analysis.atoms_of(alg))


def test_kept_variables_are_fixed_one_at_a_time_when_no_step_fits(monkeypatch):
    # f = and on {0, 1}: at BATCH_LIMIT 2 no step over x, y and z fits, so the
    # first solve gives up and x is fixed at each value in turn
    sig = Signature((("f", 2),))
    alg = make_algebra("and", sig, 2, {"f": (0, 0, 0, 1)})
    f = parse_formula("exists z . f(x, z) = y", sig)  # x:0 y:1 z:2
    results = []
    solve = logic._solve

    def spy_solve(alg, plan, env, cuts, images):
        results.append(solve(alg, plan, env, cuts, images))
        return results[-1]

    monkeypatch.setattr(logic, "BATCH_LIMIT", 2)
    monkeypatch.setattr(logic, "_solve", spy_solve)
    got = project_exists(alg, f, (0, 1))
    assert sum(r is None for r in results) == 1
    assert got.astype(int).tolist() == [[1, 0], [1, 1]]
    assert (got == _reference_projection(alg, f, (0, 1), {})).all()


def test_phi_k4_matches_the_atom_count_table(monkeypatch):
    # the cover conjunct of each z-block is split, and a definition that takes
    # one value on the domains is a cut, so no term is evaluated over a whole
    # block of five z variables (15^5 cells without either)
    largest = [0]
    term_batch = logic.eval_term_batch

    def spy_terms(alg, t, env):
        value = term_batch(alg, t, env)
        largest[0] = max(largest[0], np.size(value))
        return value

    monkeypatch.setattr(logic, "eval_term_batch", spy_terms)
    a4 = catalog.build("An?n=4")
    by_atoms = {}
    for a in range(a4.size):
        by_atoms.setdefault(atom_count(a4, a), a)
    for k in (1, 2, 3):
        f = catalog.build(f"phi?k={k}&n=4")[0]
        for x in range(a4.size):
            want = catalog.expected_phi_value(a4, k, x)
            outputs = project_exists(a4, f, (1,), {0: x})  # all 17 values of y
            assert np.flatnonzero(outputs).tolist() == [want]
        # the decision path, at the atom set of k atoms: its value and one non-value
        x = by_atoms[k]
        assert eval_exists_decomposed(a4, f, {0: x, 1: catalog.expected_phi_value(a4, k, x)})
        assert not eval_exists_decomposed(a4, f, {0: x, 1: x})
    assert largest[0] <= a4.size**4


def test_solver_steps_only_over_linked_variables(monkeypatch):
    # a bound variable that only domain cuts mention is settled once its
    # domain is nonempty: no step runs over it alone (at x = e, the cut
    # definitions of phi(k, 4) leave such variables)
    isolated = []
    run_step = logic._run_step

    def spy_step(alg, env, fs, ds, grid, out, *rest):
        if len(grid) == 1 and not fs and not ds and not out:
            isolated.append(grid)
        return run_step(alg, env, fs, ds, grid, out, *rest)

    monkeypatch.setattr(logic, "_run_step", spy_step)
    a4 = catalog.build("An?n=4")
    for k in (1, 2, 3):
        table = induced_partial_function(a4, catalog.build(f"phi?k={k}&n=4")[0], 1)
        assert table == {(x,): catalog.expected_phi_value(a4, k, x) for x in range(a4.size)}
    assert not isolated


def test_branches_of_one_call_share_their_cuts_and_images(monkeypatch):
    # phi(3, 4) at a 3-atom x is a top plan over w1..w3 and three blocks of 2
    # branches, one per split cover conjunct.  A non-value y leaves nothing
    # after block 1, so blocks 2 and 3 are never split nor planned: one
    # outermost _members call and 1 + 2 plans, where the value splits all
    # three and plans 1 + 3 * 2.  The 5k same-slice conjuncts are equal up to
    # renaming their z, so they share one cut, and each w is imaged at most
    # once per cut domain of its block's branches: at most 2k = 6 images
    a4 = catalog.build("An?n=4")
    f = catalog.build("phi?k=3&n=4")[0]
    calls, depth, cuts = collections.Counter(), collections.Counter(), [0]
    holds = logic._holds

    def spy(name, real):
        def call(*args):  # _members and _image recurse through the spy: count the outermost calls
            calls[name] += depth[name] == 0
            depth[name] += 1
            try:
                return real(*args)
            finally:
                depth[name] -= 1

        return call

    def spy_holds(alg, c, env):
        cuts[0] += sys._getframe(1).f_code.co_name == "_solve"  # a cut, not a ground check
        return holds(alg, c, env)

    for name in ("_members", "_plan", "_image"):
        monkeypatch.setattr(logic, name, spy(name, getattr(logic, name)))
    monkeypatch.setattr(logic, "_holds", spy_holds)
    x = next(a for a in range(a4.size) if atom_count(a4, a) == 3)
    value = catalog.expected_phi_value(a4, 3, x)
    other = next(b for b in range(a4.size) if atom_count(a4, b) == 3 and b != value)
    for y, members, plans in ((other, 1, 1 + 2), (value, 3, 1 + 3 * 2)):
        calls.clear()
        cuts[0] = 0
        assert eval_exists_decomposed(a4, f, {0: x, 1: y}) == (y == value)
        assert (calls["_members"], calls["_plan"]) == (members, plans), y
        assert cuts[0] == 1 and calls["_image"] <= 6
    # every pair of the table, each query splitting only the blocks it reaches
    for y in range(a4.size):
        assert eval_exists_decomposed(a4, f, {0: x, 1: y}) == (y == value)


def test_a_shared_image_is_not_cut_by_a_later_definition(monkeypatch):
    # at BATCH_LIMIT 1 every definition is imaged and f(w, p) = x splits into
    # 4 branches.  The image of the bare u, for v = u, is u's domain, which
    # u = g(w) then cuts in the first branch; the branches that share that
    # image must see it uncut (cutting in place made this answer False)
    monkeypatch.setattr(logic, "BATCH_LIMIT", 1)
    alg = make_algebra("r", SIG, 3, {"f": (0, 0, 1, 2, 1, 0, 1, 2, 2), "g": (0, 2, 1), "c": (1,)})
    f = parse_formula("exists v u w p . v = u /\\ u = g(w) /\\ f(w, p) = x /\\ f(v, p) = y", SIG)
    assert eval_formula(alg, f, {0: 2, 1: 0})
    assert eval_exists_decomposed(alg, f, {0: 2, 1: 0})


def _cut_evaluations(monkeypatch):
    """The conjuncts whose cuts _solve evaluates, in order, from now on."""
    seen, holds = [], logic._holds

    def spy(alg, c, env):
        if sys._getframe(1).f_code.co_name == "_solve":  # a cut, not a ground check
            seen.append(c)
        return holds(alg, c, env)

    monkeypatch.setattr(logic, "_holds", spy)
    return seen


def test_cuts_equal_up_to_renaming_their_variable_are_evaluated_once(monkeypatch):
    a3 = catalog.build("An?n=3")
    f = parse_formula(
        "exists u v w . imp(u, x) = one /\\ imp(v, x) = one /\\ imp(w, x) = one"
        " /\\ meet(u, meet(v, w)) = y",
        HSIG,
    )  # x:0 y:1
    seen = _cut_evaluations(monkeypatch)
    for x, y in itertools.product(range(a3.size), repeat=2):
        seen.clear()
        assert eval_exists_decomposed(a3, f, {0: x, 1: y}) == eval_formula(a3, f, {0: x, 1: y})
        assert len(seen) == 1


def test_cuts_that_differ_in_a_value_a_symbol_or_an_argument_order_are_their_own(monkeypatch):
    # imp(u, x) and imp(v, x) share a cut; imp(x, w) swaps imp's arguments,
    # join(q, x) has another symbol, and imp(p, y) another ground value
    # unless y = x, when it shares the cut of imp(u, x) too
    a3 = catalog.build("An?n=3")
    f = parse_formula(
        "exists u v w p q . imp(u, x) = one /\\ imp(v, x) = one /\\ imp(x, w) = one"
        " /\\ imp(p, y) = one /\\ join(q, x) = one",
        HSIG,
    )  # x:0 y:1
    seen = _cut_evaluations(monkeypatch)
    for x, y in itertools.product(range(a3.size), repeat=2):
        seen.clear()
        assert eval_exists_decomposed(a3, f, {0: x, 1: y}) == eval_formula(a3, f, {0: x, 1: y})
        assert len(seen) == (3 if x == y else 4), (x, y)


def test_a_cut_over_a_variable_env_misses_keeps_the_identity_of_its_conjunct():
    # meet(q, z) = z with q unassigned has no values to key by: its cut is
    # keyed by the conjunct, and evaluating it raises as the reference does
    q, z, u = Variable(0), Variable(1), Variable(2)
    c, twin = Eq(Apply("meet", (q, z)), z), Eq(Apply("meet", (q, u)), u)
    assert logic._cut_key(c, [0, 1, 1], 1, {}) == id(c)
    assert logic._cut_key(twin, [0, 2, 2], 2, {}) == id(twin) != id(c)
    assert logic._cut_key(c, [0, 1, 1], 1, {0: 3}) == logic._cut_key(twin, [0, 2, 2], 2, {0: 3})
    assert logic._cut_key(c, [0, 1, 1], 1, {0: 3}) != logic._cut_key(c, [0, 1, 1], 1, {0: 2})
    a3 = catalog.build("An?n=3")
    f = Exists((1, 2), And((c, twin)))
    for decide in (eval_formula, eval_exists_decomposed):
        with pytest.raises(UnassignedVariableError):
            decide(a3, f, {})


def test_each_kind_of_key_in_a_call_memo_has_its_own_tag(monkeypatch):
    # one memo per call holds the cuts, keyed by Eq or _Member and a shape,
    # or by their conjunct's id; the definition images, led by their term's
    # id; and the operation images, tagged Apply: no symbol, shape or id can
    # make keys of two kinds equal
    a4 = catalog.build("An?n=4")
    f = catalog.build("phi?k=3&n=4")[0]
    memos, either = [], logic._either

    def spy(alg, kept, plans, env, cuts, images):
        memos.append(images)
        return either(alg, kept, plans, env, cuts, images)

    monkeypatch.setattr(logic, "_either", spy)
    x = next(a for a in range(a4.size) if atom_count(a4, a) == 3)
    assert np.flatnonzero(project_exists(a4, f, (1,), {0: x})).tolist() == [
        catalog.expected_phi_value(a4, 3, x)
    ]
    kinds = collections.Counter()
    for key in (k for images in memos for k in images):
        kind = "id" if isinstance(key, int) else "image" if isinstance(key[0], int) else key[0]
        kinds[kind] += 1
        if kind is Apply:  # the symbol, then the image of each argument
            arity = a4.signature.arity(key[1])
            assert len(key) == 2 + arity and all(len(b) == a4.size for b in key[2:])
    assert set(kinds) == {Apply, Eq, "image"}, kinds


@st.composite
def renamed_cut_formulas(draw):
    """exists over two to four bound variables, each cut by a copy of one
    drawn equation over a placeholder and the free variables 0 and 1, the
    placeholder renamed to the bound variable and in some copies 0 and 1
    swapped; up to two atoms of pp_formulas may join them, in any order."""
    template = Eq(draw(terms((0, 1, 9), 3)), draw(terms((0, 1, 9), 2)))
    bound = tuple(range(2, 2 + draw(st.integers(2, 4))))

    def renamed(t, names):
        if isinstance(t, Variable):
            return Variable(names.get(t.index, t.index))
        return Apply(t.symbol, tuple(renamed(a, names) for a in t.args))

    body = []
    for b in bound:
        names = {9: b, **({0: 1, 1: 0} if draw(st.booleans()) else {})}
        body.append(Eq(renamed(template.lhs, names), renamed(template.rhs, names)))
    body += draw(st.lists(_pp_atoms(2 + len(bound), (0, 1)), max_size=2))
    return Exists(bound, And(tuple(draw(st.permutations(body)))))


@given(small_algebras(), renamed_cut_formulas(), st.data())
@settings(max_examples=100, deadline=None)
def test_decomposed_agrees_with_reference_on_renamed_cuts(alg, f, data):
    env = {v: data.draw(st.integers(0, alg.size - 1)) for v in (0, 1)}
    assert_decomposed_agrees_at_every_limit(alg, f, env)
    kept = tuple(data.draw(st.lists(st.sampled_from((0, 1)), max_size=2, unique=True)))
    assert (project_exists(alg, f, kept, env) == _reference_projection(alg, f, kept, env)).all()


@st.composite
def block_formulas(draw):
    """An algebra of 2 to 4 elements and a formula over the free variables 0
    and 1: exists over two blocks (three on 3 elements), each some bound z's
    and a w with an equation over them whose other side is over the free
    variables, and a definition w = t(z's); a top equation ties the w's to
    the free variables; in any order.  A block's equation has over 16
    cells, so with its other side ground it splits at BATCH_LIMIT 1 and 16;
    f is drawn as a table or as the join of a chain, whose preimage of an
    element above the least is two rectangles, so that the split branches."""
    alg = draw(small_algebras(min_size=2))
    if draw(st.booleans()):
        rank = draw(st.permutations(range(alg.size)))
        join = tuple(max(a, b, key=rank.__getitem__) for a in range(alg.size) for b in range(alg.size))
        alg = make_algebra("chain", SIG, alg.size, {**alg.tables, "f": join})
    zs, blocks = {2: (4, 2), 3: (2, 3), 4: (2, 2)}[alg.size]
    free = terms((0, 1), 2)
    body, ws, fresh = [], [], itertools.count(2)
    for _m in range(draw(st.integers(2, blocks))):
        z = [Variable(next(fresh)) for _i in range(zs)]
        ws.append(Variable(next(fresh)))
        body.append(Eq(_spread(draw, draw(st.permutations(z + ws[-1:]))), draw(free)))
        reads = draw(st.lists(st.sampled_from(z), min_size=1, max_size=zs, unique=True))
        body.append(Eq(ws[-1], _spread(draw, reads)))
    sides = _spread(draw, draw(st.permutations(ws))), draw(free)
    body.append(Eq(*(sides if draw(st.booleans()) else sides[::-1])))
    return alg, Exists(tuple(range(2, next(fresh))), And(tuple(draw(st.permutations(body)))))


def test_blocks_agree_with_reference():
    # at BATCH_LIMIT 1 every block folds into the top, so the call is one
    # block; at 16 some calls keep every block apart, solving the top and then
    # each block cut to the top's result.  A limit of the kept variables and
    # one more keeps the first block, over its w, apart and folds the others
    compile_, blocks, folded = logic._compile, collections.Counter(), collections.Counter()

    def spy(*args):
        out = compile_(*args)
        blocks[len(out)] += 1
        # the top holds no split conjunct unless a block folded into it
        folded[len(out) > 1 and len(out[0][1]) > 1] += 1
        return out

    @given(block_formulas(), st.data())
    @settings(max_examples=60, deadline=None)
    def check(drawn, data):
        alg, f = drawn
        env = {0: data.draw(st.integers(0, alg.size - 1)), 1: data.draw(st.integers(0, alg.size - 1))}
        kept = tuple(data.draw(st.lists(st.sampled_from((0, 1)), max_size=2, unique=True)))
        want = _reference_projection(alg, f, kept, env)
        for limit in BATCH_LIMITS + (alg.size ** (len(kept) + 1),):
            with mock.patch.object(logic, "BATCH_LIMIT", limit):
                assert (project_exists(alg, f, kept, env) == want).all(), f"BATCH_LIMIT = {limit}"

    with mock.patch.object(logic, "_compile", spy):
        check()
    assert blocks[1] and max(blocks) >= 3, blocks  # one block, and a top with 2+ blocks apart
    assert folded[True], folded  # a block folded while another stayed apart


def test_a_block_that_would_push_the_top_over_the_batch_limit_folds_into_it(monkeypatch):
    # phi(3, 4) with y kept: a top over y, w1, w2 and w3 would have 17^4
    # cells, over a limit of 17^3, so the third block folds into the top,
    # whose 2 branches are its cover conjunct's alternatives, and the first
    # two stay apart, where one block over y would have all 2^3 branches.
    # The blocks apart are split and planned only when they are solved
    a4 = catalog.build("An?n=4")
    f, names = catalog.build("phi?k=3&n=4")
    index = {name: v for v, name in names.items()}
    compiled, solved, compile_, either = [], [], logic._compile, logic._either

    def spy_compile(*args):
        compiled.append(compile_(*args))
        return compiled[-1]

    def spy_either(alg, kept, plans, *rest):
        solved[-1].append((kept, len(plans)))
        return either(alg, kept, plans, *rest)

    monkeypatch.setattr(logic, "BATCH_LIMIT", a4.size**3)
    monkeypatch.setattr(logic, "_compile", spy_compile)
    monkeypatch.setattr(logic, "_either", spy_either)
    group = analysis.automorphisms(a4).maps
    for x in sorted({min(g[a] for g in group) for a in range(a4.size)}):
        solved.append([])
        got = np.flatnonzero(project_exists(a4, f, (1,), {0: x})).tolist()
        assert got == [catalog.expected_phi_value(a4, 3, x)]
    y, w1, w2 = index["y"], index["w1"], index["w2"]
    want = [((y, w1, w2), 2), ((w1,), 2), ((w2,), 2)]
    assert compiled and all(len(c[0][1]) == 2 and all(callable(p) for _v, p in c[1:]) for c in compiled)
    assert all([kept for kept, _p in c] == [kept for kept, _n in want] for c in compiled)
    assert solved and all(s == want for s in solved)


def test_phi_k_4_decides_every_pair_as_the_atom_count_table():
    # every (x, y) of phi(k, 4), k = 1..3; a non-value query of phi(3, 4)
    # solves the top, then at most the 2 branches of each of its 3 blocks
    a4 = catalog.build("An?n=4")
    solves, solve = [0], logic._solve

    def spy(*args):
        solves[0] += 1
        return solve(*args)

    with mock.patch.object(logic, "_solve", spy):
        for k in (1, 2, 3):
            f = catalog.build(f"phi?k={k}&n=4")[0]
            for x in range(a4.size):
                value = catalog.expected_phi_value(a4, k, x)
                for y in range(a4.size):
                    solves[0] = 0
                    assert eval_exists_decomposed(a4, f, {0: x, 1: y}) == (y == value), (k, x, y)
                    if k == 3 and y != value:
                        assert solves[0] <= 1 + 2 * 3, (x, y)


def _fewest_cells_of_every_step(alg, todo, factors, definitions, kept, values):
    """The next step chosen by building every candidate: drop those that keep
    over BATCH_LIMIT cells, then take the fewest grid cells, the first on ties."""
    steps = [logic._step(x, factors, definitions, kept) for x in todo or [None]]
    steps = [s for s in steps if alg.size ** len(s[3]) <= logic.BATCH_LIMIT]
    if not steps:
        return None
    cells = [math.prod(len(values[v]) for v in grid) for _fs, _ds, grid, _out in steps]
    return steps[cells.index(min(cells))]


def _steps_run(call, choose=None):
    """call()'s value, the (grid, out) of every step the solver ran, and the
    number of steps built; choose, when given, picks each next step."""
    run, seen, depth = logic._run_step, [], [0]

    def spy(alg, env, fs, ds, grid, out, *rest):
        if not depth[0]:  # a sliced step calls itself once per slice
            seen.append((grid, out))
        depth[0] += 1
        try:
            run(alg, env, fs, ds, grid, out, *rest)
        finally:
            depth[0] -= 1

    with mock.patch.object(logic, "_run_step", spy), mock.patch.object(
        logic, "_step", wraps=logic._step
    ) as step, mock.patch.object(logic, "_next_step", choose or logic._next_step):
        return call(), seen, step.call_count


@given(small_algebras(), pp_formulas(), st.data())
@settings(max_examples=100, deadline=None)
def test_steps_are_chosen_as_by_building_every_candidate(alg, f, data):
    env = {v: data.draw(st.integers(0, alg.size - 1)) for v in range(4)}
    kept = tuple(data.draw(st.lists(st.integers(0, 3), max_size=2, unique=True)))
    for limit in BATCH_LIMITS:  # at 1 most steps keep too many cells to run
        with mock.patch.object(logic, "BATCH_LIMIT", limit):
            def call():
                return project_exists(alg, f, kept, env).tolist()

            assert _steps_run(call)[:2] == _steps_run(call, _fewest_cells_of_every_step)[:2]


def test_phi_3_4_builds_only_the_steps_it_runs():
    # one x from each orbit of the atom permutations, which fix phi(3, 4)
    a4 = catalog.build("An?n=4")
    f = catalog.build("phi?k=3&n=4")[0]
    group = analysis.automorphisms(a4).maps
    for x in sorted({min(g[a] for g in group) for a in range(a4.size)}):
        def call():
            return project_exists(a4, f, (1,), {0: x}).tolist()

        got, seen, built = _steps_run(call)
        assert seen and (got, seen) == _steps_run(call, _fewest_cells_of_every_step)[:2]
        assert built == len(seen)


def test_phi_k_4_runs_no_one_value_step_and_reads_each_preimage_once():
    # one x from each orbit of the atom permutations, with the value of
    # phi(k, 4) at x as y and with a non-value, x itself where it can be (the
    # cut definitions fix every w of the k = 3 queries, which then ran a step
    # over a 1x1x1 grid)
    a4 = catalog.build("An?n=4")
    group = analysis.automorphisms(a4).maps
    alg = make_algebra(a4.name, a4.signature, a4.size, a4.tables)  # its own grids
    one_value, reads, run_step = [], collections.Counter(), logic._run_step

    def spy_step(alg, env, fs, ds, grid, out, values, *rest):
        if all(len(values[v]) == 1 for v in grid):
            one_value.append(grid)
        run_step(alg, env, fs, ds, grid, out, values, *rest)

    class Grids(dict):  # counts each preimage _members reads off a grid
        def __getitem__(self, symbol):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_members":
                reads[symbol, caller.f_locals["allowed"].tobytes()] += 1
            return dict.__getitem__(self, symbol)

    alg.__dict__["grids"] = Grids(alg.grids)
    with mock.patch.object(logic, "_run_step", spy_step):
        for k in (1, 2, 3):
            f = catalog.build(f"phi?k={k}&n=4")[0]
            for x in sorted({min(g[a] for g in group) for a in range(a4.size)}):
                value = catalog.expected_phi_value(a4, k, x)
                for y in (value, x if x != value else 0):
                    reads.clear()
                    assert eval_exists_decomposed(alg, f, {0: x, 1: y}) == (y == value)
                    assert all(n == 1 for n in reads.values()), (k, x, y)
                # y kept: a w that the cuts fix, and y once every w is fixed,
                # are one-value cuts, not steps
                reads.clear()
                assert np.flatnonzero(project_exists(alg, f, (1,), {0: x})).tolist() == [value]
                assert all(n == 1 for n in reads.values()), (k, x)
    assert not one_value


# f(u, v) = f(v, u) on 3 elements is one step over a grid of 9 cells
_ONE_STEP = make_algebra("r", SIG, 3, {"f": (0, 1, 2, 2, 0, 1, 1, 1, 0), "g": (0, 1, 2), "c": (0,)})


# the grid of every _run_step call: no step runs once the step over u and v leaves nothing
@pytest.mark.parametrize("limit, grids", [(9, [9]), (8, [9, 3, 3, 3])])
def test_a_step_is_sliced_only_past_the_batch_limit(limit, grids):
    f = parse_formula("exists u v . f(u, v) = f(v, u)", SIG)
    seen, run = [], logic._run_step

    def spy(alg, env, fs, ds, grid, out, values, *rest):
        seen.append(math.prod(len(values[v]) for v in grid))
        run(alg, env, fs, ds, grid, out, values, *rest)

    with mock.patch.object(logic, "BATCH_LIMIT", limit), mock.patch.object(logic, "_run_step", spy):
        assert eval_exists_decomposed(_ONE_STEP, f) == eval_formula(_ONE_STEP, f)
    assert seen == grids


def test_a_step_over_the_work_bound_raises_with_its_cell_count():
    f = parse_formula("exists u v . f(u, v) = f(v, u)", SIG)
    with mock.patch.object(logic, "MAX_UNIVERSE", 3):  # 9 cells on 3 elements: at the bound
        assert eval_exists_decomposed(_ONE_STEP, f) == eval_formula(_ONE_STEP, f)
    with mock.patch.object(logic, "MAX_UNIVERSE", 2), pytest.raises(
        SizeGuardError, match="a solver step over 9 cells is over the limit of 6$"
    ):
        eval_exists_decomposed(_ONE_STEP, f)
    # nine bound variables in one equation on A4: 17^9 cells, counted exactly
    a4 = catalog.build("An?n=4")
    f = parse_formula(
        "exists a b c d e f g h i . "
        "join(join(join(a, b), join(c, d)), join(join(e, f), join(g, h))) = meet(i, x)",
        HSIG,
    )
    with pytest.raises(SizeGuardError, match=f"over {17**9} cells is over the limit of 17000000$"):
        eval_exists_decomposed(a4, f, {0: 0})


# --- induced functions -------------------------------------------------------


def test_induced_partial_function_sec2():
    # phi(x, y) defines y as a function of x; the witness variable is bound
    a = catalog.build("sec2.A")
    f = catalog.build("sec2.phi")[0]
    table = induced_partial_function(a, f, 1)
    assert len(table) == a.size
    for x in range(8):
        assert table[(x,)] == (3 if x == 0 else 1)

    am = catalog.build("sec2.A-minus-a4")
    pam = induced_partial_function(am, f, 1)
    assert len(pam) != am.size
    assert frozenset(pam) == frozenset((x,) for x in range(1, 7))
    assert all(pam[(x,)] == 1 for x in range(1, 7))


def test_functionality_error_carries_witness():
    a3 = catalog.build("An?n=3")
    # join(x, z) = y has many outputs y for x = zero
    f = parse_formula("exists z . join(x, z) = y", HSIG)
    with pytest.raises(FunctionalityError) as exc:
        induced_partial_function(a3, f, 1)
    assert exc.value.algebra_name == a3.name
    assert exc.value.first != exc.value.second
    assert "not functional" in str(exc.value)


def test_sec2_phi_is_functional_on_sec2():
    # induced_partial_function raises FunctionalityError on a second output
    f = catalog.build("sec2.phi")[0]
    for cid in ("sec2.A", "sec2.A-minus-a4", "sec2.B"):
        induced_partial_function(catalog.build(cid), f, 1)


def test_induced_function_var_order():
    a3 = catalog.build("An?n=3")
    f = parse_formula("meet(x, y) = z", HSIG)  # x:0 y:1 z:2
    forward = induced_partial_function(a3, f, 2)  # (x, y) -> z
    swapped = induced_partial_function(a3, f, 2, var_order=(1, 0, 2))
    for x, y in itertools.product(range(9), repeat=2):
        assert forward[(x, y)] == a3.op("meet", x, y)
        assert swapped[(y, x)] == a3.op("meet", x, y)
    with pytest.raises(ArityError):
        induced_partial_function(a3, f, 2, var_order=(0, 1))
    # a repeated variable cannot take two argument values: refused before any solve
    with mock.patch.object(logic, "project_exists", wraps=project_exists) as solve:
        for order in ((0, 0, 2), (0, 1, 1)):
            with pytest.raises(ArityError, match="repeats"):
                induced_partial_function(a3, f, 2, var_order=order)
    assert solve.call_count == 0


def _scanned_function(alg, f, arity, decide):
    """induced_partial_function rebuilt from one decision per (arguments, b)."""
    values = {}
    for args in itertools.product(range(alg.size), repeat=arity):
        outs = [b for b in range(alg.size) if decide(alg, f, {**dict(enumerate(args)), arity: b})]
        if len(outs) > 1:
            return FunctionalityError(alg.name, args, outs[0], outs[1])
        if outs:
            values[args] = outs[0]
    return values


def _projected_function(alg, f, arity):
    try:
        return induced_partial_function(alg, f, arity)
    except FunctionalityError as exc:
        return exc


def _same(got, want):
    if isinstance(want, FunctionalityError):
        assert isinstance(got, FunctionalityError)
        assert (got.arguments, got.first, got.second) == (want.arguments, want.first, want.second)
    else:
        assert got == want


def test_projected_functions_match_a_scan_per_output():
    sec2 = [catalog.build(c) for c in ("sec2.A", "sec2.A-minus-a4", "sec2.B")]
    formulas = [
        catalog.build("sec2.phi")[0],
        parse_formula("exists z . plus(x, z) = y", catalog.SEC2_SIGNATURE),
        parse_formula("exists z . dia(z) = box(y) /\\ plus(x, z) = a5", catalog.SEC2_SIGNATURE),
    ]
    for alg in sec2:
        for f in formulas:
            _same(_projected_function(alg, f, 1), _scanned_function(alg, f, 1, eval_formula))
    # phi(k, 3): the reference evaluator is too slow for k = 2, so the scan uses
    # the solver's decision path (checked against eval_formula in criterion 06)
    a3 = catalog.build("An?n=3")
    for k in (1, 2):
        f = catalog.build(f"phi?k={k}&n=3")[0]
        got = _projected_function(a3, f, 1)
        _same(got, _scanned_function(a3, f, 1, eval_exists_decomposed))
        assert got == {(a,): catalog.expected_phi_value(a3, k, a) for a in range(a3.size)}
