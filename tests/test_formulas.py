"""The formula language: walks, the reference evaluator, the parser and the
printer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uaforge import catalog
from uaforge.catalog import HEYTING_SIGNATURE
from uaforge.core import Apply, Signature, UnassignedVariableError, Variable
from uaforge.formulas import (
    NESTING_LIMIT,
    And,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    ParseError,
    eval_formula,
    format_formula,
    format_term,
    free_variables,
    is_pp,
    parse_formula,
    parse_formula_named,
)

SIG = Signature((("f", 2), ("g", 1), ("c", 0)))
HSIG = HEYTING_SIGNATURE


# --- variable bookkeeping ---------------------------------------------------


def test_variable_sets():
    f = Exists((2,), And((Eq(Variable(0), Variable(2)), Eq(Variable(1), Variable(1)))))
    assert free_variables(f) == frozenset({0, 1})
    assert is_pp(f)
    assert not is_pp(Not(Eq(Variable(0), Variable(0))))
    assert not is_pp(Forall((0,), Eq(Variable(0), Variable(0))))
    g = Implies(Not(Eq(Variable(0), Variable(1))), Exists((2,), Eq(Variable(2), Variable(3))))
    assert free_variables(g) == frozenset({0, 1, 3})



# --- reference evaluator -----------------------------------------------------


def test_eval_formula_connectives_and_quantifiers():
    a3 = catalog.build("An?n=3")
    assert eval_formula(a3, parse_formula("forall x . exists y . meet(x, y) = zero", HSIG))
    assert eval_formula(a3, parse_formula("exists x . forall y . imp(y, x) = one", HSIG))
    assert not eval_formula(a3, parse_formula("forall x . imp(x, zero) = zero", HSIG))
    assert eval_formula(a3, parse_formula("zero = one \\/ one = one", HSIG))
    assert eval_formula(a3, parse_formula("!(zero = one)", HSIG))
    assert eval_formula(a3, parse_formula("zero = one -> zero = one", HSIG))
    assert not eval_formula(a3, parse_formula("one = one -> zero = one", HSIG))
    f = parse_formula("meet(x, y) = x", HSIG)
    assert eval_formula(a3, f, {0: 0, 1: 3})


def test_eval_formula_requires_assignment():
    a3 = catalog.build("An?n=3")
    with pytest.raises(UnassignedVariableError):
        eval_formula(a3, parse_formula("x = x", HSIG))



# --- parser -------------------------------------------------------------------


def test_parse_numbering_and_names():
    f, names = parse_formula_named("meet(y, x) = x", HSIG)
    assert names == {"y": 0, "x": 1}
    assert f == Eq(Apply("meet", (Variable(0), Variable(1))), Variable(1))

    f2, names2 = parse_formula_named("exists z . z = x", HSIG)
    assert names2 == {"x": 0}
    assert f2 == Exists((1,), Eq(Variable(1), Variable(0)))


def test_parse_precedence():
    f = parse_formula("x = x /\\ y = y \\/ z = z", HSIG)
    assert isinstance(f, Or) and isinstance(f.parts[0], And)
    g = parse_formula("x = x -> y = y -> z = z", HSIG)
    assert isinstance(g, Implies) and isinstance(g.right, Implies)
    h = parse_formula("!x = y", HSIG)
    assert h == Not(Eq(Variable(0), Variable(1)))
    q = parse_formula("exists x . x = y /\\ y = x", HSIG)
    assert isinstance(q, Exists) and isinstance(q.body, And)


def test_parse_shadowing():
    f = parse_formula("exists x . (exists x . x = x) /\\ x = y", HSIG)
    assert f == Exists(
        (1,),
        And((Exists((2,), Eq(Variable(2), Variable(2))), Eq(Variable(1), Variable(0)))),
    )


def test_parse_neg_sugar():
    f = parse_formula("neg(x) = one", HSIG)
    assert f == Eq(
        Apply("imp", (Variable(0), Apply("zero", ()))), Apply("one", ())
    )
    # no sugar without imp/zero in the signature
    with pytest.raises(ParseError):
        parse_formula("neg(x) = c", SIG)


def test_parse_errors_carry_positions():
    cases = [
        "foo(x) = x",
        "meet(x) = x",
        "meet = x",
        "exists . x = x",
        "exists exists . x = x",
        "exists meet . x = x",
        "x = ",
        "(x = y",
        "x = y extra",
        "x = y = z",
    ]
    for src in cases:
        with pytest.raises(ParseError) as exc:
            parse_formula(src, HSIG)
        assert "position" in str(exc.value)
        assert exc.value.position >= 0


def test_parse_refuses_nesting_past_the_limit():
    # parentheses, negations, quantifiers, -> chains and term arguments each
    # nest one level, and the levels add up; catalog formulas nest at most 11
    shapes = [
        lambda d: "(" * d + "x = x" + ")" * d,
        lambda d: "!" * d + "x = x",
        lambda d: "exists u . " * d + "x = x",
        lambda d: " -> ".join(["x = x"] * (d + 1)),
        lambda d: "imp(" * d + "x" + ", x)" * d + " = x",
        lambda d: "neg(" * d + "x" + ")" * d + " = x",
        lambda d: "(" * (d // 2) + "!" * (d - d // 2) + "x = x" + ")" * (d // 2),
    ]
    for shape in shapes:
        parse_formula(shape(NESTING_LIMIT), HSIG)
        with pytest.raises(ParseError, match="nested over"):
            parse_formula(shape(NESTING_LIMIT + 1), HSIG)


# --- printer ------------------------------------------------------------------


def test_format_term_and_formula():
    t = Apply("imp", (Variable(0), Apply("zero", ())))
    assert format_term(t, {0: "x"}) == "imp(x, zero)"
    f = parse_formula("exists z . meet(x, z) = y", HSIG)
    assert format_formula(f, {0: "x", 1: "y", 2: "z"}) == "exists z . meet(x, z) = y"
    assert format_formula(f) == "exists v2 . meet(v0, v2) = v1"


def test_format_inserts_parens_only_when_needed():
    f = parse_formula("(x = x \\/ y = y) /\\ z = z", HSIG)
    s = format_formula(f, {0: "x", 1: "y", 2: "z"})
    assert s == "(x = x \\/ y = y) /\\ z = z"
    assert parse_formula(s, HSIG) == f


NAMES = ("x", "y", "zz", "w4", "u")


@st.composite
def source_terms(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(NAMES + ("zero", "one")))
    sym = draw(st.sampled_from(("meet", "join", "imp")))
    a = draw(source_terms(depth - 1))
    b = draw(source_terms(depth - 1))
    return f"{sym}({a}, {b})"


@st.composite
def source_formulas(draw, depth=3):
    if depth == 0:
        return f"{draw(source_terms())} = {draw(source_terms())}"
    kind = draw(
        st.sampled_from(("atom", "and", "or", "implies", "not", "exists", "forall"))
    )
    if kind == "atom":
        return f"{draw(source_terms())} = {draw(source_terms())}"
    if kind in ("and", "or", "implies"):
        op = {"and": "/\\", "or": "\\/", "implies": "->"}[kind]
        a = draw(source_formulas(depth - 1))
        b = draw(source_formulas(depth - 1))
        return f"({a}) {op} ({b})"
    if kind == "not":
        return f"!({draw(source_formulas(depth - 1))})"
    binders = " ".join(
        draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=2, unique=True))
    )
    return f"{kind} {binders} . ({draw(source_formulas(depth - 1))})"


@given(source_formulas())
@settings(max_examples=150)
def test_parse_format_round_trip(src):
    f1 = parse_formula(src, HSIG)
    s1 = format_formula(f1)
    f2 = parse_formula(s1, HSIG)
    assert f2 == f1
    assert format_formula(f2) == s1
