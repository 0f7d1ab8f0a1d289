"""First-order formulas over finite table algebras: the AST, its walks, the
reference evaluator, the parser and the printer.

Formulas use integer-indexed variables.  The ASCII surface syntax is

    formula := quant | impl
    quant   := ("exists" | "forall") ident+ "." formula
    impl    := disj ("->" impl)?
    disj    := conj ("\\/" conj)*
    conj    := neg ("/\\" neg)*
    neg     := "!" neg | atom
    atom    := term "=" term | "(" formula ")"
    term    := ident | ident "(" term ("," term)* ")"

with precedence ! > /\\ > \\/ > ->, right-associative ->, and quantifier
bodies extending as far right as possible.  Identifiers are resolved against
the algebra's operation symbols first; anything else is a variable.  Free
variables are numbered 0,1,.. in order of first use, bound variables follow
in binder order.  Each parenthesis, "!", quantifier, "->" and argument list
nests one level deeper, and the parser refuses more than NESTING_LIMIT levels.

eval_formula is the reference evaluator: quantifiers are nested loops.  It is
the oracle the pp solver in logic is checked against, so this module imports
nothing of the solver.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    AlgebraError,
    Apply,
    FiniteAlgebra,
    Signature,
    Term,
    Variable,
    eval_term,
    term_variables,
)

# ---------------------------------------------------------------------------
# formula AST


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    vars: tuple[int, ...]
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    vars: tuple[int, ...]
    body: "Formula"


Formula = Eq | And | Or | Implies | Not | Exists | Forall


def _subformulas(f: Formula) -> tuple:
    """The immediate subformulas of f, in order; an equation has none."""
    if isinstance(f, Eq):
        return ()
    if isinstance(f, (And, Or)):
        return f.parts
    if isinstance(f, Implies):
        return (f.left, f.right)
    if isinstance(f, (Not, Exists, Forall)):
        return (f.body,)
    raise TypeError(f"not a formula: {f!r}")


def free_variables(f: Formula) -> frozenset[int]:
    if isinstance(f, Eq):
        return term_variables(f.lhs) | term_variables(f.rhs)
    out = frozenset().union(*map(free_variables, _subformulas(f)))
    return out - frozenset(f.vars) if isinstance(f, (Exists, Forall)) else out


def is_pp(f: Formula) -> bool:
    """Positive primitive: equations combined with conjunction and exists only."""
    return isinstance(f, (Eq, And, Exists)) and all(map(is_pp, _subformulas(f)))


# ---------------------------------------------------------------------------
# plain evaluation


def _eval(alg: FiniteAlgebra, f: Formula, env: dict[int, int]) -> bool:
    if isinstance(f, Eq):
        return eval_term(alg, f.lhs, env) == eval_term(alg, f.rhs, env)
    if isinstance(f, And):
        return all(_eval(alg, p, env) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval(alg, p, env) for p in f.parts)
    if isinstance(f, Implies):
        return (not _eval(alg, f.left, env)) or _eval(alg, f.right, env)
    if isinstance(f, Not):
        return not _eval(alg, f.body, env)
    if isinstance(f, (Exists, Forall)):
        return _eval_quant(alg, f.vars, f.body, env, isinstance(f, Exists))
    raise TypeError(f"not a formula: {f!r}")


_MISSING = object()


def _eval_quant(alg, vars, body, env, existential):
    if not vars:
        return _eval(alg, body, env)
    v, rest = vars[0], vars[1:]
    saved = env.get(v, _MISSING)
    try:
        for val in range(alg.size):
            env[v] = val
            if _eval_quant(alg, rest, body, env, existential) == existential:
                return existential
        return not existential
    finally:
        if saved is _MISSING:
            env.pop(v, None)
        else:
            env[v] = saved


def eval_formula(alg: FiniteAlgebra, f: Formula, env=None) -> bool:
    """Reference evaluator: quantifiers are nested loops over the universe.
    env is a dict from variable index to element."""
    return _eval(alg, f, dict(env or {}))


def reference_cost(size: int, f: Formula) -> int:
    """Equations the reference evaluator may check: connectives add, and a
    quantifier multiplies its body by the number of assignments it tries."""
    if isinstance(f, Eq):
        return 1
    cost = sum(reference_cost(size, p) for p in _subformulas(f))
    return size ** len(f.vars) * cost if isinstance(f, (Exists, Forall)) else cost


# ---------------------------------------------------------------------------
# parsing

_RESERVED = ("exists", "forall")

NESTING_LIMIT = 100  # the deepest nesting the parser accepts, in levels

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<symbol>->|/\\|\\/|[()=.,!])"
)


class ParseError(AlgebraError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(src: str):
    pos = 0
    out = []
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        if m.lastgroup != "ws":
            # an identifier's kind is "ident"; every other token is its own kind
            text = m.group()
            out.append(("ident" if m.lastgroup == "ident" else text, text, pos))
        pos = m.end()
    out.append(("eof", "", len(src)))
    return out


class _Parser:
    def __init__(self, src: str, sig: Signature):
        self.src = src
        self.sig = sig
        self.tokens = _tokenize(src)
        self.i = 0
        self.scopes: list[dict[str, int]] = []
        self.free: dict[str, int] = {}
        self.bound_order: list[int] = []
        self.entities = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def _fresh(self):
        self.entities += 1
        return self.entities - 1

    def _nested(self, parse, pos):
        """parse() one level of nesting deeper; a failed parse is not resumed."""
        if self.depth >= NESTING_LIMIT:
            raise ParseError(f"formula nested over {NESTING_LIMIT} levels", pos)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    # grammar

    def formula(self) -> Formula:
        kind, text, _pos = self.peek()
        if kind == "ident" and text in _RESERVED:
            return self.quantified()
        return self.implication()

    def quantified(self) -> Formula:
        kind, kw, pos = self.advance()
        placeholders = []
        scope: dict[str, int] = {}
        while True:
            k, name, p = self.peek()
            if k != "ident":
                break
            if name in _RESERVED:
                raise ParseError(f"{name!r} is a reserved word", p)
            if name in self.sig:
                raise ParseError(f"cannot bind operation symbol {name!r}", p)
            self.advance()
            ph = self._fresh()
            scope[name] = ph
            self.bound_order.append(ph)
            placeholders.append(ph)
        if not placeholders:
            raise ParseError(f"{kw!r} needs at least one variable", pos)
        self.expect(".")
        self.scopes.append(scope)
        body = self._nested(self.formula, pos)
        self.scopes.pop()
        cls = Exists if kw == "exists" else Forall
        return cls(tuple(placeholders), body)

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            pos = self.advance()[2]
            return Implies(left, self._nested(self.implication, pos))
        return left

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek()[0] == "\\/":
            self.advance()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.negation()]
        while self.peek()[0] == "/\\":
            self.advance()
            parts.append(self.negation())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def negation(self) -> Formula:
        if self.peek()[0] == "!":
            pos = self.advance()[2]
            return Not(self._nested(self.negation, pos))
        return self.atom()

    def atom(self) -> Formula:
        if self.peek()[0] == "(":
            pos = self.advance()[2]
            f = self._nested(self.formula, pos)
            self.expect(")")
            return f
        lhs = self.term()
        self.expect("=")
        return Eq(lhs, self.term())

    def term(self) -> Term:
        kind, name, pos = self.advance()
        if kind != "ident":
            raise ParseError(f"expected a term, found {name or 'end of input'!r}", pos)
        if name in _RESERVED:
            raise ParseError(f"{name!r} is a reserved word", pos)
        if name in self.sig:
            arity = self.sig.arity(name)
            if self.peek()[0] == "(":
                args = self._nested(self._args, pos)
                if len(args) != arity:
                    raise ParseError(
                        f"{name!r} expects {arity} arguments, got {len(args)}", pos
                    )
                return Apply(name, tuple(args))
            if arity != 0:
                raise ParseError(f"{name!r} expects {arity} arguments, got 0", pos)
            return Apply(name, ())
        if self.peek()[0] == "(":
            # sugar: neg(t) stands for imp(t, zero) when those symbols exist
            if name == "neg" and "imp" in self.sig and "zero" in self.sig:
                args = self._nested(self._args, pos)
                if len(args) != 1:
                    raise ParseError(f"'neg' expects 1 argument, got {len(args)}", pos)
                return Apply("imp", (args[0], Apply("zero", ())))
            raise ParseError(f"unknown operation symbol {name!r}", pos)
        return Variable(self._resolve(name))

    def _args(self) -> list[Term]:
        self.expect("(")
        args = [self.term()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.term())
        self.expect(")")
        return args

    def _resolve(self, name: str) -> int:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name not in self.free:
            self.free[name] = self._fresh()
        return self.free[name]

    def parse(self):
        f = self.formula()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text!r} after formula", pos)
        # renumber: free variables by first use, then bound by binder order
        final: dict[int, int] = {}
        for ph in self.free.values():
            final[ph] = len(final)
        names = {v: k for k, v in self.free.items()}
        free_map = {names[ph]: final[ph] for ph in self.free.values()}
        for ph in self.bound_order:
            final[ph] = len(final)
        return _renumber(f, final), free_map


def _renumber(f: Formula, final: dict[int, int]) -> Formula:
    def term(t: Term) -> Term:
        if isinstance(t, Variable):
            return Variable(final[t.index])
        return Apply(t.symbol, tuple(term(a) for a in t.args))

    if isinstance(f, Eq):
        return Eq(term(f.lhs), term(f.rhs))
    parts = tuple(_renumber(p, final) for p in _subformulas(f))
    if isinstance(f, (And, Or)):
        return type(f)(parts)
    if isinstance(f, (Exists, Forall)):
        return type(f)(tuple(final[v] for v in f.vars), *parts)
    return type(f)(*parts)


def parse_formula_named(src: str, sig: Signature) -> tuple[Formula, dict[str, int]]:
    """Parse and also report the name -> index mapping of the free variables."""
    return _Parser(src, sig).parse()


def parse_formula(src: str, sig: Signature) -> Formula:
    return parse_formula_named(src, sig)[0]


# ---------------------------------------------------------------------------
# printing

_LEVEL_QUANT, _LEVEL_IMPL, _LEVEL_DISJ, _LEVEL_CONJ, _LEVEL_NEG = 0, 1, 2, 3, 4


def format_term(t: Term, names=None) -> str:
    def name(i):
        if names is not None and i in names:
            return names[i]
        return f"v{i}"

    if isinstance(t, Variable):
        return name(t.index)
    if not t.args:
        return t.symbol
    return f"{t.symbol}({', '.join(format_term(a, names) for a in t.args)})"


def format_formula(f: Formula, names=None) -> str:
    """Render back into the surface syntax (re-parseable)."""

    def go(f, min_level):
        if isinstance(f, Eq):
            return f"{format_term(f.lhs, names)} = {format_term(f.rhs, names)}"
        if isinstance(f, Not):
            s = "!" + go(f.body, _LEVEL_NEG)
            level = _LEVEL_NEG
        elif isinstance(f, And):
            s = " /\\ ".join(go(p, _LEVEL_NEG) for p in f.parts)
            level = _LEVEL_CONJ
        elif isinstance(f, Or):
            s = " \\/ ".join(go(p, _LEVEL_CONJ) for p in f.parts)
            level = _LEVEL_DISJ
        elif isinstance(f, Implies):
            s = f"{go(f.left, _LEVEL_DISJ)} -> {go(f.right, _LEVEL_IMPL)}"
            level = _LEVEL_IMPL
        elif isinstance(f, (Exists, Forall)):
            kw = "exists" if isinstance(f, Exists) else "forall"
            bound = " ".join(format_term(Variable(v), names) for v in f.vars)
            s = f"{kw} {bound} . {go(f.body, _LEVEL_QUANT)}"
            level = _LEVEL_QUANT
        else:
            raise TypeError(f"not a formula: {f!r}")
        if level < min_level:
            return f"({s})"
        return s

    return go(f, _LEVEL_QUANT)
