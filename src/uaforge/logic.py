"""First-order formulas over finite table algebras.

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

eval_formula is the reference evaluator: quantifiers are nested loops.  The
pp solver (project_exists, eval_exists_decomposed) compiles an existential
conjunction of equations into blocks of plans on each call, evaluating terms
over numpy arrays; other formulas go to the reference.  The plans of one call
share one memo, and nothing outlives the call.  Its keys are tagged by kind.
A cut's is its conjunct's shape with its variable erased and the values of
the others, so that conjuncts equal up to renaming that variable share it, or
the conjunct's id when env misses one; a membership of a bare variable is its
own cut.  An operation image's is its symbol and its arguments' images, and a
definition image's its term's id and its variables' domains.  Every plan the
call builds is kept until the call ends: a freed conjunct's id could be
reused by a later block's, which would read the freed one's cut, or its walk
and scope, which are read once per call too.

An equation whose grid over the full domains has more than BATCH_LIMIT cells
and one side ground (every variable assigned by env) is split: t = c becomes
the membership t in {c}, and a membership t in U passes to the arguments of
t along the preimage of U, read off the operation's grid once per call.  A
binary preimage that is one rectangle R x C gives memberships of both
arguments; two rectangles give two alternatives, whose results are or-ed.  No
split is made that would take the combinations of the alternatives of the
top or block holding it over 64.

Conjuncts are linked through their bound variables that are neither kept nor
defined (below).  A linked group that holds a conjunct to split is a block,
and its other variables (those its definitions produce, and kept ones) are
its interface; the other conjuncts are the top.  With fewer than two
conjuncts to split the formula is one block.  Otherwise the blocks are taken
in order, and a block stays apart while the top, kept over the kept
variables and the interfaces of the blocks apart, has at most BATCH_LIMIT
cells; a block that would push it over folds into the top, whose branches
are then every combination of its conjuncts' alternatives.  The top is split,
planned and solved first.  Then each block apart in turn is split and
planned, and ors its branches into a factor over its interface, with each
interface variable's domain cut to the projection of the result so far, and
that factor is and-ed into the result; once the result is empty no block is
split.  The result is then projected onto the kept variables.  This is sound
because

    exists V (T /\\ B1 /\\ .. /\\ Bk)
        ==  exists W (T /\\ (exists Z1 B1) /\\ .. /\\ (exists Zk Bk))

when Z1..Zk, the blocks' linking variables, are pairwise disjoint and absent
from T, and W is the rest of V.

An equation or membership over one bound variable cuts that variable's
domain.  An equation v = t with v bound or kept and not in t defines v,
which is then computed from t instead of enumerated.  Every other conjunct is
a boolean factor over a sparse numpy grid of its variables' domains.  After
the cuts, the definitions are gone over until a round drops none: one over
more than BATCH_LIMIT cells, or whose reads have one value each, cuts the
domain of its variable to the image of its term and is dropped when that
image is one value, and the definition of a variable left with one value
becomes a factor, its term's membership in that value.  Then a variable with
one value is ground, unless a definition defines it: it takes that value and
leaves the scope of every factor and definition, a factor left over no
variable is checked once, and a kept one is fixed in the result.  A bound
variable that no factor or definition mentions is settled once its domain
is nonempty.  The others are eliminated smallest step first
(bucket elimination): a step ands the factors that mention its variable, and
those inside the step's grid, and projects out every variable needed nowhere
else.  A step is chosen before it is built: each candidate's grid cells are
counted from the scopes of the factors and definitions touching its
variable, and the candidates are built fewest cells first, ties in plan
order, until one keeps at most BATCH_LIMIT cells.  No step runs once no
variable, factor or definition is left, nor over a grid whose every variable
has one value.  A step over BATCH_LIMIT cells is sliced along one
variable, and a step over MAX_UNIVERSE cells per element of the universe
raises SizeGuardError: slicing bounds the memory of a step, not its time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .core import (
    MAX_UNIVERSE,
    AlgebraError,
    Apply,
    ArityError,
    FiniteAlgebra,
    Signature,
    SizeGuardError,
    Term,
    UnassignedVariableError,
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


def _term_vars_ordered(t: Term, out: list[int]) -> None:
    out.extend((t.index,) if isinstance(t, Variable) else t._walk)


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


def _flatten_and(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        out: list[Formula] = []
        for p in f.parts:
            out.extend(_flatten_and(p))
        return out
    return [f]


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


# ---------------------------------------------------------------------------
# vectorized term evaluation


def eval_term_batch(alg: FiniteAlgebra, t: Term, env):
    """Evaluate a term where env values may be numpy arrays (broadcast together)."""
    if isinstance(t, Variable):
        try:
            return env[t.index]
        except KeyError:
            raise UnassignedVariableError(f"variable v{t.index} unassigned") from None
    arity = alg.signature.arity(t.symbol)
    if len(t.args) != arity:
        raise ArityError(f"{t.symbol!r} expects {arity} arguments, got {len(t.args)}")
    out = alg.grids[t.symbol][tuple(eval_term_batch(alg, a, env) for a in t.args)]
    return int(out) if isinstance(out, np.integer) else out


# ---------------------------------------------------------------------------
# the pp solver

BATCH_LIMIT = 1 << 20  # the largest array, in cells, the solver builds


class _Plan(NamedTuple):
    variables: tuple  # the bound variables that occur, then the kept ones
    kept: tuple
    ground: tuple  # conjuncts over free variables only
    unary: tuple  # (v, conjunct, its key in the call's memo): cuts the domain of v
    factors: tuple  # (scope, conjunct)
    definitions: dict  # v -> (term, the term's scope)


class _Member(NamedTuple):
    """The conjunct t in allowed, allowed a boolean array over the universe."""

    term: Term
    allowed: np.ndarray


def _holds(alg: FiniteAlgebra, c, env):
    """Where the equation or membership c holds, broadcast over the arrays in env."""
    if isinstance(c, Eq):
        return eval_term_batch(alg, c.lhs, env) == eval_term_batch(alg, c.rhs, env)
    return c.allowed[eval_term_batch(alg, c.term, env)]


def _define(c: Eq, walk: list[int], scope, definitions: dict) -> bool:
    """Record c as a definition v = t when v is a solver variable that occurs
    once in c and that t does not come to depend on through other definitions."""
    for side, term in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
        v = side.index if isinstance(side, Variable) else None
        if v not in scope or v in definitions or walk.count(v) > 1:
            continue
        reach = [u for u in scope if u != v]
        for u in reach:  # grows while it is read: the variables t depends on
            if u in definitions:
                reach.extend(w for w in definitions[u][1] if w not in reach)
        if v not in reach:
            definitions[v] = (term, tuple(u for u in scope if u != v))
            return True
    return False


def _members(alg: FiniteAlgebra, t: Term, allowed: np.ndarray, env: dict, preimages: dict) -> list:
    """t in allowed as alternatives (lists of memberships) whose disjunction is
    exact.  It passes to the argument of a unary operation, or of a binary one
    with a ground argument, along the preimage read off the grid.  A binary
    preimage with one or two distinct nonempty rows C is the union of the
    maximal rectangles R x C: memberships of the arguments in R and in C.  A
    term over at most one solver variable, any other preimage, and a split
    into over 64 alternatives stay whole.  Each preimage, and the rectangles
    of a binary one, depend only on the symbol and allowed: preimages holds
    them for the call, so each is read once."""
    data = allowed.tobytes()
    if b"\0" not in data:  # every value is allowed
        return [[]]
    if isinstance(t, Variable) or len(t.args) > 2 or len(t._variables - env.keys()) <= 1:
        return [[_Member(t, allowed)]]
    key = (t.symbol, data)
    if key not in preimages:
        preimages[key] = allowed[alg.grids[t.symbol]]
    pre = preimages[key]
    if len(t.args) == 1:
        return _members(alg, t.args[0], pre, env, preimages)
    left, right = t.args
    if term_variables(left) <= env.keys():
        return _members(alg, right, pre[eval_term(alg, left, env)], env, preimages)
    if term_variables(right) <= env.keys():
        return _members(alg, left, pre[:, eval_term(alg, right, env)], env, preimages)
    key += ("rectangles",)
    if key not in preimages:
        # the distinct nonempty rows, by their bytes: np.unique(axis=0) imports numpy.ma
        cells, n = pre.tobytes(), alg.size
        distinct = {cells[r * n : r * n + n]: r for r in range(n)}  # a row of each pattern
        patterns = [pre[r] for row, r in distinct.items() if b"\1" in row]
        preimages[key] = None
        if len(patterns) <= 2:
            preimages[key] = [(pre[:, p].all(axis=1), p) for p in patterns]
    rectangles = preimages[key]
    alternatives = [
        a + b
        for rows, p in rectangles or ()
        for a in _members(alg, left, rows, env, preimages)
        for b in _members(alg, right, p, env, preimages)
    ]
    return [[_Member(t, allowed)]] if rectangles is None or len(alternatives) > 64 else alternatives


def _walk(c, solver_vars: set, walks: dict) -> tuple:
    """The variable walk of the conjunct c and its scope, the solver variables
    in order of first occurrence; each conjunct is read once per call."""
    if id(c) not in walks:
        walk: list[int] = []
        for t in (c.lhs, c.rhs) if isinstance(c, Eq) else (c.term,):
            _term_vars_ordered(t, walk)
        walks[id(c)] = walk, tuple(dict.fromkeys(v for v in walk if v in solver_vars))
    return walks[id(c)]


def _cut_key(c, walk: list[int], v: int, env: dict):
    """The memo key of the cut the unary conjunct c makes on the domain of v,
    as the module docstring says; None for a membership of v itself."""
    if isinstance(c, _Member) and isinstance(c.term, Variable):
        return None
    values = tuple(map(env.get, walk))  # None at v, and at each variable env misses
    if values.count(None) > walk.count(v):
        return id(c)
    if isinstance(c, _Member):
        return _Member, c.term._shape, c.allowed.tobytes(), values
    return Eq, c.lhs._shape, c.rhs._shape, values


def _plan(conjuncts: list, kept: tuple, solver_vars: set, walks: dict, env: dict) -> _Plan:
    """The plan of one branch: its conjuncts sorted into ground checks, domain
    cuts, definitions and factors."""
    occurring: dict[int, None] = {}
    ground, unary, factors, definitions = [], [], [], {}
    for c in conjuncts:
        walk, scope = _walk(c, solver_vars, walks)
        occurring.update(dict.fromkeys(scope))
        if not scope:
            ground.append(c)
        elif len(scope) == 1:
            unary.append((scope[0], c, _cut_key(c, walk, scope[0], env)))
        elif not (isinstance(c, Eq) and _define(c, walk, scope, definitions)):
            factors.append((scope, c))
    variables = tuple(occurring) + tuple(v for v in kept if v not in occurring)
    return _Plan(variables, kept, tuple(ground), tuple(unary), tuple(factors), definitions)


def _compile(alg: FiniteAlgebra, f: Formula, kept: tuple, env: dict) -> list[tuple] | None:
    """The blocks of an existential conjunction of equations, the top first,
    each a pair (the variables it is kept over, the plans of its branches,
    to be or-ed, or for a block apart a function that splits and plans it);
    None for any other formula.  env assigns no variable of kept or f.vars.
    The top is kept over kept, then the interface variables of the blocks
    apart; each of those over its interface."""
    conjuncts = _flatten_and(f.body) if isinstance(f, Exists) else []
    if not conjuncts or not all(isinstance(c, Eq) for c in conjuncts):
        return None
    solver_vars = set(f.vars) | set(kept)
    walks: dict = {}
    preimages: dict = {}
    built: list = []  # every plan of the call, kept alive for the keys by id()
    scopes = [_walk(c, solver_vars, walks)[1] for c in conjuncts]
    split = {}  # index -> (the ground side, the other) of each conjunct to split
    for i, c in enumerate(conjuncts):
        if alg.size ** len(scopes[i]) > BATCH_LIMIT:
            for side, other in ((c.lhs, c.rhs), (c.rhs, c.lhs)):
                if term_variables(side) <= env.keys():
                    split[i] = side, other
                    break

    def plans(group, kept):
        branches: list[list] = [[]]
        for i in group:
            alternatives = [[conjuncts[i]]]
            if i in split:
                side, other = split[i]
                value = np.arange(alg.size) == eval_term(alg, side, env)
                members = _members(alg, other, value, env, preimages)
                if len(branches) * len(members) <= 64:
                    alternatives = members
            branches = [b + a for b in branches for a in alternatives]
        built.append([_plan(b, kept, solver_vars, walks, env) for b in branches])
        return built[-1]

    everything = range(len(conjuncts))
    if len(split) < 2:
        return [(kept, plans(everything, kept))]
    definitions: dict = {}
    for c, scope in zip(conjuncts, scopes):
        if len(scope) > 1:
            _define(c, _walk(c, solver_vars, walks)[0], scope, definitions)
    links = set(f.vars).difference(kept, definitions)
    groups: list[tuple[set, list]] = []  # (its linking variables, its conjuncts' indices)
    for i, scope in enumerate(scopes):
        own = links.intersection(scope)
        joined = [g for g in groups if g[0] & own]
        groups = [g for g in groups if not g[0] & own]
        members = sorted([i, *(j for g in joined for j in g[1])])
        groups.append((own.union(*(g[0] for g in joined)), members))
    blocks = sorted(g for _links, g in groups if any(i in split for i in g))
    top = [i for i in everything if not any(i in g for g in blocks)]
    axes, apart = kept, []
    for g in blocks:
        interface = dict.fromkeys(v for i in g for v in scopes[i] if v not in links)
        wider = axes + tuple(v for v in interface if v not in axes)
        if alg.size ** len(wider) <= BATCH_LIMIT:
            axes = wider
            apart.append((g, interface))
        else:
            top = sorted(top + g)
    over = [(g, tuple(v for v in axes if v in vs)) for g, vs in apart]
    return [(axes, plans(top, axes))] + [(vs, lambda g=g, vs=vs: plans(g, vs)) for g, vs in over]


def _image(alg: FiniteAlgebra, t: Term, env: dict, dom: dict, images: dict) -> np.ndarray:
    """A boolean over the universe that holds at every value t takes with its
    variables in env or in their domains in dom; images holds the call's."""
    if isinstance(t, Variable):
        if t.index in env:
            return np.arange(alg.size) == env[t.index]
        return dom[t.index] if t.index in dom else np.ones(alg.size, dtype=bool)
    args = [_image(alg, a, env, dom, images) for a in t.args]
    key = (Apply, t.symbol, *(a.tobytes() for a in args))
    if key not in images:
        where = [a.nonzero()[0] for a in args]
        if len(where) == 2:
            where = [where[0][:, None], where[1]]
        elif len(where) > 2:
            where = np.ix_(*where)
        images[key] = np.zeros(alg.size, dtype=bool)
        images[key][alg.grids[t.symbol][tuple(where)]] = True
    return images[key]


def _scope(x, factors, definitions, kept):
    """The definitions touching x (all when x is None), and the variables of
    the step that eliminates x: x (kept when x is None), then those of the
    factors and definitions touching x."""
    ds = {v: d for v, d in definitions.items() if x is None or x == v or x in d[1]}
    scope = dict.fromkeys(kept if x is None else (x,))
    touching = [s for s, _c in factors if x is None or x in s]
    for vs in touching + [(v, *uses) for v, (_t, uses) in ds.items()]:
        scope.update(dict.fromkeys(vs))
    return ds, scope


def _step(x, factors, definitions, kept):
    """The step that eliminates x (every variable when x is None): the
    definitions touching x, every factor over the step's variables, the grid
    variables, and the variables still needed elsewhere, which it keeps."""
    ds, scope = _scope(x, factors, definitions, kept)
    fs = [fa for fa in factors if scope.keys() >= set(fa[0])]
    elsewhere = set(kept).union(
        *(s for s, _c in factors if not scope.keys() >= set(s)),
        *((v, *d[1]) for v, d in definitions.items() if v not in ds),
    )
    out = kept if x is None else tuple(v for v in scope if v in elsewhere)
    return fs, ds, tuple(v for v in scope if v not in ds), out


def _next_step(alg, todo, factors, definitions, kept, values):
    """The step to run next: of the candidates in todo (None alone when todo
    is empty) whose step keeps at most BATCH_LIMIT cells, the one with the
    fewest grid cells, the first in todo on ties; None when no step fits.
    Cells are counted from the scopes, and the candidates are built in that
    order until one fits."""
    def cells(x):
        ds, scope = _scope(x, factors, definitions, kept)
        return math.prod(len(values[v]) for v in scope if v not in ds)

    candidates = todo or [None]
    for n, i in sorted((cells(x), i) for i, x in enumerate(candidates)):
        step = _step(candidates[i], factors, definitions, kept)
        if alg.size ** len(step[3]) <= BATCH_LIMIT:
            if n > MAX_UNIVERSE * alg.size:  # slicing bounds memory, not time
                raise SizeGuardError(
                    f"{alg.name}: a solver step over {n} cells is over the limit of "
                    f"{MAX_UNIVERSE * alg.size}"
                )
            return step
    return None


def _run_step(alg, env, fs, ds, grid, out, values, dom, result) -> None:
    """Set result (over out) at each projection of a grid cell that satisfies
    the step; a grid over BATCH_LIMIT cells is cut into slices along one axis."""
    shape = tuple(len(values[v]) for v in grid)
    if math.prod(shape) > BATCH_LIMIT:
        v = max(grid, key=lambda u: len(values[u]))
        for i in range(len(values[v])):
            _run_step(alg, env, fs, ds, grid, out, {**values, v: values[v][i : i + 1]}, dom, result)
        return
    benv = dict(env)
    benv.update(zip(grid, np.meshgrid(*(values[v] for v in grid), indexing="ij", sparse=True)))
    mask = np.True_
    pending = dict(ds)
    while pending:  # definitions in dependency order; each value must be in its domain
        for v, (t, uses) in list(pending.items()):
            if all(u in benv for u in uses):
                benv[v] = eval_term_batch(alg, t, benv)
                mask = mask & dom[v][benv[v]]
                del pending[v]
    for scope, c in fs:
        if isinstance(c, np.ndarray):
            mask = mask & c[tuple(benv[v] for v in scope)]
        else:
            mask = mask & _holds(alg, c, benv)
    mask = np.broadcast_to(mask, shape)
    if not out:
        result |= mask.any()
        return
    hit = np.nonzero(mask)
    result[tuple(np.broadcast_to(benv[v], shape)[hit] for v in out)] = True


def _solve(alg: FiniteAlgebra, plan: _Plan, env: dict, cuts: dict, images: dict):
    """The factor over plan.kept, each variable's domain starting from its
    boolean over the universe in cuts, if any; None when a step's result
    would be over BATCH_LIMIT cells.  images is the call's memo of cuts and
    images, each computed when a plan first needs it."""
    size = alg.size
    nothing = np.zeros((size,) * len(plan.kept), dtype=bool)
    if not all(_holds(alg, c, env) for c in plan.ground):
        return nothing
    # the rows of one array, each cut copied into its own
    dom = dict(zip(plan.variables, np.ones((len(plan.variables), size), dtype=bool)))
    for v, cut in cuts.items():
        dom[v][:] = cut
    for v, c, key in plan.unary:
        if key is not None and key not in images:
            images[key] = _holds(alg, c, {**env, v: np.arange(size)})
        dom[v] &= c.allowed if key is None else images[key]
        if b"\1" not in dom[v].tobytes():  # no value is left
            return nothing
    factors, definitions = list(plan.factors), dict(plan.definitions)
    dropped = True
    while dropped:  # a dropped definition may leave another's reads with one value each
        dropped = False
        for v, (t, uses) in list(definitions.items()):
            image = None
            if size ** len(uses) > BATCH_LIMIT or all(dom[u].sum() == 1 for u in uses):
                key = (id(t), *(dom[u].tobytes() for u in uses))
                if key not in images:
                    images[key] = _image(alg, t, env, dom, images)
                image = images[key]
                # not in place: the image of a bare variable u, which images holds, is dom[u]
                dom[v] = dom[v] & image
                if not dom[v].any():
                    return nothing
            if dom[v].sum() == 1:  # t must take v's value: a factor, unless t takes no other
                if image is None or image.sum() > 1:
                    factors.append((uses, _Member(t, dom[v])))
                del definitions[v]
                dropped = True
    values = {v: d.nonzero()[0] for v, d in dom.items()}
    # every definition left defines a variable with two or more values and
    # reads one; every other variable with one value is ground
    ground = {v: int(a[0]) for v, a in values.items() if len(a) == 1 and v not in definitions}
    kept = tuple(v for v in plan.kept if v not in ground)
    if ground:
        env = {**env, **ground}
        factors = [(tuple(u for u in s if u not in ground), c) for s, c in factors]
        if not all(_holds(alg, c, env) for s, c in factors if not s):
            return nothing
        factors = [fa for fa in factors if fa[0]]
        definitions = {
            v: (t, tuple(u for u in uses if u not in ground)) for v, (t, uses) in definitions.items()
        }
    # a bound variable that no factor or definition mentions has a nonempty
    # domain, so it is settled already
    defining = set().union(*((v, *d[1]) for v, d in definitions.items()))
    linked = defining.union(*(s for s, _c in factors))
    todo = [v for v in plan.variables if v in linked and v not in plan.kept]
    fixed = tuple(ground.get(v, slice(None)) for v in plan.kept)  # the result's cells over kept
    while todo or factors or definitions or kept:
        step = _next_step(alg, todo, factors, definitions, kept, values)
        if step is None:
            return None
        fs, ds, grid, out = step
        result = np.zeros((size,) * len(out), dtype=bool)
        _run_step(alg, env, fs, ds, grid, out, values, dom, result)
        if not todo:
            nothing[fixed] = result
            return nothing
        factors = [fa for fa in factors if not any(fa is g for g in fs)]
        if out:
            factors.append((out, result))
        elif not result:
            return nothing
        definitions = {v: d for v, d in definitions.items() if v not in ds}
        todo = [v for v in todo if v in out or v not in grid and v not in ds]
    nothing[fixed] = True
    return nothing


def _either(alg: FiniteAlgebra, kept: tuple, plans: list, env: dict, cuts: dict, images: dict):
    """The or of the plans' factors over kept, each solved by _solve with
    cuts and images; None when a plan is too big."""
    result = np.zeros((alg.size,) * len(kept), dtype=bool)
    for plan in plans:
        if result.all():
            break
        branch = _solve(alg, plan, env, cuts, images)
        if branch is None:
            return None
        result |= branch
    return result


def _reference_cost(size: int, f: Formula) -> int:
    """Equations the reference evaluator may check: connectives add, and a
    quantifier multiplies its body by the number of assignments it tries."""
    if isinstance(f, Eq):
        return 1
    cost = sum(_reference_cost(size, p) for p in _subformulas(f))
    return size ** len(f.vars) * cost if isinstance(f, (Exists, Forall)) else cost


def project_exists(alg: FiniteAlgebra, f: Formula, kept, env=None) -> np.ndarray:
    """Boolean array, one axis of length alg.size per kept variable, True
    where f holds; the other free variables take their values from env.

    The blocks are compiled on every call and solved as the module
    docstring says.  When a step's result would be over BATCH_LIMIT cells,
    the kept variables are fixed one at a time.  Formulas other than
    existential conjunctions of equations, and plans that are still too
    big, go to the reference evaluator; when it would check over
    MAX_UNIVERSE equations, SizeGuardError is raised instead.  A step over
    MAX_UNIVERSE * alg.size cells raises SizeGuardError too.  A repeated
    kept variable raises ArityError before any solve.
    """
    kept = tuple(kept)
    # a repeated variable would be bound to two values at once
    if len(set(kept)) != len(kept):
        raise ArityError(f"kept repeats a variable: {kept}")
    bound = f.vars if isinstance(f, Exists) else ()
    env = {v: a for v, a in (env or {}).items() if v not in kept and v not in bound}
    solved = tuple(v for v in kept if v not in bound)
    shape = (alg.size,) * len(kept)
    blocks = _compile(alg, f, solved, env)
    if blocks is not None:
        images: dict = {}  # the call's memo of cuts and images, for every plan
        (over, top), *others = blocks  # over: solved, then the others' interface variables
        result = _either(alg, over, top, env, {}, images)
        for interface, plans in others:
            if result is None or not result.any():
                break
            cuts = {
                v: result.any(axis=tuple(j for j, u in enumerate(over) if u != v)) for v in interface
            }
            factor = _either(alg, interface, plans(), env, cuts, images)
            result = None if factor is None else result & factor.reshape(
                [alg.size if v in interface else 1 for v in over]
            )
        if result is not None:
            result = result.any(axis=tuple(range(len(solved), len(over))))
        if result is None and solved:  # a step over the kept variables is too big: slice
            v, rest = solved[0], solved[1:]
            slices = [project_exists(alg, f, rest, {**env, v: a}) for a in range(alg.size)]
            result = np.stack(slices)
        if result is not None:
            axes = [alg.size if v in solved else 1 for v in kept]
            return np.broadcast_to(result.reshape(axes), shape)
    if alg.size ** len(kept) * _reference_cost(alg.size, f) > MAX_UNIVERSE:
        raise SizeGuardError(
            f"{alg.name}: the reference evaluator would check over the limit of {MAX_UNIVERSE} equations"
        )
    cells = product(range(alg.size), repeat=len(kept))
    found = [_eval(alg, f, {**env, **dict(zip(kept, c))}) for c in cells]
    return np.array(found, dtype=bool).reshape(shape)


def eval_exists_decomposed(alg: FiniteAlgebra, f: Formula, env=None) -> bool:
    """Equivalent to eval_formula: project_exists with no kept variables."""
    return bool(project_exists(alg, f, (), env))


# ---------------------------------------------------------------------------
# definable functions


class FunctionalityError(AlgebraError):
    # note: "arguments", not "args" -- BaseException.args is the message tuple
    def __init__(self, algebra_name, arguments, first, second):
        super().__init__(
            f"formula is not functional on {algebra_name!r}: arguments {arguments} "
            f"admit outputs {first} and {second}"
        )
        self.algebra_name = algebra_name
        self.arguments = arguments
        self.first = first
        self.second = second


class TotalityError(AlgebraError):
    def __init__(self, algebra_name, arguments):
        super().__init__(
            f"formula is not total on {algebra_name!r}: arguments {arguments} "
            "have no output"
        )
        self.algebra_name = algebra_name
        self.arguments = arguments


def induced_partial_function(alg: FiniteAlgebra, f: Formula, arity: int, var_order=None) -> dict:
    """Partial function defined by f(x1..xn, y) with y the last variable, as
    a dict from each argument tuple that has an output to that output.

    var_order lists distinct variable indices playing the roles (x1..xn, y);
    it defaults to (0..arity), and a repeated index raises ArityError before
    any solve.  One solve per argument tuple projects f onto y.
    Raises FunctionalityError on the first argument tuple (in lexicographic
    order) with two distinct outputs, naming its two smallest outputs, and
    SizeGuardError when there are over MAX_UNIVERSE argument tuples.
    """
    return _function_table(alg, f, arity, var_order, [tuple(range(alg.size))])


def _function_table(alg, f, arity, var_order, group) -> dict:
    """induced_partial_function with each solve's outputs carried to the
    images of its tuple under every map in group, which must hold the
    identity and automorphisms of alg only; a tuple that an earlier solve
    reached is not solved."""
    if arity < 0:
        raise ArityError("arity must be non-negative")
    # bound the arity first: size**arity of a huge arity is itself too big to form
    if arity > MAX_UNIVERSE.bit_length() or alg.size**arity > MAX_UNIVERSE:
        raise SizeGuardError(
            f"{alg.name} has {alg.size}^{arity} argument tuples, over the limit {MAX_UNIVERSE}"
        )
    var_order = tuple(var_order) if var_order is not None else tuple(range(arity + 1))
    if len(var_order) != arity + 1:
        raise ArityError(f"var_order needs {arity + 1} entries, got {len(var_order)}")
    # a repeated variable would be bound to two values at once
    if len(set(var_order)) != len(var_order):
        raise ArityError(f"var_order repeats a variable: {var_order}")
    yvar = var_order[-1]
    carried = {}  # outputs of the tuples that earlier solves reached
    values = {}
    for args in product(range(alg.size), repeat=arity):
        if args not in carried:
            env = dict(zip(var_order[:arity], args))
            outputs = tuple(np.flatnonzero(project_exists(alg, f, (yvar,), env)).tolist())
            if len(outputs) > 1:
                raise FunctionalityError(alg.name, args, outputs[0], outputs[1])
            carried.update({tuple(g[x] for x in args): tuple(g[y] for y in outputs) for g in group})
        outputs = carried.pop(args)
        if outputs:
            values[args] = outputs[0]
    return values


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
