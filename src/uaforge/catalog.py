"""Built-in algebras and formulas.

Two families live here.

The "sec2" family is built on an eight-element Heyting chain
0 < a1 < .. < a6 < 1 expanded with a constant a5, binary operations plus and
ast, and unary box and dia.  The unary pp formula sec2.phi defines a partial
function on it whose behaviour under quotients drives the claim suite.

The "An"/"Bn" family: An is the Heyting algebra of subsets of an n-element
set of atoms with a new top glued above the full set e; Bn expands An with
unary operations lf1..lf(n-1) defined by the pp formulas phi(k, n).  Element
names are "0", "e", "1" and atom sets like "{0,2}".

Catalog ids resolve through build(): fixed ids like "sec2.A" and
parameterized ids like "An?n=3" or "phi?k=1&n=4".  Built objects are
memoized per id.
"""

from __future__ import annotations

from itertools import combinations, product

from .analysis import atoms_of, automorphisms, lattice_leq
from .core import (
    AlgebraError,
    Apply,
    FiniteAlgebra,
    Signature,
    SIZE_GUARD,
    SizeGuardError,
    Variable,
    direct_product,
    guard_size,
    make_algebra,
    quotient,
    reduct,
    subalgebra,
)
from .formulas import And, Eq, Exists, Formula, is_pp, parse_formula
from .logic import TotalityError, _function_table
from .partitions import Partition

HEYTING_SIGNATURE = Signature(
    (("meet", 2), ("join", 2), ("imp", 2), ("zero", 0), ("one", 0))
)

SEC2_SIGNATURE = HEYTING_SIGNATURE.extended(
    (("a5", 0), ("plus", 2), ("ast", 2), ("box", 1), ("dia", 1))
)


# ---------------------------------------------------------------------------
# the eight-element chain family

_SEC2_NAMES = ("0", "a1", "a2", "a3", "a4", "a5", "a6", "1")


def _chain_heyting_tables(size: int) -> dict[str, tuple[int, ...]]:
    top = size - 1
    pairs = list(product(range(size), repeat=2))
    return {
        "meet": tuple(min(a, b) for a, b in pairs),
        "join": tuple(max(a, b) for a, b in pairs),
        "imp": tuple(top if a <= b else b for a, b in pairs),
        "zero": (0,),
        "one": (top,),
    }


def build_sec2_A() -> FiniteAlgebra:
    size = 8
    tables = _chain_heyting_tables(size)
    pairs = list(product(range(size), repeat=2))

    def plus(a, b):
        if a == 0:
            if b in (6, 7):
                return 6
            if b == 3:
                return 5
            return 2
        return 1 if b == 1 else 2

    tables["a5"] = (5,)
    tables["plus"] = tuple(plus(a, b) for a, b in pairs)
    tables["ast"] = tuple(7 if (a == 4 and b == 6) else 0 for a, b in pairs)
    tables["box"] = tuple(7 if a == 5 else 0 for a in range(size))
    tables["dia"] = (7, 1, 1, 3, 5, 3, 7, 7)
    return make_algebra("sec2.A", SEC2_SIGNATURE, size, tables, _SEC2_NAMES)


def build_sec2_A_minus_a4() -> FiniteAlgebra:
    big = build("sec2.A")
    sub, _embed = subalgebra(big, [i for i in range(big.size) if i != 4])
    return make_algebra("sec2.A-minus-a4", sub.signature, sub.size, sub.tables, sub.element_names)


def build_sec2_theta() -> Partition:
    # on the 7-element subalgebra the glued pair a6, 1 sits at indices 5, 6
    return Partition.from_pairs(7, [(5, 6)])


def build_sec2_B() -> FiniteAlgebra:
    return quotient(build("sec2.A-minus-a4"), build("sec2.theta"), name="sec2.B")


def build_sec2_phi() -> tuple[Formula, dict[int, str]]:
    f = parse_formula("exists z . plus(x, y) = dia(z)", SEC2_SIGNATURE)
    return f, {0: "x", 1: "y", 2: "z"}


def build_sec2_A_exp() -> FiniteAlgebra:
    phi, _names = build("sec2.phi")
    return pp_expand(build("sec2.A"), [("gf", phi, 1)], name="sec2.A-exp")


def build_sec2_C() -> FiniteAlgebra:
    exp = build("sec2.A-exp")
    sub, _embed = subalgebra(exp, (0, 1, 2, 3, 5, 6, 7))
    return make_algebra("sec2.C", sub.signature, sub.size, sub.tables, sub.element_names)


def build_sec2_C_mod_theta() -> FiniteAlgebra:
    return quotient(build("sec2.C"), build("sec2.theta"), name="sec2.C-mod-theta")


# ---------------------------------------------------------------------------
# powerset-with-new-top algebras


def check_n(n: int) -> None:
    """Reject an atom count whose An is over the size guard."""
    if n < 0:
        raise AlgebraError("n must be non-negative")
    # From this n on, 2**n + 1 > SIZE_GUARD; say so without forming 2**n,
    # which for an n taken from the command line can be gigabytes.
    if n >= SIZE_GUARD.bit_length():
        raise SizeGuardError(f"A{n} has 2^{n}+1 elements, over the size guard {SIZE_GUARD}")
    guard_size(2**n + 1, f"A{n}")


def _an_element_names(n: int) -> tuple[str, ...]:
    full = 2**n - 1
    names = []
    for mask in range(2**n):
        if mask == 0:
            names.append("0")
        elif mask == full:
            names.append("e")
        else:
            names.append("{" + ",".join(str(i) for i in range(n) if mask >> i & 1) + "}")
    names.append("1")
    return tuple(names)


def build_An(n: int) -> FiniteAlgebra:
    """Heyting algebra of subsets of n atoms with an extra top above e."""
    check_n(n)
    top = 2**n
    full = top - 1
    size = top + 1

    def leq(a, b):
        if b == top:
            return True
        if a == top:
            return False
        return a | b == b

    def meet(a, b):
        if a == top:
            return b
        if b == top:
            return a
        return a & b

    def join(a, b):
        if a == top or b == top:
            return top
        return a | b

    def imp(a, b):
        if leq(a, b):
            return top
        if a == top:
            return b
        return (full & ~a) | b

    pairs = list(product(range(size), repeat=2))
    tables = {
        "meet": tuple(meet(a, b) for a, b in pairs),
        "join": tuple(join(a, b) for a, b in pairs),
        "imp": tuple(imp(a, b) for a, b in pairs),
        "zero": (0,),
        "one": (top,),
    }
    return make_algebra(f"A{n}", HEYTING_SIGNATURE, size, tables, _an_element_names(n))


# ---------------------------------------------------------------------------
# the defining pp formulas


def _join_fold(ts):
    acc = ts[0]
    for t in ts[1:]:
        acc = Apply("join", (acc, t))
    return acc


def _meet_fold(ts):
    if not ts:
        return Apply("one", ())
    acc = ts[0]
    for t in ts[1:]:
        acc = Apply("meet", (acc, t))
    return acc


def _neg(t):
    return Apply("imp", (t, Apply("zero", ())))


def build_phi(k: int, n: int) -> tuple[Formula, dict[int, str]]:
    """The pp formula phi(k, n)(x, y) defining lf_k on An.

    Variable layout: x=0, y=1, then the n+1 block variables z{m}_{i} for
    m=1..k, then w1..wk; the quantifier prefix lists them in that order.
    """
    if n < 3:
        raise AlgebraError("phi(k, n) needs n >= 3")
    if not 1 <= k <= n - 1:
        raise AlgebraError("phi(k, n) needs 1 <= k <= n-1")
    check_n(n)
    x, y = Variable(0), Variable(1)

    def z(m, i):  # m in 1..k, i in 1..n+1
        return Variable(2 + (m - 1) * (n + 1) + (i - 1))

    def w(m):  # m in 1..k
        return Variable(2 + k * (n + 1) + (m - 1))

    def d(t):
        return Apply("join", (t, _neg(t)))

    one = Apply("one", ())
    psis = []
    for m in range(1, k + 1):
        zs = [z(m, i) for i in range(1, n + 2)]
        s = _join_fold(zs)
        same_slice = And(tuple(Eq(d(x), d(zi)) for zi in zs))
        links = Eq(Apply("join", (d(x), _neg(_neg(Apply("join", (x, s)))))), w(m))
        low = _meet_fold(
            [_neg(Apply("meet", (z(m, i), z(m, j)))) for i, j in combinations(range(1, m + 2), 2)]
        )
        high = _meet_fold(
            [
                _neg(Apply("meet", (z(m, i), z(m, j))))
                for i, j in combinations(range(m + 2, n + 2), 2)
            ]
        )
        cover = Eq(
            Apply(
                "join",
                (
                    Apply("meet", (Apply("imp", (s, x)), low)),
                    Apply("meet", (Apply("imp", (s, _neg(x))), high)),
                ),
            ),
            one,
        )
        psis.append(And((same_slice, links, cover)))
    gamma = And((Eq(y, _join_fold([w(m) for m in range(1, k + 1)])), *psis))
    bound = [z(m, i).index for m in range(1, k + 1) for i in range(1, n + 2)]
    bound += [w(m).index for m in range(1, k + 1)]
    names = {0: "x", 1: "y"}
    for m in range(1, k + 1):
        for i in range(1, n + 2):
            names[z(m, i).index] = f"z{m}_{i}"
        names[w(m).index] = f"w{m}"
    return Exists(tuple(bound), gamma), names


def expected_phi_value(alg: FiniteAlgebra, k: int, a: int):
    """Unique b with phi(k, n)(a, b), from the atom-count description."""
    zero, one = alg.const("zero"), alg.const("one")
    atoms = atoms_of(alg)
    # e is the join of all atoms, the largest element below 1
    e = zero
    for p in atoms:
        e = alg.op("join", e, p)
    if a in (zero, e, one):
        return one
    return one if sum(lattice_leq(alg, p, a) for p in atoms) <= k else e


def pp_expand(alg: FiniteAlgebra, ops, name=None) -> FiniteAlgebra:
    """Expand with operations defined by pp formulas.

    ops is an iterable of (symbol, formula, arity) with the formula's
    designated variables 0..arity (output last).  Every formula must define a
    total function; a missing argument tuple raises TotalityError.  The hom
    search's SizeGuardError, for alg over SIZE_GUARD elements among others,
    comes before any solve.

    The relation a formula defines is invariant under every automorphism g of
    alg, so the outputs of g(a) are g(outputs(a)).  Each solve is carried to
    the orbit of its tuple under the automorphism group, whose maps homs has
    checked.  The group is complete, so the lexicographically first tuple of
    each orbit is solved and no other; a tuple with two outputs has them on
    its whole orbit, so the tables and errors equal those of the plain
    per-tuple solve of induced_partial_function.
    """
    group = automorphisms(alg)
    new_syms = list(alg.signature.symbols)
    tables = dict(alg.tables)
    for symbol, formula, arity in ops:
        if not is_pp(formula):
            raise AlgebraError(f"{symbol!r} is not defined by a pp formula")
        values = _function_table(alg, formula, arity, None, group)
        try:
            tables[symbol] = tuple(values[args] for args in product(range(alg.size), repeat=arity))
        except KeyError as exc:  # the first argument tuple without an output
            raise TotalityError(alg.name, exc.args[0]) from None
        new_syms.append((symbol, arity))
    return make_algebra(
        name or f"{alg.name}.pp",
        Signature(tuple(new_syms)),
        alg.size,
        tables,
        alg.element_names,
    )


def build_Bn(n: int) -> FiniteAlgebra:
    """An expanded with lf1..lf(n-1), the functions defined by phi(k, n).

    phi(k, n) is first-order, so lf_k commutes with every automorphism of An.
    Those are the n! atom permutations, so pp_expand solves phi(k, n) once
    per atom-count orbit: n+2 solves per k instead of 2^n+1.
    """
    base = build(f"An?n={n}")
    ops = [(f"lf{k}", build(f"phi?k={k}&n={n}")[0], 1) for k in range(1, n)]
    return pp_expand(base, ops, name=f"B{n}")


def trivial_algebra(sig: Signature) -> FiniteAlgebra:
    return direct_product([], sig, name="trivial")


def heyting_reduct(alg: FiniteAlgebra) -> FiniteAlgebra:
    return reduct(alg, HEYTING_SIGNATURE.names(), name=f"{alg.name}|heyting")


# ---------------------------------------------------------------------------
# catalog ids

_FIXED = {
    "sec2.A": build_sec2_A,
    "sec2.A-minus-a4": build_sec2_A_minus_a4,
    "sec2.theta": build_sec2_theta,
    "sec2.B": build_sec2_B,
    "sec2.phi": build_sec2_phi,
    "sec2.A-exp": build_sec2_A_exp,
    "sec2.C": build_sec2_C,
    "sec2.C-mod-theta": build_sec2_C_mod_theta,
}

# parameterized ids: base -> (parameter names, builder)
_PARAMETERIZED = {
    "An": (("n",), build_An),
    "Bn": (("n",), build_Bn),
    "phi": (("k", "n"), build_phi),
}

# keyed by (base, sorted parameters), so every spelling of an id shares one object
_memo: dict[tuple, object] = {}


def parse_id(ident: str) -> tuple[str, dict[str, int]]:
    """Split an id like "phi?k=1&n=3" into its base and integer parameters."""
    base, _, query = ident.partition("?")
    params = {}
    for piece in query.split("&") if query else ():
        key, eq, val = piece.partition("=")
        if not eq:
            raise AlgebraError(f"malformed parameter {piece!r} in {ident!r}")
        if key in params:
            raise AlgebraError(f"parameter {key!r} given twice in {ident!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise AlgebraError(f"parameter {key!r} needs an integer, got {val!r}") from None
    return base, params


def build(catalog_id: str):
    """Resolve a catalog id like "sec2.A", "An?n=3" or "phi?k=1&n=3"."""
    base, params = parse_id(catalog_id)
    key = (base, tuple(sorted(params.items())))
    if key in _memo:
        return _memo[key]
    names, builder = _PARAMETERIZED.get(base, ((), _FIXED.get(base)))
    if builder is None:
        raise AlgebraError(f"unknown catalog id {catalog_id!r}")
    if sorted(params) != list(names):
        raise AlgebraError(
            f"catalog id {base!r} takes parameters {list(names)}, got {sorted(params)}"
        )
    obj = builder(*(params[name] for name in names))
    _memo[key] = obj
    return obj
