"""Finite algebras as dense operation tables.

An algebra lives on the universe {0..size-1}.  Each operation of arity r is a
flat row-major tuple of length size**r: the entry for arguments (x1,..,xr)
sits at index x1*size**(r-1) + ... + xr.  Only this module reads that layout.
Code elsewhere indexes ``alg.grids[sym]``: the same table as a read-only numpy
array of shape (size,)*r, so that ``grid[x1, .., xr]`` is the entry.  ``op``
and ``eval_term`` are the scalar reference.

``_commuting`` is the full-table homomorphism check: it tests a stack of maps
against every operation's grid at once.

``_close_rows`` is the one closure kernel: it closes the rows of a boolean
membership array together.  ``sg_closure`` closes one row.
``all_subuniverses`` is one pass over the elements, closing each element's
extensions of the subuniverses found so far in chunks whose tuple arrays
hold at most MAX_UNIVERSE cells; it raises SizeGuardError once the
subuniverses found hold over MAX_UNIVERSE cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .partitions import Partition

# enumeration guard: routines that walk the subset/endomorphism search space
# refuse universes larger than this, which is |A5|
SIZE_GUARD = 33

# the largest universe built at all: a product, or an algebra read from a file
MAX_UNIVERSE = 10**6


class AlgebraError(ValueError):
    pass


class UnknownSymbolError(AlgebraError):
    pass


class ArityError(AlgebraError):
    pass


class SizeGuardError(AlgebraError):
    pass


class NotClosedError(AlgebraError):
    pass


class NotCongruenceError(AlgebraError):
    pass


class UnassignedVariableError(AlgebraError):
    pass


def guard_size(size: int, name: str) -> None:
    """Refuse exhaustive enumeration over a universe larger than SIZE_GUARD."""
    if size > SIZE_GUARD:
        raise SizeGuardError(f"{name} has {size} elements, over the size guard {SIZE_GUARD}")


@dataclass(frozen=True)
class Signature:
    """Ordered list of (symbol, arity) pairs with unique symbols."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        arities: dict[str, int] = {}
        for name, arity in self.symbols:
            if name in arities:
                raise AlgebraError(f"duplicate symbol {name!r}")
            if type(arity) is not int:  # bool, float and str are not arities
                raise AlgebraError(f"arity of {name!r} must be an integer, got {arity!r}")
            if arity < 0:
                raise AlgebraError(f"negative arity for {name!r}")
            if arity > 32:  # numpy 1.x arrays, which hold the tables, have at most 32 axes
                raise AlgebraError(f"arity of {name!r} is over 32")
            arities[name] = arity
        # symbol -> arity lookup for the evaluators; not a field, so equality
        # and hashing still see only the symbols tuple
        object.__setattr__(self, "_arities", arities)

    def arity(self, name: str) -> int:
        try:
            return self._arities[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown operation symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._arities

    def names(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.symbols)

    def constants(self) -> tuple[str, ...]:
        return tuple(sym for sym, arity in self.symbols if arity == 0)

    def extended(self, extra: tuple[tuple[str, int], ...]) -> "Signature":
        return Signature(self.symbols + tuple(extra))

    def restricted(self, names) -> "Signature":
        keep = set(names)
        return Signature(tuple(p for p in self.symbols if p[0] in keep))


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Variable:
    index: int
    _shape = "_"  # not a field: the shape of every variable (see Apply)

    def __post_init__(self):
        if self.index < 0:
            raise AlgebraError("variable index must be non-negative")


@dataclass(frozen=True)
class Apply:
    symbol: str
    args: tuple = ()

    def __post_init__(self):
        # the variable indices left to right, repeats kept, and their set, and
        # the shape, the term with its symbols quoted and its variables erased
        # to _: read off the arguments' own, and not fields, so equality,
        # hashing and repr still see only the symbol and the arguments
        walk = tuple(i for a in self.args for i in (a._walk if isinstance(a, Apply) else (a.index,)))
        object.__setattr__(self, "_walk", walk)
        object.__setattr__(self, "_variables", frozenset(walk))
        object.__setattr__(self, "_shape", f"{self.symbol!r}({','.join(a._shape for a in self.args)})")


Term = Variable | Apply


def term_variables(t: Term) -> frozenset[int]:
    return frozenset((t.index,)) if isinstance(t, Variable) else t._variables


# ---------------------------------------------------------------------------
# algebras


@dataclass(frozen=True, eq=True)
class FiniteAlgebra:
    name: str
    signature: Signature
    size: int
    tables: dict[str, tuple[int, ...]]
    element_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if type(self.size) is not int:
            raise AlgebraError(f"size must be an integer, got {self.size!r}")
        if self.size < 1:
            raise AlgebraError("universe must be non-empty")
        names = set(self.signature.names())
        if set(self.tables) != names:
            raise AlgebraError(
                f"tables {sorted(self.tables)} do not match signature {sorted(names)}"
            )
        for sym, arity in self.signature.symbols:
            table = self.tables[sym]
            # an arity from a file can be huge: rule it out before forming size**arity
            huge = self.size > 1 and arity > len(table).bit_length()
            if huge or len(table) != self.size**arity:
                raise AlgebraError(
                    f"table for {sym!r} has length {len(table)}, expected {self.size}^{arity}"
                )
            for v in table:
                if type(v) is not int or not 0 <= v < self.size:  # not bool, float, str
                    raise AlgebraError(f"table entry {v!r} for {sym!r} is not an element")
        if self.element_names is not None and len(self.element_names) != self.size:
            raise AlgebraError("element_names length does not match size")

    @cached_property
    def grids(self) -> dict[str, np.ndarray]:
        """Each table as a read-only array of shape (size,)*arity, in signature
        order, so that grid[x1, .., xr] is the entry for the arguments (x1, .., xr).
        The arrays are shared by every caller."""
        out = {}
        for sym, arity in self.signature.symbols:
            out[sym] = np.array(self.tables[sym], dtype=np.int64).reshape((self.size,) * arity)
            out[sym].flags.writeable = False
        return out

    def op(self, symbol: str, *args: int) -> int:
        arity = self.signature.arity(symbol)
        if len(args) != arity:
            raise ArityError(f"{symbol!r} expects {arity} arguments, got {len(args)}")
        k = 0
        for a in args:
            k = k * self.size + a
        return self.tables[symbol][k]

    def const(self, symbol: str) -> int:
        return self.op(symbol)

    def element_name(self, i: int) -> str:
        if self.element_names is not None:
            return self.element_names[i]
        return str(i)

    def index_of(self, name: str) -> int:
        if self.element_names is None:
            raise AlgebraError(f"algebra {self.name!r} has no element names")
        try:
            return self.element_names.index(name)
        except ValueError:
            raise AlgebraError(f"no element named {name!r} in {self.name!r}") from None

    @property
    def is_trivial(self) -> bool:
        return self.size == 1


def _commuting(A: FiniteAlgebra, B: FiniteAlgebra, maps: np.ndarray) -> np.ndarray:
    """Which rows of a (k, A.size) stack of maps into B commute with every operation.

    Row m commutes with f when m indexed by A's grid of f equals B's grid of f
    indexed by f's arity many views of m, each broadcast along one argument
    axis.  The rows go through in blocks of at most MAX_UNIVERSE table cells.
    """
    k, n = maps.shape
    ok = np.ones(k, dtype=bool)
    for sym, grid in A.grids.items():
        r = grid.ndim
        step = max(1, MAX_UNIVERSE // grid.size)
        for i in range(0, k, step):
            m = maps[i : i + step]
            axes = tuple(m.reshape((len(m),) + (1,) * j + (n,) + (1,) * (r - 1 - j)) for j in range(r))
            ok[i : i + step] &= (m[:, grid] == B.grids[sym][axes]).reshape(len(m), -1).all(axis=1)
    return ok


def make_algebra(name, signature, size, tables, element_names=None) -> FiniteAlgebra:
    """Normalize table containers to tuples and build the algebra."""
    tabs = {sym: tuple(tab) for sym, tab in tables.items()}
    names = tuple(element_names) if element_names is not None else None
    return FiniteAlgebra(name, signature, size, tabs, names)


def eval_term(alg: FiniteAlgebra, t: Term, env: dict) -> int:
    """Evaluate a term under env, a dict from variable index to element."""
    if isinstance(t, Variable):
        try:
            return env[t.index]
        except KeyError:
            raise UnassignedVariableError(f"variable v{t.index} unassigned") from None
    arity = alg.signature.arity(t.symbol)
    if len(t.args) != arity:
        raise ArityError(f"{t.symbol!r} expects {arity} arguments, got {len(t.args)}")
    k = 0
    for a in t.args:
        k = k * alg.size + eval_term(alg, a, env)
    return alg.tables[t.symbol][k]


# ---------------------------------------------------------------------------
# subuniverses


def sg_closure(alg: FiniteAlgebra, generators=()) -> tuple[int, ...]:
    """Subuniverse generated by the given elements (constants always included),
    as its sorted elements."""
    size = alg.size
    member = np.zeros(size, dtype=bool)
    for g in generators:
        # a bool would index as a mask, a float not at all
        if isinstance(g, bool) or not isinstance(g, (int, np.integer)):
            raise AlgebraError(f"generator {g!r} is not an integer")
        if not 0 <= g < size:
            raise AlgebraError(f"generator {g} out of range for size {size}")
        member[g] = True
    for sym in alg.signature.constants():
        member[alg.grids[sym]] = True
    return tuple(np.flatnonzero(_close_rows(member[None], alg)[0]).tolist())


def is_closed_subset(alg: FiniteAlgebra, elements) -> bool:
    """A subset is closed when it generates itself."""
    elems = tuple(sorted(set(elements)))
    return sg_closure(alg, elems) == elems


def subalgebra(alg: FiniteAlgebra, elements) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """Induced algebra on a closed subset.

    Returns (sub, embed) where embed[i] is the parent index of the i-th
    element of the subalgebra; the subuniverse is re-indexed in ascending
    parent order.
    """
    elems = sorted(set(elements))
    if not is_closed_subset(alg, elems):
        raise NotClosedError(f"{elems} is not a subuniverse of {alg.name!r}")
    old_to_new = np.zeros(alg.size, dtype=np.int64)
    old_to_new[elems] = np.arange(len(elems))
    tables = {
        sym: tuple(np.ravel(old_to_new[grid[np.ix_(*[elems] * grid.ndim)]]).tolist())
        for sym, grid in alg.grids.items()
    }
    names = None
    if alg.element_names is not None:
        names = tuple(alg.element_names[e] for e in elems)
    sub = FiniteAlgebra(
        f"{alg.name}.sub({','.join(map(str, elems))})",
        alg.signature,
        len(elems),
        tables,
        names,
    )
    return sub, tuple(elems)


def _close_rows(rows: np.ndarray, alg: FiniteAlgebra) -> np.ndarray:
    """Close every row of a boolean (rows, size) membership array at once.

    A round ORs into each row the images of all tuples of its members.  The
    tuple array of arity r holds one cell per row and argument tuple, in
    row-major order, and serves every r-ary operation: each true cell marks
    the entries at its tuple in the r-ary tables, stacked one per row.  The
    rounds stop when one adds nothing; the rows keep their order.
    """
    ops = [g for g in alg.grids.values() if g.ndim]
    tables = {r: np.stack([g.ravel() for g in ops if g.ndim == r]) for r in {g.ndim for g in ops}}
    while True:
        grown = rows.copy()
        tuples = rows
        for arity in range(1, max(tables, default=0) + 1):
            if arity > 1:
                tuples = (tuples[:, :, None] & rows[:, None, :]).reshape(len(rows), -1)
            if arity in tables:
                r, t = np.nonzero(tuples)
                grown[r, tables[arity][:, t]] = True
        if np.array_equal(grown, rows):
            return rows
        rows = grown


def all_subuniverses(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Every subuniverse, in one pass over the elements.

    Every subuniverse is Sg(empty + S) for some set S of elements.  The pass
    keeps those closures for every S inside 0..x: for each element x in
    turn, it closes T + {x} for every known T that lacks x (a T holding x
    is its own extension).  Each step's extensions are the rows of one
    boolean array, and ``_close_rows`` closes them in chunks whose tuple
    arrays hold at most MAX_UNIVERSE cells (one row at least).  Raises
    SizeGuardError once the subuniverses found hold over MAX_UNIVERSE
    cells.  Each is a sorted tuple, and the list is sorted by (size,
    elements).
    """
    guard_size(alg.size, alg.name)
    n = alg.size
    chunk = max(1, MAX_UNIVERSE // max([g.size for g in alg.grids.values() if g.ndim], default=n))
    base = np.zeros(n, dtype=bool)
    base[list(sg_closure(alg))] = True
    # each subuniverse as the raw bytes of its membership row, in the order found
    known = dict.fromkeys([base.tobytes()])
    for x in range(n):
        held = np.frombuffer(b"".join(known), dtype=bool).reshape(-1, n)
        ext = held[~held[:, x]]
        ext[:, x] = True
        for i in range(0, len(ext), chunk):
            for row in _close_rows(ext[i : i + chunk], alg):
                known.setdefault(row.tobytes())
                if len(known) * n > MAX_UNIVERSE:
                    raise SizeGuardError(
                        f"subuniverses of {alg.name} hold over {MAX_UNIVERSE} cells"
                    )
    held = np.frombuffer(b"".join(known), dtype=bool).reshape(-1, n)
    return sorted((tuple(np.flatnonzero(r).tolist()) for r in held), key=lambda s: (len(s), s))


# ---------------------------------------------------------------------------
# products and quotients


def direct_product(algs, signature: Signature | None = None, name=None) -> FiniteAlgebra:
    """Direct product with row-major element indexing over the factors.

    The empty product needs an explicit signature and is the one-element
    algebra over it.
    """
    algs = list(algs)
    if not algs:
        if signature is None:
            raise AlgebraError("empty product needs an explicit signature")
        tables = {sym: (0,) for sym in signature.names()}
        return FiniteAlgebra(name or "prod()", signature, 1, tables, ("()",))
    sig = algs[0].signature
    for a in algs[1:]:
        if a.signature != sig:
            raise AlgebraError("product factors must share a signature")
    if signature is not None and signature != sig:
        raise AlgebraError("explicit signature disagrees with the factors")
    sizes = [a.size for a in algs]
    total = 1
    for s in sizes:
        total *= s
        if total > MAX_UNIVERSE:
            raise SizeGuardError("product universe too large")

    # coords[f][i] is the f-th coordinate of product element i
    coords = np.unravel_index(np.arange(total), sizes)
    tables = {}
    for sym, arity in sig.symbols:
        results = [
            alg.grids[sym][np.ix_(*[c] * arity)] for alg, c in zip(algs, coords)
        ]
        tables[sym] = tuple(np.ravel(np.ravel_multi_index(results, sizes)).tolist())
    enames = None
    if all(a.element_names is not None for a in algs):
        enames = tuple(
            "(" + ",".join(alg.element_name(c) for alg, c in zip(algs, cs)) + ")"
            for cs in zip(*(c.tolist() for c in coords))
        )
    pname = name or "x".join(a.name for a in algs)
    return FiniteAlgebra(pname, sig, total, tables, enames)


def quotient(alg: FiniteAlgebra, part: Partition, name=None) -> FiniteAlgebra:
    """Quotient by a congruence; blocks are ordered by least representative.

    Raises NotCongruenceError when some operation is not well defined on the
    blocks, reporting the offending operation.
    """
    blocks = part.blocks()
    cls = np.asarray(quotient_map(alg, part))
    tables = {}
    for sym, grid in alg.grids.items():
        # write the class of every entry onto its cell of the class grid, then
        # read it back: the operation is well defined iff every entry reads
        # back its own class
        cells, images = np.ix_(*[cls] * grid.ndim), cls[grid]
        qgrid = np.empty((len(blocks),) * grid.ndim, dtype=np.int64)
        qgrid[cells] = images
        if not np.array_equal(qgrid[cells], images):
            raise NotCongruenceError(f"partition is not compatible with operation {sym!r}")
        tables[sym] = tuple(qgrid.ravel().tolist())
    enames = None
    if alg.element_names is not None:
        enames = tuple("|".join(alg.element_name(x) for x in b) for b in blocks)
    qname = name or f"{alg.name}/theta"
    return FiniteAlgebra(qname, alg.signature, len(blocks), tables, enames)


def quotient_map(alg: FiniteAlgebra, part: Partition) -> tuple[int, ...]:
    """The canonical surjection onto quotient(alg, part), as an index map."""
    if part.size != alg.size:
        raise AlgebraError("partition size does not match the algebra")
    blocks = part.blocks()
    block_index = {b[0]: i for i, b in enumerate(blocks)}
    return tuple(block_index[part.rep[x]] for x in range(alg.size))


def reduct(alg: FiniteAlgebra, symbols, name=None) -> FiniteAlgebra:
    """Same universe, signature restricted to the listed symbols."""
    keep = [s for s in alg.signature.names() if s in set(symbols)]
    missing = set(symbols) - set(keep)
    if missing:
        raise UnknownSymbolError(f"symbols {sorted(missing)} not in {alg.name!r}")
    sig = alg.signature.restricted(keep)
    tables = {sym: alg.tables[sym] for sym in keep}
    return FiniteAlgebra(name or f"{alg.name}|reduct", sig, alg.size, tables, alg.element_names)


# ---------------------------------------------------------------------------
# JSON serialization


def algebra_to_dict(alg: FiniteAlgebra) -> dict:
    out: dict = {
        "name": alg.name,
        "size": alg.size,
        "operations": [
            {"symbol": sym, "arity": arity, "table": list(alg.tables[sym])}
            for sym, arity in alg.signature.symbols
        ],
    }
    if alg.element_names is not None:
        out["elements"] = list(alg.element_names)
    return out


def dumps_algebra(alg: FiniteAlgebra) -> str:
    return json.dumps(algebra_to_dict(alg), sort_keys=True, indent=2) + "\n"


def algebra_from_dict(data: dict) -> FiniteAlgebra:
    try:
        name = data["name"]
        size = data["size"]
        ops = data["operations"]
    except (KeyError, TypeError) as exc:
        raise AlgebraError(f"malformed algebra document: missing {exc}") from None
    if not isinstance(name, str):
        raise AlgebraError("name must be a string")
    if type(size) is not int:
        raise AlgebraError("size must be an integer")
    if size > MAX_UNIVERSE:
        raise SizeGuardError(f"size {size} is over the universe limit {MAX_UNIVERSE}")
    if not isinstance(ops, list):
        raise AlgebraError("operations must be a list")
    symbols = []
    tables = {}
    for entry in ops:
        try:
            sym, arity, table = entry["symbol"], entry["arity"], entry["table"]
        except (KeyError, TypeError) as exc:
            raise AlgebraError(f"malformed operation entry: missing {exc}") from None
        if not isinstance(sym, str) or not isinstance(table, list):
            raise AlgebraError("an operation needs a string symbol and a list table")
        symbols.append((sym, arity))
        tables[sym] = tuple(table)
    element_names = data.get("elements")
    if element_names is not None and not (
        isinstance(element_names, list) and all(isinstance(e, str) for e in element_names)
    ):
        raise AlgebraError("elements must be a list of strings")
    return make_algebra(name, Signature(tuple(symbols)), size, tables, element_names)


def loads_algebra(text: str) -> FiniteAlgebra:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraError(f"invalid JSON: {exc}") from None
    return algebra_from_dict(data)


def load_algebra(path) -> FiniteAlgebra:
    with open(path) as fh:
        return loads_algebra(fh.read())
