"""Congruences of finite algebras.

A basic translation is one operation with every argument slot fixed except
one, seen as a unary map.  Each call builds the table of the algebra's
distinct basic translations once.  A partition is a congruence exactly when
every basic translation preserves it.  The principal congruences come from
one array kernel over the pair graph, whose nodes are the pairs {x, y} of
distinct elements and whose edges are {x, y} -> {t(x), t(y)} for each basic
translation t: Cg(a, b) is the equivalence closure of the pairs that {a, b}
reaches (Mal'cev's lemma), computed for all n(n-1)/2 pairs at once.  The
lattice is one pass over the distinct principal congruences, joining each
with every congruence found so far (every congruence is the join of the
principal ones below it); congruence joins are plain partition joins, since
the congruences form a sublattice of the equivalence lattice.  Each distinct
principal congruence keeps one pair (a, b) that generates it, and the join
of c with Cg(a, b) is skipped when a and b share a block of c, since then
Cg(a, b) <= c.
Monolith, SI and FSI are one scan of the interval above a congruence for its
least member.  On a finite algebra FSI and SI coincide: theta < 1 is
meet-irreducible exactly when it has one upper cover, that is, when some
congruence is least among those strictly above theta.
"""

from __future__ import annotations

import numpy as np

from .core import MAX_UNIVERSE, AlgebraError, FiniteAlgebra, SizeGuardError, guard_size
from .partitions import Partition


def _translations(alg: FiniteAlgebra) -> np.ndarray:
    """The distinct basic translations, one row each; column a holds the images of a."""
    size = alg.size
    rows = [np.empty((0, size), dtype=np.int32)]
    for grid in alg.grids.values():
        for pos in range(grid.ndim):
            # move the varied slot last; the other slots are the fixed arguments
            rows.append(np.moveaxis(grid, pos, -1).reshape(-1, size))
    # int32 holds any element of a table that fits in memory, at half the int64 size
    trans = np.concatenate(rows, dtype=np.int32)
    # keep one copy of each row, comparing rows as raw bytes
    as_bytes = trans.view(np.dtype((np.void, trans.itemsize * size))).ravel()
    return trans[np.unique(as_bytes, return_index=True)[1]]


def _principals(alg: FiniteAlgebra) -> np.ndarray:
    """Row k: the least-member array of Cg(a, b) for the k-th pair a < b, in
    lexicographic order.

    The kernel closes the pair graph under reachability (Warshall over the
    P = n(n-1)/2 pairs, on a P x P boolean array), then the relation on the
    elements of each distinct set of reached pairs (Warshall over the
    elements).  It makes no BLAS call.  Besides the P x P reach array and
    one n x n relation per distinct row, its arrays hold O(P * n) cells.
    """
    n = alg.size
    a, b = np.triu_indices(n, 1)
    pairs = len(a)
    pid = np.full((n, n), pairs)  # a collapsed pair lands in the extra column
    pid[a, b] = pid[b, a] = np.arange(pairs)
    trans = _translations(alg)
    reach = np.zeros((pairs, pairs + 1), dtype=bool)
    for i in range(0, len(trans), n):  # n translations at a time: index arrays of n * pairs
        step = trans[i : i + n]
        reach[np.arange(pairs)[:, None], pid[step[:, a], step[:, b]].T] = True
    reach = np.ascontiguousarray(reach[:, :pairs])
    np.fill_diagonal(reach, True)
    for k in range(pairs):
        reach |= reach[:, k, None] & reach[k]
    # one relation per distinct row of reach, comparing rows as raw bytes
    as_bytes = reach.view(np.dtype((np.void, pairs))).ravel()
    _, first, row_of = np.unique(as_bytes, return_index=True, return_inverse=True)
    rel = np.zeros((len(first), n, n), dtype=bool)
    rel[:, a, b] = rel[:, b, a] = reach[first]
    rel[:, np.arange(n), np.arange(n)] = True
    for k in range(n):
        rel |= rel[:, :, k, None] & rel[:, None, k, :]
    # the first element related to x is the least member of its block
    return rel.argmax(axis=2)[row_of]


def is_congruence(alg: FiniteAlgebra, part: Partition) -> bool:
    """Every translation sends each a and the least member of its block into one block."""
    if part.size != alg.size:
        raise AlgebraError("partition size does not match the algebra")
    rep = np.asarray(part.rep)
    trans = _translations(alg)
    return bool(np.array_equal(rep[trans], rep[trans[:, rep]]))


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence identifying a and b: one row of the all-pairs kernel,
    so an algebra over SIZE_GUARD elements raises SizeGuardError."""
    size = alg.size
    if not (0 <= a < size and 0 <= b < size):
        raise AlgebraError(f"pair ({a},{b}) out of range")
    guard_size(size, alg.name)
    if a == b:
        return Partition.identity(size)
    a, b = min(a, b), max(a, b)
    # the pairs before (a, b) in lexicographic order
    row = a * (2 * size - a - 1) // 2 + b - a - 1
    return Partition(tuple(_principals(alg)[row].tolist()))


class CongruenceLattice(tuple):
    """The congruences of an algebra, finer first: the identity first, the full relation last."""

    __slots__ = ()

    @property
    def identity(self) -> Partition:
        return self[0]

    @property
    def full(self) -> Partition:
        return self[-1]

    @property
    def congruences(self) -> tuple[Partition, ...]:
        # the lattice itself; perfbench/workloads.py reads this name, so it stays
        return self


def congruence_lattice(alg: FiniteAlgebra) -> CongruenceLattice:
    """All congruences, in one pass over the distinct principal congruences:
    after the i-th, congs holds the joins of every subset of the first i.

    A step counts len(congs) joins, and congs never shrinks, so the pass
    raises SizeGuardError at the first step where the joins counted so far
    plus len(congs) for this and each later step exceed MAX_UNIVERSE.
    """
    guard_size(alg.size, alg.name)
    size = alg.size
    # each distinct principal congruence with one pair (a, b) that generates it
    lo, hi = np.triu_indices(size, 1)
    reps = dict(zip(map(tuple, _principals(alg).tolist()), zip(lo.tolist(), hi.tolist())))
    congs = {Partition.identity(size)}
    joins = 0
    for i, (rep, (a, b)) in enumerate(reps.items()):
        if joins + len(congs) * (len(reps) - i) > MAX_UNIVERSE:
            raise SizeGuardError(f"{alg.name}: the congruence lattice needs over {MAX_UNIVERSE} joins")
        joins += len(congs)
        # Cg(a, b) <= c when a and b already share a block of c: the join is c
        p = Partition(rep)
        congs |= {c.join(p) for c in congs if c.rep[a] != c.rep[b]}
    # refinement-compatible total order: finer congruences have more blocks
    return CongruenceLattice(sorted(congs, key=lambda c: (-c.num_blocks, c.rep)))


def _least_above(lattice: CongruenceLattice, theta: Partition) -> Partition | None:
    """The least congruence strictly above theta, when one exists.

    The lattice lists finer congruences first, so only the first congruence
    above theta can be below all the others.
    """
    above = [c for c in lattice if theta.leq(c) and c != theta]
    if above and all(above[0].leq(c) for c in above):
        return above[0]
    return None


def monolith(lattice: CongruenceLattice) -> Partition | None:
    """Least non-identity congruence, when one exists."""
    return _least_above(lattice, lattice.identity)


def is_simple(lattice: CongruenceLattice) -> bool:
    """Exactly two congruences; a trivial algebra's lattice has one."""
    return len(lattice) == 2


def is_si(lattice: CongruenceLattice) -> bool:
    """Subdirectly irreducible: a least non-identity congruence exists."""
    return monolith(lattice) is not None


def quotient_is_si(lattice: CongruenceLattice, theta: Partition) -> bool:
    """alg/theta is SI: the congruences of alg/theta correspond to the
    congruences of alg above theta."""
    return _least_above(lattice, theta) is not None
