"""Congruences of finite algebras.

A basic translation is one operation with every argument slot fixed except
one, seen as a unary map.  Each call builds the table of the algebra's
distinct basic translations once.  A partition is a congruence exactly when
every basic translation preserves it, and the principal congruence Cg(a, b)
is the union-find closure of the pair under the translations.  The full
congruence lattice is the join closure of the principal congruences together
with the identity; joins of congruences are plain partition joins since the
congruences of an algebra form a sublattice of the equivalence lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import MAX_UNIVERSE, FiniteAlgebra, SizeGuardError, guard_size
from .partitions import Partition, _canonical, _find


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


def _closure(trans: np.ndarray, a: int, b: int) -> Partition:
    """Least partition relating a and b that every translation preserves."""
    parent = list(range(trans.shape[1]))
    queue = []

    def merge(x, y):
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            parent[rx] = ry
            queue.append((x, y))

    merge(a, b)
    while queue:
        x, y = queue.pop()
        tx, ty = trans[:, x], trans[:, y]
        moved = tx != ty
        for u, v in zip(tx[moved].tolist(), ty[moved].tolist()):
            merge(u, v)
    return Partition(_canonical(parent))


def is_congruence(alg: FiniteAlgebra, part: Partition) -> bool:
    """Every translation sends each a and the least member of its block into one block."""
    if part.size != alg.size:
        raise ValueError("partition size does not match the algebra")
    rep = np.asarray(part.rep)
    trans = _translations(alg)
    return bool(np.array_equal(rep[trans], rep[trans[:, rep]]))


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence identifying a and b."""
    size = alg.size
    if not (0 <= a < size and 0 <= b < size):
        raise ValueError(f"pair ({a},{b}) out of range")
    return _closure(_translations(alg), a, b)


@dataclass(frozen=True)
class CongruenceLattice:
    size: int
    congruences: tuple[Partition, ...]

    def __len__(self):
        return len(self.congruences)

    def __iter__(self):
        return iter(self.congruences)

    @property
    def identity(self) -> Partition:
        return Partition.identity(self.size)

    @property
    def full(self) -> Partition:
        return Partition.full(self.size)


def congruence_lattice(alg: FiniteAlgebra) -> CongruenceLattice:
    """All congruences: identity plus the join closure of the principal ones.

    Raises SizeGuardError before a round of joins that would take the total
    over MAX_UNIVERSE.
    """
    guard_size(alg.size, alg.name)
    size = alg.size
    trans = _translations(alg)
    principals = {_closure(trans, a, b) for a in range(size) for b in range(a + 1, size)}
    congs = {Partition.identity(size)} | principals
    # every congruence is a join of principal ones: join each new one with each
    frontier, joins = principals, 0
    while frontier:
        joins += len(frontier) * len(principals)
        if joins > MAX_UNIVERSE:
            raise SizeGuardError(f"{alg.name}: the congruence lattice needs over {MAX_UNIVERSE} joins")
        frontier = {c.join(p) for c in frontier for p in principals} - congs
        congs |= frontier
    # refinement-compatible total order: finer congruences have more blocks
    ordered = sorted(congs, key=lambda c: (-c.num_blocks, c.rep))
    return CongruenceLattice(size, tuple(ordered))


def monolith(lattice: CongruenceLattice) -> Partition | None:
    """Least non-identity congruence, when one exists."""
    ident = lattice.identity
    nontrivial = [c for c in lattice.congruences if c != ident]
    if not nontrivial:
        return None
    for m in nontrivial:
        if all(m.leq(c) for c in nontrivial):
            return m
    return None


def is_simple(alg: FiniteAlgebra, lattice: CongruenceLattice | None = None) -> bool:
    if alg.size == 1:
        return False
    lattice = lattice or congruence_lattice(alg)
    return len(lattice) == 2


def is_si(alg: FiniteAlgebra, lattice: CongruenceLattice | None = None) -> bool:
    """Subdirectly irreducible: nontrivial with a least non-identity congruence."""
    lattice = lattice or congruence_lattice(alg)
    return quotient_is_si(lattice, lattice.identity)


def is_fsi(alg: FiniteAlgebra, lattice: CongruenceLattice | None = None) -> bool:
    """Finitely subdirectly irreducible: nontrivial, identity meet-irreducible."""
    lattice = lattice or congruence_lattice(alg)
    return quotient_is_fsi(lattice, lattice.identity)


# interval variants used when classifying quotients: the congruences of
# alg/theta correspond to the congruences of alg above theta


def quotient_is_fsi(lattice: CongruenceLattice, theta: Partition) -> bool:
    if theta == lattice.full:
        return False
    above = [c for c in lattice.congruences if theta.leq(c) and c != theta]
    for p, q in combinations(above, 2):
        if p.meet(q) == theta:
            return False
    return True


def quotient_is_si(lattice: CongruenceLattice, theta: Partition) -> bool:
    if theta == lattice.full:
        return False
    above = [c for c in lattice.congruences if theta.leq(c) and c != theta]
    return any(all(m.leq(c) for c in above) for m in above)
