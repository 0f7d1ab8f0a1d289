"""Congruences of finite algebras.

Principal congruences are generated with a union-find worklist closed under
the basic translations (one operation, one argument slot varied).  The full
congruence lattice is the join-closure of the principal ones together with
the identity; joins of congruences are plain partition joins since the
congruences of an algebra form a sublattice of the equivalence lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import FiniteAlgebra, guard_size
from .partitions import Partition, _canonical, _find


def is_congruence(alg: FiniteAlgebra, part: Partition) -> bool:
    """Compatibility check: one varied coordinate at a time suffices."""
    if part.size != alg.size:
        raise ValueError("partition size does not match the algebra")
    rep = part.rep
    size = alg.size
    related = [
        (a, b)
        for a in range(size)
        for b in range(a + 1, size)
        if rep[a] == rep[b]
    ]
    for sym, arity in alg.signature.symbols:
        if arity == 0:
            continue
        table = alg.tables[sym]
        for a, b in related:
            for pos in range(arity):
                for rest in product(range(size), repeat=arity - 1):
                    args_a = rest[:pos] + (a,) + rest[pos:]
                    args_b = rest[:pos] + (b,) + rest[pos:]
                    ka = kb = 0
                    for x in args_a:
                        ka = ka * size + x
                    for x in args_b:
                        kb = kb * size + x
                    if rep[table[ka]] != rep[table[kb]]:
                        return False
    return True


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Partition:
    """Least congruence identifying a and b."""
    size = alg.size
    if not (0 <= a < size and 0 <= b < size):
        raise ValueError(f"pair ({a},{b}) out of range")
    parent = list(range(size))

    def union(x, y):
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            return False
        parent[rx] = ry
        return True

    queue = []
    if union(a, b):
        queue.append((a, b))
    ops = [(sym, arity, alg.tables[sym]) for sym, arity in alg.signature.symbols if arity]
    while queue:
        x, y = queue.pop()
        for _sym, arity, table in ops:
            for pos in range(arity):
                for rest in product(range(size), repeat=arity - 1):
                    kx = ky = 0
                    for i in range(arity):
                        if i == pos:
                            vx, vy = x, y
                        else:
                            vx = vy = rest[i if i < pos else i - 1]
                        kx = kx * size + vx
                        ky = ky * size + vy
                    u, v = table[kx], table[ky]
                    if union(u, v):
                        queue.append((u, v))
    return Partition(_canonical(parent))


@dataclass(frozen=True)
class CongruenceLattice:
    algebra_name: str
    size: int
    congruences: tuple[Partition, ...]
    leq: tuple[tuple[bool, ...], ...]

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

    def index(self, part: Partition) -> int:
        return self.congruences.index(part)


def congruence_lattice(alg: FiniteAlgebra) -> CongruenceLattice:
    """All congruences: identity plus the join-closure of the principal ones."""
    guard_size(alg.size, alg.name)
    size = alg.size
    congs = {Partition.identity(size)}
    principals = set()
    for a in range(size):
        for b in range(a + 1, size):
            principals.add(principal_congruence(alg, a, b))
    congs |= principals
    # close under binary joins
    added = True
    while added:
        added = False
        for p, q in combinations(sorted(congs, key=lambda c: c.rep), 2):
            j = p.join(q)
            if j not in congs:
                congs.add(j)
                added = True
    # refinement-compatible total order: finer congruences have more blocks
    ordered = sorted(congs, key=lambda c: (-c.num_blocks, c.rep))
    leq = tuple(
        tuple(p.leq(q) for q in ordered)
        for p in ordered
    )
    return CongruenceLattice(alg.name, size, tuple(ordered), leq)


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
    if alg.size == 1:
        return False
    lattice = lattice or congruence_lattice(alg)
    return monolith(lattice) is not None


def is_fsi(alg: FiniteAlgebra, lattice: CongruenceLattice | None = None) -> bool:
    """Finitely subdirectly irreducible: nontrivial, identity meet-irreducible."""
    if alg.size == 1:
        return False
    lattice = lattice or congruence_lattice(alg)
    ident = lattice.identity
    above = [c for c in lattice.congruences if c != ident]
    for p, q in combinations(above, 2):
        if p.meet(q) == ident:
            return False
    return True


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
    if not above:
        return False
    return any(all(m.leq(c) for c in above) for m in above)
