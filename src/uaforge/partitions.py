"""Partitions of {0..n-1} in canonical least-representative form.

The canonical form is an array ``rep`` with ``rep[i]`` = least element of the
block containing ``i``.  Two partitions are equal iff their arrays are equal,
so partitions can live in sets and serve as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass


def _find(parent: list[int], i: int) -> int:
    # iterative find with path halving
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _canonical(parent: list[int]) -> tuple[int, ...]:
    n = len(parent)
    least: dict[int, int] = {}
    rep = [0] * n
    for i in range(n):
        r = _find(parent, i)
        if r not in least:
            least[r] = i  # ascending scan: first hit is the least member
        rep[i] = least[r]
    return tuple(rep)


@dataclass(frozen=True)
class Partition:
    rep: tuple[int, ...]

    def __post_init__(self):
        rep = self.rep
        for i, r in enumerate(rep):
            if not (0 <= r <= i and rep[r] == r):
                raise ValueError(f"rep array not canonical at index {i}: {rep}")

    @property
    def size(self) -> int:
        return len(self.rep)

    @staticmethod
    def identity(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    def full(n: int) -> "Partition":
        return Partition((0,) * n) if n else Partition(())

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Partition":
        parent = list(range(n))
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"pair ({a},{b}) out of range for size {n}")
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[ra] = rb
        return cls(_canonical(parent))

    def same(self, a: int, b: int) -> bool:
        return self.rep[a] == self.rep[b]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as sorted tuples, ordered by least element."""
        buckets: dict[int, list[int]] = {}
        for i, r in enumerate(self.rep):
            buckets.setdefault(r, []).append(i)
        return tuple(tuple(buckets[r]) for r in sorted(buckets))

    @property
    def num_blocks(self) -> int:
        return len(set(self.rep))

    def leq(self, other: "Partition") -> bool:
        """Refinement order: every block of self lies inside a block of other."""
        if self.size != other.size:
            raise ValueError("partitions of different sizes")
        orep = other.rep
        return all(orep[i] == orep[r] for i, r in enumerate(self.rep))

    def join(self, other: "Partition") -> "Partition":
        if self.size != other.size:
            raise ValueError("partitions of different sizes")
        parent = list(self.rep)
        for i, r in enumerate(other.rep):
            ra, rb = _find(parent, i), _find(parent, r)
            if ra != rb:
                parent[ra] = rb
        return Partition(_canonical(parent))

    def meet(self, other: "Partition") -> "Partition":
        if self.size != other.size:
            raise ValueError("partitions of different sizes")
        least: dict[tuple[int, int], int] = {}
        rep = []
        for i in range(self.size):
            key = (self.rep[i], other.rep[i])
            if key not in least:
                least[key] = i
            rep.append(least[key])
        return Partition(tuple(rep))
