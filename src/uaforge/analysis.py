"""Homomorphisms, isomorphism, HS classification, amalgamation.

The hom search binds images element by element with full constraint
propagation: every time an element's image is fixed, each operation is
applied to the argument tuples of mapped elements that contain it, which
forces the images of everything the mapped set generates.  Propagation
reads the tables as nested Python lists: for a binary operation the row and
the column of the new element, for any other arity its argument tuples.
Branching only happens on a greedily chosen generating set, so e.g.
automorphisms of the powerset-style algebras branch only over atom images.
Every map that survives the search is re-checked against the full tables
independently.  Isomorphism is this search over bijections alone, stopped at
the first map found.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .congruences import congruence_lattice, quotient_is_si
from .core import (
    MAX_UNIVERSE,
    AlgebraError,
    FiniteAlgebra,
    SizeGuardError,
    all_subuniverses,
    guard_size,
    quotient,
    subalgebra,
)
from .partitions import Partition


def is_homomorphism(A: FiniteAlgebra, B: FiniteAlgebra, mapping) -> bool:
    """Full-table commutation check; mapping is indexable by A's elements."""
    if A.signature != B.signature:
        return False
    if len(mapping) != A.size:
        return False
    m = np.asarray(mapping)
    return all(
        np.array_equal(m[grid], B.grids[sym][np.ix_(*[m] * grid.ndim)])
        for sym, grid in A.grids.items()
    )


@dataclass(frozen=True)
class HomSet:
    maps: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


def homs(A: FiniteAlgebra, B: FiniteAlgebra, kind: str = "all", first_only=False) -> HomSet:
    """All homomorphisms A -> B, in deterministic order.

    kind restricts to injective or bijective maps (pruned during search, not
    post-filtered).  Raises SizeGuardError when the search visits over
    MAX_UNIVERSE nodes (partial maps closed under propagation), or when the
    maps found hold over MAX_UNIVERSE cells.
    """
    if kind not in ("all", "injective", "bijective"):
        raise AlgebraError(f"unknown hom kind {kind!r}")
    for alg in (A, B):
        guard_size(alg.size, alg.name)
    if A.signature != B.signature:
        raise AlgebraError("homomorphisms need a common signature")
    injective = kind in ("injective", "bijective")
    out: list[tuple[int, ...]] = []
    if (injective and A.size > B.size) or (kind == "bijective" and A.size != B.size):
        return HomSet(())

    # the tables as nested lists: an entry is several times cheaper to read than a numpy scalar
    nonconst = [
        (A.grids[sym].tolist(), B.grids[sym].tolist(), ar) for sym, ar in A.signature.symbols if ar
    ]

    def assign(img, x, v, queue) -> bool:
        # map x to v, or confirm that it is; fail on a clash or a repeated image
        if img[x] is None:
            if injective and v in img:
                return False
            img[x] = v
            queue.append(x)
            return True
        return img[x] == v

    def propagate(img, queue) -> bool:
        # force images of everything the mapped set generates; fail on clash
        # (with no non-constant operation, nothing is forced)
        while nonconst and queue:
            e = queue.pop()
            mapped = [x for x in range(A.size) if img[x] is not None]
            others = [x for x in mapped if x != e]
            for ta, tb, ar in nonconst:
                if ar == 2:
                    # f(e, x) along the row of e, f(x, e) down its column
                    row_a, row_b = ta[e], tb[img[e]]
                    for x in mapped:
                        if not assign(img, row_a[x], row_b[img[x]], queue):
                            return False
                    for x in others:
                        if not assign(img, ta[x][e], tb[img[x]][img[e]], queue):
                            return False
                else:
                    # the tuples whose first e is in slot i: earlier slots avoid e
                    for i in range(ar):
                        for args in product(*[others] * i, [e], *[mapped] * (ar - 1 - i)):
                            r, v = ta, tb
                            for x in args:
                                r, v = r[x], v[img[x]]
                            if not assign(img, r, v, queue):
                                return False
        return True

    nodes = 0

    def search(img):
        nonlocal nodes
        if first_only and out:
            return
        nodes += 1
        if nodes > MAX_UNIVERSE:
            raise SizeGuardError(f"hom search {A.name} -> {B.name} visits over {MAX_UNIVERSE} nodes")
        try:
            e = img.index(None)
        except ValueError:
            if is_homomorphism(A, B, img):
                out.append(tuple(img))
                if len(out) * A.size > MAX_UNIVERSE:
                    raise SizeGuardError(f"homs {A.name} -> {B.name} hold over {MAX_UNIVERSE} cells")
            return
        for v in range(B.size):
            img2, queue = list(img), []
            if assign(img2, e, v, queue) and propagate(img2, queue):
                search(img2)

    img0: list = [None] * A.size
    queue0: list = []
    if all(assign(img0, A.const(c), B.const(c), queue0) for c in A.signature.constants()):
        if propagate(img0, queue0):
            search(img0)
    return HomSet(tuple(out))


def endomorphisms(A: FiniteAlgebra) -> HomSet:
    return homs(A, A, "all")


def automorphisms(A: FiniteAlgebra) -> HomSet:
    return homs(A, A, "bijective")


def embeddings(A: FiniteAlgebra, B: FiniteAlgebra) -> HomSet:
    return homs(A, B, "injective")


def compose(f, g) -> tuple[int, ...]:
    """(f o g)(x) = f(g(x))."""
    return tuple(f[g[x]] for x in range(len(g)))


def inverse(f) -> tuple[int, ...]:
    inv = [0] * len(f)
    for x, v in enumerate(f):
        inv[v] = x
    return tuple(inv)


def is_group_under_composition(maps) -> bool:
    """Closure, identity, inverses for a finite set of bijections."""
    pool = {tuple(m) for m in maps}
    n = len(next(iter(pool))) if pool else 0
    if tuple(range(n)) not in pool:
        return False
    for f in pool:
        if tuple(inverse(f)) not in pool:
            return False
        for g in pool:
            if compose(f, g) not in pool:
                return False
    return True


# ---------------------------------------------------------------------------
# isomorphism


def is_isomorphic(A: FiniteAlgebra, B: FiniteAlgebra) -> bool:
    """Some bijective homomorphism A -> B exists; the search stops at the first."""
    if A.size != B.size or A.signature != B.signature:
        return False
    return bool(homs(A, B, "bijective", first_only=True).maps)


# ---------------------------------------------------------------------------
# HS classification


@dataclass(frozen=True)
class HSEntry:
    subuniverse: tuple[int, ...]
    congruence: Partition
    size: int
    fsi: bool
    si: bool
    iso_class: int


@dataclass(frozen=True)
class HSClassification:
    algebra: str
    entries: tuple[HSEntry, ...]
    representatives: tuple[FiniteAlgebra, ...]

    def fsi_classes(self) -> list[int]:
        return sorted({e.iso_class for e in self.entries if e.fsi})

    def si_classes(self) -> list[int]:
        return sorted({e.iso_class for e in self.entries if e.si})


def hs_classify(A: FiniteAlgebra) -> HSClassification:
    """Classify every quotient of every subalgebra of A.

    FSI/SI status is decided inside the subalgebra's congruence lattice: the
    congruences of a quotient sub/theta correspond to the lattice interval
    above theta, so no quotient lattices are recomputed.
    """
    entries: list[HSEntry] = []
    reps: list[FiniteAlgebra] = []
    for s in all_subuniverses(A):
        sub, _embed = subalgebra(A, s)
        lat = congruence_lattice(sub)
        for theta in lat:
            q = quotient(sub, theta)
            cls = None
            for i, rep in enumerate(reps):
                if is_isomorphic(q, rep):
                    cls = i
                    break
            if cls is None:
                reps.append(q)
                cls = len(reps) - 1
            si = quotient_is_si(lat, theta)  # on a finite algebra also FSI
            entries.append(HSEntry(s, theta, q.size, fsi=si, si=si, iso_class=cls))
    return HSClassification(A.name, tuple(entries), tuple(reps))


# ---------------------------------------------------------------------------
# amalgamation


@dataclass(frozen=True)
class Span:
    apex: str
    left: str
    right: str
    f: tuple[int, ...]
    g: tuple[int, ...]


@dataclass(frozen=True)
class Amalgam:
    target: str
    p: tuple[int, ...]
    q: tuple[int, ...]


@dataclass(frozen=True)
class SpanReport:
    span: Span
    amalgam: Amalgam | None

    @property
    def ok(self) -> bool:
        return self.amalgam is not None


def check_amalgamation(members, targets=None) -> tuple[bool, list[SpanReport]]:
    """Try to amalgamate every span of embeddings among the given algebras.

    For each span f: A -> B, g: A -> C the search looks for a target D and
    embeddings p: B -> D, q: C -> D with p o f = q o g.  Targets default to
    the members themselves.
    """
    members = list(members)
    targets = list(targets) if targets is not None else members
    emb_cache: dict[tuple[int, int], HomSet] = {}

    def emb(X, Y):
        key = (id(X), id(Y))
        if key not in emb_cache:
            emb_cache[key] = embeddings(X, Y)
        return emb_cache[key]

    reports: list[SpanReport] = []
    for apex in members:
        for left in members:
            for f in emb(apex, left):
                for right in members:
                    for g in emb(apex, right):
                        amalgam = next(
                            (
                                Amalgam(target.name, p, q)
                                for target in targets
                                for p in emb(left, target)
                                for q in emb(right, target)
                                if all(p[f[a]] == q[g[a]] for a in range(apex.size))
                            ),
                            None,
                        )
                        span = Span(apex.name, left.name, right.name, f, g)
                        reports.append(SpanReport(span, amalgam))
    return all(r.ok for r in reports), reports


# ---------------------------------------------------------------------------
# epic subalgebras


@dataclass(frozen=True)
class EpicWitness:
    subalgebra: tuple[int, ...]  # C, as elements of the big algebra
    inner: tuple[int, ...]  # A, proper subuniverse of C
    endo: tuple[int, ...] | None  # fixes A pointwise, moves some element of C
    moved: int | None

    @property
    def ok(self) -> bool:
        return self.endo is not None


def check_epic_subalgebras(big: FiniteAlgebra) -> tuple[bool, list[EpicWitness]]:
    """No proper subalgebra is epic: two endomorphisms agree on it, differ beyond.

    For every proper subuniverse A of every subalgebra C of big, find an
    endomorphism of big that is the identity on A but moves some element of
    C - A (the second endomorphism of the pair is the identity map).  The
    subuniverses of C are the subuniverses of big inside C, so the pairs
    (C, A) come from one list of big's subuniverses.
    """
    ends = endomorphisms(big)
    subs = all_subuniverses(big)
    witnesses: list[EpicWitness] = []
    for c in subs:
        for a in subs:
            if set(a) < set(c):
                endo, moved = next(
                    ((h, b) for h in ends if all(h[x] == x for x in a) for b in c if h[b] != b),
                    (None, None),
                )
                witnesses.append(EpicWitness(c, a, endo, moved))
    return all(w.ok for w in witnesses), witnesses


# ---------------------------------------------------------------------------
# order helpers and atom permutations


def lattice_leq(alg: FiniteAlgebra, a: int, b: int) -> bool:
    return alg.op("meet", a, b) == a


def atoms_of(alg: FiniteAlgebra) -> list[int]:
    """Atoms of the order defined by the meet operation."""
    bottom = alg.const("zero")
    # strictly_below[b, a]: b <= a, that is meet(b, a) = b, with b not a and not the bottom
    strictly_below = alg.grids["meet"] == np.arange(alg.size)[:, None]
    strictly_below[bottom] = False
    np.fill_diagonal(strictly_below, False)
    return [a for a in np.flatnonzero(~strictly_below.any(axis=0)).tolist() if a != bottom]


def atoms_below(alg: FiniteAlgebra, a: int) -> list[int]:
    return [p for p in atoms_of(alg) if lattice_leq(alg, p, a)]


def is_chain(alg: FiniteAlgebra) -> bool:
    return all(
        lattice_leq(alg, a, b) or lattice_leq(alg, b, a)
        for a in range(alg.size)
        for b in range(alg.size)
    )


def atom_permutation_automorphism(alg: FiniteAlgebra, sigma) -> tuple[tuple[int, ...], bool]:
    """Map induced by a permutation of the atoms, and whether it verified.

    sigma maps atom -> atom (a dict over the atoms).  Every element except
    the top is sent to the join of the images of the atoms below it; the top
    is fixed.  Returns (map, ok) where ok reports the independent
    automorphism check rather than asserting it.
    """
    top = alg.const("one")
    zero = alg.const("zero")
    out = []
    for a in range(alg.size):
        if a == top:
            out.append(top)
            continue
        img = zero
        for p in atoms_below(alg, a):
            img = alg.op("join", img, sigma[p])
        out.append(img)
    mapping = tuple(out)
    ok = (
        sorted(mapping) == list(range(alg.size))
        and is_homomorphism(alg, alg, mapping)
    )
    return mapping, ok
