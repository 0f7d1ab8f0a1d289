"""Homomorphisms, isomorphism, HS classification, amalgamation.

The hom search binds images element by element with full constraint
propagation, which forces the images of everything the mapped set generates.
Propagation is semi-naive: each newly mapped element, when it leaves the
queue, is combined only with itself and the elements that left before it,
so every argument tuple is checked once, when its last element leaves.  It
reads the tables as nested Python lists: for a binary operation the row and
the column of that element, for any other arity its argument tuples.
Branching only happens on a greedily chosen generating set, so e.g.
automorphisms of the powerset-style algebras branch only over atom images.
The maps the search finds are re-checked against the full tables
independently, in one batched numpy check per call, and a map that fails it
raises RuntimeError, since it marks a fault in the search.  Isomorphism is
this search over bijections alone, stopped at the first map found; two
algebras with equal tables are isomorphic by the identity map, with no search.

HS classification opens only the first subalgebra of each isomorphism type:
one congruence lattice and one set of quotients per type, since a later
subalgebra of a type has the same quotients up to isomorphism.  It keeps one
representative per isomorphism class of quotient, and decides SI (= FSI)
once per class, when the class opens.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

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
    _commuting,
)


def is_homomorphism(A: FiniteAlgebra, B: FiniteAlgebra, mapping) -> bool:
    """Full-table commutation check; mapping is indexable by A's elements."""
    if A.signature != B.signature or len(mapping) != A.size:
        return False
    if not all(v in range(B.size) for v in mapping):
        return False
    return bool(_commuting(A, B, np.array([mapping], dtype=np.int64))[0])


class HomSet(tuple):
    """Homomorphisms as tuples of images, in the order the search finds them."""

    __slots__ = ()

    @property
    def maps(self) -> tuple[tuple[int, ...], ...]:
        # the set itself; perfbench/workloads.py reads this name, so it stays
        return self


def homs(A: FiniteAlgebra, B: FiniteAlgebra, kind: str = "all", first_only=False) -> HomSet:
    """All homomorphisms A -> B, in deterministic order.

    kind restricts to injective or bijective maps (pruned during search, not
    post-filtered).  Raises SizeGuardError when the search visits over
    MAX_UNIVERSE nodes (partial maps closed under propagation), or when the
    maps found hold over MAX_UNIVERSE cells.  Raises RuntimeError when a map
    found fails the full-table check.
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
        return HomSet()

    # the tables as nested lists: an entry is several times cheaper to read than a numpy scalar
    nonconst = [
        (A.grids[sym].tolist(), B.grids[sym].tolist(), ar) for sym, ar in A.signature.symbols if ar
    ]

    # a branch is (img, used, popped): the partial map, for injective kinds the
    # images taken (else None), and the mapped elements propagation has popped
    def bind(img, used, x, v, queue) -> bool:
        # img[x] is not v: map x to v, failing on a clash or a repeated image
        if img[x] is not None:
            return False
        if used is not None:
            if used[v]:
                return False
            used[v] = True
        img[x] = v
        queue.append(x)
        return True

    def propagate(img, used, popped, queue) -> bool:
        # force images of everything the mapped set generates; fail on clash
        # (with no non-constant operation, nothing is forced).  Semi-naive: a
        # popped e meets only itself and the elements popped before it, so each
        # argument tuple is checked once, when its last element is popped.
        while nonconst and queue:
            e = queue.pop()
            popped.append(e)
            earlier = popped[:-1]
            ie = img[e]
            for ta, tb, ar in nonconst:
                if ar == 1:
                    x, v = ta[e], tb[ie]
                    if img[x] != v and not bind(img, used, x, v, queue):
                        return False
                elif ar == 2:
                    # f(e, x) along the row of e, f(x, e) down its column
                    row_a, row_b = ta[e], tb[ie]
                    for x in popped:
                        y, v = row_a[x], row_b[img[x]]
                        if img[y] != v and not bind(img, used, y, v, queue):
                            return False
                    for x in earlier:
                        y, v = ta[x][e], tb[img[x]][ie]
                        if img[y] != v and not bind(img, used, y, v, queue):
                            return False
                else:
                    # the tuples whose first e is in slot i: earlier slots avoid e
                    for i in range(ar):
                        for args in product(*[earlier] * i, [e], *[popped] * (ar - 1 - i)):
                            y, v = ta, tb
                            for x in args:
                                y, v = y[x], v[img[x]]
                            if img[y] != v and not bind(img, used, y, v, queue):
                                return False
        return True

    nodes = 0

    def search(img, used, popped):
        nonlocal nodes
        if first_only and out:
            return
        nodes += 1
        if nodes > MAX_UNIVERSE:
            raise SizeGuardError(f"hom search {A.name} -> {B.name} visits over {MAX_UNIVERSE} nodes")
        try:
            e = img.index(None)
        except ValueError:
            out.append(tuple(img))
            if len(out) * A.size > MAX_UNIVERSE:
                raise SizeGuardError(f"homs {A.name} -> {B.name} hold over {MAX_UNIVERSE} cells")
            return
        for v in range(B.size):
            if used is not None and used[v]:
                continue
            img2, popped2, queue = list(img), list(popped), []
            used2 = None if used is None else list(used)
            if bind(img2, used2, e, v, queue) and propagate(img2, used2, popped2, queue):
                search(img2, used2, popped2)

    img0, used0, popped0, queue0 = [None] * A.size, [False] * B.size if injective else None, [], []
    consts = [(A.const(c), B.const(c)) for c in A.signature.constants()]
    if all(img0[x] == v or bind(img0, used0, x, v, queue0) for x, v in consts):
        if propagate(img0, used0, popped0, queue0):
            search(img0, used0, popped0)
    # propagation checked every argument tuple, so a map the independent
    # full-table check rejects is a fault in the search
    ok = _commuting(A, B, np.array(out, dtype=np.int64).reshape(len(out), A.size))
    if not ok.all():
        bad = out[int(np.flatnonzero(~ok)[0])]
        raise RuntimeError(f"hom search {A.name} -> {B.name} found {bad}, which is not a homomorphism")
    return HomSet(out)


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
    """Some bijective homomorphism A -> B exists; the search stops at the first.

    Equal tables need no search: comparing them is the full-table check of
    the identity map."""
    if A.size != B.size or A.signature != B.signature:
        return False
    if A.tables == B.tables:
        return True
    return bool(homs(A, B, "bijective", first_only=True))


# ---------------------------------------------------------------------------
# HS classification


class HSClassification(NamedTuple):
    subalgebras: tuple[FiniteAlgebra, ...]  # the first subalgebra of each isomorphism type
    representatives: tuple[FiniteAlgebra, ...]  # one quotient per isomorphism class
    si: tuple[bool, ...]  # per class; SI = FSI on a finite algebra

    def si_classes(self) -> list[int]:
        return [cls for cls, si in enumerate(self.si) if si]

    # SI = FSI on a finite algebra; perfbench/workloads.py reads this name, so it stays
    fsi_classes = si_classes


def hs_classify(A: FiniteAlgebra, subalgebras=None, lattice=None) -> HSClassification:
    """Classify every quotient of every subalgebra of A up to isomorphism.

    Only the first subalgebra of each isomorphism type, in all_subuniverses
    order, is opened: a later one of the same type has quotients isomorphic
    to the first one's.  SI is an isomorphism invariant, so it is decided
    once per class, when a quotient opens the class, inside that
    subalgebra's congruence lattice: the congruences of sub/theta correspond
    to the lattice interval above theta, so no quotient lattices are
    computed.  On a finite algebra SI is also FSI.

    subalgebras(A) gives A's subalgebras in all_subuniverses order, and
    lattice stands in for congruence_lattice, so that a caller can hand in
    a memo of both; by default the subalgebras are built here.
    """
    lattice = lattice or congruence_lattice
    subalgs = subalgebras(A) if subalgebras else [subalgebra(A, s)[0] for s in all_subuniverses(A)]
    subs: list[FiniteAlgebra] = []
    reps: list[FiniteAlgebra] = []
    si: list[bool] = []
    for sub in subalgs:
        if any(is_isomorphic(first, sub) for first in subs):
            continue
        subs.append(sub)
        lat = lattice(sub)
        for theta in lat:
            q = quotient(sub, theta)
            if not any(is_isomorphic(q, rep) for rep in reps):
                reps.append(q)
                si.append(quotient_is_si(lat, theta))
    return HSClassification(tuple(subs), tuple(reps), tuple(si))


# ---------------------------------------------------------------------------
# amalgamation


class Amalgam(NamedTuple):
    target: str
    p: tuple[int, ...]
    q: tuple[int, ...]


class SpanReport(NamedTuple):
    """The span f: apex -> left, g: apex -> right, by member name, and its amalgam."""

    apex: str
    left: str
    right: str
    f: tuple[int, ...]
    g: tuple[int, ...]
    amalgam: Amalgam | None

    @property
    def ok(self) -> bool:
        return self.amalgam is not None


def check_amalgamation(members) -> tuple[bool, list[SpanReport]]:
    """Try to amalgamate every span of embeddings among the given algebras.

    For each span f: A -> B, g: A -> C of members, the amalgam is the first
    (member D, embedding p: B -> D, embedding q: C -> D) with p o f = q o g.
    The embeddings between every ordered pair of members are found once.
    """
    members = list(members)
    emb = [[embeddings(x, y) for y in members] for x in members]
    indices = range(len(members))
    reports: list[SpanReport] = []
    for a, apex in enumerate(members):
        for b in indices:
            for f in emb[a][b]:
                for c in indices:
                    for g in emb[a][c]:
                        amalgam = next(
                            (
                                Amalgam(members[d].name, p, q)
                                for d in indices
                                for p in emb[b][d]
                                for q in emb[c][d]
                                if all(p[f[x]] == q[g[x]] for x in range(apex.size))
                            ),
                            None,
                        )
                        reports.append(SpanReport(apex.name, members[b].name, members[c].name, f, g, amalgam))
    return all(r.ok for r in reports), reports


# ---------------------------------------------------------------------------
# epic subalgebras


class EpicWitness(NamedTuple):
    subalgebra: tuple[int, ...]  # C, as elements of the big algebra
    inner: tuple[int, ...]  # A, proper subuniverse of C
    endo: tuple[int, ...] | None  # fixes A pointwise, moves some element of C
    moved: int | None

    @property
    def ok(self) -> bool:
        return self.endo is not None


def check_epic_subalgebras(big: FiniteAlgebra, subuniverses=None) -> tuple[bool, list[EpicWitness]]:
    """No proper subalgebra is epic: two endomorphisms agree on it, differ beyond.

    For every proper subuniverse A of every subalgebra C of big, find an
    endomorphism of big that is the identity on A but moves some element of
    C - A (the second endomorphism of the pair is the identity map).  The
    subuniverses of C are the subuniverses of big inside C, so the pairs
    (C, A) come from one list of big's subuniverses: subuniverses(big) when
    the caller hands in a memo, else all_subuniverses(big).
    """
    ends = endomorphisms(big)
    subs = (subuniverses or all_subuniverses)(big)
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
    atoms = atoms_of(alg)
    out = []
    for a in range(alg.size):
        if a == top:
            out.append(top)
            continue
        img = zero
        for p in atoms:
            if lattice_leq(alg, p, a):
                img = alg.op("join", img, sigma[p])
        out.append(img)
    mapping = tuple(out)
    return mapping, sorted(mapping) == list(range(alg.size)) and is_homomorphism(alg, alg, mapping)
