import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uaforge.partitions import Partition


def brute_closure(n, pairs):
    """Equivalence closure computed by repeated scanning (independent oracle)."""
    cls = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            ra, rb = cls[a], cls[b]
            if ra != rb:
                lo, hi = min(ra, rb), max(ra, rb)
                for i in range(n):
                    if cls[i] == hi:
                        cls[i] = lo
                changed = True
    # normalize to least representative
    rep = {}
    out = []
    for i, c in enumerate(cls):
        rep.setdefault(c, i)
        out.append(rep[c])
    return tuple(out)


@st.composite
def pair_lists(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, 10))
    pairs = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(k)
    ]
    return n, pairs


@given(pair_lists())
def test_from_pairs_matches_brute_closure(case):
    n, pairs = case
    assert Partition.from_pairs(n, pairs).rep == brute_closure(n, pairs)


@given(pair_lists())
def test_canonical_form_invariants(case):
    n, pairs = case
    p = Partition.from_pairs(n, pairs)
    for i, r in enumerate(p.rep):
        assert 0 <= r <= i
        assert p.rep[r] == r


def test_identity_and_full():
    assert Partition.identity(4).rep == (0, 1, 2, 3)
    assert Partition.full(4).rep == (0, 0, 0, 0)
    assert Partition.identity(0).rep == ()
    assert Partition.full(0).rep == ()
    assert Partition.full(1) == Partition.identity(1)


def test_validation_rejects_non_canonical():
    with pytest.raises(ValueError):
        Partition((1, 1))  # rep above own index
    with pytest.raises(ValueError):
        Partition((0, 0, 1))  # rep of 2 is not a class representative


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: Partition.from_pairs(3, [(0, 3)]), "pair (0,3) out of range for size 3", id="pair"
        ),
        pytest.param(
            lambda: Partition.identity(2).leq(Partition.identity(3)),
            "partitions of different sizes",
            id="leq",
        ),
        pytest.param(
            lambda: Partition.identity(2).join(Partition.identity(3)),
            "partitions of different sizes",
            id="join",
        ),
        pytest.param(
            lambda: Partition.identity(2).meet(Partition.identity(3)),
            "partitions of different sizes",
            id="meet",
        ),
    ],
)
def test_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@given(pair_lists(), pair_lists())
def test_lattice_laws(c1, c2):
    n = min(c1[0], c2[0])
    p = Partition.from_pairs(n, [(a % n, b % n) for a, b in c1[1]])
    q = Partition.from_pairs(n, [(a % n, b % n) for a, b in c2[1]])
    j, m = p.join(q), p.meet(q)
    assert p.leq(j) and q.leq(j)
    assert m.leq(p) and m.leq(q)
    assert j == q.join(p)
    assert m == q.meet(p)
    assert p.join(p) == p and p.meet(p) == p
    assert p.leq(q) == (p.join(q) == q)
    assert Partition.identity(n).leq(p) and p.leq(Partition.full(n))


@given(pair_lists())
@settings(max_examples=50)
def test_blocks_partition_the_universe(case):
    n, pairs = case
    p = Partition.from_pairs(n, pairs)
    seen = [x for b in p.blocks() for x in b]
    assert sorted(seen) == list(range(n))
    assert [b[0] for b in p.blocks()] == sorted(b[0] for b in p.blocks())


def test_same_and_blocks_json():
    p = Partition.from_pairs(4, [(1, 3)])
    assert p.same(1, 3) and not p.same(0, 1)
    assert p.blocks() == ((0,), (1, 3), (2,))
