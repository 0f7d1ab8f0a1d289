import itertools
import pickle
import re
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uaforge import catalog
from uaforge.congruences import (
    CongruenceLattice,
    congruence_lattice,
    is_congruence,
    is_fsi,
    is_si,
    is_simple,
    monolith,
    principal_congruence,
    quotient_is_fsi,
    quotient_is_si,
)
from uaforge.core import (
    SIZE_GUARD,
    Signature,
    SizeGuardError,
    all_subuniverses,
    direct_product,
    make_algebra,
    quotient,
    subalgebra,
)
from uaforge.partitions import Partition

SIG = Signature((("f", 2), ("g", 1)))
# a ternary operation has a middle argument slot; constants give no translation
SIGNATURES = (SIG, SIG.extended((("h", 3),)), Signature((("c", 0),)))


def _two_chain():
    return make_algebra("c2", SIG, 2, {"f": (0, 0, 0, 1), "g": (0, 1)})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: is_congruence(_two_chain(), Partition.identity(3)),
            "partition size does not match the algebra",
            id="is-congruence-size",
        ),
        pytest.param(
            lambda: principal_congruence(_two_chain(), 0, 2), "pair (0,2) out of range", id="pair"
        ),
    ],
)
def test_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def all_partitions(n):
    """Every partition of {0..n-1}, via restricted-growth strings."""
    def grow(prefix, maxblock):
        if len(prefix) == n:
            yield Partition.from_pairs(
                n, [(i, j) for i in range(n) for j in range(i) if prefix[i] == prefix[j]]
            )
            return
        for b in range(maxblock + 2):
            yield from grow(prefix + [b], max(maxblock, b))
    yield from grow([0], 0)


def is_cong_brute(alg, part):
    """Compatibility straight from the definition: every componentwise-related
    pair of argument tuples lands in the same block."""
    n = alg.size
    for sym, arity in alg.signature.symbols:
        if arity == 0:
            continue
        for args1 in itertools.product(range(n), repeat=arity):
            for args2 in itertools.product(range(n), repeat=arity):
                if all(part.same(a, b) for a, b in zip(args1, args2)):
                    if not part.same(alg.op(sym, *args1), alg.op(sym, *args2)):
                        return False
    return True


@st.composite
def small_algebras(draw, max_size=4):
    size = draw(st.integers(2, max_size))
    elem = st.integers(0, size - 1)
    sig = draw(st.sampled_from(SIGNATURES))
    tables = {
        sym: tuple(draw(st.lists(elem, min_size=size**arity, max_size=size**arity)))
        for sym, arity in sig.symbols
    }
    return make_algebra("rand", sig, size, tables)


@given(small_algebras(), st.data())
@settings(max_examples=60)
def test_is_congruence_matches_definition(alg, data):
    n = alg.size
    k = data.draw(st.integers(0, 3))
    pairs = [
        (data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)))
        for _ in range(k)
    ]
    part = Partition.from_pairs(n, pairs)
    assert is_congruence(alg, part) == is_cong_brute(alg, part)


@given(small_algebras())
@settings(max_examples=40)
def test_principal_congruence_is_least(alg):
    n = alg.size
    congs = [p for p in all_partitions(n) if is_cong_brute(alg, p)]
    for a in range(n):
        for b in range(n):
            theta = principal_congruence(alg, a, b)
            assert theta.same(a, b)
            assert theta in congs
            # least among all congruences containing the pair
            assert all(theta.leq(p) for p in congs if p.same(a, b))


def check_lattice_against_brute(alg):
    brute = sorted(p.rep for p in all_partitions(alg.size) if is_cong_brute(alg, p))
    lat = congruence_lattice(alg)
    assert sorted(c.rep for c in lat.congruences) == brute
    # ordering contract: finer (more blocks) first, identity first overall
    blocks = [c.num_blocks for c in lat.congruences]
    assert lat.congruences[0] == Partition.identity(alg.size)
    assert blocks[1:] == sorted(blocks[1:], reverse=True)


def slot_algebras():
    """For each argument slot of a binary and a ternary operation, an algebra
    whose operation applies one unary map to that slot and ignores the others,
    so its congruences are the partitions that map preserves.  Random tables
    nearly always give simple algebras, which would hide a translation table
    that varies the wrong slot."""
    g = (1, 0, 3, 3)
    for arity in (2, 3):
        for slot in range(arity):
            table = [g[args[slot]] for args in itertools.product(range(4), repeat=arity)]
            yield make_algebra(f"slot{slot}", Signature((("h", arity),)), 4, {"h": table})


def test_congruence_lattice_matches_brute_enumeration():
    named = (catalog.build("sec2.A-minus-a4"), catalog.build("sec2.A"))
    for alg in (*named, *slot_algebras()):
        check_lattice_against_brute(alg)


@given(small_algebras())
@settings(max_examples=40)
def test_random_congruence_lattices_match_brute_enumeration(alg):
    check_lattice_against_brute(alg)


def test_congruence_lattice_without_translations():
    # one element; no operations; constants only: no basic translation, so
    # every partition is a congruence and Cg(a, b) merges just a and b
    one = make_algebra("one", SIG, 1, {"f": (0,), "g": (0,)})
    bare = make_algebra("bare", Signature(()), 4, {})
    consts = make_algebra("consts", Signature((("c", 0),)), 3, {"c": (2,)})
    for alg in (one, bare, consts):
        check_lattice_against_brute(alg)
        n = alg.size
        for a in range(n):
            for b in range(n):
                assert principal_congruence(alg, a, b) == Partition.from_pairs(n, [(a, b)])
    assert congruence_lattice(one).congruences == (Partition.identity(1),)
    assert len(congruence_lattice(bare)) == 15  # Bell(4)
    assert len(congruence_lattice(consts)) == 5  # Bell(3)
    # the kernel computes every pair at once, so it stays within the size guard
    with pytest.raises(SizeGuardError):
        principal_congruence(make_algebra("big", Signature(()), SIZE_GUARD + 1, {}), 0, 1)


def test_operation_free_lattices_refuse_fast():
    # Bell(16) and Bell(24) congruences: the join count is sure to pass the
    # bound after a few steps of the pass over the principal congruences
    for n in (16, 24):
        alg = make_algebra(f"E{n}", Signature(()), n, {})
        start = time.perf_counter()
        with pytest.raises(SizeGuardError, match="over 1000000 joins"):
            congruence_lattice(alg)
        assert time.perf_counter() - start < 2


def test_cube_lattice_is_every_partition():
    # f(x, y) = x, g(x) = x and a constant: every partition of the cube is a
    # congruence, so its lattice is all Bell(8) = 4,140 partitions of 8
    x2 = make_algebra("X2", SIG.extended((("c", 0),)), 2, {"f": (0, 0, 1, 1), "g": (0, 1), "c": (0,)})
    cube = direct_product([x2] * 3)
    with mock.patch.object(Partition, "join", autospec=True, side_effect=Partition.join) as spy:
        lat = congruence_lattice(cube)
    assert len(lat) == 4140
    assert set(lat) == set(all_partitions(8))
    assert spy.call_count <= 29_401


def meet_irreducible(lattice, theta):
    """FSI by definition: theta < 1 is not the meet of two congruences above it."""
    if theta == lattice.full:
        return False
    above = [c for c in lattice if theta.leq(c) and c != theta]
    return all(p.meet(q) != theta for p, q in itertools.combinations(above, 2))


def least_above(lattice, theta):
    """SI by definition: the congruence above theta that is below all the others."""
    above = [c for c in lattice if theta.leq(c) and c != theta]
    return next((m for m in above if all(m.leq(c) for c in above)), None)


# random tables nearly always give simple algebras; the examples' lattices are
# a square, all 15 partitions of four elements, and a cube above a monolith
@given(small_algebras())
@example(direct_product([catalog.build("An?n=0")] * 2))
@example(make_algebra("bare", Signature(()), 4, {}))
@example(catalog.build("An?n=3"))
@settings(max_examples=40)
def test_fsi_si_and_monolith_match_definitions(alg):
    lat = congruence_lattice(alg)
    assert monolith(lat) == least_above(lat, lat.identity)
    for theta in lat:
        assert quotient_is_fsi(lat, theta) == meet_irreducible(lat, theta)
        assert quotient_is_si(lat, theta) == (least_above(lat, theta) is not None)


def count_filters(alg):
    """Nonempty, meet-closed, upward-closed subsets of a lattice reduct."""
    n = alg.size
    le = [[alg.op("meet", a, b) == a for b in range(n)] for a in range(n)]
    count = 0
    for mask in range(1, 2 ** n):
        s = [i for i in range(n) if mask >> i & 1]
        inside = set(s)
        meet_ok = all(alg.op("meet", a, b) in inside for a in s for b in s)
        up_ok = all(b in inside for a in s for b in range(n) if le[a][b])
        if meet_ok and up_ok:
            count += 1
    return count


def test_heyting_congruences_biject_with_filters():
    a3 = catalog.build("An?n=3")
    lat = congruence_lattice(a3)
    assert len(lat) == count_filters(a3) == 9


def test_sec2_lattices():
    a = catalog.build("sec2.A")
    lat = congruence_lattice(a)
    assert len(lat) == 2
    assert is_simple(a)
    assert monolith(lat) == Partition.full(8)

    am = catalog.build("sec2.A-minus-a4")
    lam = congruence_lattice(am)
    theta = catalog.build("sec2.theta")
    assert [c.num_blocks for c in lam.congruences] == [7, 6, 1]
    assert theta in list(lam)
    assert monolith(lam) == theta
    assert is_si(am) and is_fsi(am) and not is_simple(am)


def test_monolith_absent_in_product():
    a0 = catalog.build("An?n=0")
    prod = direct_product([a0, a0])
    lat = congruence_lattice(prod)
    assert monolith(lat) is None
    assert not is_si(prod)


def test_trivial_algebra_is_not_si_or_fsi():
    t = catalog.trivial_algebra(SIG.restricted(("g",)))
    one = make_algebra("one", Signature((("g", 1),)), 1, {"g": (0,)})
    for alg in (t, one):
        assert not is_simple(alg)
        assert not is_si(alg)
        assert not is_fsi(alg)


def test_quotient_interval_tests_match_direct_computation():
    # quotient_is_fsi/si on the interval above theta must agree with
    # classifying the quotient algebra itself
    am = catalog.build("sec2.A-minus-a4")
    lam = congruence_lattice(am)
    for theta in lam:
        q = quotient(am, theta)
        assert quotient_is_fsi(lam, theta) == is_fsi(q)
        assert quotient_is_si(lam, theta) == is_si(q)

    b3 = catalog.build("Bn?n=3")
    from uaforge.core import all_subuniverses

    for sub_res in all_subuniverses(b3):
        sub, _ = subalgebra(b3, sub_res)
        lat = congruence_lattice(sub)
        for theta in lat:
            q = quotient(sub, theta)
            assert quotient_is_fsi(lat, theta) == is_fsi(q)
            assert quotient_is_si(lat, theta) == is_si(q)


def test_lattice_index_and_accessors():
    am = catalog.build("sec2.A-minus-a4")
    lat = congruence_lattice(am)
    assert lat.identity == Partition.identity(7)
    assert lat.full == Partition.full(7)
    assert lat.congruences[0] == lat.identity
    theta = catalog.build("sec2.theta")
    assert theta in lat.congruences


def test_congruence_lattice_is_the_tuple_of_its_congruences():
    # finer first: the identity opens every lattice and the full relation
    # closes it, on A4's subalgebras, one element (where they coincide) and
    # four elements without operations (every partition, Bell(4) = 15)
    a4 = catalog.build("An?n=4")
    one = make_algebra("one", SIG, 1, {"f": (0,), "g": (0,)})
    bare = make_algebra("bare", Signature(()), 4, {})
    for alg in [subalgebra(a4, s)[0] for s in all_subuniverses(a4)] + [one, bare]:
        lat = congruence_lattice(alg)
        plain = tuple(lat)
        assert isinstance(lat, CongruenceLattice) and lat == plain and hash(lat) == hash(plain)
        assert lat.congruences == plain  # read by the benchmark workloads
        assert lat.identity == lat[0] == Partition.identity(alg.size)
        assert lat.full == lat[-1] == Partition.full(alg.size)
        back = pickle.loads(pickle.dumps(lat))
        assert type(back) is CongruenceLattice and back == plain and back.full == lat.full
    assert congruence_lattice(one) == (Partition.identity(1),) == (Partition.full(1),)
    assert len(congruence_lattice(bare)) == 15
