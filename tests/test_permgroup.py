import itertools
import random
from math import factorial

import pytest

from binodiv import permgroup
from binodiv.permgroup import (
    CycleType,
    Permutation,
    StabilizerChain,
    _reaches_order,
    check_condition4_pair,
    check_condition5,
    class_members,
    find_condition5_failure_witness,
    format_cycles,
    group_order,
    parse_cycles,
)
from oracles import naive_closure_order

A5 = [parse_cycles("(1 2 3)", 5), parse_cycles("(1 2 3 4 5)", 5)]


def _random_perm(rng, degree):
    img = list(range(degree))
    rng.shuffle(img)
    return Permutation(tuple(img))


def _random_even_perm(rng, degree):
    g = _random_perm(rng, degree)
    return g if g.is_even() else g * parse_cycles("(1 2)", degree)


def _partitions(n, most=None):
    if most is None:
        most = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, most), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_permutation_axioms():
    rng = random.Random(17)
    for _ in range(100):
        deg = rng.randrange(1, 13)
        g, h, k = (_random_perm(rng, deg) for _ in range(3))
        assert (g * h) * k == g * (h * k)
        assert g * g.inverse() == Permutation.identity(deg)
        assert g.inverse().inverse() == g
        assert (g * h).inverse() == h.inverse() * g.inverse()


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation(tuple(range(17)))
    with pytest.raises(ValueError):
        Permutation((1, 0)) * Permutation((0, 1, 2))


def test_parse_format_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        deg = rng.randrange(1, 13)
        g = _random_perm(rng, deg)
        assert parse_cycles(format_cycles(g), deg) == g
    assert parse_cycles("", 5) == Permutation.identity(5)
    assert parse_cycles("()", 5) == Permutation.identity(5)
    assert parse_cycles("(1 2 3)(4 5)", 5).images == (1, 2, 0, 4, 3)


def test_parse_cycles_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1 2 6)", 5)
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 5)
    with pytest.raises(ValueError):
        parse_cycles("1 2 3", 5)


def test_cycle_type_and_order():
    g = parse_cycles("(1 2 3 4)(5 6 7 8)", 8)
    assert g.cycle_type() == CycleType(8, (4, 4))
    assert g.cycle_type().element_order() == 4
    assert parse_cycles("(1 2)(3 4 5)", 6).cycle_type().element_order() == 6
    assert Permutation.identity(4).cycle_type().parts == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        CycleType(5, (3, 3))


def test_parity():
    assert parse_cycles("(1 2 3)", 5).is_even()
    assert not parse_cycles("(1 2)", 5).is_even()
    assert parse_cycles("(1 2 3 4)(5 6)", 6).is_even()
    assert CycleType(6, (4, 2)).is_even()
    assert not CycleType(6, (4, 1, 1)).is_even()


def test_splits():
    assert CycleType(5, (5,)).splits()
    assert CycleType(7, (7,)).splits()
    assert CycleType(8, (5, 3)).splits()
    assert not CycleType(5, (3, 1, 1)).splits()  # repeated fixed points
    assert not CycleType(8, (4, 4)).splits()  # even lengths
    assert not CycleType(6, (3, 3)).splits()


def test_class_size_matches_enumeration():
    for n in range(2, 8):
        counts = {}
        for img in itertools.permutations(range(n)):
            ct = Permutation(img).cycle_type()
            counts[ct] = counts.get(ct, 0) + 1
        for ct, size in counts.items():
            assert ct.class_size() == size, ct


def test_representative_has_its_type():
    for n in range(2, 10):
        for parts in _partitions(n):
            ct = CycleType(n, parts)
            assert ct.representative().cycle_type() == ct


def test_group_order_alternating_and_symmetric():
    rows = [
        (5, "(1 2 3)", "(1 2 3 4 5)"),
        (6, "(1 2 3 4)(5 6)", "(1 2 3 4 5)"),
        (7, "(1 2 3 4 5)", "(1 2 3 4 5 6 7)"),
        (8, "(1 2 3 4)(5 6 7 8)", "(1 2 3 4 5)"),
    ]
    for n, c, d in rows:
        assert group_order([parse_cycles(c, n), parse_cycles(d, n)]) == factorial(n) // 2
    for n in range(2, 10):
        gens = [parse_cycles("(1 2)", n), parse_cycles("(" + " ".join(map(str, range(1, n + 1))) + ")", n)]
        assert group_order(gens) == factorial(n)
    assert group_order([]) == 1
    assert group_order([Permutation.identity(4)]) == 1


def test_group_order_matches_naive_closure():
    rng = random.Random(7)
    for _ in range(150):
        deg = rng.randrange(2, 8)
        gens = [_random_perm(rng, deg) for _ in range(rng.randrange(1, 4))]
        assert group_order(gens) == naive_closure_order(gens)
    # degree 8 with even generators, so the closure stays inside A_8 and
    # within the oracle's cap; a fixed point or a 3-cycle gives proper subgroups
    special = [parse_cycles("(1 2 3)", 8), parse_cycles("(1 2)(3 4)", 8), parse_cycles("(1 2 3 4 5 6 7)", 8)]
    for _ in range(12):
        gens = [_random_even_perm(rng, 8)] if rng.random() < 0.5 else []
        gens += rng.sample(special, rng.randrange(1, 3))
        assert group_order(gens) == naive_closure_order(gens)


def test_stabilizer_chain_membership():
    chain = StabilizerChain(5, A5)
    assert chain.order() == 60
    assert chain.contains(parse_cycles("(1 2)(3 4)", 5))
    assert chain.contains(parse_cycles("(3 4 5)", 5))
    assert not chain.contains(parse_cycles("(1 2)", 5))
    assert not chain.contains(parse_cycles("(1 2 3 4)", 5))
    # D_5 inside A_5
    d5 = StabilizerChain(5, [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(2 5)(3 4)", 5)])
    assert d5.order() == 10
    assert not d5.contains(parse_cycles("(1 2 3)", 5))
    for ch in (StabilizerChain(5, []), chain):
        with pytest.raises(ValueError, match="degree mismatch"):
            ch.contains(Permutation.identity(4))
        with pytest.raises(ValueError, match="degree mismatch"):
            ch.contains(parse_cycles("(1 2 3)", 6))


PROPER_SUBGROUPS = [
    # D_5 inside A_5
    (5, ["(1 2 3 4 5)", "(2 5)(3 4)"], 10),
    # the degree-8 Condition (5) witness: PSL(2, 7) on the projective line
    (8, ["(1 2)(3 4)(5 6)(7 8)", "(2 3 5 4 7 6 8)"], 168),
    # point stabilizers: A_7 and A_4 fixing the last points
    (8, ["(1 2 3)", "(1 2 3 4 5 6 7)"], 2520),
    (6, ["(1 2 3)", "(2 3 4)"], 12),
]


@pytest.mark.parametrize("n, texts, order", PROPER_SUBGROUPS)
def test_bounded_build_never_stops_in_a_proper_subgroup(n, texts, order):
    gens = [parse_cycles(t, n) for t in texts]
    assert group_order(gens) == order
    # a build bounded by n!/2 runs to the full chain and its full order
    chain = StabilizerChain(n, [])
    chain._target = factorial(n) // 2
    chain._extend(gens)
    assert chain.order() == order
    assert not _reaches_order(gens, factorial(n) // 2)
    assert not _reaches_order(gens, order + 1)
    assert _reaches_order(gens, order)


def test_bounded_test_agrees_with_group_order_on_condition5_sweeps(monkeypatch):
    swept = []

    def spy(gens, target):
        swept.append((list(gens), target))
        return _reaches_order(gens, target)

    monkeypatch.setattr(permgroup, "_reaches_order", spy)
    assert check_condition5(6) is None
    assert check_condition5(8) is None
    orders = set()
    for gens, target in swept:
        n = gens[0].degree
        assert target == factorial(n) // 2
        order = group_order(gens)
        orders.add(order)
        assert _reaches_order(gens, target) == (order == target)
        if order != target:
            assert _reaches_order(gens, order) and not _reaches_order(gens, order + 1)
    assert {360, 20160, 168} <= orders


def test_class_members_counts_and_halves():
    for n in range(4, 8):
        for parts in _partitions(n):
            ct = CycleType(n, parts)
            if not ct.is_even():
                continue
            members = list(class_members(n, ct))
            assert len(members) == ct.class_size()
            assert len(set(members)) == len(members)
            assert all(g.cycle_type() == ct for g in members)
            if ct.splits():
                h0 = set(class_members(n, ct, 0))
                h1 = set(class_members(n, ct, 1))
                assert len(h0) == len(h1) == ct.class_size() // 2
                assert not h0 & h1


def test_class_members_half_is_closed_under_even_conjugation():
    ct = CycleType(5, (5,))
    h0 = set(class_members(5, ct, 0))
    rng = random.Random(2)
    for _ in range(40):
        g = rng.choice(sorted(h0, key=lambda x: x.images))
        s = _random_perm(rng, 5)
        if not s.is_even():
            s = s * parse_cycles("(1 2)", 5)
        conj = s.inverse() * g * s
        assert conj in h0


def test_class_members_guards():
    with pytest.raises(ValueError):
        list(class_members(5, CycleType(5, (2, 1, 1, 1))))  # odd type
    with pytest.raises(ValueError):
        list(class_members(13, CycleType(13, (13,))))
    with pytest.raises(ValueError):
        list(class_members(5, CycleType(5, (5,)), half=2))


def test_condition4_table_rows():
    rows = [
        (5, "(1 2 3)", "(1 2 3 4 5)"),
        (6, "(1 2 3 4)(5 6)", "(1 2 3 4 5)"),
        (7, "(1 2 3 4 5)", "(1 2 3 4 5 6 7)"),
        (8, "(1 2 3 4)(5 6 7 8)", "(1 2 3 4 5)"),
    ]
    for n, c, d in rows:
        ctC = parse_cycles(c, n).cycle_type()
        ctD = parse_cycles(d, n).cycle_type()
        assert check_condition4_pair(n, ctC, ctD), n


def test_condition4_split_half_choice_is_immaterial_for_table_rows():
    assert check_condition4_pair(5, CycleType(5, (3, 1, 1)), CycleType(5, (5,)), splitD=0)
    assert check_condition4_pair(5, CycleType(5, (3, 1, 1)), CycleType(5, (5,)), splitD=1)
    assert check_condition4_pair(7, CycleType(7, (5, 1, 1)), CycleType(7, (7,)), splitD=1)


def test_condition4_failing_pairs():
    # two 5-point cycles can land in the same point stabilizer
    assert not check_condition4_pair(6, CycleType(6, (5, 1)), CycleType(6, (5, 1)))
    # double transpositions generate dihedral subgroups at degree 5
    assert not check_condition4_pair(5, CycleType(5, (2, 2, 1)), CycleType(5, (2, 2, 1)))
    # the degree 8 pair broken by a subgroup of order 168
    assert not check_condition4_pair(8, CycleType(8, (2, 2, 2, 2)), CycleType(8, (7, 1)))


def test_condition4_validation():
    with pytest.raises(ValueError):
        check_condition4_pair(9, CycleType(9, (3,) * 3), CycleType(9, (9,)))
    with pytest.raises(ValueError):
        check_condition4_pair(6, CycleType(6, (2, 1, 1, 1, 1)), CycleType(6, (5, 1)))
    with pytest.raises(ValueError):
        # element order 6 is not a prime power
        check_condition4_pair(6, CycleType(6, (3, 2, 1)), CycleType(6, (5, 1)))
    with pytest.raises(ValueError):
        check_condition4_pair(6, CycleType(5, (5,)), CycleType(6, (5, 1)))
    five = CycleType(5, (5,))
    for half in (2, -1):
        with pytest.raises(ValueError, match="half must be 0 or 1"):
            check_condition4_pair(5, five, five, splitC=half)
        with pytest.raises(ValueError, match="half must be 0 or 1"):
            check_condition4_pair(5, five, five, splitD=half)


def test_condition5_verdicts():
    assert check_condition5(5) == (CycleType(5, (3, 1, 1)), CycleType(5, (5,)))
    assert check_condition5(6) is None
    assert check_condition5(7) == (CycleType(7, (3, 1, 1, 1, 1)), CycleType(7, (7,)))
    assert check_condition5(8) is None
    with pytest.raises(ValueError):
        check_condition5(9)


def test_condition5_orders():
    got5 = check_condition5(5)
    assert (got5[0].element_order(), got5[1].element_order()) == (3, 5)
    got7 = check_condition5(7)
    assert (got7[0].element_order(), got7[1].element_order()) == (3, 7)


def test_condition5_failure_witness_degree8():
    ctC = CycleType(8, (2, 2, 2, 2))
    ctD = CycleType(8, (7, 1))
    got = find_condition5_failure_witness(8, ctC, ctD)
    assert got is not None
    c, d = got
    assert c.cycle_type() == ctC and d.cycle_type() == ctD
    assert group_order([c, d]) == 168
    with pytest.raises(ValueError):
        find_condition5_failure_witness(7, ctC, ctD)
    with pytest.raises(ValueError):
        find_condition5_failure_witness(8, CycleType(8, (4, 4)), ctD)
