import random

import pytest

from garsidehyp import braidtop as bt
from garsidehyp import garside as gd
from garsidehyp import parabolic as pb
from garsidehyp.errors import (
    GroupMismatch,
    IndexOutOfRange,
    NotPureAtStrandOne,
    RankTooSmall,
)

A2 = bt.braid_group(2)
A3 = bt.braid_group(3)


def test_standard_curve_counts():
    for n, count in [(2, 2), (3, 5), (4, 9), (5, 14), (6, 20)]:
        assert len(bt.standard_curves(n)) == count
    assert {(c.i, c.j) for c in bt.standard_curves(3)} == \
        {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)}
    with pytest.raises(RankTooSmall):
        bt.standard_curves(1)
    with pytest.raises(IndexOutOfRange):
        bt.StandardCurve(3, 1, 4)
    with pytest.raises(IndexOutOfRange):
        bt.StandardCurve(3, 2, 2)


def test_curve_dictionary():
    entry = bt.curve_parabolic_dictionary(bt.StandardCurve(3, 1, 2))
    assert entry.subgroup.witness_subset == ("s1",)
    assert entry.dehn_twist.render() == "D^0 | s1 | s1"

    entry13 = bt.curve_parabolic_dictionary(bt.StandardCurve(3, 1, 3))
    assert entry13.subgroup.witness_subset == ("s1", "s2")
    d12 = gd.delta_of(A3, ("s1", "s2"))
    assert gd.are_equal(entry13.dehn_twist, gd.multiply(d12, d12))
    # the twist is central in the subgroup
    for lab in ("s1", "s2"):
        assert gd.commute(entry13.dehn_twist, gd.generator_element(A3, lab))


def test_dictionary_consistency_with_normalizers():
    """Stabilizer = centralizer of the Dehn twist = normalizer of the subgroup."""
    rng = random.Random(6)
    for curve in bt.standard_curves(3):
        entry = bt.curve_parabolic_dictionary(curve)
        labels = entry.subgroup.witness_subset
        for _ in range(25):
            letters = tuple((rng.randrange(3), rng.choice((-1, 1)))
                            for _ in range(rng.randint(0, 6)))
            g = gd.normal_form(gd.LetterWord(A3, letters))
            assert pb.normalizer_membership(g, labels) == \
                gd.commute(g, entry.dehn_twist)


def test_act_on_parabolic():
    p1 = pb.standard_parabolic(A3, ("s1",))
    p3 = pb.standard_parabolic(A3, ("s3",))
    s1 = gd.generator_element(A3, "s1")
    assert pb.act_on_parabolic(s1, p3) == p3
    assert pb.act_on_parabolic(gd.delta(A3), p1) == p3
    assert pb.act_on_parabolic(gd.delta_pow(A3, 2), p1) == p1
    with pytest.raises(GroupMismatch):
        pb.act_on_parabolic(gd.delta(A2), p1)


def test_act_is_right_action():
    rng = random.Random(8)
    p12 = pb.standard_parabolic(A3, ("s1", "s2"))
    for _ in range(30):
        mk = lambda: gd.normal_form(gd.LetterWord(
            A3, tuple((rng.randrange(3), rng.choice((-1, 1)))
                      for _ in range(rng.randint(0, 4)))))
        b, c = mk(), mk()
        lhs = pb.act_on_parabolic(c, pb.act_on_parabolic(b, p12))
        rhs = pb.act_on_parabolic(gd.multiply(b, c), p12)
        assert lhs == rhs


def test_arc_identities():
    for n in (3, 4, 5):
        for i in range(1, n + 1):
            for k in (1, 2):
                assert bt.arc_stabilizer_identity(n, i, k)
        if (n + 1) % 2 == 0:
            i = (n + 1) // 2
            for k in (1, 2):
                assert bt.arc_stabilizer_identity(n, i, k, half=True)
    with pytest.raises(IndexOutOfRange):
        bt.arc_stabilizer_identity(3, 4, 1)
    with pytest.raises(IndexOutOfRange):
        bt.arc_stabilizer_identity(3, 1, 1, half=True)  # needs 2i = n+1


def test_doubling_examples():
    assert bt.double_first_strand(gd.LetterWord(A2, ()), 3).is_identity
    img = bt.double_first_strand(gd.parse_word(A2, "b"), 3)
    assert gd.are_equal(img, gd.generator_element(A3, "s3"))
    a1 = bt.braid_group(1)
    img2 = bt.double_first_strand(gd.parse_word(a1, "s1^2"), 2)
    expected = gd.multiply(gd.delta_pow(A2, 2),
                           gd.power(gd.generator_element(A2, "a"), -2))
    assert gd.are_equal(img2, expected)
    with pytest.raises(NotPureAtStrandOne):
        bt.double_first_strand(gd.parse_word(A2, "a"), 3)


def _random_pure(group, rng, length):
    while True:
        letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                        for _ in range(length))
        pos = 1
        for gen_idx, _e in letters:
            t = gen_idx + 1
            if t == pos:
                pos += 1
            elif t == pos - 1:
                pos -= 1
        if pos == 1:
            return gd.LetterWord(group, letters)


def test_doubling_invariants():
    rng = random.Random(12)
    for _ in range(40):
        w = _random_pure(A2, rng, rng.randrange(0, 9))
        img = bt.double_first_strand(w, 3)
        # preserves the round curve around the first two punctures
        assert pb.normalizer_membership(img, ("s1",))
        # exponent bookkeeping against permutation tracking
        letters, tracked = bt.doubled_letters(w, 3)
        assert gd.exponent_sum(img) == w.signed_letter_count() + tracked
        # multiplicative on concatenations of pure words
        w2 = _random_pure(A2, rng, rng.randrange(0, 7))
        cat = gd.LetterWord(A2, w.letters + w2.letters)
        assert gd.are_equal(bt.double_first_strand(cat, 3),
                            gd.multiply(img, bt.double_first_strand(w2, 3)))


def test_delta_three_parabolic_factorization():
    for spec, group in (("A3", A3), ("A4", bt.braid_group(4))):
        fact = bt.delta_three_parabolic_factorization(group)
        assert len(fact.parts) == 3
        prod = gd.identity_element(group)
        for el, labels in fact.parts:
            assert len(labels) < group.rank
            assert group.is_connected_subset(group.gen_indices(labels))
            assert pb.standard_membership(el, labels)
            prod = gd.multiply(prod, el)
        assert gd.are_equal(prod, gd.delta(group))
    with pytest.raises(RankTooSmall):
        bt.delta_three_parabolic_factorization(A2)
