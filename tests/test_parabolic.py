import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from garsidehyp import garside as gd
from garsidehyp import parabolic as pb
from garsidehyp.coxeter import parse_group_spec
from garsidehyp.errors import (
    ImproperSubset,
    NotFoundWithinSearch,
    PreconditionViolated,
    ReducibleSubset,
    SameVertex,
)
from oracles import invert_based_membership, reference_standardize
from test_garside import normal_forms

A3 = parse_group_spec("A3")
B3 = parse_group_spec("B3")
I5 = parse_group_spec("I2(5)")


def nf(group, text):
    return gd.normal_form(gd.parse_word(group, text))


def test_proper_irreducible_subsets():
    subs = pb.proper_irreducible_subsets(A3)
    assert ("s1", "s3") not in subs
    assert set(subs) == {("s1",), ("s2",), ("s3",),
                         ("s1", "s2"), ("s2", "s3")}
    assert pb.proper_irreducible_subsets(I5) == [("a",), ("b",)]


def test_standard_membership_examples():
    assert pb.standard_membership(nf(A3, "s1 s2 s1"), ("s1", "s2"))
    assert not pb.standard_membership(nf(A3, "s3"), ("s1", "s2"))
    assert not pb.standard_membership(gd.delta_pow(A3, 2), ("s1", "s2"))


BOX = 2
MEMBERSHIP_SUBSETS = [("A2", ("a",)), ("A3", ("s2",)), ("A3", ("s1", "s2")),
                      ("A3", ("s1", "s3")), ("B3", ("s2", "s3")), ("I2(5)", ("b",))]


@functools.cache
def _box_members(spec, labels):
    """The factor tuples of the box |inf| <= BOX, length <= BOX, and the keys
    (inf, factors) of its members of A_T, by brute force: the products
    a^-1 c of positive T-words a, c of at most BOX l(w0_T) letters.

    Every member is one: its np form a^-1 c (a, c positive, no common left
    divisor) has a, c in A_T^+, sup a = -inf g <= BOX, and c = g when inf g
    >= 0, where inf g = 0 since D is not in A_T; each factor of an element
    of A_T^+ lies in W_T, so sup <= BOX means at most BOX l(w0_T) letters.
    """
    group = parse_group_spec(spec)
    tab = group.table()
    idx = group.gen_indices(labels)
    gens = [gd.GarsideElement(group, 0, (tab.rmult[0][i],)) for i in idx]
    letters = BOX * tab.length[tab.longest_in(tab.mask_of(idx))]
    level = {(0, ()): gd.identity_element(group)}
    positives = dict(level)
    for _ in range(letters):
        level = {(h.power, h.factors): h for g in level.values() for u in gens
                 for h in [gd.multiply(g, u)]}
        positives.update(level)
    members = set()
    for a in positives.values():
        a_inv = gd.invert(a)
        for c in positives.values():
            g = gd.multiply(a_inv, c)
            if abs(g.power) <= BOX and len(g.factors) <= BOX:
                members.add((g.power, g.factors))
    forms = [fs for ell in range(BOX + 1) for fs in gd.iter_positive_factor_tuples(group, ell)]
    return forms, sorted(members)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_standard_membership_matches_box_enumeration(data):
    """Members drawn from the brute-force list and elements drawn from the
    whole box, inf from -BOX to BOX."""
    spec, labels = data.draw(st.sampled_from(MEMBERSHIP_SUBSETS))
    forms, members = _box_members(spec, labels)
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(members))
    else:
        key = (data.draw(st.integers(-BOX, BOX)), data.draw(st.sampled_from(forms)))
    g = gd.GarsideElement(parse_group_spec(spec), *key)
    assert pb.standard_membership(g, labels) == (key in members)


@st.composite
def _element_and_subset(draw):
    """A nonempty generator subset T, proper or not, and an element: half
    the time a word over T (a member, of any inf), else a normal form of
    inf -4..4 (mostly not), prefixes of every length from empty up."""
    g = draw(normal_forms())
    group = g.group
    idx = sorted(draw(st.sets(st.integers(0, group.rank - 1), min_size=1)))
    if draw(st.booleans()):
        letters = st.tuples(st.sampled_from(idx), st.sampled_from((-2, -1, 1, 2)))
        g = gd.normal_form(gd.LetterWord(group, tuple(draw(st.lists(letters, max_size=8)))))
    return g, tuple(group.generators[i] for i in idx)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(_element_and_subset())
def test_membership_reads_the_rule(case):
    """Membership on the factors agrees with building and inverting the
    negative prefix."""
    g, labels = case
    assert pb.standard_membership(g, labels) == invert_based_membership(g, labels)


@pytest.mark.parametrize("spec,labels,power,word,member", [
    ("A3", ("s1",), 2, "s1", False),   # D^2 s1: D is outside A_T
    ("A3", ("s1",), -3, "s1", False),   # a = D^2 y_1: D is outside A_T
    ("A3", ("s1", "s2", "s3"), -3, "s1", True),
    ("A3", ("s1",), -1, "s1 s2 s3 s2 s1", False),
    ("A3", ("s1", "s2"), -2, "s2 s3 s2 s1", False),
    ("A3", ("s1", "s2"), 0, "s1^-1 s2^-1 s1", True),
    ("A4", ("s2", "s3"), 0, "s2^-2 s3 s2^-1", True),
    ("A4", ("s3", "s4"), 0, "s3^-1 s4^-1 s2", False),
])
def test_membership_examples_on_the_rule(spec, labels, power, word, member):
    group = parse_group_spec(spec)
    h = gd.multiply(gd.delta_pow(group, power), nf(group, word))
    assert pb.standard_membership(h, labels) is member
    assert invert_based_membership(h, labels) is member


@pytest.mark.parametrize("spec,subsets", [
    ("A3", (("s1",), ("s1", "s2"), ("s2", "s3"))),
    ("B3", (("s2", "s3"), ("s1",))),
    ("I2(5)", (("a",), ("b",))),
])
def test_membership_against_brute_enumeration(spec, subsets):
    """Positive elements against brute-force enumeration of A_T^+ words."""
    group = parse_group_spec(spec)
    for labels in subsets:
        idx = group.gen_indices(labels)
        members = set()
        frontier = {(0, ())}
        level = {gd.identity_element(group)}
        members_elems = {gd.identity_element(group)}
        for _ in range(8):
            nxt = set()
            for g in level:
                for i in idx:
                    h = gd.multiply(g, gd.GarsideElement(
                        group, 0, (group.table().rmult[0][i],)))
                    if (h.power, h.factors) not in members:
                        members.add((h.power, h.factors))
                        nxt.add(h)
            members_elems |= nxt
            level = nxt
        members.add((0, ()))
        # Every positive word over S of length <= 6 is decided correctly.
        rng = random.Random(17)
        for _ in range(300):
            word = tuple((rng.randrange(group.rank), 1)
                         for _ in range(rng.randint(0, 6)))
            g = gd.normal_form(gd.LetterWord(group, word))
            assert pb.standard_membership(g, labels) == \
                ((g.power, g.factors) in members)
        # Elements with negative inf built from T-letters are members too.
        def t_word(lo):
            return tuple((rng.choice(idx), rng.choice((-1, 1)))
                         for _ in range(rng.randint(lo, 6)))

        for _ in range(50):
            g = gd.normal_form(gd.LetterWord(group, t_word(1)))
            assert pb.standard_membership(g, labels)
        # Words with letters outside T: u s^e v with u, v over T and s not in
        # T is never a member, whatever the sign of inf; u c^e v c^-e with c
        # commuting with every letter of T equals uv and is a member.
        outside = [i for i in range(group.rank) if i not in idx]
        commuting = [c for c in outside if all(group.matrix[c][i] == 2 for i in idx)]
        for _ in range(50):
            u, v = t_word(0), t_word(0)
            e = rng.choice((-1, 1))
            g = gd.normal_form(gd.LetterWord(group, u + ((rng.choice(outside), e),) + v))
            assert not pb.standard_membership(g, labels)
            if commuting:
                c = rng.choice(commuting)
                g = gd.normal_form(gd.LetterWord(group, u + ((c, e),) + v + ((c, -e),)))
                assert pb.standard_membership(g, labels)


def test_normalizer_examples():
    assert pb.normalizer_membership(nf(A3, "s1"), ("s1", "s2"))
    assert not pb.normalizer_membership(gd.delta(A3), ("s1",))
    assert pb.normalizer_membership(gd.delta_pow(A3, 2), ("s1",))
    assert pb.normalizer_membership(gd.delta_pow(A3, 2), ("s2", "s3"))
    with pytest.raises(ReducibleSubset):
        pb.normalizer_membership(nf(A3, "s1"), ("s1", "s3"))


def test_parabolic_keys():
    p1 = pb.standard_parabolic(A3, ("s1",))
    assert p1.omega.render() == "D^0 | s1"  # rank-1 minimal central element
    assert p1.rank == 1
    p1b = pb.parabolic_from_conjugate(gd.delta_pow(A3, 2), ("s1",))
    assert p1 == p1b
    conj = pb.parabolic_from_conjugate(nf(A3, "s2"), ("s1",))
    expected = gd.multiply(gd.multiply(nf(A3, "s2^-1"), nf(A3, "s1")), nf(A3, "s2"))
    assert gd.are_equal(conj.omega, expected)
    with pytest.raises(ImproperSubset):
        pb.parabolic_from_conjugate(gd.identity_element(A3), ("s1", "s2", "s3"))
    with pytest.raises(ReducibleSubset):
        pb.parabolic_from_conjugate(gd.identity_element(A3), ("s1", "s3"))


def test_parabolic_key_canonicity_random():
    rng = random.Random(23)
    for _ in range(100):
        group = A3 if rng.random() < 0.5 else B3
        subsets = pb.proper_irreducible_subsets(group)
        labels = rng.choice(subsets)
        letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                        for _ in range(rng.randint(0, 5)))
        a = gd.normal_form(gd.LetterWord(group, letters))
        base = pb.parabolic_from_conjugate(a, labels)
        # h a for h in A_T or h = Delta^2 names the same subgroup
        lab = rng.choice(labels)
        h = gd.generator_element(group, lab)
        assert pb.parabolic_from_conjugate(gd.multiply(h, a), labels) == base
        assert pb.parabolic_from_conjugate(
            gd.multiply(gd.delta_pow(group, 2), a), labels) == base


def test_omega_commute_edges():
    p1 = pb.standard_parabolic(A3, ("s1",))
    p2 = pb.standard_parabolic(A3, ("s2",))
    p3 = pb.standard_parabolic(A3, ("s3",))
    p12 = pb.standard_parabolic(A3, ("s1", "s2"))
    assert pb.omega_commute_edge(p1, p3)
    assert not pb.omega_commute_edge(p1, p2)
    assert pb.omega_commute_edge(p1, p12)
    with pytest.raises(SameVertex):
        pb.omega_commute_edge(p1, pb.standard_parabolic(A3, ("s1",)))


def test_omega_commute_equivariance():
    rng = random.Random(31)
    p1 = pb.standard_parabolic(A3, ("s1",))
    p3 = pb.standard_parabolic(A3, ("s3",))
    p2 = pb.standard_parabolic(A3, ("s2",))
    for _ in range(40):
        letters = tuple((rng.randrange(3), rng.choice((-1, 1)))
                        for _ in range(rng.randint(0, 4)))
        g = gd.normal_form(gd.LetterWord(A3, letters))
        for pa, qa, want in ((p1, p3, True), (p1, p2, False)):
            assert pb.omega_commute_edge(
                pb.act_on_parabolic(g, pa), pb.act_on_parabolic(g, qa)) == want


def test_simultaneous_standardize():
    p1 = pb.standard_parabolic(A3, ("s1",))
    p3 = pb.standard_parabolic(A3, ("s3",))
    g, t1, t2 = pb.simultaneous_standardize(p1, p3)
    assert g.is_identity and t1 == ("s1",) and t2 == ("s3",)

    s2inv = gd.invert(gd.generator_element(A3, "s2"))
    pc = pb.parabolic_from_conjugate(s2inv, ("s1",))
    qc = pb.parabolic_from_conjugate(s2inv, ("s3",))
    g, t1, t2 = pb.simultaneous_standardize(pc, qc)
    # verify the returned witness really standardizes both
    index = pb.standard_omega_index(A3)
    for parab, t in ((pc, t1), (qc, t2)):
        om = gd.multiply(gd.multiply(gd.invert(g), parab.omega), g)
        assert index[(om.power, om.factors)] == t

    p2 = pb.standard_parabolic(A3, ("s2",))
    with pytest.raises(PreconditionViolated):
        pb.simultaneous_standardize(p1, p2)
    with pytest.raises(SameVertex):
        pb.simultaneous_standardize(p1, pb.standard_parabolic(A3, ("s1",)))


def _assert_standardizes(g, subgroups, subsets):
    for p, t in zip(subgroups, subsets):
        assert pb.act_on_parabolic(g, p) == pb.standard_parabolic(g.group, t)


def _random_element(group, rng, shortest, longest):
    letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                    for _ in range(rng.randint(shortest, longest)))
    return gd.normal_form(gd.LetterWord(group, letters))


def _adjacent_standard_pairs(group):
    stds = [pb.standard_parabolic(group, t) for t in pb.proper_irreducible_subsets(group)]
    return [(p, q) for p, q in itertools.permutations(stds, 2)
            if gd.commute(p.omega, q.omega)]


def test_prefix_meet_is_the_greatest_common_prefix():
    for group in (A3, B3, I5):
        tab = group.table()

        def prefixes(x):
            return {d for d in range(tab.size)
                    if tab.length[d] + tab.length[tab.mult(tab.inverse[d], x)]
                    == tab.length[x]}
        for x in range(tab.size):
            for y in range(tab.size):
                common = prefixes(x) & prefixes(y)
                meet = tab.prefix_meet(x, y)
                assert meet in common and all(d in prefixes(meet) for d in common)


@pytest.mark.parametrize("spec", ["A3", "B3", "A4", "D4", "H3"])
def test_sliding_standardizes_random_adjacent_pairs(spec):
    # g^-1 (A_T, A_T') g for every commuting standard pair and g of up to 30
    # letters; both subgroups and the pair are standardized, and verified
    group = parse_group_spec(spec)
    rng = random.Random(f"slide {spec}")
    pairs = _adjacent_standard_pairs(group)
    for k in range(120):
        p, q = pairs[k % len(pairs)]
        g = _random_element(group, rng, 0, 30)
        pg, qg = pb.act_on_parabolic(g, p), pb.act_on_parabolic(g, q)
        c, t1, t2 = pb.simultaneous_standardize(pg, qg)
        _assert_standardizes(c, (pg, qg), (t1, t2))
        for sub in (pg, qg):
            c, t = pb.standardize(sub)
            _assert_standardizes(c, (sub,), (t,))


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_sliding_decides_what_the_radius_search_decides(spec):
    # every pair conjugated by a simple or an inverse simple, which the
    # radius search decides, and pairs conjugated by random words of 2 to 4
    # letters, some of which it does not; sliding decides them all
    group = parse_group_spec(spec)
    tab = group.table()
    pairs = _adjacent_standard_pairs(group)
    simples = [gd.GarsideElement(group, 0, (x,)) for x in range(1, tab.w0)]
    cases = [(g, pair) for g in simples + [gd.invert(g) for g in simples] for pair in pairs]
    rng = random.Random(f"radius {spec}")
    cases += [(_random_element(group, rng, 2, 4), pairs[k % len(pairs)]) for k in range(40)]
    undecided = 0
    for g, (p, q) in cases:
        pg, qg = pb.act_on_parabolic(g, p), pb.act_on_parabolic(g, q)
        c, t1, t2 = pb.simultaneous_standardize(pg, qg)
        _assert_standardizes(c, (pg, qg), (t1, t2))
        found = reference_standardize(pg, qg, 1)
        if found is None:
            undecided += 1
        else:
            _assert_standardizes(found[0], (pg, qg), found[1:])
    assert 0 < undecided < 40


def test_sliding_that_cycles_is_refused():
    # D^2 and s1 s2 are no Omega of a proper parabolic: sliding returns to
    # an earlier element, which raises instead of looping
    for omega in (gd.delta_pow(A3, 2), nf(A3, "s1 s2")):
        fake = pb.ParabolicSubgroup(A3, omega, gd.identity_element(A3), ("s1",))
        with pytest.raises(NotFoundWithinSearch):
            pb.standardize(fake)


def test_paris_equivalence_sample():
    rng = random.Random(41)
    gens = {lab: gd.generator_element(A3, lab) for lab in A3.generators}
    for _ in range(120):
        letters = tuple((rng.randrange(3), rng.choice((-1, 1)))
                        for _ in range(rng.randint(0, 8)))
        g = gd.normal_form(gd.LetterWord(A3, letters))
        ginv = gd.invert(g)
        for labels in pb.proper_irreducible_subsets(A3):
            lhs = pb.normalizer_membership(g, labels)
            rhs = True
            for lab in labels:
                conj = gd.multiply(gd.multiply(ginv, gens[lab]), g)
                if not pb.standard_membership(conj, labels):
                    rhs = False
                    break
            assert lhs == rhs
