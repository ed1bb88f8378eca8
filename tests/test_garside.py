import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from garsidehyp import garside as gd
from garsidehyp.coxeter import CoxeterGraph, parse_group_spec
from garsidehyp.errors import (
    EmptySubset,
    GroupMismatch,
    ReducibleSubset,
    UnknownGenerator,
)

from oracles import WordOracle, factor_refusal, greedy_nf_oracle, recombed_invert

A2 = parse_group_spec("A2")
A3 = parse_group_spec("A3")
B2 = parse_group_spec("B2")
B3 = parse_group_spec("B3")


def nf(group, text):
    return gd.normal_form(gd.parse_word(group, text))


def test_normal_form_examples():
    assert nf(A2, "a a b").render() == "D^0 | a | ab"
    assert nf(A2, "a a^-1").is_identity
    aba = nf(A2, "a b a")
    assert (aba.power, aba.factors) == (1, ())


def test_parse_word_errors():
    with pytest.raises(UnknownGenerator):
        gd.parse_word(A2, "a c")
    with pytest.raises(UnknownGenerator):
        gd.parse_word(A2, "a^x")


def test_word_rendering_roundtrip():
    w = gd.parse_word(A3, "s1 s2^-3 s1")
    assert w.render() == "s1 s2^-3 s1"
    assert w.signed_letter_count() == -1


def test_multiply_and_invert_examples():
    d2 = gd.multiply(gd.delta(A2), gd.delta(A2))
    assert (d2.power, d2.factors) == (2, ())
    inv_a = gd.invert(gd.generator_element(A2, "a"))
    assert inv_a.render() == "D^-1 | ab"
    s1, s3 = gd.generator_element(A3, "s1"), gd.generator_element(A3, "s3")
    prod = gd.multiply(gd.power(s1, 5), gd.power(s3, 5))
    assert prod.power == 0
    assert len(prod.factors) == 5
    assert len(set(prod.factors)) == 1  # five copies of the same simple
    s1s3 = gd.multiply(s1, s3)
    assert prod.factors[0] == s1s3.factors[0]


def test_multiply_group_mismatch():
    with pytest.raises(GroupMismatch):
        gd.multiply(gd.delta(A2), gd.delta(B2))


def test_exponent_sum():
    assert gd.exponent_sum(gd.delta(A2)) == 3
    assert gd.exponent_sum(gd.delta(B2)) == 4
    rng = random.Random(0)
    for _ in range(100):
        letters = tuple((rng.randrange(3), rng.choice((-2, -1, 1, 2)))
                        for _ in range(6))
        w = gd.LetterWord(A3, letters)
        g = gd.normal_form(w)
        assert gd.exponent_sum(g) == w.signed_letter_count()
        assert gd.exponent_sum(gd.invert(g)) == -gd.exponent_sum(g)


def test_delta_omega_examples():
    res = gd.omega_of(A2, ("a", "b"))
    assert not res.is_delta
    assert (res.element.power, res.element.factors) == (2, ())

    res = gd.omega_of(B2, ("a", "b"))
    assert res.is_delta
    assert (res.element.power, res.element.factors) == (1, ())

    d12 = gd.delta_of(A3, ("s1", "s2"))
    assert d12.render() == "D^0 | s1s2s1"
    om12 = gd.omega_of(A3, ("s1", "s2")).element
    assert gd.are_equal(om12, gd.multiply(d12, d12))

    with pytest.raises(EmptySubset):
        gd.delta_of(A3, ())
    with pytest.raises(ReducibleSubset):
        gd.omega_of(A3, ("s1", "s3"))


def test_tau_twist():
    s1 = gd.generator_element(A3, "s1")
    s3 = gd.generator_element(A3, "s3")
    assert gd.are_equal(gd.tau_twist(s1), s3)
    assert gd.are_equal(gd.tau_twist(gd.delta(A3)), gd.delta(A3))
    rng = random.Random(1)
    for _ in range(50):
        letters = tuple((rng.randrange(2), rng.choice((-1, 1))) for _ in range(6))
        g = gd.normal_form(gd.LetterWord(B2, letters))
        assert gd.are_equal(gd.tau_twist(g), g)  # Delta central in B2
    # tau agrees with actual conjugation
    for _ in range(50):
        letters = tuple((rng.randrange(3), rng.choice((-1, 1))) for _ in range(6))
        g = gd.normal_form(gd.LetterWord(A3, letters))
        conj = gd.multiply(gd.multiply(gd.delta_pow(A3, -1), g), gd.delta(A3))
        assert gd.are_equal(gd.tau_twist(g), conj)


def test_are_equal_examples():
    assert gd.are_equal(nf(A3, "s1 s3"), nf(A3, "s3 s1"))
    assert gd.are_equal(nf(A2, "a b a"), nf(A2, "b a b"))
    assert not gd.are_equal(nf(A2, "a"), nf(A2, "b"))


@pytest.mark.parametrize("spec", ["A2", "A3", "B3", "I2(5)"])
def test_greedy_against_meet_oracle(spec):
    """Engine normal forms of positive words against the brute-force
    maximal-simple-prefix oracle."""
    group = parse_group_spec(spec)
    oracle = WordOracle(group.rank, group.matrix)
    tab = group.table()
    omap = {}
    for x in range(oracle.size):
        acc = 0
        for s in oracle.canon[x]:
            acc = tab.rmult[acc][s]
        omap[x] = acc
    rng = random.Random(99)
    for _ in range(200):
        word = [rng.randrange(group.rank) for _ in range(rng.randint(1, 8))]
        power_o, factors_o = greedy_nf_oracle(oracle, word)
        got = gd.normal_form(gd.LetterWord(group, tuple((s, 1) for s in word)))
        assert got.power == power_o
        assert list(got.factors) == [omap[f] for f in factors_o]


@pytest.mark.parametrize("spec", ["A2", "A3", "B3", "I2(5)", "I2(6)"])
def test_left_weighted_and_group_laws(spec):
    group = parse_group_spec(spec)
    tab = group.table()
    rng = random.Random(7)
    for _ in range(200):
        letters = tuple((rng.randrange(group.rank), rng.choice((-2, -1, 1, 2)))
                        for _ in range(rng.randint(0, 7)))
        g = gd.normal_form(gd.LetterWord(group, letters))
        assert factor_refusal(tab, g.factors) is None
        gi = gd.invert(g)
        assert gd.multiply(g, gi).is_identity
        assert gd.multiply(gi, g).is_identity
        h = gd.normal_form(gd.LetterWord(
            group, tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                         for _ in range(5))))
        prod = gd.multiply(g, h)
        assert prod.inf >= g.inf + h.inf
        assert prod.sup <= g.sup + h.sup
        assert gd.are_equal(gd.invert(prod),
                            gd.multiply(gd.invert(h), gd.invert(g)))


OMEGA_TABLE = {
    "A1": True, "A2": False, "A3": False, "A4": False,
    "B2": True, "B3": True, "B4": True,
    "D4": True, "D5": False,
    "F4": True, "H3": True, "H4": True,
    "I2(5)": False, "I2(6)": True, "I2(7)": False, "I2(8)": True,
}


@pytest.mark.parametrize("spec,expected", sorted(OMEGA_TABLE.items()))
def test_omega_is_delta_table(spec, expected):
    group = parse_group_spec(spec)
    assert gd.omega_of(group, group.generators).is_delta == expected


def test_omega_is_delta_e6():
    group = parse_group_spec("E6")
    assert gd.omega_of(group, group.generators).is_delta is False


@pytest.mark.parametrize("spec", ["A2", "A3", "A4", "B2", "B3", "D4", "F4",
                                  "H3", "I2(5)", "I2(8)"])
def test_delta_squared_central(spec):
    group = parse_group_spec(spec)
    d2 = gd.delta_pow(group, 2)
    rng = random.Random(3)
    for lab in group.generators:
        assert gd.commute(d2, gd.generator_element(group, lab))
    for _ in range(20):
        letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                        for _ in range(5))
        g = gd.normal_form(gd.LetterWord(group, letters))
        assert gd.commute(d2, g)
        assert gd.are_equal(gd.tau_twist(gd.tau_twist(g)), g)


def test_rewrite_fuzz_small():
    """Smaller in-suite version of the acceptance fuzz."""
    from garsidehyp.acceptance import _apply_random_rewrites
    rng = random.Random(5)
    for spec in ("A2", "A3", "B3", "I2(5)"):
        group = parse_group_spec(spec)
        for _ in range(500):
            letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                            for _ in range(rng.randint(0, 10)))
            nf1 = gd.normal_form(gd.LetterWord(group, letters))
            nf2 = gd.normal_form(gd.LetterWord(
                group, _apply_random_rewrites(group, letters, rng)))
            assert gd.are_equal(nf1, nf2)


def test_positive_nf_enumeration_counts():
    for spec in ("A2", "A3", "I2(5)"):
        group = parse_group_spec(spec)
        for ell in (1, 2, 3):
            listed = list(gd.iter_positive_factor_tuples(group, ell))
            assert len(listed) == gd.positive_nf_counts(group, ell)[ell]
            assert len(set(listed)) == len(listed)
            tab = group.table()
            for tup in listed:
                assert factor_refusal(tab, tup) is None


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "B3", "D4", "H3", "I2(5)",
                                  "A1xA2"])
def test_positive_nf_counts_in_one_pass(spec):
    group = CoxeterGraph(("s1", "s2", "s3"), ((1, 2, 2), (2, 1, 3), (2, 3, 1))) \
        if spec == "A1xA2" else parse_group_spec(spec)
    counts = gd.positive_nf_counts(group, 3)
    assert counts == [sum(1 for _ in gd.iter_positive_factor_tuples(group, ell))
                      for ell in range(4)]
    assert gd.positive_nf_counts(group, 0) == [1]


# One group of each family the kernel meets, A1 (where s = w0 and w0 s^-1 is
# the identity) and a reducible diagram.
PROPERTY_GROUPS = {spec: parse_group_spec(spec) for spec in
                   ("A1", "A3", "B3", "D4", "F4", "H3", "I2(5)", "I2(8)")}
PROPERTY_GROUPS["A1xA2"] = CoxeterGraph(
    ("s1", "s2", "s3"), ((1, 2, 2), (2, 1, 3), (2, 3, 1)))


@st.composite
def _group_and_two_words(draw):
    group = PROPERTY_GROUPS[draw(st.sampled_from(sorted(PROPERTY_GROUPS)))]
    letter = st.tuples(st.integers(0, group.rank - 1),
                       st.sampled_from((-3, -2, -1, 1, 2, 3)))
    words = st.lists(letter, max_size=12).map(tuple)
    return group, draw(words), draw(words)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_group_and_two_words())
def test_kernel_laws_property(case):
    """nf(u) nf(v) = nf(uv), inverses, left-weightedness, exponent sums."""
    group, u, v = case
    tab = group.table()
    gu = gd.normal_form(gd.LetterWord(group, u))
    gv = gd.normal_form(gd.LetterWord(group, v))
    prod = gd.multiply(gu, gv)
    assert gd.are_equal(prod, gd.normal_form(gd.LetterWord(group, u + v)))
    for g in (gu, gv, prod):
        gi = gd.invert(g)
        for fs in (g.factors, gi.factors):   # the inverse is read, not combed
            assert factor_refusal(tab, fs) is None
        assert gd.are_equal(gd.invert(gi), g)
        assert gd.multiply(g, gi).is_identity
    assert gd.exponent_sum(gu) == gd.LetterWord(group, u).signed_letter_count()
    assert gd.exponent_sum(prod) == gd.exponent_sum(gu) + gd.exponent_sum(gv)


# The groups of the complement rule's checks: every family the kernel meets
# up to rank 6, with D central (B3, D4, F4, H3, I2(8)) and not.
RULE_GROUPS = {spec: parse_group_spec(spec) for spec in
               ("A1", "A2", "A3", "A4", "B3", "D4", "D5", "E6", "F4", "H3",
                "I2(5)", "I2(8)")}


@st.composite
def normal_forms(draw):
    """A normal form D^p x_1..x_l, p in [-4, 4] and l <= 5, drawn factor by
    factor among the followers of the last one."""
    group = RULE_GROUPS[draw(st.sampled_from(sorted(RULE_GROUPS)))]
    tab = group.table()
    factors = []
    options = list(range(1, tab.w0))   # empty in A1, whose one simple is D
    for _ in range(draw(st.integers(0, 5))):
        if not options:
            break
        factors.append(draw(st.sampled_from(options)))
        options = tab.follows(factors[-1])
    return gd.GarsideElement(group, draw(st.integers(-4, 4)), tuple(factors))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(normal_forms())
def test_invert_and_twist_read_the_factors(g):
    """The complement rule gives the combed inverse, left-weighted and with
    no factor 1 or D, and the twist is conjugation by D."""
    group, tab = g.group, g.group.table()
    gi = gd.invert(g)
    ref = recombed_invert(g)
    assert (gi.power, gi.factors) == (ref.power, ref.factors)
    assert gi.power == -g.sup and gi.sup == -g.inf
    assert factor_refusal(tab, gi.factors) is None
    assert gd.multiply(g, gi).is_identity
    twisted = gd.tau_twist(g)
    conj = gd.multiply(gd.multiply(gd.delta_pow(group, -1), g), gd.delta(group))
    assert (twisted.power, twisted.factors) == (conj.power, conj.factors)


@pytest.mark.parametrize("spec,power,word", [
    ("A3", 0, "s1 s2"), ("A3", -1, "s1 s2"), ("A3", 1, "s1 s2 s3 s1"),
    ("A4", -2, "s1 s2 s4 s3"), ("D5", -1, "s1 s2 s3"), ("I2(5)", 3, "a b a"),
])
def test_complement_factors_are_the_inverse(spec, power, word):
    """With power p, the rule's factors are those of (D^p g)^-1, and with
    power l those of g^-1 D^l, for a positive g of length l."""
    group = parse_group_spec(spec)
    g = nf(group, word)
    h = gd.multiply(gd.delta_pow(group, power), g)
    assert gd.complement_factors(group.table(), power, g.factors) == \
        recombed_invert(h).factors
    ell = len(g.factors)
    c = gd.multiply(recombed_invert(g), gd.delta_pow(group, ell))
    assert (c.power, c.factors) == \
        (0, gd.complement_factors(group.table(), ell, g.factors))


# The construction check.  In A3, (s1, s1) and (s2, s2) are left-weighted
# and (s1, s2) is not, as L(s2) = {s2} lies outside R(s1) = {s1}.
_A3 = A3.table()
_S1, _S2 = _A3.rmult[0][0], _A3.rmult[0][1]


@pytest.mark.skipif(not __debug__, reason="python -O drops the check")
@pytest.mark.parametrize("factors,message", [
    ((0,), "factor out of range"),
    ((_S1, _A3.w0), "factor out of range"),
    ((_A3.size,), "factor out of range"),
    ((_S1, _A3.size + 5, _S1), "factor out of range"),
    ((-1, _S1), "factor out of range"),
    ((_S2, _S1, 0), "factor out of range"),   # the range is tested first
    ((_S1, _S2, _S2, _S2, _S2), "factors not left-weighted"),
    ((_S1, _S1, _S2, _S2, _S2), "factors not left-weighted"),
    ((_S1, _S1, _S1, _S2, _S2), "factors not left-weighted"),
    ((_S1, _S1, _S1, _S1, _S2), "factors not left-weighted"),
], ids=["one", "w0", "size", "past-size", "negative", "range-first", "first-pair",
        "second-pair", "third-pair", "last-pair"])
def test_construction_refuses_broken_forms(factors, message):
    assert factor_refusal(_A3, factors) == message
    with pytest.raises(AssertionError, match=f"^{message}$"):
        gd.GarsideElement(A3, 0, factors)


CHECK_GROUPS = {spec: parse_group_spec(spec) for spec in ("A3", "B3", "H3", "I2(5)", "H4")}


@st.composite
def factor_tuples(draw):
    """A group and up to 6 indices, each a follower of the one before (a
    left-weighted pair), any simple, or one of -1, 0 (the simple 1), w0
    and |W|, so that
    tuples refused for either reason, and accepted ones, all occur."""
    group = CHECK_GROUPS[draw(st.sampled_from(sorted(CHECK_GROUPS)))]
    tab = group.table()
    fs = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 5))
        if kind < 3 and fs and 0 < fs[-1] < tab.w0:
            fs.append(draw(st.sampled_from(tab.follows(fs[-1]))))
        elif kind < 5:
            fs.append(draw(st.integers(1, tab.w0 - 1)))
        else:
            fs.append(draw(st.sampled_from((-1, 0, tab.w0, tab.size))))
    return group, tuple(fs)


@pytest.mark.skipif(not __debug__, reason="python -O drops the check")
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(factor_tuples())
def test_construction_accepts_what_the_predicates_accept(case):
    """The one-loop check accepts exactly the tuples of the two-`all`
    predicate of `oracles.factor_refusal`, and refuses the rest with its
    message."""
    group, fs = case
    message = factor_refusal(group.table(), fs)
    if message is None:
        assert gd.GarsideElement(group, 0, fs).factors == fs
    else:
        with pytest.raises(AssertionError, match=f"^{message}$"):
            gd.GarsideElement(group, 0, fs)


def seeded_renders(seed=28, words=30):
    """The rendered normal forms, products and inverses of seeded words in
    A3, B3, F4 and H4, one per line."""
    rng = random.Random(seed)
    lines = []
    for spec in ("A3", "B3", "F4", "H4"):
        group = parse_group_spec(spec)
        forms = [gd.normal_form(gd.LetterWord(group, tuple(
            (rng.randrange(group.rank), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, 10))))) for _ in range(words)]
        for g, h in zip(forms, forms[1:]):
            lines += [g.render(), gd.multiply(g, h).render(), gd.invert(g).render()]
    return lines


def test_outputs_do_not_depend_on_the_check():
    """Under python -O the check is gone, and every render is the same."""
    path = os.pathsep.join([str(Path(gd.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    code = ("from garsidehyp import garside as gd\n"
            "from garsidehyp.coxeter import parse_group_spec\n"
            "from test_garside import seeded_renders\n"
            "print(__debug__, gd.GarsideElement(parse_group_spec('A3'), 0, (0,)).factors)\n"
            "print('\\n'.join(seeded_renders()))\n")
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    first, *renders = run.stdout.splitlines()
    assert first == "False (0,)"
    assert renders == seeded_renders()
