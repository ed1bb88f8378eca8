import pytest

from garsidehyp import absorbable as ab
from garsidehyp import garside as gd
from garsidehyp.coxeter import parse_group_spec
from garsidehyp.errors import CapExceeded, GroupMismatch, IdentityInput, \
    NotAnAbsorptionPair, PreconditionViolated, ZeroLength

A3 = parse_group_spec("A3")


def test_absorbable_examples():
    s3 = gd.generator_element(A3, "s3")
    res = ab.is_absorbable(gd.power(s3, 5))
    assert res.status == "yes"
    assert gd.are_equal(res.witness, gd.power(gd.generator_element(A3, "s1"), 5))

    assert ab.is_absorbable(gd.generator_element(A3, "s2")).status == "yes"
    assert ab.is_absorbable(gd.delta(A3)).status == "no"
    with pytest.raises(IdentityInput):
        ab.is_absorbable(gd.identity_element(A3))


def test_absorbable_inverse_reduction():
    s1_inv = gd.invert(gd.generator_element(A3, "s1"))
    res = ab.is_absorbable(s1_inv)
    assert res.status == "yes" and res.inverted


def test_witness_search_is_refused_past_the_limit(monkeypatch):
    # the limit is lowered, as a real refusal needs more than 10^7 candidates.
    # In A3 the simple s1s2s1s3s2 absorbs nothing, so all 22 candidates of
    # length 1 fail; s1 is absorbed by s2, the second candidate.
    monkeypatch.setattr(ab, "WITNESS_CANDIDATE_LIMIT", 2)
    no = gd.normal_form(gd.parse_word(A3, "s1 s2 s1 s3 s2"))
    with pytest.raises(CapExceeded) as exc:
        ab.is_absorbable(no)
    assert str(exc.value) == ("the witness search at canonical length 1 found no "
                              "witness within the limit of 2 candidates")
    with pytest.raises(CapExceeded):
        ab.is_absorbable(gd.invert(no))
    res = ab.is_absorbable(gd.generator_element(A3, "s1"))
    assert res.status == "yes"
    assert gd.are_equal(res.witness, gd.generator_element(A3, "s2"))
    monkeypatch.setattr(ab, "WITNESS_CANDIDATE_LIMIT", 22)
    assert ab.is_absorbable(no).status == "no"


@pytest.mark.parametrize("spec,sup_bound", [("A2", 4), ("I2(5)", 3), ("A3", 2), ("B3", 2)])
def test_census_equals_the_unpruned_search(spec, sup_bound):
    # the census extends absorbable prefixes only (module docstring); here
    # every positive normal form of each length is tested instead
    group = parse_group_spec(spec)
    positives = [el for ell in range(1, sup_bound + 1)
                 for el in (gd.GarsideElement(group, 0, tup)
                            for tup in gd.iter_positive_factor_tuples(group, ell))
                 if ab.is_absorbable(el)]
    want = sorted(positives + [gd.invert(el) for el in positives],
                  key=lambda e: e.sort_key())
    got = ab.enumerate_absorbable(group, sup_bound)
    assert [(e.power, e.factors) for e in got] == [(e.power, e.factors) for e in want]


def test_witness_equalities_always_hold():
    for spec in ("A2", "A3", "B3", "I2(5)"):
        group = parse_group_spec(spec)
        for el in ab.enumerate_absorbable(group, 3):
            if el.inf == 0 and el.sup > 0:
                res = ab.is_absorbable(el)
                assert res.status == "yes"
                assert ab.absorption_equalities_hold(res.witness, el)


@pytest.mark.parametrize("m,expected", [(3, 4), (4, 8), (5, 12), (6, 16)])
def test_dihedral_census(m, expected):
    group = parse_group_spec(f"I2({m})")
    c1 = ab.dihedral_census(group, 2 * m)
    c2 = ab.dihedral_census(group, 2 * m + 4)
    assert c1.count == c1.expected == expected
    assert c1.elements == c2.elements
    # the census to sup 0 holds no element
    assert ab.dihedral_census(group, 0).count == 0


def test_census_inverse_closure():
    group = parse_group_spec("I2(5)")
    elems = ab.enumerate_absorbable(group, 10)
    keys = {(e.power, e.factors) for e in elems}
    for e in elems:
        inv = gd.invert(e)
        assert (inv.power, inv.factors) in keys


@pytest.mark.parametrize("spec", ["A2", "A3", "B3", "D4", "I2(5)", "I2(6)"])
def test_generators_absorbable(spec):
    group = parse_group_spec(spec)
    for lab in group.generators:
        assert ab.is_absorbable(gd.generator_element(group, lab)).status == "yes"
    census = ab.enumerate_absorbable(group, 1)
    gen_keys = {(0, gd.generator_element(group, lab).factors)
                for lab in group.generators}
    assert gen_keys <= {(e.power, e.factors) for e in census}
    assert ab.enumerate_absorbable(group, 0) == []


def test_fat_triangle_construction():
    s1 = gd.generator_element(A3, "s1")
    s3 = gd.generator_element(A3, "s3")
    tri = ab.build_fat_triangle(gd.power(s1, 5), gd.power(s3, 5))
    assert tri.length == 5
    assert len(tri.side_x) == len(tri.side_top) == len(tri.side_xy) == 6
    assert tri.side_x[0].is_identity
    assert gd.are_equal(tri.side_x[-1], tri.x)
    assert gd.are_equal(tri.side_top[0], tri.x)
    assert gd.are_equal(tri.side_top[-1], tri.xy)
    assert gd.are_equal(tri.side_xy[-1], tri.xy)

    small = ab.build_fat_triangle(s1, s3)
    assert small.length == 1

    # (s1, s1) fails the equalities: s1*s1 is left-weighted with sup 2.
    with pytest.raises(NotAnAbsorptionPair):
        ab.build_fat_triangle(s1, s1)
    # a census of a non-dihedral group breaks a precondition; ZeroLength
    # names the degenerate triangle of canonical length 0
    with pytest.raises(PreconditionViolated):
        ab.dihedral_census(A3, 4)
    one = gd.identity_element(A3)
    with pytest.raises(ZeroLength):
        ab.build_fat_triangle(one, one)


def test_adjacent_generators_do_absorb():
    """s1*s2 collapses to a single simple, so all inf/sup equalities hold and
    s1 absorbs s2 under the pinned definition."""
    s1 = gd.generator_element(A3, "s1")
    s2 = gd.generator_element(A3, "s2")
    prod = gd.multiply(s1, s2)
    assert (prod.inf, prod.sup) == (0, 1)
    assert ab.absorption_equalities_hold(s1, s2)
    tri = ab.build_fat_triangle(s1, s2)
    assert tri.length == 1


def test_absorption_symmetry():
    s1 = gd.generator_element(A3, "s1")
    s2 = gd.generator_element(A3, "s2")
    s3 = gd.generator_element(A3, "s3")
    assert ab.absorption_symmetry(gd.power(s1, 5), gd.power(s3, 5)).both_verified
    assert ab.absorption_symmetry(s1, s3).both_verified
    # s1*s2 is a single simple (inf 0, sup 1 = len(s2)), so (s1, s2) is an
    # absorption pair under the module docstring's equalities, as
    # test_adjacent_generators_do_absorb asserts.
    assert ab.absorption_symmetry(s1, s2).both_verified
    # Refusals, one per failing equality: s1*s1 is left-weighted with sup 2,
    # and inf(D) = 1 != 0.
    for x, y in ((s1, s1), (s1, gd.delta(A3))):
        with pytest.raises(NotAnAbsorptionPair):
            ab.absorption_symmetry(x, y)


def test_triangles_refuse_elements_of_two_groups():
    # the product x y is formed first and refuses the pair, as the same
    # generators of A3 and B3 would otherwise pass every inf/sup equality
    x = gd.generator_element(A3, "s1")
    y = gd.generator_element(parse_group_spec("B3"), "s3")
    for check in (ab.absorption_equalities_hold, ab.build_fat_triangle,
                  ab.absorption_symmetry):
        with pytest.raises(GroupMismatch):
            check(x, y)


def test_census_pairs_have_triangles():
    group = parse_group_spec("I2(4)")
    pairs = list(ab.absorption_pairs_from_census(group, 8))
    assert pairs, "census should produce positive absorption pairs"
    for x, y in pairs:
        tri = ab.build_fat_triangle(x, y)
        assert tri.length == y.canonical_length
