import copy
import hashlib
import json

import pytest

from garsidehyp import coxeter as cx
from garsidehyp.coxeter import parse_group_spec
from garsidehyp.errors import (
    NonSpherical,
    OrderOverflow,
    RankOutOfRange,
    UnknownFamily,
)

from oracles import WordOracle, left_weighted, reference_table

# Reducible diagrams: a dihedral closed form inside a product, and an A2 on
# s1, s3 beside an isolated s2, so root blocks and generator order interleave.
REDUCIBLE = {
    "A1xI2(7)": cx.CoxeterGraph(("s1", "a", "b"),
                                ((1, 2, 2), (2, 1, 7), (2, 7, 1))),
    "A2xA1": cx.CoxeterGraph(("s1", "s2", "s3"),
                             ((1, 2, 3), (2, 1, 2), (3, 2, 1))),
}


def _graph(spec):
    return REDUCIBLE[spec] if spec in REDUCIBLE else parse_group_spec(spec)


def test_parse_a3_path_labels():
    g = parse_group_spec("A3")
    assert g.generators == ("s1", "s2", "s3")
    assert g.matrix[0][1] == g.matrix[1][2] == 3
    assert g.matrix[0][2] == 2


def test_parse_dihedral():
    g = parse_group_spec("I2(7)")
    assert g.generators == ("a", "b")
    assert g.matrix[0][1] == 7


def test_parse_aliases():
    assert parse_group_spec("I2(3)") == parse_group_spec("A2")
    assert parse_group_spec("I2(4)") == parse_group_spec("B2")


def test_parse_rejections():
    with pytest.raises(UnknownFamily):
        parse_group_spec("Z5")
    for bad in ("D3", "A0", "B1", "E5", "F5", "H5", "I2(2)"):
        with pytest.raises(RankOutOfRange):
            parse_group_spec(bad)


def test_graph_properties():
    props = cx.graph_properties(parse_group_spec("A3"))
    assert (props.irreducible, props.coxeter_order, props.rank) == (True, 24, 3)
    assert cx.graph_properties(parse_group_spec("I2(5)")).coxeter_order == 10


def test_reducible_custom_graph():
    g = cx.CoxeterGraph(("s1", "s2"), ((1, 2), (2, 1)))
    assert g.family == "A1xA1" and g.components() == [(0,), (1,)]
    assert not g.is_connected_subset((0, 1)) and g.is_connected_subset((1,))
    props = cx.graph_properties(g)
    assert not props.irreducible
    assert props.coxeter_order == 4
    tab = g.table()
    assert tab.size == 4


# Every family the grammar accepts, and the name its diagram derives
GRAMMAR_FAMILIES = {
    **{f"{letter}{n}": f"{letter}{n}" for letter, ranks in
       (("A", range(1, 9)), ("B", range(2, 9)), ("D", range(4, 9)),
        ("E", range(6, 9)), ("F", (4,)), ("H", (3, 4))) for n in ranks},
    **{f"I2({m})": f"I2({m})" for m in range(5, 13)},
    "I2(3)": "A2", "I2(4)": "B2",
}


@pytest.mark.parametrize("spec,family", sorted(GRAMMAR_FAMILIES.items()))
def test_family_is_derived_from_the_matrix(spec, family):
    assert parse_group_spec(spec).family == family


def test_subgraph_families():
    # the components' names in the order of their least generators
    for spec, subset, family in [
            ("B3", (0, 2), "A1xA1"), ("D4", (0, 2, 3), "A1xA1xA1"),
            ("D4", (0, 1, 3), "A3"), ("F4", (1, 2, 3), "B3"), ("H4", (0, 1), "I2(5)"),
            ("H4", (0, 1, 2), "H3"), ("H4", (0, 2, 3), "A1xA2"),
            ("E6", (0, 1, 2, 3, 5), "D5"), ("I2(7)", (1,), "A1")]:
        assert parse_group_spec(spec).subgraph(subset).family == family
    assert REDUCIBLE["A2xA1"].subgraph((1, 2)).family == "A1xA1"
    # the family is no argument, so none can contradict the matrix
    with pytest.raises(TypeError):
        cx.CoxeterGraph(("s1", "s2"), ((1, 2), (2, 1)), "A2")


def test_invalid_matrices():
    with pytest.raises(NonSpherical):
        cx.CoxeterGraph(("a", "b"), ((1, 3), (4, 1)))
    with pytest.raises(NonSpherical):
        cx.CoxeterGraph(("a", "b", "c"),
                        ((1, 6, 2), (6, 1, 3), (2, 3, 1)))


def test_order_overflow():
    e7 = parse_group_spec("E7")
    with pytest.raises(OrderOverflow):
        cx.graph_properties(e7)
    with pytest.raises(OrderOverflow):
        e7.table()
    assert e7.coxeter_order() == 2_903_040


KNOWN_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "B4": 384,
    "D4": 192, "D5": 1920, "F4": 1152, "H3": 120, "H4": 14_400, "E6": 51_840,
    "I2(5)": 10, "I2(12)": 24,
}


@pytest.mark.parametrize("spec,order", sorted(KNOWN_ORDERS.items()))
def test_enumeration_matches_closed_form(spec, order):
    g = parse_group_spec(spec)
    assert g.table().size == order == g.coxeter_order()


def _element(tab, word):
    """The element of a word of generator indices, by right multiplication."""
    x = 0
    for s in word:
        x = tab.rmult[x][s]
    return x


def _labels(g, tab, x):
    return tuple(g.generators[s] for s in tab.word[x])


def test_multiplication_examples():
    i5 = parse_group_spec("I2(5)")
    tab = i5.table()
    a = tab.rmult[0][i5.gen_index("a")]
    assert tab.mult(a, a) == 0 and tab.inverse[a] == a

    a2 = parse_group_spec("A2")
    tab = a2.table()
    assert _element(tab, (0, 1, 0)) == _element(tab, (1, 0, 1)) == tab.w0

    a3 = parse_group_spec("A3")
    tab = a3.table()
    x = tab.mult(tab.rmult[0][0], tab.rmult[0][2])
    assert tab.length[x] == 2 and x == tab.lmult[tab.rmult[0][0]][2]


def test_descents():
    a2 = parse_group_spec("A2")
    tab = a2.table()
    w0 = tab.longest_in(tab.mask_of(range(a2.rank)))
    assert tab.ldesc[w0] == tab.rdesc[w0] == 0b11
    assert tab.ldesc[0] == tab.rdesc[0] == 0
    ab = _element(tab, (0, 1))
    assert tab.rdesc[ab] == 0b10
    assert tab.ldesc[ab] == 0b01


def test_longest_elements():
    a2 = parse_group_spec("A2")
    tab = a2.table()
    assert tab.length[tab.longest_in(0b11)] == 3
    i5 = parse_group_spec("I2(5)")
    tab = i5.table()
    w0 = tab.longest_in(tab.mask_of(i5.gen_indices(("a", "b"))))
    assert w0 == tab.w0 and tab.length[w0] == 5
    assert _labels(i5, tab, w0) == ("a", "b", "a", "b", "a")
    a3 = parse_group_spec("A3")
    tab = a3.table()
    w0_12 = tab.longest_in(tab.mask_of(a3.gen_indices(("s1", "s2"))))
    assert _labels(a3, tab, w0_12) == ("s1", "s2", "s1")
    assert tab.longest_in(0) == 0
    # a table whose rdesc disagrees with rmult raises instead of looping
    broken = copy.copy(a3.table())
    broken.rdesc = [0] * broken.size
    with pytest.raises(RuntimeError, match="rdesc and rmult disagree"):
        broken.longest_in(0b11)


def _left_divides(tab, u, v):
    """u is a prefix of v in the weak order: l(u) + l(u^-1 v) = l(v)."""
    return tab.length[u] + tab.length[tab.mult(tab.inverse[u], v)] == tab.length[v]


def _right_divides(tab, u, v):
    """u is a suffix of v in the weak order: l(v u^-1) + l(u) = l(v)."""
    return tab.length[tab.mult(v, tab.inverse[u])] + tab.length[u] == tab.length[v]


def test_weak_order():
    tab = parse_group_spec("A2").table()
    a, b = tab.rmult[0][0], tab.rmult[0][1]
    ab = tab.mult(a, b)
    assert _left_divides(tab, a, ab)
    assert not _left_divides(tab, b, ab)
    assert _left_divides(tab, ab, ab)
    assert _right_divides(tab, ab, ab)
    assert _right_divides(tab, b, ab)
    assert not _right_divides(tab, a, ab)


def test_w0_is_lattice_top():
    for spec in ("A3", "B3", "H3"):
        g = parse_group_spec(spec)
        tab = g.table()
        assert tab.ldesc[tab.w0] == tab.mask_of(range(g.rank))
        for x in range(tab.size):
            assert _left_divides(tab, x, tab.w0)


def test_renorm_slides():
    """Every pair of H3 simples, 14,400 of them: each slide keeps the
    product in W and the summed length and ends left-weighted."""
    tab = parse_group_spec("H3").table()
    for x in range(tab.size):
        for y in range(tab.size):
            a, b = tab.renorm(x, y)
            assert left_weighted(tab, a, b)
            assert tab.mult(a, b) == tab.mult(x, y)
            assert tab.length[a] + tab.length[b] == tab.length[x] + tab.length[y]


def test_sign_character():
    for spec in ("A3", "I2(5)"):
        g = parse_group_spec(spec)
        tab = g.table()
        for x in range(tab.size):
            for y in range(tab.size):
                prod = tab.mult(x, y)
                assert (tab.length[prod] - tab.length[x] - tab.length[y]) % 2 == 0


@pytest.mark.parametrize("spec", ["A2", "B2", "A3", "B3", "D4", "H3",
                                  "I2(5)", "I2(7)", "I2(12)",
                                  "A1xI2(7)", "A2xA1"])
def test_multiplication_against_word_oracle(spec):
    """Full multiplication table against the braid-move word oracle."""
    g = _graph(spec)
    tab = g.table()
    oracle = WordOracle(g.rank, g.matrix)
    assert oracle.size == tab.size
    omap = {}
    for x in range(oracle.size):
        acc = 0
        for s in oracle.canon[x]:
            acc = tab.rmult[acc][s]
        omap[x] = acc
    assert len(set(omap.values())) == tab.size
    for x in range(oracle.size):
        assert oracle.length[x] == tab.length[omap[x]]
        assert oracle.right_descents(x) == \
            {s for s in range(g.rank) if tab.rdesc[omap[x]] >> s & 1}
        for y in range(oracle.size):
            assert omap[oracle.mult(x, y)] == tab.mult(omap[x], omap[y])


def test_dihedral_alias_same_table():
    g3 = parse_group_spec("I2(3)")
    a2 = parse_group_spec("A2")
    assert g3.table() is a2.table()


# sha256 of the compact JSON of a table's word, lmult, rmult, inverse, tau and
# left_comp lists, recorded with the per-family element models that preceded
# the root-permutation model (the A6, B5 and D6 rows with the sort-based
# derivation of `oracles.reference_table`).  They pin the shortlex index order
# that normal forms, censuses and graph exports are written in.
TABLE_DIGESTS = {
    "A1": "9d7b3fc1ca6801a517194aff866453e5c6d23530269924ab067ce55a07fa0bdd",
    "A1xI2(7)": "eca1e849c13de44f24cad9115bfdd81e44117d859e8e77ddc425562ecfde3514",
    "A2": "2d527004ffa6bab81a23cc406db790430814b3056bccce36869a0aefb511e5f5",
    "A2xA1": "fa739befca6208d370012e209baf9fec8b51048075d11c30b57cd20eaea96de3",
    "A3": "c16dda6eba7f1aa37eec8ffc2a73756f14e53425e52066f14ae24292e6ac3e3c",
    "A4": "3c9e69058cdda373c194780ab596ed841bda30e26f39ae03938493d9f44ee00f",
    "A5": "af3bd4f83041e578a300f29265ea38300ed1f5e0c6590ccdf9d61607b156860b",
    "A6": "0c809d1e319db921b4d332da8cf357e91aded467f82a4c14ef9489fcc656fc4a",
    "B2": "3d54aab8f1211b4ce76b7fb7f1b71eda3e209fc7ec757649feedc3ca88a6959b",
    "B3": "061ef543caa47cd75e9b429580483f1178b49e10fcaac4708b8a219408e4ddec",
    "B4": "0e0e44954c660ee37d8e303cc7c1ef9bf784f453d7eef9a6cc7ad6d0bf26731d",
    "B5": "8cf52b72421bb159980ff5542e2da8ab7a0af447f6cd2056249fd0136870da83",
    "D4": "993070e1a67755da82a23a0efccaabfa564969ee6de02f709ed44f51c5bc9d6f",
    "D5": "920c9a1cc7858015664381deb63540660ab3117d1bf3f6ad8cb1345911ecb721",
    "D6": "7e55cb3366827957ca6a154392a59cbfefb655a948125ccd1e69f8e5c4c285f1",
    "E6": "d7acc6a9d36a16c3971280744c08b78d6c1c87dd83e980037f2cbca95c717fa1",
    "F4": "e43a6843b3813672b35aa742851f53e403b574bc734d31ebaa397e4e8eccb596",
    "H3": "de0033c6d28604b181b1e55208ff21e5e40133921f56d35828712921256e83d3",
    "H4": "77a710583d561aacb0828f5a509fc943b159c91d657f6f592498091c25063908",
    "I2(12)": "237a4f3c1ee2ce8ddf67bb954c10aef0cd47578a2adac6e0d9b139f45cf2bcf1",
    "I2(5)": "8264cd90e774bb7067b8552324575dfdd50baeb13eaf1a797daca3f313149922",
    "I2(7)": "774a5d60ab2bb6177ea7046a60b74616478977632b9168c6d2894a950a31a5e8",
}


@pytest.mark.parametrize("spec", sorted(TABLE_DIGESTS))
def test_index_order_digest(spec):
    tab = _graph(spec).table()
    blob = json.dumps([tab.word, tab.lmult, tab.rmult, tab.inverse, tab.tau,
                       tab.left_comp], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == TABLE_DIGESTS[spec]


@pytest.mark.parametrize("spec", sorted(TABLE_DIGESTS))
def test_table_matches_reference(spec):
    """Every list the recurrences build equals the direct derivation."""
    g = _graph(spec)
    tab, ref = g.table(), reference_table(g)
    assert [name for name, value in ref.items() if getattr(tab, name) != value] == []
