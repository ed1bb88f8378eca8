import collections
import hashlib
import json
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from garsidehyp import absorbable as ab
from garsidehyp import garside as gd
from garsidehyp import metrics as mt
from garsidehyp import parabolic as pb
from garsidehyp.coxeter import CoxeterGraph, parse_group_spec
from garsidehyp.errors import (
    CapExceeded,
    DisconnectedInput,
    MalformedGraph,
    RepresentativeMissing,
    UniverseTooSmall,
)
from oracles import (
    reference_ball,
    reference_box_members,
    reference_cparab,
    reference_delta,
    reference_json_text,
    reference_quotient_cayley,
    reference_simples_lengths,
    reference_word_length,
    reference_xnp_members,
)

A3 = parse_group_spec("A3")
I3 = parse_group_spec("A2")
I5 = parse_group_spec("I2(5)")


def nf(group, text):
    return gd.normal_form(gd.parse_word(group, text))


# --- oracles ---------------------------------------------------------------

def test_membership_examples():
    xp = mt.genset_oracle(I5, mt.KIND_XP)
    assert xp.membership(gd.power(gd.generator_element(I5, "a"), 9))
    xnp = mt.genset_oracle(A3, mt.KIND_XNP)
    assert xnp.membership(gd.delta(A3))
    xabs = mt.genset_oracle(A3, mt.KIND_XABS)
    assert not xabs.membership(gd.delta(A3))
    assert xabs.membership(gd.generator_element(A3, "s2"))
    # dihedral Xabs includes the central even powers
    xabs5 = mt.genset_oracle(I5, mt.KIND_XABS)
    assert xabs5.membership(gd.delta_pow(I5, 4))
    assert not xabs5.membership(gd.delta_pow(I5, 3))


def test_membership_symmetry_and_generators():
    rng = random.Random(3)
    for kind in mt.KINDS:
        for group in (I5, A3):
            oracle = mt.genset_oracle(group, kind)
            for lab in group.generators:
                assert oracle.membership(gd.generator_element(group, lab))
            for _ in range(25):
                letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                                for _ in range(rng.randint(0, 5)))
                g = gd.normal_form(gd.LetterWord(group, letters))
                if g.is_identity:
                    continue
                assert oracle.membership(g) == oracle.membership(gd.invert(g))


def test_xp_contained_in_xnp():
    for group in (A3, I5):
        xp = mt.genset_oracle(group, mt.KIND_XP)
        xnp = mt.genset_oracle(group, mt.KIND_XNP)
        for el in xp.enumerate_up_to(2):
            assert xnp.membership(el)


def test_simples_enumeration():
    simples = mt.genset_oracle(I3, mt.KIND_SIMPLES)
    got = {e.render() for e in simples.enumerate_up_to(1)}
    assert got == {"D^1", "D^-1", "D^0 | a", "D^0 | b", "D^0 | ab", "D^0 | ba",
                   "D^-1 | a", "D^-1 | b", "D^-1 | ab", "D^-1 | ba"}


def test_xp_enumeration_matches_naive_filter():
    # B3 at 3, D4 at 1 and H3 at 2 are walked only since the subgroup forms
    # are bounded by the box itself (`_subgroup_members`)
    for spec, bound in (("A3", 1), ("I2(5)", 3), ("B3", 3), ("D4", 1), ("H3", 2)):
        oracle = mt.genset_oracle(EQUIV_GROUPS[spec], mt.KIND_XP)
        smart = [(e.power, e.factors) for e in oracle.enumerate_up_to(bound)]
        naive = [(e.power, e.factors) for e in reference_box_members(oracle, bound)]
        assert smart == naive


def test_xabs_enumeration_census():
    oracle = mt.genset_oracle(I3, mt.KIND_XABS)
    got = oracle.enumerate_up_to(8)
    absorbables = [e for e in got if e.factors]
    centrals = [e for e in got if not e.factors]
    assert len(absorbables) == 4  # the 4m-8 census for m=3
    assert {e.power for e in centrals} == {-8, -6, -4, -2, 2, 4, 6, 8}


# --- balls and word lengths --------------------------------------------------

def test_ball_radius_zero_and_one():
    xp = mt.genset_oracle(I5, mt.KIND_XP)
    ball0 = mt.bounded_ball_graph(xp, 0, 4)
    assert ball0.vertices == ("D^0",)
    ball1 = mt.bounded_ball_graph(xp, 1, 6)
    dist = ball1.bfs_distances(ball1.index_of("D^0"))
    at1 = {ball1.vertices[i] for i, d in dist.items() if d == 1}
    expect = set()
    for lab in ("a", "b"):
        g = gd.generator_element(I5, lab)
        for j in range(1, 7):
            expect.add(gd.power(g, j).render())
            expect.add(gd.power(g, -j).render())
    for k in (-3, -2, -1, 1, 2, 3):
        expect.add(gd.delta_pow(I5, 2 * k).render())
    assert at1 == expect
    assert len(at1) == 30


def test_ball_matches_independent_bfs():
    """FiniteS+D2 ball on I2(3) against a hand-rolled BFS.

    Vertices stay in the box (|inf| <= 8, length <= 8); step generators need
    not.  D^2k is central and adds 2k to inf, so it joins two box vertices
    only when |2k| <= 16; the reference generators are S^+-1 and those D^2k,
    derived from the box rather than from the program's enumeration margin.
    """
    group = I3
    bound = 8
    oracle = mt.genset_oracle(group, mt.KIND_FINITE)
    graph = mt.bounded_ball_graph(oracle, 3, bound)
    # independent BFS
    gens = []
    for lab in group.generators:
        e = gd.generator_element(group, lab)
        gens.extend([e, gd.invert(e)])
    for k in range(-bound, bound + 1):
        if k:
            gens.append(gd.delta_pow(group, 2 * k))
    layers = [{gd.identity_element(group).render()}]
    seen = {gd.identity_element(group).render(): gd.identity_element(group)}
    for _ in range(3):
        nxt = {}
        for g in list(seen.values()):
            for u in gens:
                h = gd.multiply(g, u)
                if abs(h.inf) <= bound and h.canonical_length <= bound \
                        and h.render() not in seen:
                    nxt[h.render()] = h
        seen.update(nxt)
        layers.append(set(nxt))
    assert set(graph.vertices) == set(seen)

    dist = graph.bfs_distances(graph.index_of("D^0"))
    for d, layer in enumerate(layers):
        assert {graph.vertices[i] for i, di in dist.items() if di == d} == layer

    edges = set()
    for key, g in seen.items():
        for u in gens:
            h = gd.multiply(g, u).render()
            if h in seen and h != key:
                edges.add(frozenset((key, h)))
    assert {frozenset((graph.vertices[i], graph.vertices[j]))
            for i, j in graph.edges} == edges

    # word_length_bound follows the same ball rule
    for key, g in seen.items():
        res = mt.word_length_bound(g, oracle, bound)
        assert res.value == dist[graph.index_of(key)]


def test_ball_universe_too_small():
    oracle = mt.genset_oracle(I3, mt.KIND_FINITE)
    with pytest.raises(UniverseTooSmall):
        mt.bounded_ball_graph(oracle, 6, 1)


def test_word_length_examples():
    xp = mt.genset_oracle(I5, mt.KIND_XP)
    a = gd.generator_element(I5, "a")
    for n in range(1, 7):
        res = mt.word_length_bound(gd.power(a, n), xp, 6)
        assert (res.kind, res.value) == ("exact", 1)
    res0 = mt.word_length_bound(gd.identity_element(I5), xp, 4)
    assert (res0.kind, res0.value) == ("exact", 0)
    # distance 2 certified by non-membership
    ab_el = nf(I5, "a b")
    res2 = mt.word_length_bound(ab_el, xp, 6)
    assert (res2.kind, res2.value) == ("exact", 2)
    # the simples have a closed form, exact at any universe; the search in
    # the box answered a^9 at universe 3 "unknown" and a a a at universe 2
    # "upper", as it could not prove those
    simples = mt.genset_oracle(I5, mt.KIND_SIMPLES)
    simples3 = mt.genset_oracle(I3, mt.KIND_SIMPLES)
    finite5 = mt.genset_oracle(I5, mt.KIND_FINITE)
    for oracle, g, universe, expected in [
            (simples, gd.power(a, 9), 3, ("exact", 9)),
            (simples3, nf(I3, "a a a"), 3, ("exact", 3)),
            (simples3, nf(I3, "a a a a"), 4, ("exact", 4)),
            (simples3, nf(I3, "a a a"), 2, ("exact", 3)),
            # any other kind: distance >= 3 is an upper bound, also for a
            # target outside the box, which the search still steps onto ...
            (xp, nf(I5, "a b a b"), 2, ("upper", 4)),
            (finite5, nf(I5, "a a a"), 2, ("upper", 3)),
            # ... and a target the search in the box does not reach is unknown
            (xp, nf(I5, "a b a^-1 b^3 a^2"), 2, ("unknown", None)),
    ]:
        res = mt.word_length_bound(g, oracle, universe)
        assert (res.kind, res.value, res.universe_len) == expected + (universe,)


def test_word_length_walk_matches_the_reference():
    # 348 seeded words: every answer kind, targets in and outside the box,
    # and X_NP step boxes that both refuse (XNP_BOX_LIMIT)
    combos = [(spec, kind, universe) for spec in ("A2", "I2(5)") for universe in (1, 2, 3)
              for kind in (mt.KIND_XP, mt.KIND_XNP, mt.KIND_FINITE, mt.KIND_XABS)]
    combos += [("A3", kind, 1) for kind in (mt.KIND_XP, mt.KIND_XNP, mt.KIND_FINITE)]
    combos += [("B3", kind, 1) for kind in (mt.KIND_FINITE, mt.KIND_XP)]
    rng = random.Random(13)
    seen = collections.Counter()
    for spec, kind, universe in combos:
        group = EQUIV_GROUPS[spec]
        oracle = mt.genset_oracle(group, kind)
        for _ in range(12):
            letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                            for _ in range(rng.randint(1, 6)))
            g = gd.normal_form(gd.LetterWord(group, letters))
            try:
                want = reference_word_length(g, oracle, universe)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    mt.word_length_bound(g, oracle, universe)
                seen["refused"] += 1
                continue
            assert mt.word_length_bound(g, oracle, universe) == want
            seen[want.kind, want.value] += 1
    assert seen == {("exact", 0): 19, ("exact", 1): 137, ("exact", 2): 98,
                    ("upper", 3): 33, ("upper", 4): 7, ("upper", 5): 5,
                    ("upper", 6): 1, ("unknown", None): 33, "refused": 15}


@pytest.mark.parametrize("spec,radius", [("A2", 3), ("I2(5)", 3), ("A3", 3), ("B3", 2)])
def test_simples_word_length_matches_unboxed_search(spec, radius):
    group = EQUIV_GROUPS[spec]
    simples = mt.genset_oracle(group, mt.KIND_SIMPLES)
    lengths = reference_simples_lengths(group, radius)
    for (p, fs), d in lengths.items():
        g = gd.GarsideElement(group, p, fs)
        for universe in (0, radius):
            res = mt.word_length_bound(g, simples, universe)
            assert (res.kind, res.value) == ("exact", d)


def test_word_length_monotone_in_universe():
    # the simples answer from the closed form; this checks the box search
    finite = mt.genset_oracle(I3, mt.KIND_FINITE)
    rng = random.Random(4)
    for _ in range(20):
        letters = tuple((rng.randrange(2), rng.choice((-1, 1)))
                        for _ in range(rng.randint(0, 5)))
        g = gd.normal_form(gd.LetterWord(I3, letters))
        small = mt.word_length_bound(g, finite, 4)
        big = mt.word_length_bound(g, finite, 6)
        if small.value is not None and big.value is not None:
            assert big.value <= small.value


def test_dihedral_xabs_word_lengths_bounded():
    """Census members have uniformly small X_P word length."""
    xp = mt.genset_oracle(I5, mt.KIND_XP)
    for el in ab.enumerate_absorbable(I5, 10):
        res = mt.word_length_bound(el, xp, 8)
        assert res.value is not None and res.value <= 3


# --- coset graphs --------------------------------------------------------------

def test_coset_key_invariance():
    rng = random.Random(9)
    for _ in range(40):
        letters = tuple((rng.randrange(3), rng.choice((-1, 1)))
                        for _ in range(rng.randint(0, 6)))
        g = gd.normal_form(gd.LetterWord(A3, letters))
        k = rng.randint(-3, 3)
        assert mt.coset_key(g) == mt.coset_key(gd.multiply(g, gd.delta_pow(A3, k)))


def test_quotient_cayley_examples():
    q = mt.quotient_cayley_graph(I3, 6)
    dist = q.bfs_distances(q.index_of(mt.coset_key(gd.identity_element(I3))))
    assert dist[q.index_of(mt.coset_key(gd.generator_element(I3, "a")))] == 1
    assert dist[q.index_of(mt.coset_key(nf(I3, "a b")))] == 1
    q4 = mt.quotient_cayley_graph(A3, 4)
    s1 = gd.generator_element(A3, "s1")
    dist = q4.bfs_distances(q4.index_of(mt.coset_key(gd.identity_element(A3))))
    assert dist[q4.index_of(mt.coset_key(gd.power(s1, 3)))] == 3
    # distance equals canonical length of the coset representative
    rng = random.Random(2)
    for _ in range(20):
        letters = tuple((rng.randrange(3), 1) for _ in range(rng.randint(0, 4)))
        g = gd.normal_form(gd.LetterWord(A3, letters))
        assert dist[q4.index_of(mt.coset_key(g))] == g.canonical_length


def test_cal_graph_coset_diameter():
    """Inside the truncation, same-coset elements collapse and distances to
    the identity coset stay small (simple edges exist)."""
    graph = mt.build_cal_graph(I3, 4)
    one = mt.coset_key(gd.identity_element(I3))
    dist = graph.bfs_distances(graph.index_of(one))
    assert max(dist.values()) <= 4
    assert len(dist) == len(graph.vertices)  # connected truncation


def test_fat_triangle_distance_reports():
    s1 = gd.generator_element(A3, "s1")
    s3 = gd.generator_element(A3, "s3")
    tri = ab.build_fat_triangle(gd.power(s1, 2), gd.power(s3, 2))
    rep = mt.fat_triangle_distances(tri)
    assert rep.all_pass
    small = ab.build_fat_triangle(s1, s3)
    rep1 = mt.fat_triangle_distances(small)
    assert rep1.all_pass
    for chk in rep1.pair_checks:
        assert chk.measured <= 1


@pytest.mark.parametrize("spec,bound", [("I2(5)", 8), ("A2", 8), ("A3", 5),
                                        ("B3", 3), ("A4", 3)])
def test_coset_distance_matches_quotient_cayley_bfs(spec, bound):
    """The closed form against breadth-first search in the truncation, on
    400 pairs of its vertices, each element moved by D-powers on both sides
    (D^j a D^k is of the vertex of a)."""
    group = parse_group_spec(spec)
    graph = mt.quotient_cayley_graph(group, bound)
    forms = [fs for ell in range(bound + 1)
             for fs in gd.iter_positive_factor_tuples(group, ell)]
    rng = random.Random(bound)

    def element():
        g = gd.GarsideElement(group, 0, rng.choice(forms))
        return gd.multiply(gd.multiply(gd.delta_pow(group, rng.randint(-3, 3)), g),
                           gd.delta_pow(group, rng.randint(-3, 3)))

    for _ in range(10):
        u = element()
        dist = graph.bfs_distances(graph.index_of(mt.coset_key(u)))
        for _ in range(40):
            v = element()
            assert mt.coset_distance(u, v) == dist[graph.index_of(mt.coset_key(v))]


def _acceptance_triangles():
    """The triangles of acceptance criterion 5."""
    for m in (3, 4, 5):
        group = parse_group_spec(f"I2({m})")
        for x, y in ab.absorption_pairs_from_census(group, 2 * m):
            yield group, ab.build_fat_triangle(x, y)
    s1 = gd.generator_element(A3, "s1")
    s3 = gd.generator_element(A3, "s3")
    for ell in range(1, 5):
        yield A3, ab.build_fat_triangle(gd.power(s1, ell), gd.power(s3, ell))


def test_fat_triangle_distances_match_truncated_bfs(monkeypatch):
    """Each acceptance triangle whose L + 2 table fits TABLE_LIMIT gives the
    same report with its distances taken by breadth-first search in
    quotient_cayley_graph(group, L + 2)."""
    checked = 0
    for group, tri in _acceptance_triangles():
        try:
            graph = mt.quotient_cayley_graph(group, tri.length + 2)
        except CapExceeded:
            continue
        rows = {}

        def bfs_distance(u, v):
            a = graph.index_of(mt.coset_key(u))
            if a not in rows:
                rows[a] = graph.bfs_distances(a)
            return rows[a][graph.index_of(mt.coset_key(v))]

        want = mt.fat_triangle_distances(tri)
        with monkeypatch.context() as patch:
            patch.setattr(mt, "coset_distance", bfs_distance)
            assert mt.fat_triangle_distances(tri) == want
        assert want.all_pass
        checked += 1
    assert checked == 15   # all but A3 at L = 4


def test_cparab_neighborhood():
    p1 = pb.standard_parabolic(A3, ("s1",))
    graph = mt.build_cparab_neighborhood(p1, 0, 1)
    keys = set(graph.vertices)
    assert pb.standard_parabolic(A3, ("s3",)).key() in keys
    assert pb.standard_parabolic(A3, ("s1", "s2")).key() in keys
    assert pb.standard_parabolic(A3, ("s2",)).key() not in keys
    for i, j in graph.edges:
        assert i != j


def test_cparab_equivariance():
    p1 = pb.standard_parabolic(A3, ("s1",))
    s2 = gd.generator_element(A3, "s2")
    moved = pb.act_on_parabolic(s2, p1)
    g_fixed = mt.build_cparab_neighborhood(p1, 1, 1)
    g_moved = mt.build_cparab_neighborhood(moved, 2, 1)
    # the graphs are isomorphic via conjugation; compare degree profiles
    assert len(g_fixed.bfs_distances(g_fixed.index_of(p1.key()), 1)) <= \
        len(g_moved.bfs_distances(g_moved.index_of(moved.key()), 1))


# --- delta estimation ---------------------------------------------------------

def test_estimate_delta_trees_and_cycles():
    path = mt.MetricGraph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3)), {})
    assert mt.estimate_delta(path, 10)[0] == 0
    cyc = mt.MetricGraph(("a", "b", "c", "d"),
                         ((0, 1), (0, 3), (1, 2), (2, 3)), {})
    assert mt.estimate_delta(cyc, 10)[0] == Fraction(1)
    two = mt.MetricGraph(("a", "b"), (), {})
    with pytest.raises(DisconnectedInput):
        mt.estimate_delta(two, 5)[0]


def test_estimate_delta_quotient_ball():
    q = mt.quotient_cayley_graph(I3, 6)
    val = mt.estimate_delta(q, 2000, seed=11)[0]
    assert val >= 0


# --- qi constants ---------------------------------------------------------------

def test_qi_constants_identity_orbit():
    xp = mt.genset_oracle(I5, mt.KIND_XP)
    ball = mt.bounded_ball_graph(xp, 1, 4)
    qi = mt.qi_constants(ball, ["D^0"])
    assert qi == mt.QiConstants(m1=0, m1_exact=True)


def test_qi_constants_cparab():
    stds = [pb.standard_parabolic(A3, t)
            for t in pb.proper_irreducible_subsets(A3)]
    graph = mt.build_cparab_neighborhood(stds[0], 1, 3)
    qi = mt.qi_constants(graph, [p.key() for p in stds])
    assert qi.m1 == 2 and qi.m1_exact
    with pytest.raises(RepresentativeMissing):
        mt.qi_constants(graph, ["not-a-vertex"])


def test_lipschitz_check_passes():
    # every two standard parabolics lie within two commute edges
    for spec in ("A3", "A4", "B3", "D4"):
        group = parse_group_spec(spec)
        base = pb.standard_parabolic(group, ("s1",))
        rep = mt.lipschitz_path_check(group, base, samples=60, seed=10)
        assert rep.all_pass and rep.m1 == 2


# --- builders against the references in oracles.py -----------------------------

A1XA2 = CoxeterGraph(("s1", "s2", "s3"), ((1, 2, 2), (2, 1, 3), (2, 3, 1)))
A2XA2 = CoxeterGraph(("s1", "s2", "s3", "s4"),
                     ((1, 3, 2, 2), (3, 1, 2, 2), (2, 2, 1, 3), (2, 2, 3, 1)))
A1XA1 = CoxeterGraph(("s1", "s2"), ((1, 2), (2, 1)))
EQUIV_GROUPS = {"A2": I3, "A3": A3, "B3": parse_group_spec("B3"), "I2(5)": I5,
                "A1xA2": A1XA2, "A2xA2": A2XA2, "I2(6)": parse_group_spec("I2(6)"),
                "A4": parse_group_spec("A4"), "D4": parse_group_spec("D4"),
                "H3": parse_group_spec("H3"), "A1": parse_group_spec("A1"),
                "A1xA1": A1XA1, "I2(8)": parse_group_spec("I2(8)")}


def _pair(graph):
    return graph.vertices, graph.edges


@pytest.mark.parametrize("spec,bound", [("A3", 3), ("B3", 2), ("I2(5)", 4),
                                        ("A1xA2", 3), ("D4", 2), ("A2", 0)])
def test_product_rows_match_key_product(spec, bound):
    group = EQUIV_GROUPS[spec]
    tab = group.table()
    rows = mt._ProductRows(group, bound)
    assert rows.forms == [fs for ell in range(bound + 1)
                          for fs in gd.iter_positive_factor_tuples(group, ell)]
    ids = {fs: i for i, fs in enumerate(rows.forms)}
    for i, fs in enumerate(rows.forms):
        assert rows.forms[rows.tau[i]] == tuple(tab.tau[x] for x in fs)
        if fs:
            j = rows.prefix[i]
            assert rows.forms[j] == fs[:-1]
            assert rows.first[j] + rows.slot[j][fs[-1]] == i
        if i < rows.below:   # forms of length L are read through their prefix
            for x in range(1, tab.w0):
                d, res = mt._key_product(tab, (0, fs), (0, (x,)))
                assert rows.row[i * tab.size + x] == 2 * ids[res] + d
            # the columns of 1 and D
            assert rows.row[i * tab.size] == 2 * i
            assert rows.row[i * tab.size + tab.w0] == 2 * rows.tau[i] + 1
    assert rows.below == len(rows.forms) - gd.positive_nf_counts(group, bound)[bound]


@pytest.mark.parametrize("spec,bound", [("A1", 0), ("A1", 1), ("A1", 2), ("A3", 2),
                                        ("B3", 2), ("I2(5)", 4), ("A1xA2", 3), ("D4", 1)])
def test_full_product_rows_match_key_product(spec, bound):
    # the table of a ball of the simples: every form has its row, and -1
    # marks exactly the products longer than L
    group = EQUIV_GROUPS[spec]
    tab = group.table()
    rows = mt._ProductRows(group, bound)
    rows.fill_longest()
    assert len(rows.row) == len(rows.forms) * tab.size
    ids = {fs: i for i, fs in enumerate(rows.forms)}
    for i, fs in enumerate(rows.forms):
        for x in range(tab.size):
            d, res = mt._key_product(tab, (0, fs), (0, (x,) if x else ()))
            want = 2 * ids[res] + d if len(res) <= bound else -1
            assert rows.row[i * tab.size + x] == want


def test_simples_ball_reads_the_table_not_the_memo(monkeypatch):
    def refused(*args):
        raise AssertionError("a ball of the simples formed a _ProductMemo")

    monkeypatch.setattr(mt._ProductMemo, "__init__", refused)
    graph = mt.bounded_ball_graph(mt.genset_oracle(A3, mt.KIND_SIMPLES), 3, 2)
    assert (len(graph.vertices), len(graph.codes)) == (771, 8566)
    # the proof at `_simples_ball` that its table is never refused once its
    # product count has passed rests on this ratio of the two limits
    assert mt.BALL_PRODUCT_LIMIT <= 4 * mt.TABLE_LIMIT


@pytest.mark.parametrize("spec,bound", [("A3", 3), ("B3", 2), ("I2(5)", 4),
                                        ("A1xA2", 3), ("D4", 1)])
def test_product_memo_matches_key_product(spec, bound):
    group = EQUIV_GROUPS[spec]
    tab = group.table()
    memo = mt._ProductMemo(group)
    forms = [fs for ell in range(bound + 1)
             for fs in gd.iter_positive_factor_tuples(group, ell)]
    random.Random(0).shuffle(forms)   # ids in no particular order
    steps = random.Random(1).sample(list(gd.iter_positive_factor_tuples(group, 2)), 4)
    for fs in forms:
        i = memo.id_of(fs)
        for us in steps:   # the ball's chained products by longer steps
            want = mt._key_product(tab, (0, fs), (0, us))
            assert memo.chain(i, 0, us) == want
            if fs:   # started from the prefix's id and the last factor
                assert memo.chain(memo.prefix[i], fs[-1], us) == want
        assert memo.forms[memo.twist(i)] == tuple(tab.tau[x] for x in fs)
        for x in range(tab.size):
            want = mt._key_product(tab, (0, fs), (0, (x,) if x else ()))
            assert memo.times(i, x) == want
            if x % 2:
                v = memo.product(i, x)
                assert (v & 1, memo.forms[v >> 1]) == want
    assert all(memo.forms[memo.prefix[i]] == fs[:-1]
               for i, fs in enumerate(memo.forms) if fs)


@pytest.mark.parametrize("spec", ["A2", "A3", "I2(5)", "A1xA2"])
def test_key_product_matches_multiply(spec):
    """The key-level product the ball forms its long steps with, on the box
    of bound 1 and the step generators of every kind there."""
    group = EQUIV_GROUPS[spec]
    tab = group.table()
    gens = {mt._nf_key(u): u for kind in mt.KINDS
            for u in mt._box_step_generators(mt.genset_oracle(group, kind), 1)}
    box = [gd.GarsideElement(group, p, fs) for p in (-1, 0, 1)
           for ell in (0, 1) for fs in gd.iter_positive_factor_tuples(group, ell)]
    pairs = [(g, u) for g in box for u in gens.values()]
    for g, u in random.Random(0).sample(pairs, min(len(pairs), 3000)):
        assert mt._key_product(tab, mt._nf_key(g), mt._nf_key(u)) == \
            mt._nf_key(gd.multiply(g, u))


@pytest.mark.parametrize("spec", ["A3", "B3", "I2(5)", "D4", "A2", "A1xA2", "A2xA2",
                                  "I2(6)", "A4", "H3", "A1"])
def test_renderer_matches_element_render(spec):
    group = EQUIV_GROUPS[spec]
    word = group.table().word
    for p in (-2, 0, 1):
        for fs in mt._ProductRows(group, 2).forms:
            # the definition spelled out, as `render` is `render_form` itself
            want = " | ".join([f"D^{p}"] + ["".join(group.generators[s] for s in word[f])
                                            for f in fs])
            assert gd.render_form(group, p, fs) == want == \
                gd.GarsideElement(group, p, fs).render()
    # the quotient-Cayley keys, each rendered from its prefix's text, to
    # length 3 where the table fits (D4 and H3 to length 2)
    try:
        rows = mt._ProductRows(group, 3)
    except CapExceeded:
        rows = mt._ProductRows(group, 2)
    assert rows.texts() == [gd.GarsideElement(group, 0, fs).render() for fs in rows.forms]


@pytest.mark.parametrize("spec,bound", [("A2", 3), ("A3", 3), ("B3", 2),
                                        ("I2(5)", 3), ("A1xA2", 3), ("A2", 4),
                                        ("I2(6)", 4), ("A4", 2), ("A1xA2", 4),
                                        ("A2", 0), ("A3", 1), ("A1xA2", 1),
                                        ("A1xA2", 2), ("I2(5)", 1), ("A2xA2", 2),
                                        ("A2", 1), ("A3", 2),
                                        ("B3", 1), ("I2(8)", 3), ("A1xA1", 3)])
def test_quotient_cayley_matches_two_direction_reference(spec, bound):
    """The rows cover length 0, where the one key is a boundary key, and
    small boundaries where the twist moves keys (A2, A3, I2(5)) or the group
    is reducible (A1xA2, A2xA2): each edge emitted once, none missing.  Keys
    take their cosets as a set only where D is not central: A3 at lengths 2
    and 3 and A4 at length 2 have keys that reach a coset twice, and B3,
    I2(6), I2(8), A1xA1, and D4 and H3 below, keep the cosets as read."""
    group = EQUIV_GROUPS[spec]
    graph = mt.quotient_cayley_graph(group, bound)
    assert _pair(graph) == reference_quotient_cayley(group, bound)
    # the dict-row delta draws the same 4-tuples and finds the same defect
    for seed in (1, 2):
        assert mt.estimate_delta(graph, 300, seed)[0] == \
            reference_delta(graph, 300, seed)


@pytest.mark.parametrize("spec,bound,abs_bound", [
    ("A2", 0, None), ("A2", 1, None), ("A2", 2, None), ("A2", 3, None), ("A2", 4, None),
    ("I2(5)", 1, None), ("I2(5)", 2, None), ("I2(5)", 3, None),
    ("A3", 1, 2), ("A3", 1, 3), ("A3", 2, 2), ("A3", 2, 3), ("B3", 1, 1), ("B3", 1, 2)])
def test_cal_graph_matches_the_coset_search(spec, bound, abs_bound):
    """The cal graph, the quotient-Cayley graph plus absorbable edges, is
    the search that steps from every coset by every simple, inverse simple
    and census member; it keeps no cosets, so delta searches its distances."""
    group = EQUIV_GROUPS[spec]
    graph = mt.build_cal_graph(group, bound, abs_bound)
    census = ab.enumerate_absorbable(group, bound if abs_bound is None else abs_bound)
    assert _pair(graph) == reference_quotient_cayley(
        group, bound, [(el.power, el.factors) for el in census])
    assert graph.cosets is None


@pytest.mark.parametrize("spec", ["D4", "H3"])
def test_quotient_cayley_matches_reference_on_d4_and_h3(spec):
    group = EQUIV_GROUPS[spec]
    graph = mt.quotient_cayley_graph(group, 2)
    assert _pair(graph) == reference_quotient_cayley(group, 2)


@pytest.mark.parametrize("spec,kind,radius,universe", [
    ("A2", mt.KIND_SIMPLES, 3, 2), ("A3", mt.KIND_SIMPLES, 3, 2),
    ("B3", mt.KIND_SIMPLES, 2, 1), ("I2(5)", mt.KIND_SIMPLES, 3, 2),
    ("A1xA2", mt.KIND_SIMPLES, 3, 2), ("I2(5)", mt.KIND_SIMPLES, 5, 3),
    ("A2", mt.KIND_FINITE, 3, 3),
    ("A1xA2", mt.KIND_FINITE, 2, 2), ("A3", mt.KIND_FINITE, 4, 2),
    ("I2(5)", mt.KIND_XP, 2, 2), ("A2", mt.KIND_XP, 3, 2), ("A3", mt.KIND_XP, 2, 1),
    ("A1xA2", mt.KIND_XP, 2, 1), ("A2", mt.KIND_XP, 4, 1), ("A2", mt.KIND_XABS, 2, 2),
    ("A3", mt.KIND_XABS, 1, 1), ("I2(5)", mt.KIND_XABS, 2, 1),
    ("A1xA2", mt.KIND_XABS, 1, 1), ("A2", mt.KIND_XNP, 2, 2),
    ("A3", mt.KIND_XNP, 2, 1), ("I2(5)", mt.KIND_XNP, 2, 1),
    ("A1xA2", mt.KIND_XNP, 2, 1), ("A2", mt.KIND_SIMPLES, 0, 2),
    ("D4", mt.KIND_FINITE, 3, 3), ("A3", mt.KIND_XNP, 3, 1),
    ("D4", mt.KIND_FINITE, 3, 2),
    # the simples' closed form: A1, whose positive elements are powers of D,
    # a reducible group, a large and a dihedral table, and the whole box
    # (radius 2B + 1) of A1 and A1xA1
    ("A1", mt.KIND_SIMPLES, 3, 2), ("A1xA1", mt.KIND_SIMPLES, 3, 1),
    ("D4", mt.KIND_SIMPLES, 2, 1), ("I2(8)", mt.KIND_SIMPLES, 4, 2),
    ("B3", mt.KIND_SIMPLES, 3, 2),
    # a universe far past the radius: vertex codes span the powers of the
    # ball, |p| <= min(B, r), not those of the box
    ("A3", mt.KIND_SIMPLES, 2, 10**4),
    # X_NP and X_abs of A1 are empty: the ball is the identity at any universe
    ("A1", mt.KIND_XNP, 2, 0), ("A1", mt.KIND_XNP, 3, 1), ("A1", mt.KIND_XABS, 2, 1),
])
def test_ball_matches_reference(spec, kind, radius, universe):
    oracle = mt.genset_oracle(EQUIV_GROUPS[spec], kind)
    graph = mt.bounded_ball_graph(oracle, radius, universe)
    assert _pair(graph) == reference_ball(oracle, radius, universe)
    assert mt.estimate_delta(graph, 200, 5)[0] == reference_delta(graph, 200, 5)


@pytest.mark.parametrize("spec,kind,radius,universe", [
    ("A2", mt.KIND_SIMPLES, 6, 2), ("A2", mt.KIND_FINITE, 6, 1),
    ("A2", mt.KIND_XP, 6, 1), ("I2(5)", mt.KIND_XABS, 4, 1),
    ("A1", mt.KIND_SIMPLES, 8, 2), ("A1", mt.KIND_FINITE, 3, 1),
    # at universe 0 no step fits the box, and the generators leave it
    ("A2", mt.KIND_XABS, 2, 0), ("A2", mt.KIND_SIMPLES, 2, 0), ("A2", mt.KIND_XP, 2, 0),
    ("A2", mt.KIND_XNP, 2, 0), ("A2", mt.KIND_FINITE, 2, 0), ("A1", mt.KIND_XP, 3, 0),
])
def test_ball_stall_is_refused_as_by_the_reference(spec, kind, radius, universe):
    # the reference stalls on a product outside the box, the walk when it
    # ends early, and the simples' ball past the box's largest length plus
    # 1: 2B + 1, or B + 1 in A1, where every step is a power of D
    oracle = mt.genset_oracle(EQUIV_GROUPS[spec], kind)
    with pytest.raises(UniverseTooSmall) as want:
        reference_ball(oracle, radius, universe)
    with pytest.raises(UniverseTooSmall) as got:
        mt.bounded_ball_graph(oracle, radius, universe)
    assert str(got.value) == str(want.value)
    if kind == mt.KIND_SIMPLES and universe:   # 2B + 1 in A2, B + 1 in A1
        assert str(got.value).endswith({"A2": " 5 < 6", "A1": " 3 < 8"}[spec])


def test_ball_with_every_vertex_expanded():
    # the BFS runs out after its last layer, so no vertex is multiplied
    # again; X_P of A2 walks its box of bound 1 out at layer 3
    oracle = mt.genset_oracle(I3, mt.KIND_XP)
    full = mt.bounded_ball_graph(oracle, 3, 1)
    dist = full.bfs_distances(full.index_of("D^0"))
    radius = max(dist.values()) + 1
    graph = mt.bounded_ball_graph(oracle, radius, 1)
    assert radius == 4 and (len(graph.vertices), len(graph.codes)) == (15, 25)
    assert _pair(graph) == reference_ball(oracle, radius, 1) == _pair(full)


def test_exhaustive_delta_matches_reference():
    graph = mt.quotient_cayley_graph(I3, 2)
    n = len(graph.vertices)
    quads = n * (n - 1) * (n - 2) * (n - 3) // 24
    assert 4 <= n and quads <= 5000
    assert mt.estimate_delta(graph, quads)[0] == reference_delta(graph, quads)
    cal = mt.build_cal_graph(I3, 3)
    assert mt.estimate_delta(cal, 10**6)[0] == reference_delta(cal, 10**6)


@pytest.mark.parametrize("build,sample,seed", [
    (lambda: mt.quotient_cayley_graph(A3, 2), 200, 3),
    (lambda: mt.quotient_cayley_graph(I3, 2), 35, 0),
    (lambda: mt.build_cal_graph(I3, 2), 35, 0),
    (lambda: mt.bounded_ball_graph(mt.genset_oracle(I5, mt.KIND_SIMPLES), 3, 2), 500, 1),
])
def test_delta_certificate_is_the_first_tuple_attaining_delta(build, sample, seed):
    graph = build()
    delta, quad, examined = mt.estimate_delta(graph, sample, seed)
    dist = [graph.bfs_distances(i) for i in range(len(graph.vertices))]

    def defect(a, b, c, d):
        sums = sorted((dist[a][b] + dist[c][d], dist[a][c] + dist[b][d],
                       dist[a][d] + dist[b][c]))
        return Fraction(sums[2] - sums[1], 2)

    quads = list(mt._quadruples(len(graph.vertices), sample, seed))
    assert examined == len(set(quads))
    assert defect(*quad) == delta
    assert all(defect(*q) < delta for q in quads[:quads.index(quad)])


def test_delta_with_distances_past_a_byte():
    # distances up to 299: a path is a tree, so delta 0; a cycle matches the
    # dict-row reference
    n = 300
    names = tuple(f"v{i:03d}" for i in range(n))
    path = mt.MetricGraph(names, tuple((i, i + 1) for i in range(n - 1)), {})
    assert mt.estimate_delta(path, 50, seed=1)[0] == 0
    cycle = mt.MetricGraph(names, path.edges[:1] + ((0, n - 1),) + path.edges[1:], {})
    got = mt.estimate_delta(cycle, 50, seed=1)[0]
    assert got == reference_delta(cycle, 50, seed=1) and got > 0


@pytest.mark.parametrize("batch", [1, 3, 1024])
def test_pair_distances_match_bfs_in_every_batch_size(batch, monkeypatch):
    monkeypatch.setattr(mt, "SOURCE_BATCH", batch)
    graph = mt.quotient_cayley_graph(I3, 3)
    adj = graph.adjacency()
    rng = random.Random(6)
    n = len(graph.vertices)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(60)] + [(0, 0)]
    dist, spans = mt._pair_distances(adj, pairs)
    assert spans and dist == {(a, b): graph.bfs_distances(a)[b] for a, b in pairs}
    two = mt.MetricGraph(tuple("abcd"), ((0, 1), (2, 3)), {})
    dist, spans = mt._pair_distances(two.adjacency(), [(1, 0), (1, 3), (2, 3)])
    assert not spans and dist == {(1, 0): 1, (2, 3): 1}


def test_per_component_delta_skips_unreached_pairs():
    # a disconnected graph, two 4-cycles, is refused
    cycles = mt.MetricGraph(tuple("abcdefgh"),
                            ((0, 1), (0, 3), (1, 2), (2, 3),
                             (4, 5), (4, 7), (5, 6), (6, 7)), {})
    with pytest.raises(DisconnectedInput):
        mt.estimate_delta(cycles, 100)[0]


def test_export_json_streams_the_same_bytes(tmp_path):
    from garsidehyp import graphio
    graphs = [mt.quotient_cayley_graph(A3, 2), mt.build_cal_graph(I5, 2),
              mt.MetricGraph((), (), {"construction": "empty"}),
              mt.MetricGraph(("a", "b\u00e9\"q"), (), {}),
              mt.MetricGraph(("x", "y", "z"), ((0, 2), (1, 2)),
                             {"notes": "two\nlines, a \"quote\" and \u03b4",
                              "nested": {"k": [1, 2], "e": []}, "t": True}),
              # empty runs: vertices 0, 2 and 4 have no higher neighbour
              mt.MetricGraph(tuple("abcde"), ((1, 2), (1, 4), (3, 4)), {}),
              # an isolated middle vertex, and two-digit numerals
              mt.MetricGraph(tuple("abcdefghijkl"),
                             ((0, 1), (0, 11), (1, 3), (3, 10), (9, 10), (10, 11)), {})]
    # past one write chunk of runs and of vertices: a path, one run a vertex;
    # then exactly one chunk of runs and two of vertices, and exactly two of runs
    chunk = graphio.WRITE_CHUNK
    for n, pairs in ((chunk + chunk // 2, [(i, i + 1) for i in range(chunk + chunk // 2 - 1)]),
                     (2 * chunk, [(2 * i, 2 * i + 1) for i in range(chunk)]),
                     (2 * chunk + 1, [(i, i + 1) for i in range(2 * chunk)])):
        graphs.append(mt.MetricGraph(tuple(f"v{i:06d}" for i in range(n)), pairs, {}))
    for graph in graphs:
        path = tmp_path / "g.json"
        graphio.export_json(graph, path)
        want = json.dumps(graphio.graph_to_json_dict(graph), sort_keys=True,
                          indent=1) + "\n"
        assert path.read_text() == want == reference_json_text(graph)


def test_graph_from_json_dict_sorts_edges_and_refuses_duplicates():
    from garsidehyp import graphio
    data = {"vertices": ["a", "b", "c"], "edges": [[1, 2], [0, 2], [0, 1]]}
    graph = graphio.graph_from_json_dict(data)
    assert graph.edges == ((0, 1), (0, 2), (1, 2))
    data["edges"].append([0, 2])
    with pytest.raises(MalformedGraph, match="strictly increasing"):
        graphio.graph_from_json_dict(data)
    data["edges"] = [[0, 3]]
    with pytest.raises(MalformedGraph, match="valid and distinct"):
        graphio.graph_from_json_dict(data)


@pytest.mark.parametrize("codes,message", [
    ([1, 1], "strictly increasing"),
    ([2, 1], "strictly increasing"),
    ([-1], "valid and distinct"),
    ([9], "valid and distinct"),
    ([3], "valid and distinct"),   # (1, 0)
    ([4], "valid and distinct"),   # the loop (1, 1)
    ([5, 6], "valid and distinct"),   # (1, 2), then (2, 0)
])
def test_builder_codes_take_the_same_check(codes, message):
    """Builders hand over their sorted lists; an array is checked the same."""
    for pack in (list, lambda c: array("q", c)):
        with pytest.raises(MalformedGraph, match=message):
            mt.MetricGraph.from_codes(("a", "b", "c"), pack(codes), {})
        graph = mt.MetricGraph.from_codes(("a", "b", "c"), pack([1, 2, 5]), {})
        assert graph.edges == ((0, 1), (0, 2), (1, 2))
        assert graph.codes == array("q", [1, 2, 5])


@pytest.mark.parametrize("data,message", [
    ({"vertices": ["a", "b"], "edges": [[0.7, 1]]}, "pairs of ints"),
    ({"vertices": ["a", "b"], "edges": [[False, True]]}, "pairs of ints"),
    ({"vertices": ["a", "b"], "edges": [["0", 1]]}, "pairs of ints"),
    ({"vertices": ["a", "b", "c"], "edges": [[0, 1, 2]]}, "pairs of ints"),
    ({"vertices": ["a", "b"], "edges": [7]}, "pairs of ints"),
    ({"vertices": ["a", 1], "edges": []}, "list of strings"),
    ({"vertices": "ab", "edges": []}, "list of strings"),
    ({"vertices": ["a"]}, "pairs of ints"),
    ({"vertices": ["a"], "edges": [], "provenance": [["k", 1]]}, "provenance"),
    ([["a"], []], "JSON object"),
    # refused before encoding: as a code i*n + j, (0, 5) would alias (1, 2)
    ({"vertices": ["a", "b", "c"], "edges": [[0, 5]]}, "valid and distinct"),
    ({"vertices": ["a", "b", "c"], "edges": [[-1, 1]]}, "valid and distinct"),
    ({"vertices": ["a", "b", "c"], "edges": [[1, 1]]}, "valid and distinct"),
])
def test_graph_from_json_dict_refuses_malformed_input(data, message):
    from garsidehyp import graphio
    with pytest.raises(MalformedGraph, match=message):
        graphio.graph_from_json_dict(data)


def test_graph_file_is_checked_under_optimisation(tmp_path):
    # python -O strips asserts; a file with a repeated or out-of-range edge
    # must still be refused
    src = str(Path(mt.__file__).resolve().parents[1])
    invalid = "edge endpoints must be valid and distinct"
    for vertices, edges, message in (
            (["a", "b"], [[0, 1], [0, 1]], "edges must be strictly increasing"),
            (["a", "b"], [[0, 5]], invalid),
            (["a", "b", "c"], [[0, 5]], invalid),   # the code of (1, 2)
            (["a", "b", "c"], [[-1, 1]], invalid),
            (["a", "b", "c"], [[1, 1]], invalid)):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
        code = ("from garsidehyp import graphio\n"
                "from garsidehyp.errors import MalformedGraph\n"
                "try:\n"
                f"    graphio.import_json({str(path)!r})\n"
                "except MalformedGraph as exc:\n"
                "    print('refused:', exc)\n")
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == f"refused: {message}"


@pytest.mark.parametrize("spec,bound", [("A2", 2), ("A3", 1), ("I2(5)", 1),
                                        ("A1xA2", 1)])
def test_xnp_generators_match_box_filter(spec, bound):
    oracle = mt.genset_oracle(EQUIV_GROUPS[spec], mt.KIND_XNP)
    assert [(e.power, e.factors) for e in oracle.enumerate_up_to(bound)] == \
        [(e.power, e.factors) for e in reference_box_members(oracle, bound)]


# X_abs in A3 and B3 is left out: the census to sup 3B takes 12 s in A3 at
# B = 1 and minutes in B3
@pytest.mark.parametrize("spec,kind", [
    (spec, kind) for spec in ("A2", "I2(5)", "A3", "B3") for kind in mt.KINDS
    if kind != mt.KIND_XABS or spec in ("A2", "I2(5)")])
def test_ball_steps_are_the_square_box_cut_to_length_2b(spec, kind):
    oracle = mt.genset_oracle(EQUIV_GROUPS[spec], kind)
    for bound in (1, 2):
        try:
            square = oracle.enumerate_up_to(3 * bound)
        except CapExceeded:   # X_NP in I2(5), A3 and B3 at B = 2
            continue
        assert [mt._nf_key(e) for e in mt._box_step_generators(oracle, bound)] == \
            [mt._nf_key(e) for e in square if len(e.factors) <= 2 * bound]


@pytest.mark.parametrize("spec", ["A3", "B3", "I2(5)"])
def test_xnp_membership_matches_commute(spec):
    group = EQUIV_GROUPS[spec]
    omegas = [gd.omega_of(group, labels).element
              for labels in pb.proper_irreducible_subsets(group)]
    oracle = mt.genset_oracle(group, mt.KIND_XNP)
    rng = random.Random(7)
    got = collections.Counter()
    for _ in range(200):
        letters = tuple((rng.randrange(group.rank), rng.choice((-1, 1)))
                        for _ in range(rng.randint(1, 8)))
        g = gd.normal_form(gd.LetterWord(group, letters))
        want = any(gd.commute(g, om) for om in omegas)
        assert oracle.membership(g) == want
        got[want] += 1
    assert got[True] and got[False]


@pytest.mark.parametrize("spec", ["A3", "B3", "I2(5)", "A1xA2"])
def test_xnp_parities_match_commute(spec):
    # D^0 x and D x for every positive x to length 2, which the oracle
    # decides from the same two products x Omega and Omega x per Omega_T
    group = EQUIV_GROUPS[spec]
    omegas = [gd.omega_of(group, labels).element
              for labels in pb.proper_irreducible_subsets(group)]
    oracle = mt.genset_oracle(group, mt.KIND_XNP)
    got = collections.Counter()
    for ell in range(3):
        for fs in gd.iter_positive_factor_tuples(group, ell):
            for p in (0, 1):
                g = gd.GarsideElement(group, p, fs)
                want = any(gd.commute(g, om) for om in omegas)
                assert oracle.membership(g) == want
                got[p, want] += 1
    # every element of A1xA2 commutes with the Omega_T of its A1 factor
    assert got[1, True] and (spec == "A1xA2" or got[1, False])


@pytest.mark.parametrize("spec,bound", [("A3", 3), ("B3", 2), ("D4", 1),
                                        ("I2(5)", 3), ("A1xA2", 2)])
def test_xnp_members_match_the_commute_reference(spec, bound):
    group = EQUIV_GROUPS[spec]
    got = mt.genset_oracle(group, mt.KIND_XNP).enumerate_up_to(bound)
    assert [(e.power, e.factors) for e in got] == \
        [(e.power, e.factors) for e in reference_xnp_members(group, bound)]


@pytest.mark.parametrize("spec,p0,conj_len,hops", [
    ("A3", "s1", 0, 1), ("A3", "s2", 1, 2), ("A3", "s1,s2", 2, 3), ("A3", "s2,s3", 2, 1),
    ("A4", "s1,s2", 1, 2), ("A4", "s2,s3", 1, 3), ("A4", "s3,s4", 0, 2), ("A4", "s2", 1, 1),
    ("B3", "s1,s2", 2, 2), ("B3", "s3", 1, 3), ("B3", "s2,s3", 0, 3),
    ("A3", "conj:s2 s1^-1:s1", 1, 2), ("B3", "conj:s3 s2:s1,s2", 1, 2),
])
def test_cparab_matches_the_element_reference(spec, p0, conj_len, hops):
    group = EQUIV_GROUPS[spec]
    if p0.startswith("conj:"):
        _, word, labels = p0.split(":")
        p0 = pb.parabolic_from_conjugate(nf(group, word), tuple(labels.split(",")))
    else:
        p0 = pb.standard_parabolic(group, tuple(p0.split(",")))
    graph = mt.build_cparab_neighborhood(p0, conj_len, hops)
    assert _pair(graph) == reference_cparab(p0, conj_len, hops)


def _multiply_counter(monkeypatch):
    calls = []
    real = gd.multiply

    def counted(g, h):
        calls.append(None)
        return real(g, h)

    monkeypatch.setattr(gd, "multiply", counted)

    def during(fn):
        calls.clear()
        fn()
        return len(calls)

    return during


def test_xnp_ball_and_cparab_multiply_only_to_form_each_omega(monkeypatch):
    a4 = EQUIV_GROUPS["A4"]
    p0 = pb.standard_parabolic(a4, ("s1", "s2"))
    during = _multiply_counter(monkeypatch)

    def omegas(group):
        return lambda: [gd.omega_of(group, t) for t in pb.proper_irreducible_subsets(group)]

    want = during(omegas(A3))
    assert want > 0
    assert during(lambda: mt.bounded_ball_graph(
        mt.genset_oracle(A3, mt.KIND_XNP), 2, 1)) == want
    assert during(lambda: mt.build_cparab_neighborhood(p0, 1, 2)) == during(omegas(a4))


@pytest.mark.parametrize("batch", [1, 1024])
def test_pair_distances_that_resolve_before_the_first_source_spans(batch, monkeypatch):
    # every pair has its distance after one layer, while source 0 needs five
    # layers to reach the end of the path; with a vertex cut off it never does
    monkeypatch.setattr(mt, "SOURCE_BATCH", batch)
    path = tuple((i, i + 1) for i in range(5))
    for names, spans in (("abcdef", True), ("abcdefg", False)):
        graph = mt.MetricGraph(tuple(names), path, {})
        assert mt._pair_distances(graph.adjacency(), [(0, 1), (2, 3), (3, 2)]) == \
            ({(0, 1): 1, (2, 3): 1, (3, 2): 1}, spans)


@pytest.mark.parametrize("spec,bound", [("A3", 3), ("B3", 2)])
def test_estimate_delta_matches_reference_for_seeds(spec, bound):
    graph = mt.quotient_cayley_graph(EQUIV_GROUPS[spec], bound)
    for seed in (1, 2, 3, 4):
        assert mt.estimate_delta(graph, 100, seed)[0] == reference_delta(graph, 100, seed)


def test_b3_quotient_graph_gives_the_benchmark_answers():
    # the figures the graphs workload checks (perfbench/golden.json)
    graph = mt.quotient_cayley_graph(EQUIV_GROUPS["B3"], 3)
    assert (len(graph.vertices), len(graph.edges)) == (10413, 102928)
    digest = hashlib.sha256(json.dumps([graph.vertices, graph.edges]).encode())
    assert digest.hexdigest() == \
        "65f099c72052d9ce50f42b5263d46d127a5823f1a7c9ff1f7f0ef848f6f9ea34"
    got = [str(mt.estimate_delta(graph, 50, seed)[0]) for seed in (1, 2, 3, 4)]
    assert got == ["1", "1/2", "1/2", "1/2"]


TWISTED_GRAPHS = [("A3", 3), ("A4", 2), ("I2(5)", 8)]   # D is not central


@pytest.mark.parametrize("spec,bound", TWISTED_GRAPHS + [("B3", 2), ("A2", 4)])
def test_coset_pair_distances_match_coset_distance(spec, bound):
    """The closed form on keys against `coset_distance` on elements, on 300
    random pairs of vertices and the pairs of a vertex with itself and with
    the identity.  B3 has a trivial twist, so only the others can tell a
    twist dropped from the formula."""
    graph = mt.quotient_cayley_graph(EQUIV_GROUPS[spec], bound)
    group, forms = graph.cosets
    n = len(forms)
    rng = random.Random(n)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    pairs += [(a, a) for a, _ in pairs[:20]] + [(a, 0) for a, _ in pairs[:20]]
    got = mt._coset_pair_distances(group, forms, pairs)
    assert set(got) == set(pairs)
    for a, b in pairs:
        u, v = (gd.GarsideElement(group, 0, forms[i]) for i in (a, b))
        assert mt.coset_key(u) == graph.vertices[a]
        assert got[a, b] == mt.coset_distance(u, v)


@pytest.mark.parametrize("spec,bound", TWISTED_GRAPHS)
def test_small_sample_delta_reads_the_closed_form(spec, bound, tmp_path, monkeypatch):
    """At sample 50 a quotient-Cayley graph takes its 300 pairs from the
    closed form and finds the reference delta; the same graph read back
    from JSON takes the breadth-first pass and finds the same delta."""
    from garsidehyp import graphio
    graph = mt.quotient_cayley_graph(EQUIV_GROUPS[spec], bound)
    graphio.export_json(graph, tmp_path / "g.json")
    back = graphio.import_json(tmp_path / "g.json")
    assert back.cosets is None
    with monkeypatch.context() as patch:
        patch.setattr(mt, "_pair_distances", None)   # the closed form only
        got = [mt.estimate_delta(graph, 50, seed)[0] for seed in (1, 2, 3, 4)]
    assert got == [reference_delta(graph, 50, seed) for seed in (1, 2, 3, 4)]
    monkeypatch.setattr(mt, "_coset_pair_distances", None)   # the pass only
    assert mt.estimate_delta(back, 50, 1)[0] == got[0]


def test_delta_method_follows_the_pair_count(monkeypatch):
    # A3 to length 3 has 624 vertices: 104 4-tuples (624 pairs) take the
    # closed form, 105 the pass; a cal graph or a ball always takes the pass
    graph = mt.quotient_cayley_graph(A3, 3)
    assert len(graph.vertices) == 624
    calls = []
    for name in ("_pair_distances", "_coset_pair_distances"):
        def spy(*args, real=getattr(mt, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(mt, name, spy)
    for sample in (104, 105):
        assert mt.estimate_delta(graph, sample, 3)[0] == reference_delta(graph, sample, 3)
    ball = mt.bounded_ball_graph(mt.genset_oracle(I3, mt.KIND_SIMPLES), 3, 2)
    for other in (mt.build_cal_graph(I3, 3), ball):
        assert mt.estimate_delta(other, 1, 3)[0] == reference_delta(other, 1, 3)
    assert calls == ["_coset_pair_distances"] + ["_pair_distances"] * 3
