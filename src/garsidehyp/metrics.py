"""
Generating-set oracles and truncated metric graphs.

The infinite generating sets are represented by membership predicates plus
bounded enumerators.  Throughout, the truncation universe for group elements
is the box |inf| <= bound and canonical length <= bound; enumerators list
every member with |inf| <= bound and canonical length <= length, the bound
by default (central powers D^2k appear through their normal forms D^2k with
zero factors).  Graph distances computed inside a truncation of a ball or of
the additional-length graph are upper bounds for the true distances; the
quotient-Cayley truncation is isometric (`coset_distance`).  Results carry
their truncation parameters and an exact/upper tag, and nothing is reported
as exact without a certificate.

Certificates used for word lengths.  In the simples and their inverses the
length is max(sup g, 0) - min(inf g, 0) at any universe.  No word is
shorter, as a simple raises inf and sup by 0 or 1 each and an inverse
simple lowers them so; a word of that length is read off the normal form of
g or g^-1 when one is positive, else off the np normal form a^-1 b with
sup a = -inf g and sup b = sup g (Charney, Math. Ann. 292, 1992).  For the
other kinds, distance 0 and 1 are decided by the membership predicate
alone.  Past them, the walk of the box below gives d + 1 for the first
distance layer d that holds a vertex v with v^-1 g one of the walk's
steps, wherever g lies: exact when d + 1 is 2, since the predicate
rejected g, an upper bound when larger, and unknown when the walk ends
first.

Ball rule: a ball of the simples is read off their closed form, with no
walk (`_simples_ball`).  Its vertices are the box elements D^p a, of
|p| <= B and len a <= min(B, r), whose length max(p + len a, 0) - min(p, 0)
is at most r, for the word above stays in the box; each edge is emitted
once, from the end that leaves it by a positive simple, as x y = 1 has no
positive solutions x, y != 1, and the codes are sorted once, as those of
`quotient_cayley_graph` are; its |V| (n - 1) products are counted before
any is formed, and then read from one table of its forms; and it is
refused as stalled exactly when r exceeds the box's largest length, 2B
(B in A1), plus 1.  For the other kinds, balls
(`bounded_ball_graph`) and word lengths (`word_length_bound`) share one
breadth-first walk of the box, `_BoxWalk`.  Every vertex it reaches lies in
the box of bound B, but the generator used for a step need not; a step
from one box vertex to another may use any member of the generating set.
Such a step u = g^-1 h, g and h in the box,
has canonical length <= 2B and -3B <= inf u <= 2B, as len is subadditive,
inf superadditive and inf(g^-1) = -sup g >= -2B; so a ball steps by the
members with |inf| <= 3B and length <= 2B (`_box_step_generators`).  A
word length steps by the square box |inf|, length <= 3B, as its last step
may reach a target outside the box.  A ball is the walk's first `radius`
layers and the edges among them; a word length forms one key product
g^-1 v per vertex it tests, and no product by a step beyond the walk's own.
Stall rule: a ball whose walk ends before layer radius - 1 is refused as
stalled, for the walk then has a product outside the box.  With a step
u != 1 that is so, since else its finite set of vertices would hold v u^k
for every vertex v and k >= 0, all distinct, A being torsion-free.  The
box of bound 0 holds no step, but every generating set holds the first
standard generator or D^2, both outside it, unless it is empty: X_NP and
X_abs of A1, whose ball is the identity at any radius.

Graph builders work on normal-form keys (power, factors) and render each
vertex once; the builders on a table render each form of it once, from its
prefix's text.  Products by a simple come from one prefix recurrence, in
one of two stores.  Table/memo rule: a builder that knows every form it
will multiply before it forms any product reads a table, and a search that
discovers its forms as it goes asks a memo.  The table, `_ProductRows`,
numbers every inf-0 normal form of length <= L and holds, for each form a
shorter than L and each simple x, the D-power and the id of a x in flat
int rows; `quotient_cayley_graph` reads it, the additional-length
truncation is that graph plus its absorbable edges (`build_cal_graph`),
and the ball of the simples also has the table fill the rows of the forms
of length L (`fill_longest`).
Prefix recurrence: with a = a' y and renorm(y, x) = (p, q), that is
y x = p q with (p, q) left-weighted, a x = (a' p) q, and a' p is the row of
the shorter a' at p.  Appending q keeps the form normal: a' p = D^d c with c
normal, and the last factor of c and q are left-weighted by the domino rule
of Garside normal forms (right multiplication by a simple is one
right-to-left pass of renorms, each leaving a left-weighted pair behind it;
Charney 1992).  So the form of a x is c + (q,), looked up without combing.

`quotient_cayley_graph` steps by positive simples only: the edge
{C, C x^-1} is the edge {C', C' x} with C' = C x^-1, seen from its other
end.  Keys of the maximal length L step only by the simples x that their
last factor x_L absorbs (x_L x simple); the boundary lemma at
`quotient_cayley_graph` shows that every other product leaves the box or
repeats an edge found from its other end.  Its once-per-edge lemma shows
that an edge between two keys of length L is found from one end only and
every other edge from both, so each edge is emitted once, straight into
the sorted codes, with no set of edge codes.

Distances in Cay(A)/<D> have a closed form, `coset_distance`.  A vertex
is the class <D> g <D>, keyed by its factor tuple up to the twist t
(D^j g D^k = D^(j+k) t^k(g)), and {C, C s} is an edge for each simple or
inverse simple s.  Lemma: the distance from the vertex of u to that of v
is min(l(u^-1 v), l(u^-1 t(v))), l the canonical length.
- Well defined: for g' = D^j g D^k, u^-1 t^e(g') = u^-1 t^(e+j)(g) D^(j+k),
  and multiplying by D on either side leaves l unchanged, so
  f(C) = min over e of l(u^-1 t^e(g)) depends only on the vertex C of g.
- Lower bound: one step by a simple or an inverse simple moves inf and sup
  by 0 or 1 each (the box inequalities below; Charney, Math. Ann. 292,
  1992), so l moves by at most 1, and
  f(C s) = min over e of l(u^-1 t^e(g) t^e(s)) with t^e(s) a simple or an
  inverse simple.  So f changes by at most 1 along an edge, and f is 0 at
  the vertex of u.
- Upper bound: let u^-1 t^k(v) = D^p x_1..x_r attain the minimum, r = l.
  The walk u D^p, u D^p x_1, ..., u D^p x_1..x_r = t^k(v) starts at the
  vertex of u, steps by simples and ends at the vertex of v, in r steps.
The truncation to canonical length L holds a geodesic between any two of
its vertices (lemma at `coset_distance`), so its distances are these, and
`estimate_delta` reads the few pairs of a small sample from the formula on
keys instead of searching the graph.

The walk of the box needs the products of the few forms it visits, often
by a few simples only, so it forms them with the same recurrence in a
`_ProductMemo`, which keeps only the products of prefixes: its cost follows
the walk, where a table to length L would cost |W|^L whatever the walk.
The memo's recursion and tuple keys cost several times a table's read, so
it serves only such searches (the walk, and the complements of
`_coset_pair_distances`, whose forms follow the sampled pairs).  A
vertex D^p a is the code i W + p + B (W = 2B + 1) of its power p and the
memo id i of a, and a step D^q u reaches D^p a D^q u = D^(p+q) t^q(a) u.
So the product depends on p only through p + q: each form id keeps one
`array('l')` row with an entry per distinct factor tuple u of the steps,
2^s id(c) + d when a u = D^d c (s bits hold any d), and a vertex reads the
row of i, or of its twist t(a) when q is odd, and tests only
|p + q + d| <= B.  A step of one factor is one memo product; a longer step
chains the memo's products factor by factor, each partial product kept as
the id of its prefix and its last factor, so that no partial product gets
an id.  The entry is CLIPPED when c is longer than B, for then the product
is outside the box whatever the power.  Memory rule: only the breadth-first
expansion gives forms new ids.  The edge pass over the unexpanded last
layer only looks ids up, and its entry for a form with no id is CLIPPED
too, since such a form is no vertex; its rows are cached like the others,
because the forms of a layer repeat under several powers.  No product is
read that one of three box inequalities puts outside the box.  For elements
a and u, using that inf is superadditive, sup subadditive and inf(a^-1) =
-sup a:
- len(a u) >= len u - len a: u = a^-1 (a u), and len = sup - inf is
  subadditive with len(a^-1) = len a;
- inf(a u) >= inf a + inf u: superadditivity of inf;
- inf(a u) <= min(sup a + inf u, inf a + sup u): inf u >= inf(a^-1) +
  inf(a u) and inf a >= inf(a u) + inf(u^-1).
Each expanded vertex keeps its products in the box for the edge pass.  The
products each layer of the walk, and then a ball's edge pass, would read
(vertices times kept steps) are counted before any is read, and a walk past
BALL_PRODUCT_LIMIT is refused, for a ball and a word length alike.

Distances among chosen vertices (the pairs of sampled 4-tuples, the
representatives of M1) come from one bit-parallel breadth-first pass,
`_pair_distances`: a vertex's mask has bit k set once source k has
reached it, and each layer ORs every vertex's mask with its neighbours'
masks, so all sources advance together and only the wanted pairs are read.
Sources run in batches of `SOURCE_BATCH`, which bounds the masks' memory
whatever the number of pairs, and a batch stops at the layer that resolves
its last pair (in the first batch, not before source 0 has reached every
vertex, which tells connectedness).

Searches.  `coxeter.bfs_layers` is the package's one breadth-first search
of a graph that is discovered as it is walked: the walk of the box,
C_parab's hops, `MetricGraph.bfs_distances`, the shortest standard paths
of the Lipschitz check (`_standard_paths`, no length capped) and a
diagram's components run on it.  Five searches stay separate, each for a
reason:
- the table build of W (`coxeter.SimpleTable`): it numbers each element in
  shortlex order as it is found and fills both ends of each edge, looking a
  key up among the next level's keys alone, which a distance map over every
  key would not do;
- the census's level growth (`absorbable.enumerate_absorbable`): a level
  is the absorbable extensions of the last one, found by followers, with
  no vertex reached twice, so no map of reached vertices is needed;
- the form listing of `_ProductRows`: each form has one prefix, and the
  ids must come out in factor-tuple order level by level;
- `_pair_distances`, above: all its sources advance together;
- `_upper_interval`: it walks graded levels, where each simple sits in one
  level, so one set per level replaces the distance map; routed through
  `bfs_layers`, the E6 and H4 boundary refusals of `quotient_cayley_graph`
  at length 1 took 0.51-0.65 s and 0.36-0.39 s against 0.27-0.28 s and
  0.18 s (three runs each; 2 vCPUs, Python 3.11).

X_NP uses Delta^2 parity: D^2 is central, so D^p x commutes with Omega_T
exactly when D^(p mod 2) x does.  D x commutes with Omega_T exactly when
x Omega_T = Omega_t(T) x, as Omega_T D = D t(Omega_T) and t(Omega_T) =
Omega_t(T), t permuting the proper irreducible subsets.  So the two key
products x Omega and Omega x per Omega_T, formed with `_key_product`, decide
both parities.  Membership reads the parity of its power, and enumeration
filters the positive factor tuples x of the box at both parities, giving
every power of a passing parity.

C_parab works on ids.  Omega_T is formed once per subset T; each candidate
key Omega_P = a^-1 Omega_T a (it depends only on P, Cumplido, Gebhardt,
Gonzalez-Meneses and Wiest, Adv. Math. 352, 2019) is formed with
`_key_product` on normal-form keys, and the distinct keys are numbered.
A conjugator g whose first factor has a left descent s in T is skipped,
as it repeats the key of a listed one: the first factor's left descent
set is that of g, so g = s g' with g' positive; g' has inf 0, for D <= g'
would give D <= s g' = g, and sup g' <= sup g, for a right divisor of g
divides D^(sup g) on the right and so on the left; so g' is listed, and
as Omega_T is central in A_T, g^-1 Omega_T g = g'^-1 s^-1 Omega_T s g' =
g'^-1 Omega_T g'.  By induction on the letter length, every key is that
of a conjugator that is not skipped.
Two vertices are adjacent when the keys of Omega_a Omega_b and
Omega_b Omega_a agree.  Each expanded vertex keeps its row of adjacent
ids; the edge pass tests only the pairs of unexpanded kept vertices.  The
candidates are counted before any is formed, and more than
CPARAB_CANDIDATE_LIMIT are refused.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import operator
import random as _random
from array import array
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from . import absorbable as ab
from . import garside as gd
from . import parabolic as pb
from .coxeter import CoxeterGraph, bfs_layers
from .errors import (
    CapExceeded,
    DisconnectedInput,
    GroupMismatch,
    MalformedGraph,
    RepresentativeMissing,
    UniverseTooSmall,
)
from .garside import GarsideElement
from .parabolic import ParabolicSubgroup

KIND_XP = "XP"
KIND_XNP = "XNP"
KIND_XABS = "Xabs"
KIND_SIMPLES = "Simples"
KIND_FINITE = "FiniteS_plus_Delta2"
KINDS = (KIND_XP, KIND_XNP, KIND_XABS, KIND_SIMPLES, KIND_FINITE)

# The XNP enumerator tests both parities of each positive factor tuple of its
# box with two key products per Omega_T, so a box costs about 0.004-0.011 ms
# per element (A3 at bound 3: 8,183 elements in 34 ms; D4 at bound 2: 45,125
# in 0.5 s; 2 vCPUs, Python 3.11); a box above this many elements is refused
# rather than filtered.
XNP_BOX_LIMIT = 100_000

# A `_ProductRows` table costs about 2 us and 170 bytes per normal form and
# 0.4 us and 8 bytes per row entry, but the quotient-Cayley graph on it costs
# far more: A4 to length 3 (423,720 row entries) has 805,388 edges and takes
# about 1 s, A5 to length 2 (518,400) has 2,953,660 edges, 3.9 s and 635 MB,
# and F4 to length 2 (1,325,952) has 24.6 M edges, 35 s and 5 GB (2 vCPUs,
# Python 3.11).  A table of more row entries than this is refused rather than
# built.  The graph's boundary scan is held to the same limit: the upper
# intervals of the last factors of its keys of length L, at about 1 us a
# simple, list 441,760 simples for B5 to length 1 (the graph takes 0.7 s),
# 335,630 for A6, 4,197,284 for H4 and more for E6, D6 and A7.
TABLE_LIMIT = 500_000

# Renorms a `_ProductMemo` keeps, at about 130 bytes each (8 MB when full,
# F4, Python 3.11); its cache is emptied when full.  The n^2 pairs of A3 or
# B3 fit, those of F4 (1.3 M) do not.
RENORM_CACHE = 1 << 16

# Products a ball may form.  A ball of the simples counts its |V| (n - 1)
# products before it forms any, and reads them from one table at about
# 0.2 us a counted product: B3 to radius 3 in the box of bound 3 counts
# 1,996,137 and builds in 0.45 s (1.1 s from the memo), A4 to radius 3 in
# the box of bound 2 counts 1,694,917 and builds in 0.37 s.  The limit is
# 4 TABLE_LIMIT, which keeps that table under TABLE_LIMIT (`_simples_ball`).
# A walk of the box (`_BoxWalk`) adds, before each layer it expands and
# before a ball's edge pass, its vertices times the steps the box
# inequalities keep for them.  A walked product costs 1-3 us: the F4
# FiniteS_plus_Delta2 walk of the box of bound 3 reads its first 10 layers,
# under 2 M products, in 5.5 s, about 2.7 us a product, most of it in the
# memo's recursion over prefixes (2 vCPUs, Python 3.11).  Every other
# walked ball of the tests and the benchmark reads under 300,000.  A ball or
# a walk over this many is refused before it forms them.
BALL_PRODUCT_LIMIT = 2_000_000

# Candidate subgroups C_parab may form: proper irreducible subsets times the
# positive conjugators of canonical length <= conj-len, skipped ones
# included.  With hops 2 a candidate costs 58-78 us, most of it in the
# commute tests of the kept vertices: A4 at conj-len 2 (31,779) takes 2.3 s,
# B3 at 3 (52,065) 3.0 s and D4 at 2 (90,250) 7.0 s (2 vCPUs, Python 3.11).
# Above this many the graph is refused before any candidate is formed.
CPARAB_CANDIDATE_LIMIT = 50_000

# Row entries of a walk of the box (`_BoxWalk`): not yet formed, and a
# product that is not a vertex of the box for any D-power.
UNSET, CLIPPED = -2, -1

# Sources per bit-parallel distance pass, so each vertex mask has at most
# this many bits.
SOURCE_BATCH = 1024

# 4-tuples and vertex pairs `estimate_delta` may read, counted before any is
# drawn.  Peaks at the limits, from the graph's own 19-26 MB (2 vCPUs,
# Python 3.11): 400,000 sampled 4-tuples read A3 to length 3 (624 vertices)
# in 5.0 s at 91 MB and B3 to length 2 (771 vertices) in 6.3 s at 101 MB;
# the 600,000 pairs of 100,000 read B3 to length 3 (10,413 vertices) in
# 3.8 s at 106 MB.  An estimate over either limit is refused.
DELTA_QUAD_LIMIT = 400_000
DELTA_PAIR_LIMIT = 600_000

# Cells a `_pair_distances` pass of `estimate_delta` sweeps in one layer of
# each batch of sources, ceil(sources / SOURCE_BATCH) (n + 2|E|): a layer
# reads the n masks and the 2|E| adjacency entries, and the sources number at
# most min(n, 3 draws + 1).  A pass runs a batch for as many layers as the
# graph is deep, which the cost per counted cell takes in (2 vCPUs, Python
# 3.11): 1.4-1.6 us on I2(5) to length 8 (87,381 vertices; 4,000 draws count
# 6,291,372 cells and took 9.1 s), 1.4 us on B3 to length 3 (100,000 draws,
# 2,378,959 cells, 3.2 s) and 0.5 us on A4 to length 3 (100,000 draws,
# 60,996,720 cells, 29 s).  An estimate over this many is refused before
# anything is drawn: I2(5) to length 8 at 100,000 draws counts 45,088,166,
# a pass of about 80 s.
DELTA_SWEEP_LIMIT = 5_000_000


def _nf_key(g: GarsideElement) -> tuple[int, tuple[int, ...]]:
    return (g.power, g.factors)


class _ProductRows:
    """Every inf-0 normal form of length <= L under an integer id, with the
    product of each form shorter than L by every simple (module docstring),
    and of the forms of length L too after `fill_longest`.

    Forms are numbered level by level and each level in factor-tuple order,
    so the ids of one length compare as their tuples do, and the forms of
    length <= m have the ids below their count.  `prefix[i]` is the id of
    forms[i][:-1] and `tau[i]` the id of the tau-twisted form; `tau` is a
    `range` where t is the identity (B3, D4, F4, H3, I2(m) with m even),
    and no twist is formed.  For a form
    i shorter than L (i < `below`), or any form after `fill_longest`,
    `row[i*n + x]` is 2 id(c) + d where forms[i] x = D^d c; d is 0 or 1
    because inf(a x) <= inf a + sup x.  An entry is -1 when c is longer
    than L, which only a form of length L can reach.  `first[i]` and
    `slot[i][y]` give the id forms[i] + (y,) of a left-weighted extension.
    `quotient_cayley_graph` does not ask for the rows of length L: its
    boundary scan reads fewer (B3 to length 3: 95,614 absorbed simples
    against the 462,816 entries of those rows).

    Forms are listed level by level: the extensions of a form are its
    tuple followed by each follower of its last factor (`SimpleTable.follows`,
    D standing in for the last factor of the identity form), a list that
    depends only on the last factor's right descent set, so each descent
    mask's followers are turned into slots and 1-tuples once, and a form's
    extensions are one `map` of its tuple's `+` over them.
    A table of more than TABLE_LIMIT row entries is refused while its forms
    are listed, level by level, before the level past the limit.  A form of
    length L extends a shorter one by one of the n - 2 simples other than 1
    and D, so there are fewer forms than row entries and the limit bounds
    both.  `fill_longest` adds no check of its own: its one caller,
    `_simples_ball`, bounds the forms by its product count first.
    """

    def __init__(self, group: CoxeterGraph, length: int):
        tab = self.tab = group.table()
        n = self.n = tab.size
        rdesc = tab.rdesc
        # right descent set -> (simple -> position among the followers, the
        # followers as 1-tuples)
        slots: dict[int, tuple[list[int], list[tuple[int]]]] = {}

        def slot_of(x):
            """The slots and extensions after a last factor x (D for the
            identity form, as every simple follows it)."""
            m = rdesc[x]
            if m not in slots:
                followers = tab.follows(x)
                got = [-1] * n
                for pos, y in enumerate(followers):
                    got[y] = pos
                slots[m] = got, [(y,) for y in followers]
            return slots[m]

        forms = self.forms = [()]
        prefix = self.prefix = array("l", [0])
        tau = array("l", [0])
        twisted = tab.tau != list(range(n))   # else every form is its own twist
        first = self.first = array("l")
        slot = self.slot = []
        lo, hi = 0, 1
        for _ in range(length):
            if len(forms) * n > TABLE_LIMIT:   # every form so far is shorter than L
                raise CapExceeded(
                    f"a product table to length {length} would hold at least "
                    f"{len(forms) * n} row entries, over the limit of {TABLE_LIMIT}")
            for i in range(lo, hi):
                fs = forms[i]
                sl, ends = slot_of(fs[-1] if fs else tab.w0)
                first.append(len(forms))
                slot.append(sl)
                forms.extend(map(fs.__add__, ends))
                prefix.extend([i] * len(ends))
            if twisted:
                for i in range(hi, len(forms)):
                    t = tau[prefix[i]]
                    y = tab.tau[forms[i][-1]]
                    tau.append(first[t] + slot[t][y])
            lo, hi = hi, len(forms)
        self.tau = tau if twisted else range(len(forms))
        self.below = lo
        self.row = array("l")
        self._renorms: dict[int, list[tuple[int, int]]] = {}
        self._fill(0, lo)

    def fill_longest(self) -> None:
        """Give the forms of length L their rows too, so that `row[i*n + x]`
        is read for every form i; an entry whose product is longer than L
        is -1."""
        self._fill(self.below, len(self.forms))

    def _fill(self, lo: int, hi: int) -> None:
        """Append the rows of the forms lo..hi-1, by the prefix recurrence:
        for a = a' y and renorm(y, x) = (p, q), the row of a' at p is
        a' p = D^d c, and a x = D^d c q.  When q is a factor and c has
        length L, which a' p can only reach when a has length L, a x has
        length L + 1 and its entry is -1."""
        tab, n, row, below = self.tab, self.n, self.row, self.below
        forms, prefix, first, slot = self.forms, self.prefix, self.first, self.slot
        renorms = self._renorms   # y -> renorm(y, x) per x
        if lo == 0 < hi:   # the identity: x itself, 1 and D, or a form of length 1
            row.extend([0, *(2 * (first[0] + slot[0][x]) if below else -1
                             for x in range(1, n - 1)), 1])
            lo = 1
        for i in range(lo, hi):
            base = prefix[i] * n
            y = forms[i][-1]
            if y not in renorms:
                renorms[y] = [tab.renorm(y, x) for x in range(n)]
            for p, q in renorms[y]:
                v = row[base + p]   # a' p = D^d c, and c q is normal
                if q:
                    c = v >> 1
                    v = 2 * (first[c] + slot[c][q]) + (v & 1) if c < below else -1
                row.append(v)

    def tails(self) -> list[str]:
        """The words of the factors of every form, " | w_1 | ... | w_k", in
        id order, each rendered from its prefix's: the tail of a' y is that
        of a' followed by the word of y."""
        words = gd.simple_words(self.tab.graph)
        tails = [""]
        for p, fs in zip(itertools.islice(self.prefix, 1, None),
                         itertools.islice(self.forms, 1, None)):
            tails.append(f"{tails[p]} | {words[fs[-1]]}")
        return tails

    def texts(self) -> list[str]:
        """The text key of every form, in id order."""
        return ["D^0" + tail for tail in self.tails()]


class _ProductMemo:
    """Products of inf-0 normal forms by simples, formed only when asked for.

    `times(i, x)` is (d, c) with forms[i] x = D^d c, formed from the
    prefix's product by the recurrence of `_ProductRows`.  Only the products
    that recurrence reads, those of prefixes, are kept, as `product(i, x)` =
    2 id(c) + d, and only their forms and the forms asked about by `id_of`
    get ids.  So the cost and memory follow the forms a search visits, not
    |W|^L, and no length bounds the forms.
    """

    def __init__(self, group: CoxeterGraph):
        self.tab = group.table()
        self.n = self.tab.size
        self.forms: list[tuple[int, ...]] = [()]
        self.prefix = [0]
        self.ids = {(): 0}
        self._memo: dict[int, int] = {}   # i*n + x -> product(i, x)
        self._renorm: dict[int, tuple[int, int]] = {}   # y*n + x -> renorm(y, x)

    def id_of(self, fs: tuple[int, ...]) -> int:
        i = self.ids.get(fs)
        if i is None:
            p = self.id_of(fs[:-1])
            i = self.ids[fs] = len(self.forms)
            self.forms.append(fs)
            self.prefix.append(p)
        return i

    def times(self, i: int, x: int) -> tuple[int, tuple[int, ...]]:
        n = self.n
        if not i:
            return (0, ()) if not x else (1, ()) if x == n - 1 else (0, (x,))
        d, k, q = self._after(self.prefix[i], self.forms[i][-1], x)
        c = self.forms[k]
        return d, (c + (q,) if q else c)   # c q is normal (module docstring)

    def _after(self, j: int, y: int, x: int) -> tuple[int, int, int]:
        """(d, k, q) with (forms[j] y) x = D^d forms[k] q, by the recurrence
        of `times`, for a normal form forms[j] + (y,) that needs no id (q = 0:
        no last factor)."""
        key = y * self.n + x
        pq = self._renorm.get(key)
        if pq is None:
            if len(self._renorm) >= RENORM_CACHE:
                self._renorm.clear()
            pq = self._renorm[key] = self.tab.renorm(y, x)
        p, q = pq
        v = self.product(j, p)
        return v & 1, v >> 1, q

    def product(self, i: int, x: int) -> int:
        v = self._memo.get(i * self.n + x)
        if v is None:
            d, c = self.times(i, x)
            v = self._memo[i * self.n + x] = 2 * self.id_of(c) + d
        return v

    def twist(self, i: int) -> int:
        """Id of the tau-twisted form: forms[i] D = D t(forms[i])."""
        return self.product(i, self.n - 1) >> 1

    def chain(self, j: int, y: int, us: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """(d, c) with (forms[j] y) us = D^d c, for a normal form
        forms[j] + (y,) (y = 0: forms[j]) and a normal factor sequence us.
        The partial products are kept as (prefix id, last factor) pairs, so
        neither they nor the start need an id."""
        d = 0
        for x in us:
            if not y:   # the product so far is forms[j]
                if not j:
                    y = x
                    continue
                j, y = self.prefix[j], self.forms[j][-1]
            e, j, y = self._after(j, y, x)
            d += e
        c = self.forms[j]
        return d, (c + (y,) if y else c)


def _key_product(tab, key, u) -> tuple[int, tuple[int, ...]]:
    """Key of key * u, formed as `gd.multiply` forms it, with no element built."""
    p, fs = key
    q, us = u
    if q % 2:
        fs = tuple(map(tab.tau.__getitem__, fs))
    d, res = gd._normalise(tab, fs + us, len(fs) - 1)
    return p + q + d, res


def _in_box(key, bound: int, length: int | None = None) -> bool:
    """|inf| <= bound and canonical length <= length (default: bound)."""
    return abs(key[0]) <= bound and len(key[1]) <= (bound if length is None else length)


def is_central_even_delta_power(g: GarsideElement) -> bool:
    return not g.factors and g.power % 2 == 0


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GeneratingSetOracle:
    """Membership predicate and bounded enumerator for one generating set:
    `enumerate_up_to(bound, length)` lists the members with |inf| <= bound
    and canonical length <= length, which defaults to the bound."""

    group: CoxeterGraph
    kind: str
    membership: Callable[[GarsideElement], bool]
    enumerate_up_to: Callable[..., list[GarsideElement]]


def genset_oracle(group: CoxeterGraph, kind: str) -> GeneratingSetOracle:
    if kind == KIND_XP:
        return _xp_oracle(group)
    if kind == KIND_XNP:
        return _xnp_oracle(group)
    if kind == KIND_XABS:
        return _xabs_oracle(group)
    if kind == KIND_SIMPLES:
        return _simples_oracle(group)
    if kind == KIND_FINITE:
        return _finite_oracle(group)
    raise ValueError(f"unknown generating-set kind {kind!r}")


def _delta_even_powers(group: CoxeterGraph, bound: int) -> list[GarsideElement]:
    out = []
    for k in range(-bound, bound + 1):
        if k and k % 2 == 0:
            out.append(gd.delta_pow(group, k))
    return out


def _subgroup_members(group: CoxeterGraph, subsets: Sequence[Sequence[str]],
                      bound: int, length: int) -> Iterator[GarsideElement]:
    """Elements of the standard parabolics A_T, T in `subsets`, with
    |inf| <= bound and canonical length <= length.

    Enumerates each subgroup's own normal forms g = D_T^p y_1..y_k with
    |p| <= bound and k <= length and filters by the ambient box, which
    holds no other member of A_T.  Proof: A_T^+ is closed under divisors and
    under gcds in A^+ (Paris, J. Algebra 196, 1997).  So the greedy simple
    prefixes of an element of A_T^+ lie in A_T^+: its ambient normal form is
    its A_T normal form with each D_T written as a factor, no factor is D
    (T is proper), and its ambient sup is its A_T sup.  Let g = a^-1 b be
    the np normal form in A_T; a and b have no common prefix in A_T^+, so
    none in A^+, and this is the ambient np normal form too.  Applied in A_T
    and in A, Charney (Math. Ann. 292, 1992) and, when a or b is 1, the
    above give that -sup a = min(p, 0) and sup b = max(p + k, 0) are the
    ambient inf and sup of g.  In the box, p >= 0 gives p + k = len g <=
    length; p < 0 gives -p = -inf g <= bound and k <= max(p + k, 0) - p =
    len g <= length.  The walk is counted first and refused above
    XNP_BOX_LIMIT.
    """
    subs = [group.subgraph(group.gen_indices(labels)) for labels in subsets]
    if any(sub.rank == group.rank for sub in subs):
        raise GroupMismatch("proper subsets only")
    size = (2 * bound + 1) * sum(sum(gd.positive_nf_counts(sub, length)) for sub in subs)
    if size > XNP_BOX_LIMIT:
        raise CapExceeded(
            f"XP enumeration would walk {size} subgroup elements for the box "
            f"of bound {bound}, over the limit of {XNP_BOX_LIMIT}")
    tab = group.table()
    for labels, sub in zip(subsets, subs):
        # Ambient simple index for each subgroup simple, via its reduced
        # word; a subgroup normal form so mapped is an ambient normal form.
        subtab = sub.table()
        amb = []
        for f in range(subtab.size):
            x = 0
            for s_local in subtab.word[f]:
                x = tab.rmult[x][group.gen_index(sub.generators[s_local])]
            amb.append(x)
        positives = [gd.GarsideElement(group, 0, tuple(amb[f] for f in el.factors))
                     for el in gd.iter_positive_elements(sub, length)]
        delta_t = gd.delta_of(group, labels)
        for p in range(-bound, bound + 1):
            base = gd.power(delta_t, p)
            if not base.is_identity and _in_box(_nf_key(base), bound, length):
                yield base
            for pos in positives:
                el = gd.multiply(base, pos)
                if _in_box(_nf_key(el), bound, length):
                    yield el


def _xp_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    subsets = pb.proper_irreducible_subsets(group)

    def membership(g: GarsideElement) -> bool:
        return is_central_even_delta_power(g) or \
            any(pb.standard_membership(g, labels) for labels in subsets)

    def enumerate_up_to(bound: int, length: int | None = None) -> list[GarsideElement]:
        seen: dict = {}
        for el in _subgroup_members(group, subsets, bound,
                                    bound if length is None else length):
            seen.setdefault(_nf_key(el), el)
        for el in _delta_even_powers(group, bound):
            seen.setdefault(_nf_key(el), el)
        return sorted(seen.values(), key=lambda e: e.sort_key())

    return GeneratingSetOracle(group, KIND_XP, membership, enumerate_up_to)


def _xnp_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    tab = group.table()
    omegas = [_nf_key(gd.omega_of(group, labels).element)
              for labels in pb.proper_irreducible_subsets(group)]
    # k -> the index of t(Omega_k) = Omega_(t(T)), t permuting the subsets
    tau_index = [omegas.index((p, tuple(tab.tau[x] for x in fs))) for p, fs in omegas]

    def passing(fs: tuple[int, ...]) -> tuple[bool, bool]:
        """Whether D^p fs commutes with some Omega_T, for p even and odd,
        from the two products fs Omega and Omega fs per Omega, on keys: D^2
        is central, and D fs Omega = Omega D fs = D t(Omega) fs exactly when
        fs Omega = t(Omega) fs."""
        left = [_key_product(tab, (0, fs), om) for om in omegas]
        right = [_key_product(tab, om, (0, fs)) for om in omegas]
        return (any(map(operator.eq, left, right)),
                any(map(operator.eq, left, map(right.__getitem__, tau_index))))

    def membership(g: GarsideElement) -> bool:
        return passing(g.factors)[g.power % 2]

    def enumerate_up_to(bound: int, length: int | None = None) -> list[GarsideElement]:
        """The nonidentity members of the box: each positive factor tuple
        of the box is tested at both parities, and a passing parity gives
        every power of that parity."""
        length = bound if length is None else length
        size = (2 * bound + 1) * sum(gd.positive_nf_counts(group, length))
        if size > XNP_BOX_LIMIT:
            raise CapExceeded(
                f"XNP enumeration would filter the box of bound {bound}, "
                f"{size} elements, over the limit of {XNP_BOX_LIMIT}")
        out = []
        for ell in range(length + 1):
            for fs in gd.iter_positive_factor_tuples(group, ell):
                parities = passing(fs)
                out.extend(GarsideElement(group, p, fs) for p in range(-bound, bound + 1)
                           if parities[p % 2] and (p or fs))
        out.sort(key=lambda e: e.sort_key())
        return out

    return GeneratingSetOracle(group, KIND_XNP, membership, enumerate_up_to)


def _xabs_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    dihedral = group.is_dihedral

    def membership(g: GarsideElement) -> bool:
        if g.is_identity:
            return False
        if dihedral and is_central_even_delta_power(g):
            return True
        return bool(ab.is_absorbable(g))

    def enumerate_up_to(bound: int, length: int | None = None) -> list[GarsideElement]:
        # an absorbable of canonical length L has inf 0 or -L
        sup = bound if length is None else min(bound, length)
        out = ab.enumerate_absorbable(group, sup)
        if dihedral:
            out.extend(_delta_even_powers(group, bound))
        out.sort(key=lambda e: e.sort_key())
        return out

    return GeneratingSetOracle(group, KIND_XABS, membership, enumerate_up_to)


def _simples_length(g: GarsideElement) -> int:
    """Word length in the simples and their inverses (module docstring)."""
    return max(g.sup, 0) - min(g.inf, 0)


def _simples_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    def membership(g: GarsideElement) -> bool:
        return _simples_length(g) == 1

    def enumerate_up_to(bound: int, length: int | None = None) -> list[GarsideElement]:
        tab = group.table()
        out = [gd.delta(group), gd.delta_pow(group, -1)]
        for x in range(1, tab.size):
            if x == tab.w0:
                continue
            el = gd.GarsideElement(group, 0, (x,))
            out.append(el)
            out.append(gd.invert(el))
        out = [el for el in out if _in_box(_nf_key(el), bound, length)]
        out.sort(key=lambda e: e.sort_key())
        return out

    return GeneratingSetOracle(group, KIND_SIMPLES, membership, enumerate_up_to)


def _finite_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    gens = [gd.generator_element(group, lab) for lab in group.generators]
    keyset = {_nf_key(e) for e in gens} | {_nf_key(gd.invert(e)) for e in gens}

    def membership(g: GarsideElement) -> bool:
        return _nf_key(g) in keyset or is_central_even_delta_power(g)

    def enumerate_up_to(bound: int, length: int | None = None) -> list[GarsideElement]:
        out = [e for e in gens] + [gd.invert(e) for e in gens]
        out = [e for e in out if _in_box(_nf_key(e), bound, length)]
        out.extend(_delta_even_powers(group, bound))
        out.sort(key=lambda e: e.sort_key())
        return out

    return GeneratingSetOracle(group, KIND_FINITE, membership, enumerate_up_to)


# ---------------------------------------------------------------------------
# Metric graphs
# ---------------------------------------------------------------------------

class MetricGraph:
    """Finite truncation of one of the infinite graphs.

    Vertices are canonical text keys in sorted order; provenance records
    group, construction and truncation parameters.  The edges are stored
    once, as `codes`: the strictly increasing array of the codes i*n + j of
    the index pairs (i, j), i < j < n, n the number of vertices.  The order
    of the codes is the lexicographic order of the pairs, so the codes of
    the edges from i to its higher neighbours form one run, which begins
    at the kept index starts[i] = bisect_left(codes, i*n) and ends where
    run i + 1 begins (`starts`).  `edges` is the tuple of pairs (i, j) in
    code order, derived from the codes on each use and not stored.

    `MetricGraph(vertices, edges, provenance)` takes pairs in strictly
    increasing order, checks each for 0 <= i < j < n before it is encoded,
    and encodes them; builders hand over the sorted list of codes they
    hold (`from_codes`).  Either way `_adopt` checks the codes while they
    are a list, by raising, not asserting, as graphs are also read from
    files, and then packs them into the one array the graph keeps.
    """

    __slots__ = ("vertices", "provenance", "cosets", "_codes", "_starts",
                 "_index", "_adj")

    def __init__(self, vertices: Sequence[str], edges: Sequence[tuple[int, int]],
                 provenance: dict):
        n = len(vertices)
        codes = [i * n + j for i, j in edges if 0 <= i < j < n]
        if len(codes) != len(edges):   # a pair out of range was left unencoded
            raise MalformedGraph("edge endpoints must be valid and distinct")
        self._adopt(vertices, codes, provenance, None)

    @classmethod
    def from_codes(cls, vertices: Sequence[str], codes: Sequence[int], provenance: dict,
                   cosets: tuple[CoxeterGraph, list[tuple[int, ...]]] | None = None
                   ) -> MetricGraph:
        """The graph of a builder's sorted edge codes, a list or an array,
        checked as any other."""
        graph = cls.__new__(cls)
        graph._adopt(vertices, codes, provenance, cosets)
        return graph

    def _adopt(self, vertices, codes: Sequence[int], provenance: dict, cosets) -> None:
        """Check the vertices and the edge codes, then keep the codes as one
        `array('q')`.  Codes that strictly increase, lie in [0, n^2) and
        begin each nonempty run i with a code past i*n + i are exactly the
        codes of distinct pairs i < j < n: a run's codes lie in
        [i*n, i*n + n).  The checks read a list faster than an array, whose
        every read makes an int."""
        n = len(vertices)
        self.vertices = tuple(vertices)
        self._index = {k: i for i, k in enumerate(self.vertices)}
        if len(self._index) != n:
            raise MalformedGraph("duplicate vertex keys")
        if not all(map(operator.lt, codes, itertools.islice(codes, 1, None))):
            raise MalformedGraph("edges must be strictly increasing")
        if codes and not (codes[0] >= 0 and codes[-1] < n * n):
            raise MalformedGraph("edge endpoints must be valid and distinct")
        starts = array("q", map(bisect.bisect_left, itertools.repeat(codes),
                                range(0, n * n + 1, n or 1)))
        if not all(codes[lo] > i * (n + 1)
                   for i, (lo, hi) in enumerate(itertools.pairwise(starts)) if lo < hi):
            raise MalformedGraph("edge endpoints must be valid and distinct")
        self._codes, self._starts = array("q", codes), starts
        self.provenance = provenance
        # A quotient-Cayley graph built in memory keeps its group and the
        # inf-0 factor tuple of each vertex, in vertex order, so that
        # distances have the closed form of `coset_distance`; other graphs,
        # and graphs read from files, keep none.
        self.cosets = cosets
        self._adj: list[list[int]] | None = None

    @property
    def codes(self) -> array:
        return self._codes

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(divmod, self._codes, itertools.repeat(len(self.vertices))))

    @property
    def starts(self) -> array:
        """The n + 1 indices into `codes` at which the runs of the vertices
        0..n-1 begin, and the end of the last."""
        return self._starts

    def index_of(self, key: str) -> int:
        if key not in self._index:
            raise RepresentativeMissing(f"vertex {key!r} not in graph")
        return self._index[key]

    def has_vertex(self, key: str) -> bool:
        return key in self._index

    def adjacency(self) -> list[list[int]]:
        """Each vertex's neighbours in increasing order, built once."""
        if self._adj is None:
            # every entry is one of the n objects of `ids`, so that the
            # entries lie together in memory for the passes that read them;
            # run i is read after every lower run, so adj[i] gets its lower
            # neighbours in order before its higher ones
            ids = list(range(len(self.vertices)))
            higher = list(map(ids.__getitem__, map(operator.mod, self._codes,
                                                   itertools.repeat(len(ids)))))
            adj: list[list[int]] = [[] for _ in ids]
            for i, (lo, hi) in enumerate(itertools.pairwise(self._starts)):
                if lo < hi:
                    run = higher[lo:hi]
                    adj[i] += run
                    lower = ids[i]
                    for j in run:
                        adj[j].append(lower)
            self._adj = adj
        return self._adj

    def bfs_distances(self, source: int, cutoff: int | None = None) -> dict[int, int]:
        dist: dict[int, int] = {}
        for d, _ in enumerate(bfs_layers(dist, source, self.adjacency().__getitem__)):
            if d == cutoff:
                break
        return dist


def _pair_distances(adj: Sequence[Sequence[int]], pairs: Iterable[tuple[int, int]]
                    ) -> tuple[dict[tuple[int, int], int], bool]:
    """Distances d(a, b) for the pairs (a, b), by bit-parallel breadth-first
    passes from the sources a, `SOURCE_BATCH` sources at a time.

    Returns the distances of the reachable pairs (an unreached pair is
    absent) and whether the first pair's source reaches every vertex.
    Mask bit k of a vertex is set once source k of the batch has reached it;
    each layer ORs every vertex's mask with its neighbours' masks.  A batch
    ends when no mask changes, or once every pair of the batch has its
    distance and, in the first batch, bit 0 has reached every vertex.
    """
    wanted: dict[int, list[int]] = {}
    for a, b in pairs:
        wanted.setdefault(a, []).append(b)
    sources = list(wanted)
    n = len(adj)
    dist: dict[tuple[int, int], int] = {}
    spans = True
    for lo in range(0, len(sources), SOURCE_BATCH):
        batch = sources[lo:lo + SOURCE_BATCH]
        masks = [0] * n
        want: dict[int, int] = {}   # target -> bits of the sources it is paired with
        for k, a in enumerate(batch):
            masks[a] |= 1 << k
            for b in wanted[a]:
                want[b] = want.get(b, 0) | 1 << k
        old = [0] * n
        d = 0
        while masks != old:
            for b, bits in list(want.items()):   # bits: the sources not yet met
                fresh = masks[b] & bits
                if fresh == bits:
                    del want[b]
                elif fresh:
                    want[b] = bits ^ fresh
                while fresh:
                    low = fresh & -fresh
                    dist[batch[low.bit_length() - 1], b] = d
                    fresh ^= low
            if not want and (lo or all(m & 1 for m in masks)):
                break
            old = masks
            masks = [functools.reduce(operator.or_, map(old.__getitem__, nbrs), m)
                     for m, nbrs in zip(old, adj)]
            d += 1
        if not lo:
            spans = all(m & 1 for m in masks)
    return dist, spans


def _build_graph(text: dict, adjacency: Iterable[tuple], provenance: dict) -> MetricGraph:
    """The graph on the keys of `text`, a map from vertex key to text key,
    with the edges {a, b} for the pairs (a, neighbours of a) of `adjacency`;
    a is a vertex, and neighbours that are not vertices are dropped.
    Vertices are sorted by text, loops dropped, and an edge found from both
    ends is kept once."""
    order = sorted(text, key=text.__getitem__)
    n = len(order)
    index = dict(zip(order, range(n)))
    get = index.get
    codes: set[int] = set()   # {i, j} with i < j as i*n + j
    for a, nbrs in adjacency:
        i = index[a]
        codes.update([i * n + j if i < j else j * n + i
                      for j in map(get, nbrs) if j is not None and j != i])
    codes = sorted(codes)   # the set is freed before the array is made
    return MetricGraph.from_codes([text[k] for k in order], codes, provenance)


def _coset_factors(tau: Sequence[int], factors: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical factor tuple of the coset g<D> of an element with these factors.

    Multiplying by D twists the factors by tau, so a coset has up to two
    inf-0 normal forms; the factor-tuple minimum of the two is the key.
    """
    return min(factors, tuple(tau[x] for x in factors))


def coset_key(g: GarsideElement) -> str:
    return gd.render_form(g.group, 0, _coset_factors(g.group.table().tau, g.factors))


# ---------------------------------------------------------------------------
# Balls and word lengths
# ---------------------------------------------------------------------------

def _box_step_generators(oracle: GeneratingSetOracle,
                         universe_len: int) -> list[GarsideElement]:
    """Every generating-set member that joins two vertices of the box of
    bound B: the members with |inf| <= 3B and canonical length <= 2B.

    For g, h in the box, u = g^-1 h has len u <= len g + len h <= 2B, as
    len is subadditive and len(g^-1) = len g.  As inf is superadditive and
    inf(g^-1) = -sup g, inf u >= -sup g + inf h >= -2B - B (sup g <= 2B),
    and inf u <= sup(g^-1) + inf h = -inf g + inf h <= 2B (the third box
    inequality of the module docstring).
    """
    return oracle.enumerate_up_to(3 * universe_len, 2 * universe_len)


class _BoxWalk:
    """The breadth-first walk of the box of bound B from the identity by the
    steps `gens` (normal-form keys), which balls and word lengths share.

    A vertex D^p a is the code i W + p + B of the memo id i of a, with
    W = 2B + 1, and `key(v)` is its normal-form key.  Its products come from
    the rows of a `_ProductMemo` form (module docstring), and a step whose
    product the box inequalities put outside the box is not read at all.
    `layers()` yields the codes at distance 0, 1, 2, ..., and `dist` holds
    each reached code's distance.  A layer is expanded only when the next
    one is asked for, after `count` has added the products it would read to
    the walk's total, which is refused past BALL_PRODUCT_LIMIT.
    `neighbours(v)` is the codes of v's products in the box: those kept when
    v was expanded, else looked up with no new id given, since a form with
    no id is no vertex.  The hot paths are closures over locals.
    """

    def __init__(self, group: CoxeterGraph, bound: int,
                 gens: Sequence[tuple[int, tuple[int, ...]]]):
        width = 2 * bound + 1
        cols: dict[tuple[int, ...], int] = {}   # factor tuple of a step -> its column
        gens = [(q, cols.setdefault(us, len(cols)), len(us)) for q, us in gens]
        cols = list(cols)
        shift = max(map(len, cols), default=0).bit_length()   # a product's D-power fits
        low = (1 << shift) - 1
        memo = _ProductMemo(group)
        forms, ids = memo.forms, memo.ids
        blank = array("l", [UNSET]) * len(cols)
        rows: dict[int, array] = {}   # form id -> entry per column (module docstring)
        box_steps: dict = {}   # (inf, length) of a vertex -> its steps that may stay in the box

        def steps(p, ell):
            if (p, ell) not in box_steps:
                kept = [(q, c) for q, c, m in gens if m - ell <= bound and
                        p + q <= bound and p + q + min(ell, m) >= -bound]
                box_steps[p, ell] = ([(q, c) for q, c in kept if not q & 1],
                                     [(q, c) for q, c in kept if q & 1])
            return box_steps[p, ell]

        times, chain, id_of = memo.times, memo.chain, memo.id_of

        def entry(j, c, new):
            """Row entry of forms[j] times the step factors cols[c]."""
            us = cols[c]
            d, res = times(j, us[0]) if len(us) == 1 else chain(j, 0, us)
            if len(res) > bound:
                return CLIPPED
            k = ids.get(res)
            if k is None:
                if not new:
                    return CLIPPED
                k = id_of(res)
            return k << shift | d

        def products(v, new):
            """The codes of the products of vertex v that lie in the box."""
            i, p = divmod(v, width)
            p -= bound
            even, odd = steps(p, len(forms[i]))
            out = []
            for j, kept in ((i, even), (memo.twist(i) if odd else i, odd)):
                row = rows.get(j)
                if row is None:
                    row = rows[j] = blank[:]
                for q, c in kept:
                    e = row[c]
                    if e == UNSET:
                        e = row[c] = entry(j, c, new)
                    pq = p + q + (e & low) + bound
                    if e >= 0 and 0 <= pq < width:
                        out.append((e >> shift) * width + pq)
            return out

        total = 0

        def count(layer):
            """Products the vertices of a layer would read, added to the total."""
            nonlocal total
            for v in layer:
                i, p = divmod(v, width)
                even, odd = steps(p - bound, len(forms[i]))
                total += len(even) + len(odd)
            if total > BALL_PRODUCT_LIMIT:
                raise CapExceeded(
                    f"the walk of the box of bound {bound} would form at least "
                    f"{total} products, over the limit of {BALL_PRODUCT_LIMIT}")

        dist = self.dist = {}
        kept_out: dict = {}   # expanded vertex -> its products in the box

        def step(v):
            kept_out[v] = out = products(v, True)
            return out

        def layers():
            for layer in bfs_layers(dist, bound, step):   # code of D^0
                yield layer
                count(layer)

        def neighbours(v):
            return kept_out[v] if v in kept_out else products(v, False)

        def key(v):
            i, p = divmod(v, width)
            return p - bound, forms[i]

        self.layers, self.count, self.neighbours, self.key = layers, count, neighbours, key


def bounded_ball_graph(oracle: GeneratingSetOracle, radius: int,
                       universe_len: int) -> MetricGraph:
    """Ball of the word metric d_X around the identity, inside the universe.

    Vertices are the elements reachable within `radius` steps without leaving
    the box; edges join every vertex pair differing by a generating-set
    member, whether or not that member lies in the box (see the module
    docstring).  Distances in the result are upper bounds for d_X.

    A ball of the simples is read off the closed form of their word length
    (`_simples_ball`).  For the other kinds the vertices are the first
    `radius` layers of a `_BoxWalk`.  A walk that ends before layer
    radius - 1 is refused as stalled, unless the generating set is empty
    (module docstring).  The products of the unexpanded last layer are
    counted with the walk's before the edge pass reads them.
    """
    if radius < 0:
        raise UniverseTooSmall("radius must be >= 0")
    group = oracle.group
    prov = {"group": group.family, "construction": f"ball[{oracle.kind}]",
            "radius": radius, "universe_len": universe_len}
    if oracle.kind == KIND_SIMPLES:
        return MetricGraph.from_codes(*_simples_ball(group, radius, universe_len), prov)
    walk = _BoxWalk(group, universe_len,
                    [_nf_key(u) for u in _box_step_generators(oracle, universe_len)]
                    if radius else [])
    for d, layer in enumerate(walk.layers()):
        if d == radius:
            break
    else:
        layer = []
        # a generating set with a member holds s_1 or D^2 (module docstring)
        probes = gd.generator_element(group, group.generators[0]), gd.delta_pow(group, 2)
        if d + 1 < radius and any(map(oracle.membership, probes)):
            raise UniverseTooSmall(
                f"ball expansion stalled at radius {d + 1} < {radius}")
    walk.count(layer)   # the last layer was never expanded; its edges look ids up only
    adjacency = ((v, walk.neighbours(v)) for v in walk.dist)
    return _build_graph({v: gd.render_form(group, *walk.key(v)) for v in walk.dist},
                        adjacency, prov)


def _simples_ball(group: CoxeterGraph, radius: int, bound: int) -> tuple[list[str], list[int]]:
    """The vertices, sorted by text, and the sorted edge codes of the ball of
    radius r of the simples and their inverses in the box of bound B.

    Vertices.  They are the box elements D^p a (a of inf 0, len a <= B,
    |p| <= B) whose simples length max(p + len a, 0) - min(p, 0) is at most
    r: so len a <= min(B, r) and -min(B, r) <= p <= min(B, r - len a).
    Lemma: distance in the box from 1 is the simples length.  It is no
    shorter, as the length is the word length in the whole group (module
    docstring).  The certificate word stays in the box, by cases on g:
    - inf g >= 0: its prefixes D^j (j <= p) and D^p a_1..a_i of the normal
      form of g have inf <= p <= B and length <= len g <= B;
    - sup g <= 0: g^-1 = D^q b_1..b_k, with q + k = -inf g <= B, and the
      prefixes of the word of g are the inverses of the suffixes of that
      form, (b_i..b_k)^-1 and (D^j b_1..b_k)^-1 with j <= q: inf -(k - i
      + 1) or -(j + k), both >= -B, and length <= k <= len g;
    - inf g < 0 < sup g: g = a^-1 b, the np normal form, with a ^ b = 1,
      sup a = -inf g and sup b = sup g (Charney, Math. Ann. 292, 1992).
      The prefixes (a_i..a_m)^-1 of the word of a^-1 have |inf| <= sup a
      <= B and length <= sup a <= len g; a prefix a^-1 b' with b' a prefix
      of b is again np normal (a ^ b' = 1), of inf inf g and length
      sup a + sup b' <= len g.
    So every element of the box lies at its simples length from 1, the
    walk of the box by the same steps reaches exactly these vertices, and
    the box is walked out at its largest simples length: B + B, or B in
    A1, where no positive normal form but the powers of D exists (an atom
    s != D, present for rank >= 2, has the normal form s^k of each
    length k).

    Vertex order.  The text of D^p a is "D^p" followed by the tail of a
    (`_ProductRows.tails`), empty or beginning " | ".  So texts sort by the
    string of p first, then by tail: where neither power string is a
    prefix of the other they differ inside it, and where "D^p" is a proper
    prefix of "D^q" the next character of "D^q" is a digit, above the end
    of a text and above " ".  The vertices of one power form a block, and
    the vertex of a form is its block's start plus its rank in tail order
    among the forms of the block, those of length <= m(p) = min(low, r - p),
    low = min(B, r).  Only the forms' tails are sorted, not the vertices'
    texts, and each pair (p, form id) is mapped to its vertex index once, as
    the texts are laid out.

    Edges.  Each is emitted once, from the end that leaves it by a positive
    simple x != 1 (D included), as the code of its two sorted indices.
    Lemma: no edge is found from both ends, nor twice from one.  An edge
    {g, h} has g^-1 h a simple or an inverse simple other than 1, so one
    end leaves it by a positive x; were it found from both, g x = h and
    h y = g with x, y positive and nontrivial, so x y = 1, which is
    impossible, as the exponent sum is additive and positive on them.  And
    g x = g x' forces x = x'.  The products come from one `_ProductRows`
    table to length low with `fill_longest`, as every form of the ball is
    known before any product is formed: a x = D^d c with d = 0 or 1, -1
    when c is longer than low, so D^p a x = D^(p+d) c, a vertex when
    p + d <= low and len c <= m(p + d), whose index the map gives.  So no
    set of codes is kept: the codes are sorted once, as
    `quotient_cayley_graph` sorts its own.

    Refusals.  A radius past the box's largest simples length plus 1 is
    refused as stalled, as the walk is.  The |V| (n - 1) products, n the
    number of simples, are counted before any is formed and refused past
    BALL_PRODUCT_LIMIT.  So no ball the walk would build is refused: at
    B >= 1 the walk keeps at least the n - 1 steps by D or D^-1 (|p| <= B
    leaves one of them) and the positive simples at each vertex, so it
    counted no fewer, and at B = 0 the one vertex's n - 1 products are
    under the limit for any table (DEFAULT_ORDER_CAP).  Nor can the table
    refuse a ball that passed the count: its largest check is F n against
    TABLE_LIMIT, F the number of forms shorter than low.  Each form has at
    least low + 1 vertices, so |V| >= (low + 1) F', F' the number of all
    the forms.  In rank >= 2 the form counts do not shrink with length:
    appending an atom of the last factor's right descent set, never D,
    maps the forms of length k into those of length k + 1, and there are
    n - 2 >= 1 of length 1.  So F / low <= F' / (low + 1), and with
    BALL_PRODUCT_LIMIT = 4 TABLE_LIMIT, F n <= 4 low / (low + 1)^2
    n / (n - 1) TABLE_LIMIT, at most TABLE_LIMIT for low >= 3 (n >= 4) and
    for low = 2 and n >= 9.  Otherwise F n is n (n - 1) < 72 at low = 2,
    n <= DEFAULT_ORDER_CAP at low = 1, and 2 in A1, whose one form is 1.
    """
    n = group.table().size
    low = min(bound, radius)   # the largest |p|, and the longest form, of a vertex
    counts = gd.positive_nf_counts(group, low)
    size = sum(c * (low + min(bound, radius - ell) + 1) for ell, c in enumerate(counts))
    if size * (n - 1) > BALL_PRODUCT_LIMIT:
        raise CapExceeded(
            f"the ball of radius {radius} of the simples in the box of bound "
            f"{bound} would form {size * (n - 1)} products, over the limit of "
            f"{BALL_PRODUCT_LIMIT}")
    longest = bound + (bound if group.rank > 1 else 0)
    if longest + 1 < radius:
        raise UniverseTooSmall(f"ball expansion stalled at radius {longest + 1} < {radius}")
    rows = _ProductRows(group, low)
    rows.fill_longest()
    row, tails = rows.row, rows.tails()
    ends = list(itertools.accumulate(counts))   # the forms of length <= m: ids < ends[m]
    by_tail = sorted(range(ends[low]), key=tails.__getitem__)
    # p -> the vertex index of D^p a for each form id a, -1 where D^p a is no
    # vertex (len a > m(p), or p = low + 1)
    at = {low + 1: [-1] * ends[low]}
    blocks = []   # (p, the ids of the forms of its vertices in vertex order, first vertex)
    texts: list[str] = []
    for p in sorted(range(-low, low + 1), key=str):   # in the text order of "D^p"
        ids = [i for i in by_tail if i < ends[min(low, radius - p)]]
        at[p] = got = [-1] * ends[low]
        for v, i in enumerate(ids, len(texts)):
            got[i] = v
        blocks.append((p, ids, len(texts)))
        head = f"D^{p}"
        texts += [head + tails[i] for i in ids]
    size = len(texts)
    codes: list[int] = []
    for p, ids, first in blocks:
        # row entry 2 id(c) + d -> the vertex of D^(p+d) c; the entry -1 of a
        # product longer than low reads the last item, -1 too
        reach = [*itertools.chain.from_iterable(zip(at[p], at[p + 1])), -1]
        for v, i in enumerate(ids, first):
            c = v * size
            codes += [c + w if v < w else w * size + v
                      for w in map(reach.__getitem__, row[i * n + 1:i * n + n]) if w >= 0]
    codes.sort()
    return texts, codes


@dataclasses.dataclass(frozen=True)
class WordLengthResult:
    kind: str  # "exact" | "upper" | "unknown"
    value: int | None
    universe_len: int


def word_length_bound(g: GarsideElement, oracle: GeneratingSetOracle,
                      universe_len: int) -> WordLengthResult:
    """Word length of g in the oracle's metric: the closed form for the
    simples, else membership and the walk of the box (module docstring)."""
    if oracle.kind == KIND_SIMPLES:
        return WordLengthResult("exact", _simples_length(g), universe_len)
    if g.is_identity:
        return WordLengthResult("exact", 0, universe_len)
    if oracle.membership(g):
        return WordLengthResult("exact", 1, universe_len)
    # the square box of bound 3B, as the last step may reach a target outside
    # the box: with a ball's steps, of length <= 2B, 2 of the 348 sampled
    # answers of the tests got worse (A2 XP "D^1 | a | a" at universe 1 from
    # upper 3 to upper 4, and a B3 XP target outside the box from exact 2 to
    # unknown)
    gens = oracle.enumerate_up_to(3 * universe_len)
    walk = _BoxWalk(oracle.group, universe_len, [_nf_key(u) for u in gens])
    # v^-1 g is a step exactly when g^-1 v is the inverse of one
    inverses = {_nf_key(gd.invert(u)) for u in gens}
    tab, g_inv = oracle.group.table(), _nf_key(gd.invert(g))
    for d, layer in enumerate(walk.layers()):
        if any(_key_product(tab, g_inv, walk.key(v)) in inverses for v in layer):
            return WordLengthResult("exact" if d < 2 else "upper", d + 1, universe_len)
    return WordLengthResult("unknown", None, universe_len)


# ---------------------------------------------------------------------------
# Quotient Cayley graph Cay(A)/<D> and the additional-length graph
# ---------------------------------------------------------------------------

def coset_distance(u: GarsideElement, v: GarsideElement) -> int:
    """Distance in Cay(A)/<D> between the vertices of u and v:
    min(l(u^-1 v), l(u^-1 t(v))), l the canonical length and t the twist.

    Proof (module docstring): f(C) = min over e of l(u^-1 t^e(g)), g in C,
    depends only on the vertex C, changes by at most 1 along an edge and is
    0 at the vertex of u, so it bounds the distance from below; the walk
    along u times the prefixes of the normal form of u^-1 t^k(v), for the
    k that attains the minimum, reaches the vertex of v in that many steps.

    Lemma (the truncation is isometric): two vertices of canonical length
    <= L are joined by a geodesic of Cay(A)/<D> whose vertices all have
    canonical length <= L, so breadth-first search in
    `quotient_cayley_graph(group, L)` gives this distance too.  Proof: take
    u and v of inf 0 and sup <= L, k attaining the minimum, v' = t^k(v)
    and g = u^-1 v'.  A positive prefix w of u or of v' has inf w >= 0 and
    sup w <= L, so its vertex is in the truncation.
    - inf g = p >= 0: g = D^p x_1..x_r and the walk u D^p x_1..x_i,
      i = 0..r, of the upper bound runs through prefixes of v' = u g.
    - sup g <= 0: the same with u and v' exchanged, as l(g^-1) = l(g).
    - inf g < 0 < sup g: with d = u ^ v' the meet of the prefix order,
      u = d a and v' = d b, g = a^-1 b is the np normal form (a ^ b = 1),
      so l(g) = sup a + sup b (Charney, Math. Ann. 292, 1992).  Walk from u
      down the prefixes d a_1..a_i of u to d, by inverse simples, then up
      the prefixes d b_1..b_j of v' to v', by simples: l(g) steps at most.

    Complement form (`_coset_pair_distances`): for u = x_1..x_k of inf 0,
    u^-1 = c_u D^-k with c_u = u^-1 D^k = d(x_k) t(d(x_(k-1))) ..
    t^(k-1)(d(x_1)), d(y) = y^-1 D, a normal form of length k: the
    complement rule of `garside.invert` with power k.  Then u^-1 t^e(v) =
    c_u t^(k+e)(v) D^-k, and the distance is the least canonical length of
    the positive products c_u v and c_u t(v).
    """
    inv = gd.invert(u)
    return min(gd.multiply(inv, w).canonical_length for w in (v, gd.tau_twist(v)))


def _coset_pair_distances(group: CoxeterGraph, forms: Sequence[tuple[int, ...]],
                          pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """`coset_distance` for the pairs (a, b) of vertices with the inf-0
    factor tuples forms[a] and forms[b], on keys: each source's complement
    c_u gets a `_ProductMemo` id, and c_u v and c_u t(v) are chained from
    it factor by factor, so no element is built."""
    memo = _ProductMemo(group)
    tab = memo.tab
    sources: dict[int, int] = {}   # a -> memo id of c_u
    dist: dict[tuple[int, int], int] = {}
    for a, b in pairs:
        if (a, b) in dist:
            continue
        c = sources.get(a)
        if c is None:   # c_u = u^-1 D^k: the complement rule with power k
            u = forms[a]
            c = sources[a] = memo.id_of(gd.complement_factors(tab, len(u), u))
        v = forms[b]
        dist[a, b] = min(len(memo.chain(c, 0, v)[1]),
                         len(memo.chain(c, 0, [tab.tau[x] for x in v])[1]))
    return dist


def _upper_interval(tab, y: int) -> list[int]:
    """The simples z != y of the upper interval [y, D] of the prefix order,
    walked up level by level: z s is one length above z exactly when the
    atom s is not in the right descent set of z."""
    rmult, rdesc, atoms = tab.rmult, tab.rdesc, range(tab.graph.rank)
    level, above = {y}, []
    while level:
        level = {rmult[z][s] for z in level for s in atoms if not rdesc[z] >> s & 1}
        above += level
    return above


def quotient_cayley_graph(group: CoxeterGraph, len_bound: int) -> MetricGraph:
    """Materialized Cay(A)/<D> truncation: cosets of canonical length <= bound,
    edges between cosets differing by one nontrivial simple.

    Works on the ids of a `_ProductRows` table to length L = len_bound; a
    coset's id is the least id of its two inf-0 forms a and t(a), which is
    its canonical key.  Keys step by positive simples (see the module
    docstring), and a key of length L only by the simples x that its last
    factor x_L absorbs.  Boundary lemma: let a = x_1..x_L be left-weighted
    and x simple.  Then a^-1 D^L = d(x_L) t(d(x_(L-1))) .. is left-weighted,
    with d(y) = y^-1 D = t(w0 y^-1) and t the twist (the complement rule
    of `garside.invert`, with power L), so a simple x is a prefix of
    a^-1 D^L exactly when it is a prefix of d(x_L),
    that is when x_L x is simple.  Hence:
    - if x_L x is simple, a x = x_1..x_(L-1) (x_L x) has sup <= L and stays
      in the box; it is read from the row of the prefix at x_L x;
    - otherwise a x has sup L+1, so it leaves the box unless its inf is 1,
      a x = D r with r of length L.  Then r d(x) = D^-1 a D = t(a), of the
      coset of a, and since r d(x) has sup L the last factor of r absorbs
      d(x) (and the key t(r) the step t(d(x))): the edge is found from the
      other end.
    The simples x_L x are the upper interval [x_L, D] less x_L
    (`_upper_interval`), so this boundary scan costs what it reads.  The
    intervals of the distinct last factors of the keys of length L are
    listed before any edge is formed, and more than TABLE_LIMIT simples are
    refused.

    Once-per-edge lemma: call the cosets of length < L interior and those
    of length L boundary.  An edge between an interior and a boundary coset
    is found from both ends; an edge between two boundary cosets is found
    from exactly one end.  Proof, with l the length of positive words
    (additive, t-invariant, 0 < l(x) < l(D) for a nontrivial simple x).
    An edge {C, C x} is also {C x, C x d(x)}, as x^-1 = d(x) D^-1, and t
    maps the steps of a form to those of the other form t(a), so an edge
    seen from either form of a coset is seen from its key.
    - Interior-boundary: the interior key steps by every simple and sees
      all its neighbours.  Take a form g of the interior coset and a simple
      x with g x = D^e b, b a form of the boundary coset; e = 0, as
      sup(g x) <= L = sup b.  Then b d(x) = g D = D t(g) has sup <= L, so
      the last factor of b absorbs d(x) and b sees the coset of g.
    - Boundary-boundary: one end sees the edge by the boundary lemma.  Were
      it seen from both, forms a, b and absorbed x, y would have a x = b
      and b y = t^k(a), since an absorbed product has sup <= L and so, in a
      coset of length L, is one of its forms; then l(a) + l(x) + l(y) =
      l(a), which is impossible.
    No key sees its own coset, for a x = D^e t^k(a) forces l(x) = e l(D).
    So an interior key emits its higher interior neighbours and all its
    boundary neighbours, a boundary key only its boundary neighbours, and
    each edge is emitted once.

    Repeat lemma: two simples x != y reach one coset from a key a only
    when a x = t(a) t(y), so where D is central (t the identity: B3, D4,
    H3, F4, I2(m) with m even) no key reaches a coset twice.  Proof: the
    coset of a y is {D^j (a y) D^k} = {D^(j+k) t^k(a y)}, so a x in it
    means a x = D^e t^k(a) t^k(y) for some e and k in {0, 1}.  Then
    l(x) = e l(D) + l(y), and 0 < l(x), l(y) < l(D) force e = 0; k = 0
    would give a x = a y and x = y, so k = 1.  With t the identity that is
    again a x = a y.  So a key's cosets are distinct where D is central and
    are kept as read; in the other groups a x = t(a) t(y) does occur (on
    t-fixed keys with x = t(y), and in A3 and A4 on keys that t moves too),
    and each key's cosets are taken as a set.  With the once-per-edge lemma every edge code is formed once; the
    codes are sorted once, and `_adopt` refuses any repeat.

    Vertices are the keys sorted by text (`_ProductRows.texts`); `pos` maps
    each form id, either form of a coset, to its coset's vertex index.  An
    interior key maps its own row through that table.  Each prefix row is
    mapped once through its boundary part, -1 for an interior vertex, and a
    boundary key a' y reads the row of a' at the simples y x with one
    `itemgetter` per last factor y.
    """
    rows = _ProductRows(group, len_bound)
    n, row, below = rows.n, rows.row, rows.below
    forms, prefix, tau = rows.forms, rows.prefix, rows.tau
    keys = [i for i, t in enumerate(tau) if i <= t]
    absorbed: dict[int, Callable] = {}   # last factor y -> reader of the simples y x
    total = 0
    for y in sorted({forms[i][-1] for i in keys if i >= below and i}):
        zs = _upper_interval(rows.tab, y)
        total += len(zs)
        if total > TABLE_LIMIT:
            raise CapExceeded(
                f"the boundary scan of the quotient Cayley graph to length "
                f"{len_bound} would list at least {total} simples, over the "
                f"limit of {TABLE_LIMIT}")
        if len(zs) > 1:   # a coatom y absorbs only d(y), and a' D = D t(a') is interior
            absorbed[y] = operator.itemgetter(*zs)
    texts = rows.texts()
    keys.sort(key=texts.__getitem__)
    size = len(keys)
    pos = [0] * len(forms)
    for v, i in enumerate(keys):
        pos[i] = pos[tau[i]] = v
    at = list(itertools.chain.from_iterable(zip(pos, pos)))   # row entry -> vertex
    boundary = bytes(map(below.__le__, keys))
    # the prefix rows mapped once to boundary vertices, -1 for an interior one
    at_boundary = [-1] * (2 * below) + at[2 * below:]
    mapped = [list(map(at_boundary.__getitem__, row[p * n:p * n + n]))
              for p in range(below)]
    central = rows.tab.tau == list(range(n))
    codes: list[int] = []
    for v, i in enumerate(keys):
        c = v * size
        if i < below:
            seen = map(at.__getitem__, row[i * n + 1:i * n + n - 1])
            if not central:
                seen = set(seen)
            codes += [c + w if v < w else w * size + v
                      for w in seen if v < w or boundary[w]]
        elif i and forms[i][-1] in absorbed:   # at L = 0 the one key has no edges
            seen = absorbed[forms[i][-1]](mapped[prefix[i]])
            if not central:
                seen = set(seen)
            codes += [c + w if v < w else w * size + v for w in seen if w >= 0]
    codes.sort()
    prov = {"group": group.family, "construction": "quotient-cayley",
            "len_bound": len_bound}
    return MetricGraph.from_codes([texts[i] for i in keys], codes, prov,
                                  (group, [forms[i] for i in keys]))


def build_cal_graph(group: CoxeterGraph, len_bound: int,
                    abs_sup_bound: int | None = None) -> MetricGraph:
    """Additional-length graph truncation: <D>-cosets with simple-or-absorbable
    edges.  Absorbable steps come from the bounded census, so missing edges
    only make distances larger (a lower approximation of the true graph).

    C_AL is Cay(A)/<D> plus the absorbable edges (Calvez & Wiest, Geom.
    Dedicata 188, 2017), and so is its truncation: the quotient-Cayley
    truncation to length L (`quotient_cayley_graph`, and its refusals)
    with the edges from each coset's key to the cosets of length <= L that
    an absorbable step reaches.  Only the key is expanded, as the steps are
    tau-closed (tau preserves inf and sup, so it maps the absorbable census
    onto itself), and the other inf-0 form t(a) of a coset steps by u to
    the coset that a reaches by t(u).  Only the census members of inf 0
    are steps, as the census is closed under inverses too: an edge from
    the key a to the coset of a u, u of sup 0, is found from the key b of
    that coset, by v = u^-1 of inf 0 or by t(v).  For a u = D^p c with b = c,
    b v = D^-p a; with b = t(c), b t(v) = t(D^-p a); either is in the
    coset of a, a vertex.  The result keeps no cosets, so its distances
    are searched, not read from the closed form of `coset_distance`.
    """
    abs_bound = len_bound if abs_sup_bound is None else abs_sup_bound
    simple = quotient_cayley_graph(group, len_bound)
    tab = group.table()
    forms = simple.cosets[1]
    index = {fs: v for v, fs in enumerate(forms)}
    size = len(forms)
    steps = [_nf_key(el) for el in ab.enumerate_absorbable(group, abs_bound) if not el.inf]
    codes = set(simple.codes)
    for v, fs in enumerate(forms):
        for u in steps:
            w = index.get(_coset_factors(tab.tau, _key_product(tab, (0, fs), u)[1]))
            if w is not None and w != v:
                codes.add(v * size + w if v < w else w * size + v)
    prov = {"group": group.family, "construction": "additional-length",
            "len_bound": len_bound, "abs_sup_bound": abs_bound,
            "notes": "absorbable edges from bounded census (lower approximation)"}
    return MetricGraph.from_codes(simple.vertices, sorted(codes), prov)


# ---------------------------------------------------------------------------
# The parabolic graph
# ---------------------------------------------------------------------------

def build_cparab_neighborhood(p0: ParabolicSubgroup, conj_len: int,
                              hops: int) -> MetricGraph:
    """Neighborhood of P0 in the graph of irreducible parabolic subgroups.

    Vertices: conjugates g^-1 A_T g for proper irreducible standard T and
    positive g of canonical length <= conj_len (conjugation by D-twists is
    covered because tau permutes the standard subsets), restricted to the
    hops-ball around P0.  Edges: commuting minimal central elements.

    Works on ids of the distinct keys Omega_P = g^-1 Omega_T g, formed on
    normal-form keys, with no key formed for a g whose first factor has a
    left descent in T, as a shorter conjugator gives it (module docstring).
    The candidates, skipped ones included, are counted first, and more than
    CPARAB_CANDIDATE_LIMIT are refused.
    """
    group = p0.group
    tab = group.table()
    subsets = pb.proper_irreducible_subsets(group)
    size = len(subsets) * sum(gd.positive_nf_counts(group, conj_len))
    if size > CPARAB_CANDIDATE_LIMIT:
        raise CapExceeded(
            f"C_parab would form {size} candidate subgroups for conj-len "
            f"{conj_len}, over the limit of {CPARAB_CANDIDATE_LIMIT}")
    # (left descent set of g, key of g^-1, key of g), g = 1 with none
    conjugators = [(tab.ldesc[fs[0]] if fs else 0,
                    (-len(fs), gd.complement_factors(tab, 0, fs)), (0, fs))
                   for ell in range(conj_len + 1)
                   for fs in gd.iter_positive_factor_tuples(group, ell)]
    ids = {_nf_key(p0.omega): 0}   # Omega_P -> vertex id
    for labels in subsets:
        omega_t = _nf_key(gd.omega_of(group, labels).element)
        mask = tab.mask_of(group.gen_indices(labels))
        for ldesc, inv, g in conjugators:
            if not ldesc & mask:   # else g = s g' gives the key of g' (module docstring)
                ids.setdefault(_key_product(tab, _key_product(tab, inv, omega_t), g),
                               len(ids))
    omegas = list(ids)

    def commute(a, b):
        return _key_product(tab, omegas[a], omegas[b]) == \
            _key_product(tab, omegas[b], omegas[a])

    rows: dict[int, list[int]] = {}   # expanded vertex -> its neighbours

    def neighbours(a):
        row = rows[a] = [b for b in range(len(omegas)) if b != a and commute(a, b)]
        return row

    kept: dict[int, int] = {}
    for d, _ in enumerate(bfs_layers(kept, 0, neighbours)):
        if d == hops:
            break
    # pairs with an expanded end are in its row
    last = [a for a in kept if a not in rows]
    adjacency = itertools.chain(
        rows.items(),
        ((a, [b for b in last[k + 1:] if commute(a, b)]) for k, a in enumerate(last)))
    prov = {"group": group.family, "construction": "cparab",
            "p0": p0.key(), "conj_len": conj_len, "hops": hops}
    return _build_graph({a: gd.render_form(group, *omegas[a]) for a in kept}, adjacency, prov)


# ---------------------------------------------------------------------------
# Fat-triangle geometry
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TrianglePairCheck:
    side_a: str
    side_b: str
    d1: int
    d2: int
    expected: int
    measured: int

    @property
    def ok(self) -> bool:
        return self.measured == self.expected


@dataclasses.dataclass(frozen=True)
class FatTriangleReport:
    length: int
    pair_checks: tuple[TrianglePairCheck, ...]
    corner_checks: tuple[TrianglePairCheck, ...]
    all_pass: bool


def fat_triangle_distances(triangle: ab.FatTriangle) -> FatTriangleReport:
    """Verify the cross-side distance law max(d1, d2) and the corner law,
    each distance exact in Cay(A)/<D> by `coset_distance`."""
    L = triangle.length
    sides = {
        "1-x": triangle.side_x,
        "x-xy": triangle.side_top,
        "1-xy": triangle.side_xy,
    }
    # distances from the shared corner along a side are index distances
    shared = {
        ("1-x", "x-xy"): (lambda i: L - i, lambda i: i),
        ("x-xy", "1-xy"): (lambda i: L - i, lambda i: L - i),
        ("1-x", "1-xy"): (lambda i: i, lambda i: i),
    }
    pair_checks = []
    for (na, nb), (fa, fb) in shared.items():
        va, vb = sides[na], sides[nb]
        for i, u in enumerate(va):
            for j, v in enumerate(vb):
                d1, d2 = fa(i), fb(j)
                expected = max(d1, d2)
                measured = coset_distance(u, v)
                pair_checks.append(TrianglePairCheck(na, nb, d1, d2, expected, measured))
    corner_checks = []
    corner_opposite = {
        "1-x": triangle.xy,
        "x-xy": gd.identity_element(triangle.group),
        "1-xy": triangle.x,
    }
    for name, verts in sides.items():
        corner = corner_opposite[name]
        for v in verts:
            measured = coset_distance(corner, v)
            corner_checks.append(TrianglePairCheck(name, "corner", L, L, L, measured))
    all_pass = all(c.ok for c in pair_checks) and all(c.ok for c in corner_checks)
    return FatTriangleReport(L, tuple(pair_checks), tuple(corner_checks), all_pass)


# ---------------------------------------------------------------------------
# Hyperbolicity estimate
# ---------------------------------------------------------------------------

def _quadruples(n: int, sample: int, seed: int) -> Iterable[tuple[int, ...]]:
    """The 4-tuples of vertices `estimate_delta` reads, each sorted: every
    4-subset when `sample` reaches C(n, 4), else `sample` draws of four
    distinct vertices, which may repeat."""
    if sample >= math.comb(n, 4):
        return itertools.combinations(range(n), 4)
    rng = _random.Random(seed)
    return (tuple(sorted(rng.sample(range(n), 4))) for _ in range(sample))


def estimate_delta(graph: MetricGraph, sample: int, seed: int = 0
                   ) -> tuple[Fraction, tuple[int, ...] | None, int]:
    """Four-point-condition defect, maximized over sampled 4-tuples, the
    vertex indices of the first examined 4-tuple that attains it (None with
    fewer than 4 vertices), and the number of distinct 4-subsets examined.

    Exact when `sample` is at least the number of 4-subsets, C(n, 4), which
    is then the number examined; a sample's draws may repeat, and the pass
    that reads their distances counts the distinct ones.  The sampler is
    seeded and recorded by callers in provenance.  The 4-tuples are drawn
    twice from the same seed: once to collect the pairs they need, and once
    to read their distances.  A disconnected graph is refused, and so,
    before anything is drawn, is an estimate that would read more than
    DELTA_QUAD_LIMIT 4-tuples, min(sample, C(n, 4)), more than
    DELTA_PAIR_LIMIT pairs, min(6 min(sample, C(n, 4)), C(n, 2)), or, in a
    `_pair_distances` pass, more than DELTA_SWEEP_LIMIT sweep cells.

    The distances come from one of two methods, chosen by a size known
    before anything is drawn.  A quotient-Cayley graph built in memory
    (`MetricGraph.cosets`) whose pairs, at most 6 min(sample, C(n, 4)), are
    no more than its n vertices takes them from the closed form of
    `coset_distance` (the truncation is isometric), a few memo products per
    pair in memory O(n); it is connected, as every vertex reaches the
    identity through its prefixes.  Every other graph, cal graphs, balls and
    graphs read from files among them, takes one `_pair_distances` pass.
    The rule follows the measured crossover (2 vCPUs, Python 3.11): the 300
    pairs of B3 to length 3 at sample 50 cost 5 ms in closed form against
    194 ms for the pass and its adjacency lists, while at sample 10,000
    (60,000 pairs) the closed form took 482 ms against 62 ms on A3 to
    length 3 and 623 ms against 169 ms on A4 to length 2; on B3 to length
    3 it took 0.8 s against 2.0 s, but its memo raised the traced peak from
    14 to 25 MB.
    """
    n = len(graph.vertices)
    if n == 0:
        return Fraction(0), None, 0
    quads_total = math.comb(n, 4)
    exhaustive = sample >= quads_total
    work = min(sample, quads_total)   # the 4-tuples read
    closed = graph.cosets is not None and 6 * work <= n
    # a 4-tuple a < b < c < d has the sources a, b and c, and vertex 0 is one
    sweep = 0 if closed else \
        -(-min(n, 3 * work + 1) // SOURCE_BATCH) * (n + 2 * len(graph.codes))
    for count, limit, what in ((work, DELTA_QUAD_LIMIT, "4-tuples"),
                               (min(6 * work, math.comb(n, 2)), DELTA_PAIR_LIMIT,
                                "vertex pairs"),
                               (sweep, DELTA_SWEEP_LIMIT, "sweep cells")):
        if count > limit:
            raise CapExceeded(f"the delta estimate would read {count} {what}, "
                              f"over the limit of {limit}")
    # each 4-tuple sorted, so every pair (i, j) has i < j
    quads = functools.partial(_quadruples, n, sample, seed)

    if exhaustive:
        needed = itertools.combinations(range(n), 2)
    else:
        needed = (p for a, b, c, d in quads()
                  for p in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
    if closed:
        dist = _coset_pair_distances(*graph.cosets, needed)
    else:
        # Vertex 0 is the first source, so the pass also tells connectedness.
        dist, connected = _pair_distances(graph.adjacency(),
                                          itertools.chain([(0, 0)], needed))
        if not connected:
            raise DisconnectedInput("graph is disconnected")

    best, witness = -1, None   # twice the four-point defect, and its 4-tuple
    drawn: set[int] = set()   # the code ((a n + b) n + c) n + d of each distinct draw
    for quad in quads():
        a, b, c, d = quad
        sums = sorted((dist[a, b] + dist[c, d], dist[a, c] + dist[b, d],
                       dist[a, d] + dist[b, c]))
        if sums[2] - sums[1] > best:
            best, witness = sums[2] - sums[1], quad
        if not exhaustive:
            drawn.add(((a * n + b) * n + c) * n + d)
    return Fraction(max(best, 0), 2), witness, quads_total if exhaustive else len(drawn)


# ---------------------------------------------------------------------------
# Quasi-isometry constants of the cocompact-action lemma
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class QiConstants:
    m1: int
    m1_exact: bool


def qi_constants(graph: MetricGraph, orbit_reps: Sequence[str]) -> QiConstants:
    """The constant M1 of the cocompact-action argument: the diameter of the
    orbit representatives inside the supplied graph truncation.

    A value of at most 2 is certified exact, because a missing edge is
    decided by the exact adjacency predicate that built the graph; a larger
    one is only an upper bound within the truncation.
    """
    for key in orbit_reps:
        if not graph.has_vertex(key):
            raise RepresentativeMissing(f"orbit representative {key!r} missing")
    ids = [graph.index_of(key) for key in orbit_reps]
    pairs = set(itertools.product(ids, ids))
    dist, _ = _pair_distances(graph.adjacency(), pairs)
    if len(dist) < len(pairs):
        raise RepresentativeMissing(
            "representatives are disconnected inside the truncation")
    m1 = max(dist.values(), default=0)
    return QiConstants(m1, m1 <= 2)


@dataclasses.dataclass(frozen=True)
class LipschitzReport:
    samples: int
    failures: int
    m1: int

    @property
    def all_pass(self) -> bool:
        return self.failures == 0


def _standard_paths(group: CoxeterGraph) -> dict[tuple[str, str], list[ParabolicSubgroup]]:
    """A shortest path between every two standard parabolics that commute
    edges join, by a breadth-first search from each: a vertex's path is its
    parent's path extended by it, the parent being the first vertex of the
    previous layer, in subset order, adjacent to it.  No length is capped."""
    stds = [pb.standard_parabolic(group, labels)
            for labels in pb.proper_irreducible_subsets(group)]
    adj = [[j for j, b in enumerate(stds) if b is not a and pb.omega_commute_edge(a, b)]
           for a in stds]
    paths: dict[tuple[str, str], list[ParabolicSubgroup]] = {}
    for i, a in enumerate(stds):
        route = {i: [a]}

        def step(v):
            for w in adj[v]:
                route.setdefault(w, route[v] + [stds[w]])   # the first reach is by a parent
            return adj[v]

        for _ in bfs_layers({}, i, step):
            pass
        paths.update(((a.key(), stds[j].key()), path) for j, path in route.items())
    return paths


def lipschitz_path_check(group: CoxeterGraph, base: ParabolicSubgroup,
                         samples: int, seed: int = 0) -> LipschitzReport:
    """Certify d_X(psi(g), psi(h)) <= 2 M1 d_T(g, h) on sampled pairs.

    h = g t_1 .. t_j, j <= 3, with each t_i in the normalizer of a random standard
    parabolic, so d_T(g, h) <= j.  For each step the explicit path
    u P u^-1 .. u A_T u^-1 .. u t P t^-1 u^-1 of length <= 2 M1 is built from
    the precomputed standard paths, and every consecutive pair is verified by
    the commutation predicate.  A failure of any edge check counts as a
    Lipschitz failure (none are expected).
    """
    rng = _random.Random(seed)
    subsets = pb.proper_irreducible_subsets(group)
    paths = _standard_paths(group)
    m1 = max(len(p) - 1 for p in paths.values())
    failures = 0
    for _ in range(samples):
        j = rng.randint(1, 3)
        u = gd.identity_element(group)
        ok = True
        for _step in range(j):
            labels = rng.choice(subsets)
            # A normalizer element of A_T: a short A_T word times a central power.
            word_len = rng.randint(0, 2)
            t = gd.identity_element(group)
            for _w in range(word_len):
                lab = rng.choice(labels)
                t = gd.multiply(t, gd.generator_element(group, lab))
            if rng.random() < 0.3:
                t = gd.multiply(t, gd.delta_pow(group, 2 * rng.choice([-1, 1])))
            if rng.random() < 0.3:
                t = gd.multiply(t, gd.omega_of(group, labels).element)
            # Path from u P u^-1 to (ut) P (ut)^-1 through u A_T u^-1.
            std_t = pb.standard_parabolic(group, labels)
            leg1 = paths.get((base.key(), std_t.key()))
            if leg1 is None:
                ok = False
                break
            uinv = gd.invert(u)
            ut = gd.multiply(u, t)
            utinv = gd.invert(ut)
            verts: list[ParabolicSubgroup] = []
            for p in leg1:
                verts.append(pb.act_on_parabolic(uinv, p))
            for p in reversed(leg1[:-1]):
                verts.append(pb.act_on_parabolic(utinv, p))
            # Verify consecutive edges (equal keys are fine: zero-length hop).
            for a, b in zip(verts, verts[1:]):
                if a.key() == b.key():
                    continue
                if not pb.omega_commute_edge(a, b):
                    ok = False
                    break
            if not ok:
                break
            if len(verts) - 1 > 2 * m1:
                ok = False
                break
            u = ut
        if not ok:
            failures += 1
    return LipschitzReport(samples, failures, m1)

