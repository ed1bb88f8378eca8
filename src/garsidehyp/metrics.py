"""
Generating-set oracles and truncated metric graphs.

The infinite generating sets are represented by membership predicates plus
bounded enumerators.  Throughout, the truncation universe for group elements
is the box |inf| <= bound and canonical length <= bound; enumerators list
every member inside the box (central powers D^2k appear through their normal
forms D^2k with zero factors).  Graph distances computed inside a truncation
of a ball or of the additional-length graph are upper bounds for the true
distances; the quotient-Cayley truncation is isometric (`coset_distance`).
Results carry their truncation parameters and an exact/upper tag, and
nothing is reported as exact without a certificate.

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

Ball rule: balls (`bounded_ball_graph`) and word lengths
(`word_length_bound`) share one breadth-first walk of the box, `_BoxWalk`.
Every vertex it reaches lies in the box of bound B, but the generator used
for a step need not; a step from one box vertex to another may use any
member of the generating set.  `_box_step_generators` lists every such
member.  A ball is the walk's first `radius` layers and the edges among
them; a word length forms one key product g^-1 v per vertex it tests, and
no product by a step beyond the walk's own.

Graph builders work on normal-form keys (power, factors) and render each
vertex once.  Products by a simple come from one prefix recurrence.  The
table of `quotient_cayley_graph`, `_ProductRows`, numbers every inf-0
normal form of length <= L and holds, for each form a shorter than L and
each simple x, the D-power and the id of a x in flat int rows.  Prefix
recurrence: with a = a' y and renorm(y, x) = (p, q), that is
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
repeats an edge found from its other end.

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
the walk, where a table to length L would cost |W|^L whatever the walk.  A
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
A product so skipped lies outside the box, so it counts as clipped.  Each
expanded vertex keeps its products in the box for the edge pass.  The
products each layer of the walk, and then a ball's edge pass, would read
(vertices times kept steps) are counted before any is read, and a walk past
BALL_PRODUCT_LIMIT is refused, for a ball and a word length alike.

Distances among chosen vertices (the pairs of sampled 4-tuples, the
representatives of M1, a projected triangle) come from one bit-parallel
breadth-first pass, `_pair_distances`: a vertex's mask has bit k set once
source k has reached it, and each layer ORs every vertex's mask with its
neighbours' masks, so all sources advance together and only the wanted
pairs are read.  Sources run in batches of `SOURCE_BATCH`, which bounds the
masks' memory whatever the number of pairs, and a batch stops at the layer
that resolves its last pair (in the first batch, not before source 0 has
reached every vertex, which tells connectedness).  `_bfs_layers` remains the
one breadth-first search for walks that discover their vertices.

X_NP enumeration uses Delta^2 parity: D^2 is central, so D^p x commutes
with Omega_T exactly when D^(p mod 2) x does, and every power of a passing
parity is emitted.  Commutation identity: for positive x, D^p x commutes
with Omega_T exactly when x Omega_T = t^p(Omega_T) x.  Proof: D^p x Omega_T
= Omega_T D^p x holds exactly when x Omega_T = D^-p Omega_T D^p x, and D^-p
Omega_T D^p = t^p(Omega_T) because t, conjugation by D, is an involution.
The enumerator walks the positive factor tuples of the box depth first on
memo ids: x Omega_T is chained from the id of x's prefix and x's last
factor by the factors of Omega_T, and t^p(Omega_T) x from the parent
tuple's t^p(Omega_T) x' by one more factor, so each test is a few memo
lookups and one comparison.  The tuples of the maximal length, most of the
box, and their products get no ids.  `membership` keeps `garside.commute`.

C_parab works on ids.  Omega_T is formed once per subset T; each candidate
key Omega_P = a^-1 Omega_T a (it depends only on P, Cumplido, Gebhardt,
Gonzalez-Meneses and Wiest, Adv. Math. 352, 2019) is formed with
`_key_product` on normal-form keys, and the distinct keys are numbered.
Two vertices are adjacent when the keys of Omega_a Omega_b and
Omega_b Omega_a agree.  Each expanded vertex keeps its row of adjacent
ids; the edge pass tests only the pairs of unexpanded kept vertices.  The
candidates are counted before any is formed, and more than
CPARAB_CANDIDATE_LIMIT are refused.
"""

from __future__ import annotations

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
from .coxeter import CoxeterGraph
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

# The XNP enumerator tests two elements per positive factor tuple of its box
# for membership, about 0.1 ms each, so a box of bound 3 costs about 0.03 ms
# per element (A3 and B3, 2 vCPUs, Python 3.11); a box above this many
# elements is refused rather than filtered.
XNP_BOX_LIMIT = 100_000

# A `_ProductRows` table costs about 2 us and 170 bytes per normal form and
# 0.4 us and 8 bytes per row entry, but the quotient-Cayley graph on it costs
# far more: A4 to length 3 (423,720 row entries) has 805,388 edges and takes
# about 1 s, A5 to length 2 (518,400) has 2,953,660 edges, 3.9 s and 635 MB,
# and F4 to length 2 (1,325,952) has 24.6 M edges, 35 s and 5 GB (2 vCPUs,
# Python 3.11).  A table of more row entries than this is refused rather than
# built.
TABLE_LIMIT = 500_000

# Renorms a `_ProductMemo` keeps, at about 130 bytes each (8 MB when full,
# F4, Python 3.11); its cache is emptied when full.  The n^2 pairs of A3 or
# B3 fit, those of F4 (1.3 M) do not.
RENORM_CACHE = 1 << 16

# Products a walk of the box (`_BoxWalk`) may read: before each layer it
# expands, and before a ball's edge pass, the walk adds its vertices times
# the steps the box inequalities keep for them.  A product costs about 1 us:
# ball F4 Simples r1 u2 reads 5.3 M and takes 5.3 s (12.9 s without rows;
# 2 vCPUs, Python 3.11), while every other ball of the tests and the
# benchmark reads under 300,000.  A walk over this many is refused before it
# reads them.
BALL_PRODUCT_LIMIT = 2_000_000

# Candidate subgroups C_parab may form: proper irreducible subsets times the
# positive conjugators of canonical length <= conj-len.  With hops 2 a
# candidate costs 65-95 us: A4 at conj-len 2 (31,779) takes 2.4 s, B3 at 3
# (52,065) 3.4 s and D4 at 2 (90,250) 8.5 s (2 vCPUs, Python 3.11).  Above
# this many the graph is refused before any candidate is formed.
CPARAB_CANDIDATE_LIMIT = 50_000

# Row entries of a walk of the box (`_BoxWalk`): not yet formed, and a
# product that is not a vertex of the box for any D-power.
UNSET, CLIPPED = -2, -1

# Sources per bit-parallel distance pass, so each vertex mask has at most
# this many bits.
SOURCE_BATCH = 1024


def _nf_key(g: GarsideElement) -> tuple[int, tuple[int, ...]]:
    return (g.power, g.factors)


class _ProductRows:
    """Every inf-0 normal form of length <= L under an integer id, with the
    product of each form shorter than L by every simple (module docstring).

    Forms are numbered level by level and each level in factor-tuple order,
    so the ids of one length compare as their tuples do.  `prefix[i]` is
    the id of forms[i][:-1] and `tau[i]` the id of the tau-twisted form.
    For a form i shorter than L (i < `below`), `row[i*n + x]` is
    2 id(c) + d where forms[i] x = D^d c; d is 0 or 1 because
    inf(a x) <= inf a + sup x.  `first[i]` and `slot[i][y]` give the id
    forms[i] + (y,) of a left-weighted extension.

    A table of more than TABLE_LIMIT row entries is refused while its forms
    are listed, level by level, before the level past the limit.  A form of
    length L extends a shorter one by one of the n - 2 simples other than 1
    and D, so there are fewer forms than row entries and the limit bounds
    both.
    """

    def __init__(self, group: CoxeterGraph, length: int):
        tab = self.tab = group.table()
        n = self.n = tab.size
        ldesc, rdesc = tab.ldesc, tab.rdesc
        full = (1 << group.rank) - 1
        slots: dict[int, list[int]] = {}   # mask -> simple -> position among followers

        def slot_of(m):
            if m not in slots:
                got = slots[m] = [-1] * n
                for pos, y in enumerate(y for y in range(1, n - 1)
                                        if not ldesc[y] & ~m):
                    got[y] = pos
            return slots[m]

        forms = self.forms = [()]
        prefix = self.prefix = array("l", [0])
        tau = self.tau = array("l", [0])
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
                sl = slot_of(rdesc[fs[-1]] if fs else full)
                first.append(len(forms))
                slot.append(sl)
                forms.extend(fs + (y,) for y, pos in enumerate(sl) if pos >= 0)
                prefix.extend([i] * (len(forms) - len(prefix)))
            for i in range(hi, len(forms)):
                t = tau[prefix[i]]
                y = tab.tau[forms[i][-1]]
                tau.append(first[t] + slot[t][y])
            lo, hi = hi, len(forms)
        self.below = below = lo
        row = self.row = array("l")
        if not below:
            return
        row.extend(2 * (first[0] + slot[0][x]) for x in range(n))
        row[0], row[n - 1] = 0, 1   # the identity, and D
        renorms: dict[int, list[tuple[int, int]]] = {}   # y -> renorm(y, x) per x
        for i in range(1, below):
            base = prefix[i] * n
            y = forms[i][-1]
            if y not in renorms:
                renorms[y] = [tab.renorm(y, x) for x in range(n)]
            for p, q in renorms[y]:
                v = row[base + p]   # a' p = D^d c, and c q is normal
                if q:
                    c = v >> 1   # shorter than L: a' p is no longer than a
                    v = 2 * (first[c] + slot[c][q]) + (v & 1)
                row.append(v)


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
        fs = tuple(tab.tau[x] for x in fs)
    d, res = gd._normalise(tab, fs + us, len(fs) - 1)
    return p + q + d, res


def _in_box(key, bound: int) -> bool:
    return abs(key[0]) <= bound and len(key[1]) <= bound


def in_universe(g: GarsideElement, bound: int) -> bool:
    return _in_box(_nf_key(g), bound)


def is_central_even_delta_power(g: GarsideElement) -> bool:
    return not g.factors and g.power % 2 == 0


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GeneratingSetOracle:
    """Membership predicate and bounded enumerator for one generating set."""

    group: CoxeterGraph
    kind: str
    membership: Callable[[GarsideElement], bool]
    enumerate_up_to: Callable[[int], list[GarsideElement]]
    notes: str = ""


def genset_oracle(group: CoxeterGraph, kind: str,
                  witness_bound: int | None = None) -> GeneratingSetOracle:
    if kind == KIND_XP:
        return _xp_oracle(group)
    if kind == KIND_XNP:
        return _xnp_oracle(group)
    if kind == KIND_XABS:
        return _xabs_oracle(group, witness_bound)
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
                      bound: int) -> Iterator[GarsideElement]:
    """Elements of the standard parabolics A_T, T in `subsets`, in the box.

    Enumerates each subgroup's own normal forms g = D_T^p y_1..y_k with
    |p| <= bound and k <= bound and filters by the ambient box, which holds
    no other member of A_T.  Proof: A_T^+ is closed under divisors and
    under gcds in A^+ (Paris, J. Algebra 196, 1997).  So the greedy simple
    prefixes of an element of A_T^+ lie in A_T^+: its ambient normal form is
    its A_T normal form with each D_T written as a factor, no factor is D
    (T is proper), and its ambient sup is its A_T sup.  Let g = a^-1 b be
    the np normal form in A_T; a and b have no common prefix in A_T^+, so
    none in A^+, and this is the ambient np normal form too.  Applied in A_T
    and in A, Charney (Math. Ann. 292, 1992) and, when a or b is 1, the
    above give that -sup a = min(p, 0) and sup b = max(p + k, 0) are the
    ambient inf and sup of g.  In the box, p >= 0 gives p + k = len g <=
    bound; p < 0 gives -p = -inf g <= bound and k <= max(p + k, 0) - p =
    len g <= bound.  The walk is counted first and refused above
    XNP_BOX_LIMIT.
    """
    subs = [group.subgraph(group.gen_indices(labels)) for labels in subsets]
    if any(sub.rank == group.rank for sub in subs):
        raise GroupMismatch("proper subsets only")
    size = (2 * bound + 1) * sum(gd.count_positive_nf(sub, ell)
                                 for sub in subs for ell in range(bound + 1))
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
                     for el in gd.iter_positive_elements(sub, bound)]
        delta_t = gd.delta_of(group, labels)
        for p in range(-bound, bound + 1):
            base = gd.power(delta_t, p)
            if not base.is_identity and in_universe(base, bound):
                yield base
            for pos in positives:
                el = gd.multiply(base, pos)
                if in_universe(el, bound):
                    yield el


def _xp_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    subsets = pb.proper_irreducible_subsets(group)

    def membership(g: GarsideElement) -> bool:
        return is_central_even_delta_power(g) or \
            any(pb.standard_membership(g, labels) for labels in subsets)

    def enumerate_up_to(bound: int) -> list[GarsideElement]:
        seen: dict = {}
        for el in _subgroup_members(group, subsets, bound):
            seen.setdefault(_nf_key(el), el)
        for el in _delta_even_powers(group, bound):
            seen.setdefault(_nf_key(el), el)
        return sorted(seen.values(), key=lambda e: e.sort_key())

    return GeneratingSetOracle(group, KIND_XP, membership, enumerate_up_to)


def _xnp_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    subsets = pb.proper_irreducible_subsets(group)
    omegas = [gd.omega_of(group, labels).element for labels in subsets]

    def membership(g: GarsideElement) -> bool:
        return any(gd.commute(g, om) for om in omegas)

    def enumerate_up_to(bound: int) -> list[GarsideElement]:
        """The nonidentity members of the box, by Delta^2 parity and the
        commutation identity (module docstring): D^p x is a member exactly
        when x Omega_T = t^p(Omega_T) x for some T, tested on memo ids."""
        size = (2 * bound + 1) * sum(gd.count_positive_nf(group, ell)
                                     for ell in range(bound + 1))
        if size > XNP_BOX_LIMIT:
            raise CapExceeded(
                f"XNP enumeration would filter the box of bound {bound}, "
                f"{size} elements, over the limit of {XNP_BOX_LIMIT}")
        tab = group.table()
        memo = _ProductMemo(group)
        product, forms = memo.product, memo.forms
        factors = [om.factors for om in omegas]   # each Omega_T is positive

        def extend(left, y, leaf):
            """Each entry (d, id) of left times the simple y, as (d, id), or
            as (d, form) with no id given for a leaf of the walk."""
            out = []
            for d, j in left:
                if leaf:
                    e, c = memo.times(j, y)
                else:
                    v = product(j, y)
                    e, c = v & 1, v >> 1
                out.append((d + e, c))
            return out

        out = []
        # depth first from x = (); x = forms[j] + (y,) needs an id j of its
        # prefix only, and lefts holds, for each parity p and each T,
        # t^p(Omega_T) x as its D-power and id, or its form when formed
        # (for the tuples of length bound, which get no ids)
        stack = [((), 0, 0, [[(0, memo.id_of(om)) for om in factors],
                             [(0, memo.id_of(tuple(tab.tau[x] for x in om)))
                              for om in factors]], False)]
        while stack:
            fs, j, y, lefts, formed = stack.pop()
            rights = [memo.chain(j, y, om) for om in factors]   # x Omega_T
            for parity, left in enumerate(lefts):
                if any(r == (d, c if formed else forms[c])
                       for r, (d, c) in zip(rights, left)):
                    out.extend(GarsideElement(group, p, fs)
                               for p in range(-bound, bound + 1)
                               if p % 2 == parity and (p or fs))
            if len(fs) < bound:
                i = memo.id_of(fs)
                leaf = len(fs) + 1 == bound
                for y in (tab.follows(fs[-1]) if fs else range(1, tab.w0)):
                    stack.append((fs + (y,), i, y,
                                  [extend(left, y, leaf) for left in lefts], leaf))
        out.sort(key=lambda e: e.sort_key())
        return out

    return GeneratingSetOracle(group, KIND_XNP, membership, enumerate_up_to)


def _xabs_oracle(group: CoxeterGraph,
                 witness_bound: int | None) -> GeneratingSetOracle:
    dihedral = group.is_dihedral

    def membership(g: GarsideElement) -> bool:
        if g.is_identity:
            return False
        if dihedral and is_central_even_delta_power(g):
            return True
        return ab.is_absorbable(g, witness_bound).status == "yes"

    def enumerate_up_to(bound: int) -> list[GarsideElement]:
        out = list(ab.enumerate_absorbable(group, bound, witness_bound))
        if dihedral:
            out.extend(_delta_even_powers(group, bound))
        out.sort(key=lambda e: e.sort_key())
        return out

    notes = "absorbable membership uses the bounded witness search; " \
            "graphs built from it are lower approximations"
    return GeneratingSetOracle(group, KIND_XABS, membership, enumerate_up_to,
                               notes=notes)


def _simples_length(g: GarsideElement) -> int:
    """Word length in the simples and their inverses (module docstring)."""
    return max(g.sup, 0) - min(g.inf, 0)


def _simples_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    def membership(g: GarsideElement) -> bool:
        return _simples_length(g) == 1

    def enumerate_up_to(bound: int) -> list[GarsideElement]:
        tab = group.table()
        out = [gd.delta(group), gd.delta_pow(group, -1)]
        for x in range(1, tab.size):
            if x == tab.w0:
                continue
            el = gd.GarsideElement(group, 0, (x,))
            out.append(el)
            out.append(gd.invert(el))
        out = [el for el in out if in_universe(el, bound)]
        out.sort(key=lambda e: e.sort_key())
        return out

    return GeneratingSetOracle(group, KIND_SIMPLES, membership, enumerate_up_to)


def _finite_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    gens = [gd.generator_element(group, lab) for lab in group.generators]
    keyset = {_nf_key(e) for e in gens} | {_nf_key(gd.invert(e)) for e in gens}

    def membership(g: GarsideElement) -> bool:
        return _nf_key(g) in keyset or is_central_even_delta_power(g)

    def enumerate_up_to(bound: int) -> list[GarsideElement]:
        out = [e for e in gens] + [gd.invert(e) for e in gens]
        out = [e for e in out if in_universe(e, bound)]
        out.extend(_delta_even_powers(group, bound))
        out.sort(key=lambda e: e.sort_key())
        return out

    return GeneratingSetOracle(group, KIND_FINITE, membership, enumerate_up_to)


# ---------------------------------------------------------------------------
# Metric graphs
# ---------------------------------------------------------------------------

def _bfs_layers(dist: dict, start, neighbours: Callable) -> Iterator[list]:
    """Breadth-first search from `start`, one distance layer at a time.

    Yields the vertices at distance 0, 1, 2, ... and records every vertex's
    distance in `dist` when it is first reached.  `neighbours(v)` runs once
    for each expanded vertex, and a layer is expanded only when the next one
    is asked for, so a caller stops at a cutoff by leaving the loop.
    """
    dist[start] = 0
    layer = [start]
    d = 0
    while layer:
        yield layer
        d += 1
        nxt = []
        for v in layer:
            for w in neighbours(v):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        layer = nxt


@dataclasses.dataclass
class MetricGraph:
    """Finite truncation of one of the infinite graphs.

    Vertices are canonical text keys; edges are index pairs (i < j) into the
    sorted vertex tuple, in strictly increasing order, which also rules out
    duplicates.  Provenance records group, construction and truncation
    parameters.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    provenance: dict
    # A quotient-Cayley graph built in memory keeps its group and the inf-0
    # factor tuple of each vertex, in vertex order, so that distances have the
    # closed form of `coset_distance`; other graphs, and graphs read from
    # files, keep none.
    cosets: tuple[CoxeterGraph, list[tuple[int, ...]]] | None = dataclasses.field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        # checked by raising, not asserting: graphs are also read from files
        n = len(self.vertices)
        self._index = {k: i for i, k in enumerate(self.vertices)}
        if len(self._index) != n:
            raise MalformedGraph("duplicate vertex keys")
        if not all(0 <= i < j < n for i, j in self.edges):
            raise MalformedGraph("edge endpoints must be valid and distinct")
        if not all(e < f for e, f in itertools.pairwise(self.edges)):
            raise MalformedGraph("edges must be strictly increasing")
        self._adj: list[list[int]] | None = None

    def index_of(self, key: str) -> int:
        if key not in self._index:
            raise RepresentativeMissing(f"vertex {key!r} not in graph")
        return self._index[key]

    def has_vertex(self, key: str) -> bool:
        return key in self._index

    def adjacency(self) -> list[list[int]]:
        if self._adj is None:
            adj: list[list[int]] = [[] for _ in self.vertices]
            for i, j in self.edges:
                adj[i].append(j)
                adj[j].append(i)
            self._adj = adj
        return self._adj

    def bfs_distances(self, source: int, cutoff: int | None = None) -> dict[int, int]:
        dist: dict[int, int] = {}
        for d, _ in enumerate(_bfs_layers(dist, source, self.adjacency().__getitem__)):
            if d == cutoff:
                break
        return dist

    def distance(self, key_a: str, key_b: str) -> int | None:
        da = self.bfs_distances(self.index_of(key_a))
        return da.get(self.index_of(key_b))


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


def _build_graph(text: dict, adjacency: Iterable[tuple], provenance: dict,
                 cosets: tuple | None = None) -> MetricGraph:
    """The graph on the keys of `text`, a map from vertex key to text key,
    with the edges {a, b} for the pairs (a, neighbours of a) of `adjacency`;
    a is a vertex, and neighbours that are not vertices are dropped.
    Vertices are sorted by text, loops dropped.  `cosets` is (group, forms)
    for a quotient-Cayley graph, forms[a] the inf-0 factor tuple of vertex
    key a; the graph keeps those of its vertices, in vertex order."""
    order = sorted(text, key=text.__getitem__)
    n = len(order)
    ids = list(range(n))   # every edge pair refers to these int objects
    index = dict(zip(order, ids))
    get = index.get
    edges: set[int] = set()   # {i, j} with i < j as i*n + j
    for a, nbrs in adjacency:
        i = index[a]
        edges.update([i * n + j if i < j else j * n + i
                      for j in map(get, nbrs) if j is not None and j != i])
    edges = sorted(edges)   # the set is freed before the pairs are built
    for k, e in enumerate(edges):   # in place, each code freed as its pair is made
        edges[k] = (ids[e // n], ids[e % n])
    if cosets is not None:
        group, forms = cosets
        cosets = group, [forms[k] for k in order]
    return MetricGraph(tuple(text[k] for k in order), tuple(edges), provenance, cosets)


def _coset_factors(tau: Sequence[int], factors: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical factor tuple of the coset g<D> of an element with these factors.

    Multiplying by D twists the factors by tau, so a coset has up to two
    inf-0 normal forms; the factor-tuple minimum of the two is the key.
    """
    return min(factors, tuple(tau[x] for x in factors))


def _renderer(group: CoxeterGraph) -> Callable[[int, Sequence[int]], str]:
    """text(power, factors): the text of `GarsideElement.render`, with no
    element built; each simple's word is spelled once, when first met."""
    gens = group.generators
    word = group.table().word

    class Words(dict):
        def __missing__(self, x):
            got = self[x] = "".join([gens[s] for s in word[x]])
            return got

    words = Words()
    return lambda p, fs: " | ".join([f"D^{p}", *map(words.__getitem__, fs)])


def coset_key(g: GarsideElement) -> str:
    return GarsideElement(g.group, 0, _coset_factors(g.group.table().tau, g.factors)).render()


# ---------------------------------------------------------------------------
# Balls and word lengths
# ---------------------------------------------------------------------------

def _box_step_generators(oracle: GeneratingSetOracle,
                         universe_len: int) -> list[GarsideElement]:
    """Every generating-set member that joins two vertices of the box.

    For g, h in the box of bound B, u = g^-1 h has len(u) <= len(g) + len(h)
    <= 2B and |inf(u)| <= sup(g) + |inf(h)| <= 3B (sup(g) <= 2B), so u lies
    in the box of bound 3B and the enumerator lists it.
    """
    return oracle.enumerate_up_to(3 * universe_len)


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
    the walk's total, which is refused past BALL_PRODUCT_LIMIT.  `clipped`
    tells whether some expanded vertex has a product outside the box, read
    or not.  `neighbours(v)` is the codes of v's products in the box: those
    kept when v was expanded, else looked up with no new id given, since a
    form with no id is no vertex.  The hot paths are closures over locals.
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
                                     [(q, c) for q, c in kept if q & 1],
                                     len(kept) < len(gens))
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
            """The codes of the products of vertex v that lie in the box, and
            whether some product leaves it."""
            i, p = divmod(v, width)
            p -= bound
            even, odd, clip = steps(p, len(forms[i]))
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
                    if e < 0 or not 0 <= pq < width:
                        clip = True
                    else:
                        out.append((e >> shift) * width + pq)
            return out, clip

        total = 0

        def count(layer):
            """Products the vertices of a layer would read, added to the total."""
            nonlocal total
            for v in layer:
                i, p = divmod(v, width)
                even, odd, _ = steps(p - bound, len(forms[i]))
                total += len(even) + len(odd)
            if total > BALL_PRODUCT_LIMIT:
                raise CapExceeded(
                    f"the walk of the box of bound {bound} would form at least "
                    f"{total} products, over the limit of {BALL_PRODUCT_LIMIT}")

        self.clipped = False
        dist = self.dist = {}
        kept_out: dict = {}   # expanded vertex -> its products in the box

        def step(v):
            out, clip = products(v, True)
            kept_out[v] = out
            self.clipped = self.clipped or clip
            return out

        def layers():
            for layer in _bfs_layers(dist, bound, step):   # code of D^0
                yield layer
                count(layer)

        def neighbours(v):
            return kept_out[v] if v in kept_out else products(v, False)[0]

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

    The vertices are the first `radius` layers of a `_BoxWalk`.  A walk that
    ends before then with a product outside the box is refused as stalled.
    The products of the unexpanded last layer are counted with the walk's
    before the edge pass reads them.
    """
    if radius < 0:
        raise UniverseTooSmall("radius must be >= 0")
    group = oracle.group
    walk = _BoxWalk(group, universe_len,
                    [_nf_key(u) for u in _box_step_generators(oracle, universe_len)]
                    if radius else [])
    for d, layer in enumerate(walk.layers()):
        if d == radius:
            break
    else:
        layer = []
        if walk.clipped and d + 1 < radius:
            raise UniverseTooSmall(
                f"ball expansion stalled at radius {d + 1} < {radius}")
    walk.count(layer)   # the last layer was never expanded; its edges look ids up only
    adjacency = ((v, walk.neighbours(v)) for v in walk.dist)

    prov = {"group": group.family, "construction": f"ball[{oracle.kind}]",
            "radius": radius, "universe_len": universe_len}
    if oracle.notes:
        prov["notes"] = oracle.notes
    text = _renderer(group)
    return _build_graph({v: text(*walk.key(v)) for v in walk.dist}, adjacency, prov)


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
    gens = _box_step_generators(oracle, universe_len)
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

def _coset_keys(group: CoxeterGraph, len_bound: int) -> set[tuple[int, ...]]:
    """Canonical keys of the <D>-cosets of canonical length <= len_bound."""
    tau = group.table().tau
    return {_coset_factors(tau, fs) for ell in range(len_bound + 1)
            for fs in gd.iter_positive_factor_tuples(group, ell)}


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
    t^(k-1)(d(x_1)), d(y) = y^-1 D, a normal form of length k by the
    boundary lemma of `quotient_cayley_graph` (no x_i is 1 or D, so no
    factor is D or 1).  Then u^-1 t^e(v) = c_u t^(k+e)(v) D^-k, and the
    distance is the least canonical length of the positive products c_u v
    and c_u t(v).
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
    tau, comp = memo.tab.tau, memo.tab.left_comp   # d(y) = t(comp[y])
    sources: dict[int, int] = {}   # a -> memo id of c_u
    dist: dict[tuple[int, int], int] = {}
    for a, b in pairs:
        if (a, b) in dist:
            continue
        c = sources.get(a)
        if c is None:
            c = sources[a] = memo.id_of(tuple(
                comp[x] if i % 2 else tau[comp[x]]
                for i, x in enumerate(reversed(forms[a]))))
        v = forms[b]
        dist[a, b] = min(len(memo.chain(c, 0, v)[1]),
                         len(memo.chain(c, 0, [tau[x] for x in v])[1]))
    return dist


def quotient_cayley_graph(group: CoxeterGraph, len_bound: int) -> MetricGraph:
    """Materialized Cay(A)/<D> truncation: cosets of canonical length <= bound,
    edges between cosets differing by one nontrivial simple.

    Works on the ids of a `_ProductRows` table to length L = len_bound; a
    coset's id is the least id of its two inf-0 forms a and t(a), which is
    its canonical key.  Keys step by positive simples (see the module
    docstring), and a key of length L only by the simples x that its last
    factor x_L absorbs.  Boundary lemma: let a = x_1..x_L be left-weighted
    and x simple.  Then a^-1 D^L = d(x_L) t(d(x_(L-1))) .. is left-weighted,
    with d(y) = y^-1 D the complement and t the twist (Charney 1992), so a
    simple x is a prefix of a^-1 D^L exactly when it is a prefix of d(x_L),
    that is when x_L x is simple.  Hence:
    - if x_L x is simple, a x = x_1..x_(L-1) (x_L x) has sup <= L and stays
      in the box; it is read from the row of the prefix at x_L x;
    - otherwise a x has sup L+1, so it leaves the box unless its inf is 1,
      a x = D r with r of length L.  Then r d(x) = D^-1 a D = t(a), of the
      coset of a, and since r d(x) has sup L the last factor of r absorbs
      d(x) (and the key t(r) the step t(d(x))): the edge is found from the
      other end.
    """
    rows = _ProductRows(group, len_bound)
    tab, n, row = rows.tab, rows.n, rows.row
    canon = [min(i, t) for i, t in enumerate(rows.tau)]   # id -> its coset's key
    keys = [i for i, c in enumerate(canon) if i == c]
    absorbed: dict[int, list[int]] = {}   # last factor y -> y x for the x it absorbs

    def neighbours(i):
        if i < rows.below:
            return [canon[v >> 1] for v in row[i * n + 1:i * n + n - 1]]
        if not i:   # L = 0
            return ()
        y = rows.forms[i][-1]
        if y not in absorbed:
            absorbed[y] = [tab.mult(y, x) for x in range(1, n - 1)
                           if tab.length[tab.mult(y, x)] == tab.length[y] + tab.length[x]]
        base = rows.prefix[i] * n
        return [canon[row[base + c] >> 1] for c in absorbed[y]]

    text = _renderer(group)
    prov = {"group": group.family, "construction": "quotient-cayley",
            "len_bound": len_bound}
    return _build_graph({i: text(0, rows.forms[i]) for i in keys},
                        ((i, neighbours(i)) for i in keys), prov, (group, rows.forms))


def build_cal_graph(group: CoxeterGraph, len_bound: int,
                    abs_sup_bound: int | None = None,
                    witness_bound: int | None = None) -> MetricGraph:
    """Additional-length graph truncation: <D>-cosets with simple-or-absorbable
    edges.  Absorbable steps come from the bounded census, so missing edges
    only make distances larger (a lower approximation of the true graph).

    Only the canonical key of each coset is expanded.  The step set is
    tau-closed (tau preserves inf and sup, so it maps the simples, their
    inverses and the absorbable census onto themselves), and the other
    inf-0 form t(a) of a coset steps by u to the coset that a reaches by
    t(u).
    """
    abs_bound = len_bound if abs_sup_bound is None else abs_sup_bound
    # The nontrivial simples and their inverses; the D^{+-1} steps listed
    # with them never join two distinct cosets.
    steps = {_nf_key(el) for el in _simples_oracle(group).enumerate_up_to(1)}
    steps.update(_nf_key(el)
                 for el in ab.enumerate_absorbable(group, abs_bound, witness_bound))
    tab = group.table()
    keys = _coset_keys(group, len_bound)
    adjacency = ((fs, [_coset_factors(tab.tau, _key_product(tab, (0, fs), u)[1])
                       for u in steps]) for fs in keys)
    prov = {"group": group.family, "construction": "additional-length",
            "len_bound": len_bound, "abs_sup_bound": abs_bound,
            "notes": "absorbable edges from bounded census (lower approximation)"}
    text = _renderer(group)
    return _build_graph({k: text(0, k) for k in keys}, adjacency, prov)


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
    normal-form keys (module docstring).  The candidates are counted first,
    and more than CPARAB_CANDIDATE_LIMIT are refused.
    """
    group = p0.group
    tab = group.table()
    subsets = pb.proper_irreducible_subsets(group)
    size = len(subsets) * sum(gd.count_positive_nf(group, ell)
                              for ell in range(conj_len + 1))
    if size > CPARAB_CANDIDATE_LIMIT:
        raise CapExceeded(
            f"C_parab would form {size} candidate subgroups for conj-len "
            f"{conj_len}, over the limit of {CPARAB_CANDIDATE_LIMIT}")
    conjugators = [(_nf_key(gd.invert(GarsideElement(group, 0, fs))), (0, fs))
                   for ell in range(conj_len + 1)
                   for fs in gd.iter_positive_factor_tuples(group, ell)]
    ids = {_nf_key(p0.omega): 0}   # Omega_P -> vertex id
    for labels in subsets:
        omega_t = _nf_key(gd.omega_of(group, labels).element)
        for inv, g in conjugators:
            ids.setdefault(_key_product(tab, _key_product(tab, inv, omega_t), g), len(ids))
    omegas = list(ids)

    def commute(a, b):
        return _key_product(tab, omegas[a], omegas[b]) == \
            _key_product(tab, omegas[b], omegas[a])

    rows: dict[int, list[int]] = {}   # expanded vertex -> its neighbours

    def neighbours(a):
        row = rows[a] = [b for b in range(len(omegas)) if b != a and commute(a, b)]
        return row

    kept: dict[int, int] = {}
    for d, _ in enumerate(_bfs_layers(kept, 0, neighbours)):
        if d == hops:
            break
    # pairs with an expanded end are in its row
    last = [a for a in kept if a not in rows]
    adjacency = itertools.chain(
        rows.items(),
        ((a, [b for b in last[k + 1:] if commute(a, b)]) for k, a in enumerate(last)))
    prov = {"group": group.family, "construction": "cparab",
            "p0": p0.key(), "conj_len": conj_len, "hops": hops}
    text = _renderer(group)
    return _build_graph({a: text(*omegas[a]) for a in kept}, adjacency, prov)


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


@dataclasses.dataclass(frozen=True)
class ImageDiameterReport:
    diameter: int | None  # None: some pair unreachable within the truncation
    vertex_count: int
    conj_len: int

    def render(self) -> str:
        d = "unreachable-within-truncation" if self.diameter is None else str(self.diameter)
        return f"diameter<= {d} over {self.vertex_count} projected vertices " \
               f"(conj_len {self.conj_len})"


def cparab_image_diameter(triangle: ab.FatTriangle, conj_len: int) -> ImageDiameterReport:
    """Upper bound for the diameter of the triangle's parabolic projection.

    Projection: every triangle vertex v maps to the subgroups v A_T v^-1 over
    proper irreducible standard T (a <D>-coset invariant family).  The
    diameter is measured inside a conj_len truncation of the parabolic graph,
    so it is an upper bound carrying its truncation parameters.
    """
    group = triangle.group
    projected: dict[str, ParabolicSubgroup] = {}
    vertices = set()
    for side in (triangle.side_x, triangle.side_top, triangle.side_xy):
        vertices.update(side)
    for v in vertices:
        vinv = gd.invert(v)
        for labels in pb.proper_irreducible_subsets(group):
            sub = pb.parabolic_from_conjugate(vinv, labels)  # v A_T v^-1
            projected.setdefault(sub.key(), sub)
    projs = list(projected.values())
    if len(projs) <= 1:
        return ImageDiameterReport(0, len(projs), conj_len)
    base = projs[0]
    graph = build_cparab_neighborhood(base, conj_len, hops=2 * conj_len + 4)
    if not all(graph.has_vertex(p.key()) for p in projs):
        return ImageDiameterReport(None, len(projs), conj_len)
    ids = [graph.index_of(p.key()) for p in projs]
    pairs = list(itertools.combinations(ids, 2))
    dist, _ = _pair_distances(graph.adjacency(), pairs)
    if len(dist) < len(pairs):
        return ImageDiameterReport(None, len(projs), conj_len)
    return ImageDiameterReport(max(dist.values()), len(projs), conj_len)


# ---------------------------------------------------------------------------
# Hyperbolicity estimate
# ---------------------------------------------------------------------------

def _quadruples(n: int, sample: int, seed: int) -> Iterable[Sequence[int]]:
    """The 4-tuples of vertices `estimate_delta` reads, each sorted: every
    4-subset when `sample` reaches C(n, 4), else `sample` draws of four
    distinct vertices, which may repeat."""
    if sample >= math.comb(n, 4):
        return itertools.combinations(range(n), 4)
    rng = _random.Random(seed)
    return (sorted(rng.sample(range(n), 4)) for _ in range(sample))


def delta_quadruples(n: int, sample: int, seed: int = 0) -> tuple[int, int]:
    """(distinct 4-subsets `estimate_delta` examines, C(n, 4)) for n
    vertices; the two are equal exactly when every 4-subset is examined."""
    total = math.comb(n, 4)
    if sample >= total:
        return total, total
    return len({tuple(q) for q in _quadruples(n, sample, seed)}), total


def estimate_delta(graph: MetricGraph, sample: int, seed: int = 0) -> Fraction:
    """Four-point-condition defect, maximized over sampled 4-tuples.

    Exact when `sample` is at least the number of 4-subsets.  The sampler is
    seeded and recorded by callers in provenance.  The 4-tuples are drawn
    twice from the same seed: once to collect the pairs they need, and once
    to read their distances.  A disconnected graph is refused.

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
        return Fraction(0)
    quads_total = math.comb(n, 4)
    exhaustive = sample >= quads_total
    # each 4-tuple sorted, so every pair (i, j) has i < j
    quads = functools.partial(_quadruples, n, sample, seed)

    if exhaustive:
        needed = itertools.combinations(range(n), 2)
    else:
        needed = (p for a, b, c, d in quads()
                  for p in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
    if graph.cosets is not None and 6 * min(sample, quads_total) <= n:
        dist = _coset_pair_distances(*graph.cosets, needed)
    else:
        # Vertex 0 is the first source, so the pass also tells connectedness.
        dist, connected = _pair_distances(graph.adjacency(),
                                          itertools.chain([(0, 0)], needed))
        if not connected:
            raise DisconnectedInput("graph is disconnected")

    best = 0   # twice the four-point defect
    for a, b, c, d in quads():
        sums = sorted((dist[a, b] + dist[c, d], dist[a, c] + dist[b, d],
                       dist[a, d] + dist[b, c]))
        best = max(best, sums[2] - sums[1])
    return Fraction(best, 2)


# ---------------------------------------------------------------------------
# Quasi-isometry constants of the cocompact-action lemma
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class QiConstants:
    m1: int
    m2: int
    m3: int
    m1_exact: bool


def qi_constants(graph: MetricGraph, orbit_reps: Sequence[str],
                 edge_reps: Sequence[tuple[str, str]],
                 mover_bounds: dict[str, int] | None = None,
                 edge_mover_bounds: dict[tuple[str, str], tuple[int, int]] | None = None
                 ) -> QiConstants:
    """Constants (M1, M2, M3) of the cocompact-action argument.

    M1 is the diameter of the representative set inside the supplied graph
    truncation; a distance-2 value is certified exact because missing edges
    are decided by the (exact) adjacency predicate used to build the graph.
    M2 and M3 take the supplied word-length bounds for the moving elements
    g_a (per vertex representative) and alpha_i, beta_i (per edge
    representative); identity movers cost 0.
    """
    for key in orbit_reps:
        if not graph.has_vertex(key):
            raise RepresentativeMissing(f"orbit representative {key!r} missing")
    for a, b in edge_reps:
        if not graph.has_vertex(a) or not graph.has_vertex(b):
            raise RepresentativeMissing("edge representative endpoint missing")
    ids = [graph.index_of(key) for key in orbit_reps]
    pairs = set(itertools.product(ids, ids))
    dist, _ = _pair_distances(graph.adjacency(), pairs)
    if len(dist) < len(pairs):
        raise RepresentativeMissing(
            "representatives are disconnected inside the truncation")
    m1 = max(dist.values(), default=0)
    exact = m1 <= 2   # past 2, only an upper bound within this truncation
    m2 = max(mover_bounds.values(), default=0) if mover_bounds else 0
    m3 = 0
    if edge_mover_bounds:
        for pa, pbnd in edge_mover_bounds.values():
            m3 = max(m3, pa, pbnd)
    return QiConstants(m1, m2, m3, exact)


@dataclasses.dataclass(frozen=True)
class LipschitzReport:
    samples: int
    failures: int
    m1: int

    @property
    def all_pass(self) -> bool:
        return self.failures == 0


def _standard_paths(group: CoxeterGraph) -> dict[tuple[str, str], list[ParabolicSubgroup]]:
    """Paths of length <= 2 between standard parabolics, via commute edges."""
    stds = [pb.standard_parabolic(group, labels)
            for labels in pb.proper_irreducible_subsets(group)]
    paths: dict[tuple[str, str], list[ParabolicSubgroup]] = {}
    for a in stds:
        for b in stds:
            if a.key() == b.key():
                paths[(a.key(), b.key())] = [a]
            elif pb.omega_commute_edge(a, b):
                paths[(a.key(), b.key())] = [a, b]
    for a in stds:
        for b in stds:
            if (a.key(), b.key()) in paths:
                continue
            for mid in stds:
                if (a.key(), mid.key()) in paths and len(paths[(a.key(), mid.key())]) == 2 \
                        and (mid.key(), b.key()) in paths and len(paths[(mid.key(), b.key())]) == 2:
                    paths[(a.key(), b.key())] = [a, mid, b]
                    break
    return paths


def lipschitz_path_check(group: CoxeterGraph, base: ParabolicSubgroup,
                         samples: int, seed: int = 0,
                         max_steps: int = 3) -> LipschitzReport:
    """Certify d_X(psi(g), psi(h)) <= 2 M1 d_T(g, h) on sampled pairs.

    h = g t_1 .. t_j with each t_i in the normalizer of a random standard
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
        j = rng.randint(1, max_steps)
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

