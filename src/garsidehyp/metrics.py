"""
Generating-set oracles and truncated metric graphs.

The infinite generating sets are represented by membership predicates plus
bounded enumerators.  Throughout, the truncation universe for group elements
is the box |inf| <= bound and canonical length <= bound; enumerators list
every member inside the box (central powers D^2k appear through their normal
forms D^2k with zero factors).  Graph distances computed inside a truncation
are upper bounds for the true distances; results carry their truncation
parameters and an exact/upper tag, and nothing is reported as exact without
a certificate.

Certificates used for word lengths: distance 0 and 1 are decided by the
membership predicate alone; distance 2 is exact when the predicate rejects
the target (no single generator reaches it); larger distances are exact only
for step-local oracles (each generator changes the box coordinates by at
most one, e.g. the simple generators) when the breadth-first search never
touched the universe boundary.

Ball rule (`bounded_ball_graph`, `word_length_bound`): every vertex of a ball
lies in the box of bound B, but the generator used for a step need not; a
step from one box vertex to another may use any member of the generating
set.  `_box_step_generators` lists every such member.  The target of
`word_length_bound` ends the search wherever it lies; every vertex the search
expands stays in the box.

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
A form of length L gets its products the same way on demand, and a
product longer than L is off the table.

`quotient_cayley_graph` steps by positive simples only: the edge
{C, C x^-1} is the edge {C', C' x} with C' = C x^-1, seen from its other
end.  Keys of the maximal length L step only by the simples x that their
last factor x_L absorbs (x_L x simple); the boundary lemma at
`quotient_cayley_graph` shows that every other product leaves the box or
repeats an edge found from its other end.

`bounded_ball_graph` needs the products of the few forms its ball visits,
often by a few simples only, so it forms them with the same recurrence in a
`_ProductMemo`, which keeps only the products of prefixes: its cost follows
the ball, where a table to length L would cost |W|^L whatever the ball.  It
forms each step of at most one factor there after the D-twist
(D^r a D^q y = D^(r+q) t^q(a) y), forms longer steps with
`_key_product`, and forms no product that one of three box inequalities
puts outside the box.  For elements a and u, using that inf is
superadditive, sup subadditive and inf(a^-1) = -sup a:
- len(a u) >= len u - len a: u = a^-1 (a u), and len = sup - inf is
  subadditive with len(a^-1) = len a;
- inf(a u) >= inf a + inf u: superadditivity of inf;
- inf(a u) <= min(sup a + inf u, inf a + sup u): inf u >= inf(a^-1) +
  inf(a u) and inf a >= inf(a u) + inf(u^-1).
A product so skipped lies outside the box, so it counts as clipped.  Each
expanded vertex keeps its products in the box for the edge pass.

Distances among chosen vertices (the pairs of sampled 4-tuples, the
representatives of M1, a projected triangle) come from one bit-parallel
breadth-first pass, `_pair_distances`: a vertex's mask has bit k set once
source k has reached it, and each layer ORs every vertex's mask with its
neighbours' masks, so all sources advance together and only the wanted
pairs are read.  Sources run in batches of `SOURCE_BATCH`, which bounds the
masks' memory whatever the number of pairs.  `_bfs_layers` remains the one
breadth-first search for walks that discover their vertices.

X_NP enumeration uses Delta^2 parity: D^2 is central, so D^p x commutes
with Omega_T exactly when D^(p mod 2) x does.  Membership is tested twice
per positive factor tuple and every power of a passing parity is emitted.
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
        self.length = length
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
        self._renorm: dict[int, list[tuple[int, int]]] = {}
        row = self.row = array("l")
        if not below:
            return
        row.extend(2 * (first[0] + slot[0][x]) for x in range(n))
        row[0], row[n - 1] = 0, 1   # the identity, and D
        for i in range(1, below):
            base = prefix[i] * n
            for p, q in self._renorm_row(forms[i][-1]):
                v = row[base + p]
                row.append(self._append(v, q) if q else v)

    def _renorm_row(self, y: int) -> list[tuple[int, int]]:
        """renorm(y, x) for every simple x: y x = p q with (p, q) left-weighted."""
        got = self._renorm.get(y)
        if got is None:
            renorm = self.tab.renorm
            got = self._renorm[y] = [renorm(y, x) for x in range(self.n)]
        return got

    def _append(self, v: int, q: int) -> int | None:
        """The entry of (D^d c) q for the entry v = 2 id(c) + d of a product
        a' p of the recurrence and its q, or None when the product is longer
        than L; (c, q) is left-weighted (module docstring)."""
        t = v >> 1
        if t >= self.below:
            return None
        return 2 * (self.first[t] + self.slot[t][q]) + (v & 1)

    def id_of(self, fs: Sequence[int]) -> int | None:
        """Id of a normal form, or None when it is longer than L."""
        if len(fs) > self.length:
            return None
        i = 0
        for y in fs:
            i = self.first[i] + self.slot[i][y]
        return i

    def product(self, i: int, x: int) -> int | None:
        """Entry of forms[i] x for a simple x other than 1 and D (see the
        class docstring); None when the product is longer than L."""
        if i < self.below:
            return self.row[i * self.n + x]
        if not i:   # L = 0
            return None
        p, q = self._renorm_row(self.forms[i][-1])[x]
        v = self.row[self.prefix[i] * self.n + p]
        return self._append(v, q) if q else v


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
        self._ids = {(): 0}
        self._memo: dict[int, int] = {}   # i*n + x -> product(i, x)
        self._renorm: dict[int, tuple[int, int]] = {}   # y*n + x -> renorm(y, x)

    def id_of(self, fs: tuple[int, ...]) -> int:
        i = self._ids.get(fs)
        if i is None:
            p = self.id_of(fs[:-1])
            i = self._ids[fs] = len(self.forms)
            self.forms.append(fs)
            self.prefix.append(p)
        return i

    def times(self, i: int, x: int) -> tuple[int, tuple[int, ...]]:
        n = self.n
        if not i:
            return (0, ()) if not x else (1, ()) if x == n - 1 else (0, (x,))
        k = self.forms[i][-1] * n + x
        pq = self._renorm.get(k)
        if pq is None:
            if len(self._renorm) >= RENORM_CACHE:
                self._renorm.clear()
            pq = self._renorm[k] = self.tab.renorm(k // n, x)
        p, q = pq
        v = self.product(self.prefix[i], p)
        c = self.forms[v >> 1]
        return v & 1, (c + (q,) if q else c)   # c q is normal (module docstring)

    def product(self, i: int, x: int) -> int:
        v = self._memo.get(i * self.n + x)
        if v is None:
            d, c = self.times(i, x)
            v = self._memo[i * self.n + x] = 2 * self.id_of(c) + d
        return v

    def twist(self, i: int) -> int:
        """Id of the tau-twisted form: forms[i] D = D t(forms[i])."""
        return self.product(i, self.n - 1) >> 1


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
    step_local: bool
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

    Enumerates each subgroup's own normal forms D_T^p x_1..x_k with
    |p| <= 2*bound + 2 and k <= 2*bound + 2 and filters by the ambient box;
    tests validate this inner margin against direct enumeration.  The walk
    is counted first and refused above XNP_BOX_LIMIT.
    """
    inner = 2 * bound + 2
    subs = [group.subgraph(group.gen_indices(labels)) for labels in subsets]
    if any(sub.rank == group.rank for sub in subs):
        raise GroupMismatch("proper subsets only")
    size = (2 * inner + 1) * sum(gd.count_positive_nf(sub, ell)
                                 for sub in subs for ell in range(inner + 1))
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
                     for el in gd.iter_positive_elements(sub, inner)]
        delta_t = gd.delta_of(group, labels)
        for p in range(-inner, inner + 1):
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

    return GeneratingSetOracle(group, KIND_XP, membership, enumerate_up_to,
                               step_local=False)


def _xnp_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    subsets = pb.proper_irreducible_subsets(group)
    omegas = [gd.omega_of(group, labels).element for labels in subsets]

    def membership(g: GarsideElement) -> bool:
        return any(gd.commute(g, om) for om in omegas)

    def enumerate_up_to(bound: int) -> list[GarsideElement]:
        """The nonidentity members of the box, by Delta^2 parity (module
        docstring): D^p x is a member exactly when D^(p mod 2) x is."""
        size = (2 * bound + 1) * sum(gd.count_positive_nf(group, ell)
                                     for ell in range(bound + 1))
        if size > XNP_BOX_LIMIT:
            raise CapExceeded(
                f"XNP enumeration would filter the box of bound {bound}, "
                f"{size} elements, over the limit of {XNP_BOX_LIMIT}")
        out = []
        for ell in range(bound + 1):
            for fs in gd.iter_positive_factor_tuples(group, ell):
                for parity in (0, 1):
                    if membership(gd.GarsideElement(group, parity, fs)):
                        out.extend(gd.GarsideElement(group, p, fs)
                                   for p in range(-bound, bound + 1)
                                   if p % 2 == parity and (p or fs))
        out.sort(key=lambda e: e.sort_key())
        return out

    return GeneratingSetOracle(group, KIND_XNP, membership, enumerate_up_to,
                               step_local=False)


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
                               step_local=False, notes=notes)


def _simples_oracle(group: CoxeterGraph) -> GeneratingSetOracle:
    def membership(g: GarsideElement) -> bool:
        ell = g.canonical_length
        if g.power == 0 and ell == 1:
            return True
        if g.power == 1 and ell == 0:
            return True
        if g.power == -1 and ell <= 1:
            return True
        return False

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

    return GeneratingSetOracle(group, KIND_SIMPLES, membership, enumerate_up_to,
                               step_local=True)


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

    return GeneratingSetOracle(group, KIND_FINITE, membership, enumerate_up_to,
                               step_local=False)


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

    def __post_init__(self):
        n = len(self.vertices)
        self._index = {k: i for i, k in enumerate(self.vertices)}
        assert len(self._index) == n, "duplicate vertex keys"
        for i, j in self.edges:
            assert 0 <= i < j < n, "edge endpoints must be valid and distinct"
        assert all(e < f for e, f in itertools.pairwise(self.edges)), \
            "edges must be strictly increasing"
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
    each layer ORs every vertex's mask with its neighbours' masks, and a
    batch ends when no mask changes.
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
            for b, bits in want.items():
                fresh = (masks[b] & ~old[b]) & bits
                while fresh:
                    low = fresh & -fresh
                    dist[batch[low.bit_length() - 1], b] = d
                    fresh ^= low
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
    Vertices are sorted by text, loops dropped."""
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
    return MetricGraph(tuple(text[k] for k in order), tuple(edges), provenance)


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


def bounded_ball_graph(oracle: GeneratingSetOracle, radius: int,
                       universe_len: int) -> MetricGraph:
    """Ball of the word metric d_X around the identity, inside the universe.

    Vertices are the elements reachable within `radius` steps without leaving
    the box; edges join every vertex pair differing by a generating-set
    member, whether or not that member lies in the box (see the module
    docstring).  Distances in the result are upper bounds for d_X.

    A step of at most one factor is formed by a `_ProductMemo` after the
    D-twist, a longer one by `_key_product`, and a step whose product the
    box inequalities (module docstring) put outside the box is not formed at
    all.  Each product outside the box, formed or not, counts as clipped.
    """
    if radius < 0:
        raise UniverseTooSmall("radius must be >= 0")
    group = oracle.group
    tab = group.table()
    bound = universe_len
    gens = [_nf_key(u) for u in _box_step_generators(oracle, bound)] if radius else []
    short = [(q, us[0] if us else 0) for q, us in gens if len(us) <= 1]
    long = [u for u in gens if len(u[1]) > 1]
    rows = _ProductMemo(group)
    box_steps: dict = {}   # (inf, length) of a vertex -> the steps that may stay in the box

    def steps(p, ell):
        if (p, ell) not in box_steps:
            def fits(q, m):   # the box inequalities for a step of inf q and length m
                return m - ell <= bound and p + q <= bound and p + q + min(ell, m) >= -bound
            kept_short = [(q, y) for q, y in short if fits(q, 1 if y else 0)]
            kept_long = [u for u in long if fits(u[0], len(u[1]))]
            box_steps[p, ell] = (kept_short, kept_long,
                                 len(kept_short) + len(kept_long) < len(gens))
        return box_steps[p, ell]

    def products(key):
        """The products of `key` by every step that lie in the box, and
        whether some product leaves it."""
        p, fs = key
        kept_short, kept_long, clip = steps(p, len(fs))
        i = rows.id_of(fs)
        ids = (i, rows.twist(i))   # the form, and the form after an odd D-power
        out = []
        for q, y in kept_short:
            j = ids[q & 1]
            d, c = rows.times(j, y)
            if abs(p + q + d) > bound or len(c) > bound:
                clip = True
            else:
                out.append((p + q + d, c))
        for u in kept_long:
            h = _key_product(tab, key, u)
            if _in_box(h, bound):
                out.append(h)
            else:
                clip = True
        return out, clip

    clipped = False
    kept: dict = {}   # expanded vertex -> its products in the box

    def step(key):
        nonlocal clipped
        out, clip = products(key)
        kept[key] = out
        clipped = clipped or clip
        return out

    dist: dict = {}
    for d, _ in enumerate(_bfs_layers(dist, (0, ()), step)):
        if d == radius:
            break
    else:
        if clipped and d + 1 < radius:
            raise UniverseTooSmall(
                f"ball expansion stalled at radius {d + 1} < {radius}")

    # the last layer was never expanded
    adjacency = ((k, kept[k] if k in kept else products(k)[0]) for k in dist)

    prov = {"group": group.family, "construction": f"ball[{oracle.kind}]",
            "radius": radius, "universe_len": universe_len}
    if oracle.notes:
        prov["notes"] = oracle.notes
    text = _renderer(group)
    return _build_graph({k: text(*k) for k in dist}, adjacency, prov)


@dataclasses.dataclass(frozen=True)
class WordLengthResult:
    kind: str  # "exact" | "upper" | "unknown"
    value: int | None
    universe_len: int

    def render(self) -> str:
        if self.value is None:
            return f"unknown (universe {self.universe_len})"
        return f"{self.kind} {self.value}"


def word_length_bound(g: GarsideElement, oracle: GeneratingSetOracle,
                      universe_len: int) -> WordLengthResult:
    """BFS word length of g in the oracle's metric, within the universe."""
    if g.is_identity:
        return WordLengthResult("exact", 0, universe_len)
    if oracle.membership(g):
        return WordLengthResult("exact", 1, universe_len)
    tab = oracle.group.table()
    gens = [_nf_key(u) for u in _box_step_generators(oracle, universe_len)]
    target = _nf_key(g)
    clipped = found = False

    def step(key):
        # Once the target is generated no further product is formed, so
        # `clipped` keeps its value from that moment.
        nonlocal clipped, found
        if found:
            return ()
        out = []
        for u in gens:
            k = _key_product(tab, key, u)
            if k == target:
                found = True
                return (k,)
            if _in_box(k, universe_len):
                out.append(k)
            else:
                clipped = True
        return out

    for d, _ in enumerate(_bfs_layers({}, (0, ()), step)):
        if found:
            exact = d <= 2 or (oracle.step_local and not clipped)
            return WordLengthResult("exact" if exact else "upper", d, universe_len)
    return WordLengthResult("unknown", None, universe_len)


# ---------------------------------------------------------------------------
# Quotient Cayley graph Cay(A)/<D> and the additional-length graph
# ---------------------------------------------------------------------------

class QuotientCayleyUniverse:
    """Lazy <D>-coset graph, with simple-step edges.

    Cosets are keyed by their canonical inf-0 factor tuple (the tau-minimum
    of the two inf-0 normal forms).  The D step never connects distinct
    cosets, so right multiplication by nontrivial simples and their inverses
    exhausts the edge relation; the step set is tau-closed, which makes
    neighbor generation from the canonical representative complete.  One
    step changes the canonical length by at most one, so breadth-first balls
    that never touch the length bound are exact.
    """

    def __init__(self, group: CoxeterGraph, len_bound: int):
        self.group = group
        self.len_bound = len_bound
        tab = group.table()
        self.tab = tab
        # Steps as normal-form keys: a simple x is (0, (x,)), its inverse
        # D^-1 lift(w0 x^-1) is (-1, (c,)).
        simples = range(1, tab.w0)
        self._steps = [(0, (x,)) for x in simples] + \
            [(-1, (tab.left_comp[x],)) for x in simples]

    def key_of(self, g: GarsideElement) -> tuple[int, ...]:
        return _coset_factors(self.tab.tau, g.factors)

    def neighbor_keys(self, fs: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Keys of the cosets one step from fs."""
        tab = self.tab
        tau = tab.tau
        out = []
        seen = {fs}
        for u in self._steps:
            _, res = _key_product(tab, (0, fs), u)
            if len(res) > self.len_bound:
                continue
            k = _coset_factors(tau, res)
            if k not in seen:
                seen.add(k)
                out.append(k)
        return out

    def bfs(self, source: GarsideElement, cutoff: int | None = None,
            targets: set[tuple[int, ...]] | None = None) -> dict[tuple[int, ...], int]:
        """Distances from a coset to everything reachable, by canonical key.

        Stops early once all target keys are resolved or the cutoff is hit.
        """
        if source.canonical_length > self.len_bound:
            raise UniverseTooSmall("source outside the universe")
        remaining = None if targets is None else set(targets)
        dist: dict[tuple[int, ...], int] = {}
        for d, layer in enumerate(_bfs_layers(dist, self.key_of(source),
                                              self.neighbor_keys)):
            if remaining is not None:
                remaining.difference_update(layer)
                if not remaining:
                    break
            if d == cutoff:
                break
        return dist


def _coset_keys(group: CoxeterGraph, len_bound: int) -> set[tuple[int, ...]]:
    """Canonical keys of the <D>-cosets of canonical length <= len_bound."""
    tau = group.table().tau
    return {_coset_factors(tau, fs) for ell in range(len_bound + 1)
            for fs in gd.iter_positive_factor_tuples(group, ell)}


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
                        ((i, neighbours(i)) for i in keys), prov)


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
    """
    group = p0.group
    verts: dict[str, ParabolicSubgroup] = {p0.key(): p0}
    conjugators = [gd.identity_element(group), *gd.iter_positive_elements(group, conj_len)]
    for labels in pb.proper_irreducible_subsets(group):
        for g in conjugators:
            cand = pb.parabolic_from_conjugate(g, labels)
            verts.setdefault(cand.key(), cand)
    commute_memo: dict[tuple[str, str], bool] = {}

    def adjacent(ka: str, kb: str) -> bool:
        if ka == kb:
            return False
        mk = (ka, kb) if ka < kb else (kb, ka)
        got = commute_memo.get(mk)
        if got is None:
            got = commute_memo[mk] = pb.omega_commute_edge(verts[ka], verts[kb])
        return got

    kept: dict[str, int] = {}
    layers = _bfs_layers(kept, p0.key(),
                         lambda ka: [kb for kb in verts if adjacent(ka, kb)])
    for d, _ in enumerate(layers):
        if d == hops:
            break
    kept_keys = list(kept)
    adjacency = ((a, [b for b in kept_keys[i + 1:] if adjacent(a, b)])
                 for i, a in enumerate(kept_keys))
    prov = {"group": group.family, "construction": "cparab",
            "p0": p0.key(), "conj_len": conj_len, "hops": hops}
    return _build_graph({k: k for k in kept_keys}, adjacency, prov)


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
    measured: int | None

    @property
    def ok(self) -> bool:
        return self.measured == self.expected


@dataclasses.dataclass(frozen=True)
class FatTriangleReport:
    length: int
    pair_checks: tuple[TrianglePairCheck, ...]
    corner_checks: tuple[TrianglePairCheck, ...]
    all_pass: bool


def fat_triangle_distances(triangle: ab.FatTriangle, universe) -> FatTriangleReport:
    """Verify the cross-side distance law max(d1, d2) and the corner law.

    `universe` is a QuotientCayleyUniverse; its bound must cover the
    triangle with margin 2.
    """
    if isinstance(universe, MetricGraph):
        raise TypeError("pass a QuotientCayleyUniverse for fat-triangle checks")
    L = triangle.length
    sides = {
        "1-x": triangle.side_x,
        "x-xy": triangle.side_top,
        "1-xy": triangle.side_xy,
    }
    for verts in sides.values():
        for v in verts:
            if v.canonical_length + 2 > universe.len_bound:
                raise UniverseTooSmall("universe must cover the triangle plus margin 2")
    # distances from the shared corner along a side are index distances
    shared = {
        ("1-x", "x-xy"): (lambda i: L - i, lambda i: i),
        ("x-xy", "1-xy"): (lambda i: L - i, lambda i: L - i),
        ("1-x", "1-xy"): (lambda i: i, lambda i: i),
    }
    all_keys = {universe.key_of(v)
                for verts in sides.values() for v in verts}
    dist_cache: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    cap = L + 1  # every claim expects <= L; one step of margin detects excess

    def coset_distance(u: GarsideElement, v: GarsideElement) -> int | None:
        ku, kv = universe.key_of(u), universe.key_of(v)
        if ku in dist_cache:
            return dist_cache[ku].get(kv)
        if kv in dist_cache:
            return dist_cache[kv].get(ku)
        dist = universe.bfs(u, cutoff=cap, targets=all_keys)
        dist_cache[ku] = dist
        return dist.get(kv)

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


def estimate_delta(graph: MetricGraph, sample: int, seed: int = 0,
                   per_component: bool = False) -> Fraction:
    """Four-point-condition defect, maximized over sampled 4-tuples.

    Exact when `sample` is at least the number of 4-subsets.  The sampler is
    seeded and recorded by callers in provenance.  The 4-tuples are drawn
    twice from the same seed: once to collect the pairs they need, whose
    distances come from one `_pair_distances` pass, and once to read them.
    A 4-tuple with an unreached pair (per component) has defect 0.
    """
    n = len(graph.vertices)
    if n == 0:
        return Fraction(0)
    exhaustive = sample >= math.comb(n, 4)
    # each 4-tuple sorted, so every pair (i, j) has i < j
    quads = functools.partial(_quadruples, n, sample, seed)

    if exhaustive:
        needed = itertools.combinations(range(n), 2)
    else:
        needed = (p for a, b, c, d in quads()
                  for p in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))
    # Vertex 0 is the first source, so the pass also tells connectedness.
    dist, connected = _pair_distances(graph.adjacency(),
                                      itertools.chain([(0, 0)], needed))
    if not connected and not per_component:
        raise DisconnectedInput("graph is disconnected")

    best = 0   # twice the four-point defect
    for a, b, c, d in quads():
        try:
            sums = sorted((dist[a, b] + dist[c, d], dist[a, c] + dist[b, d],
                           dist[a, d] + dist[b, c]))
        except KeyError:
            continue   # different components
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
                verts.append(_conjugate_parabolic(p, uinv))
            for p in reversed(leg1[:-1]):
                verts.append(_conjugate_parabolic(p, utinv))
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


def _conjugate_parabolic(p: ParabolicSubgroup, by_inv: GarsideElement) -> ParabolicSubgroup:
    """The subgroup g P g^-1 where by_inv = g^-1."""
    omega = gd.multiply(gd.multiply(gd.invert(by_inv), p.omega), by_inv)
    return ParabolicSubgroup(p.group, omega,
                             gd.multiply(p.witness_conj, by_inv), p.witness_subset)
