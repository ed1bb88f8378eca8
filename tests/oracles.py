"""Brute-force oracles used to cross-check the library.

Everything here works at the level of words over the generator alphabet and
the defining relations Pi(s,t;m) = Pi(t,s;m), with no help from the library's
element models or tables:

- `WordOracle` enumerates a finite Coxeter group as braid-move classes of
  reduced words (Tits' solution of the word problem), giving an independent
  multiplication table, lengths and descent sets.
- `positive_closure` computes all positive words equal to a given positive
  word in the Artin monoid (relations are homogeneous, so the closure is
  finite level by level).
- `greedy_nf_oracle` computes the left-greedy normal form of a positive word
  by brute-force maximal simple prefixes over the positive closure.

The reference graph builders and searches at the end are the exception:
they are the plain forms of the builders in `garsidehyp.metrics`, and of
the searches the library replaced by exact answers or by its one walk of
the box, on the library's kernel.  They form every product they need, with
`garside.multiply` or the key-level `metrics._key_product`, and never from
a product table, filter the whole box for generating-set members, test X_NP
membership and C_parab adjacency with `garside.commute` on elements, key
vertices by their rendered text and search from each delta source on its
own, and the tests require the library's builders to give the same
generators, graphs, delta values and exported bytes, and its closed forms
and its walk to agree with the searches.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction


def pi_word(s, t, m):
    """Alternating word s t s t ... of length m."""
    return tuple(s if i % 2 == 0 else t for i in range(m))


class WordOracle:
    """A finite Coxeter group built purely from words and braid moves.

    Elements are integers; element 0 is the identity.  `words[x]` is the full
    set of reduced words of x, `canon[x]` the least one, `step[x][s]` right
    multiplication by generator s.
    """

    def __init__(self, rank, matrix, max_size=250_000):
        self.rank = rank
        self.matrix = matrix
        self.moves = []
        for s in range(rank):
            for t in range(rank):
                if s != t:
                    m = matrix[s][t]
                    self.moves.append((pi_word(s, t, m), pi_word(t, s, m)))

        self.words = [frozenset({()})]
        self.canon = [()]
        self.length = [0]
        word_class = {(): 0}
        self.step = []
        frontier = [0]
        while frontier:
            steps_here = {}
            next_frontier = []
            for x in frontier:
                steps_here[x] = [None] * rank
            for x in frontier:
                for s in range(rank):
                    if any(w and w[-1] == s for w in self.words[x]):
                        # s is a right descent: strip it from a witness word.
                        wit = next(w for w in self.words[x] if w and w[-1] == s)
                        steps_here[x][s] = word_class[wit[:-1]]
                        continue
                    seed = self.canon[x] + (s,)
                    if seed in word_class:
                        steps_here[x][s] = word_class[seed]
                        continue
                    cls = self._braid_closure(seed)
                    idx = len(self.words)
                    if idx > max_size:
                        raise RuntimeError("oracle group too large")
                    self.words.append(cls)
                    self.canon.append(min(cls))
                    self.length.append(len(seed))
                    for w in cls:
                        word_class[w] = idx
                    steps_here[x][s] = idx
                    next_frontier.append(idx)
            self.step.extend(steps_here[x] for x in frontier)
            frontier = next_frontier
        self.size = len(self.words)

    def _braid_closure(self, word):
        seen = {word}
        stack = [word]
        while stack:
            w = stack.pop()
            for lhs, rhs in self.moves:
                k = len(lhs)
                for p in range(len(w) - k + 1):
                    if w[p:p + k] == lhs:
                        nw = w[:p] + rhs + w[p + k:]
                        if nw not in seen:
                            seen.add(nw)
                            stack.append(nw)
        return frozenset(seen)

    def element_of(self, word):
        x = 0
        for s in word:
            x = self.step[x][s]
        return x

    def mult(self, x, y):
        return self.element_of_from(x, self.canon[y])

    def element_of_from(self, x, word):
        for s in word:
            x = self.step[x][s]
        return x

    def right_descents(self, x):
        return {w[-1] for w in self.words[x] if w}

    def left_descents(self, x):
        return {w[0] for w in self.words[x] if w}

    def longest(self):
        return max(range(self.size), key=lambda x: self.length[x])


def positive_closure(word, moves, limit=2_000_000):
    """All positive words equal to `word` in the Artin monoid."""
    word = tuple(word)
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for lhs, rhs in moves:
            k = len(lhs)
            for p in range(len(w) - k + 1):
                if w[p:p + k] == lhs:
                    nw = w[:p] + rhs + w[p + k:]
                    if nw not in seen:
                        if len(seen) >= limit:
                            raise RuntimeError("positive closure too large")
                        seen.add(nw)
                        stack.append(nw)
    return seen


def greedy_nf_oracle(oracle: WordOracle, word):
    """Left-greedy factorization of a positive word, by brute force.

    Returns (delta_power, factors) where factors are oracle element ids and
    delta_power counts leading factors equal to the longest element.  The
    maximal simple prefix is found as the longest reduced prefix over all
    positive words equal to the input; the remainder is recursed on.
    """
    moves = oracle.moves
    w0 = oracle.longest()
    factors = []
    rest = tuple(word)
    while rest:
        best_len, best_word = 0, None
        for w in positive_closure(rest, moves):
            x = 0
            k = 0
            for s in w:
                nxt = oracle.step[x][s]
                if oracle.length[nxt] != oracle.length[x] + 1:
                    break
                x = nxt
                k += 1
            if k > best_len:
                best_len, best_word = k, w
        factors.append(oracle.element_of(best_word[:best_len]))
        rest = best_word[best_len:]
    power = 0
    while factors and factors[0] == w0:
        power += 1
        factors.pop(0)
    while factors and factors[-1] == 0:
        factors.pop()
    return power, factors


# ---------------------------------------------------------------------------
# Reference graph builders
# ---------------------------------------------------------------------------

def reference_graph(keys, key_edges):
    """(vertices, edges) on text keys: sorted vertices, index pairs i < j."""
    vertices = tuple(sorted(set(keys)))
    index = {k: i for i, k in enumerate(vertices)}
    edges = {tuple(sorted((index[a], index[b]))) for a, b in key_edges if a != b}
    return vertices, tuple(sorted(edges))


def reference_quotient_cayley(group, len_bound):
    """Cay(A)/<D> truncation, stepping from every coset by every nontrivial
    simple and by its inverse."""
    from garsidehyp import garside as gd, metrics as mt
    tab = group.table()
    # a simple x is (0, (x,)), its inverse D^-1 lift(w0 x^-1) is (-1, (c,))
    steps = [(0, (x,)) for x in range(1, tab.w0)] + \
        [(-1, (tab.left_comp[x],)) for x in range(1, tab.w0)]

    def key(fs):   # the factor-tuple minimum of the coset's two inf-0 forms
        return min(fs, tuple(tab.tau[x] for x in fs))

    keys = {()} | {key(el.factors)
                   for el in gd.iter_positive_elements(group, len_bound)}
    text = {fs: gd.GarsideElement(group, 0, fs).render() for fs in keys}
    edges = []
    for fs in keys:
        for u in steps:
            _, res = mt._key_product(tab, (0, fs), u)
            if len(res) <= len_bound:
                edges.append((text[fs], text[key(res)]))
    return reference_graph(text.values(), edges)


def reference_box_members(oracle, bound):
    """The generating-set members in the box of the given bound, sorted as
    the enumerators sort them: every nonidentity element of the box is
    tested for membership."""
    from garsidehyp import garside as gd
    group = oracle.group
    box = [gd.delta_pow(group, p) for p in range(-bound, bound + 1) if p]
    box += [gd.GarsideElement(group, p, el.factors)
            for el in gd.iter_positive_elements(group, bound)
            for p in range(-bound, bound + 1)]
    return sorted((el for el in box if oracle.membership(el)),
                  key=lambda e: e.sort_key())


def reference_xnp_members(group, bound):
    """The X_NP members of the box, sorted as the enumerators sort them:
    every positive factor tuple x of the box is tested twice, D^p x for
    p = 0 and 1, against every Omega_T with `garside.commute`, and a passing
    parity gives every power of that parity (D^2 is central)."""
    from garsidehyp import garside as gd, parabolic as pb
    omegas = [gd.omega_of(group, labels).element
              for labels in pb.proper_irreducible_subsets(group)]
    out = []
    for ell in range(bound + 1):
        for fs in gd.iter_positive_factor_tuples(group, ell):
            for parity in (0, 1):
                el = gd.GarsideElement(group, parity, fs)
                if any(gd.commute(el, om) for om in omegas):
                    out.extend(gd.GarsideElement(group, p, fs)
                               for p in range(-bound, bound + 1)
                               if p % 2 == parity and (p or fs))
    return sorted(out, key=lambda e: e.sort_key())


def reference_cparab(p0, conj_len, hops):
    """The C_parab neighbourhood on `parabolic` objects: every candidate
    a^-1 A_T a is built by `parabolic_from_conjugate` and keyed by its
    rendered Omega, and each pair is tested by `omega_commute_edge`."""
    from garsidehyp import garside as gd, parabolic as pb
    group = p0.group
    verts = {p0.key(): p0}
    conjugators = [gd.identity_element(group),
                   *gd.iter_positive_elements(group, conj_len)]
    for labels in pb.proper_irreducible_subsets(group):
        for g in conjugators:
            cand = pb.parabolic_from_conjugate(g, labels)
            verts.setdefault(cand.key(), cand)
    memo = {}

    def adjacent(a, b):
        if (a, b) not in memo:
            memo[a, b] = memo[b, a] = pb.omega_commute_edge(verts[a], verts[b])
        return memo[a, b]

    kept = {p0.key()}
    layer = [p0.key()]
    for _ in range(hops):
        nxt = []
        for a in layer:
            for b in verts:
                if b not in kept and adjacent(a, b):
                    kept.add(b)
                    nxt.append(b)
        layer = nxt
    return reference_graph(kept, [(a, b) for a, b in itertools.combinations(kept, 2)
                                  if adjacent(a, b)])


def reference_ball(oracle, radius, universe_len):
    """The word-metric ball with no product table and no box pruning: every
    vertex the search expands is multiplied by every step generator with
    `garside.multiply`, the edge pass multiplies the last layer again, and a
    search that stalls inside the box raises UniverseTooSmall."""
    from garsidehyp import garside as gd, metrics as mt
    from garsidehyp.errors import UniverseTooSmall
    if radius < 0:
        raise UniverseTooSmall("radius must be >= 0")
    gens = mt._box_step_generators(oracle, universe_len) if radius else []
    one = gd.identity_element(oracle.group)
    layers = [{one.render(): one}]
    seen = dict(layers[0])
    clipped = False
    for _ in range(radius):
        nxt = {}
        for g in layers[-1].values():
            for u in gens:
                h = gd.multiply(g, u)
                if not mt.in_universe(h, universe_len):
                    clipped = True
                elif h.render() not in seen:
                    nxt[h.render()] = seen[h.render()] = h
        if not nxt:
            if clipped and len(layers) < radius:
                raise UniverseTooSmall(
                    f"ball expansion stalled at radius {len(layers)} < {radius}")
            break
        layers.append(nxt)
    edges = [(key, gd.multiply(g, u).render())
             for key, g in seen.items() for u in gens]
    return reference_graph(seen, [(a, b) for a, b in edges if b in seen])


def reference_delta(graph, sample, seed=0):
    """Four-point delta; the sampler is the library's, so the same 4-tuples
    are drawn.  Each source gets its own breadth-first search over the edge
    list, which stops at the layer that reaches its last wanted target and
    keeps only the wanted distances.  Different components count as defect
    0."""
    n = len(graph.vertices)
    if n < 4:
        return Fraction(0)
    if sample >= n * (n - 1) * (n - 2) * (n - 3) // 24:
        quads = list(itertools.combinations(range(n), 4))
    else:
        rng = random.Random(seed)
        quads = [rng.sample(range(n), 4) for _ in range(sample)]
    wanted = {}
    for a, b, c, d in quads:
        wanted.setdefault(a, set()).update((b, c, d))
        wanted.setdefault(b, set()).update((c, d))
        wanted.setdefault(c, set()).add(d)
    adj = [[] for _ in range(n)]
    for i, j in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    dist = {}
    for source, missing in wanted.items():
        seen = [False] * n
        seen[source] = True
        layer, d = [source], 0
        while layer and missing:
            d += 1
            nxt = []
            for v in layer:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        nxt.append(w)
            for w in missing.intersection(nxt):
                dist[source, w] = d
            missing.difference_update(nxt)
            layer = nxt

    def defect(a, b, c, d):
        pairs = [(dist.get((a, b)), dist.get((c, d))),
                 (dist.get((a, c)), dist.get((b, d))),
                 (dist.get((a, d)), dist.get((b, c)))]
        if any(x is None or y is None for x, y in pairs):
            return Fraction(0)
        sums = sorted(x + y for x, y in pairs)
        return Fraction(sums[2] - sums[1], 2)

    return max((defect(*q) for q in quads), default=Fraction(0))


def reference_json_text(graph):
    """The JSON export of a graph, built whole in memory with list values."""
    data = {"schema": 1, "vertices": list(graph.vertices),
            "edges": [list(e) for e in graph.edges],
            "provenance": graph.provenance}
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


# ---------------------------------------------------------------------------
# Reference searches on elements
# ---------------------------------------------------------------------------

def reference_simples_lengths(group, radius):
    """Word lengths in the simple generators by a breadth-first search with
    no universe: every element within `radius` of the identity, keyed by
    its normal form (power, factors).  The steps are every nontrivial simple
    and its inverse, D and D^-1 among them, each formed with the key-level
    `metrics._key_product`."""
    from garsidehyp import metrics as mt
    tab = group.table()
    # a simple x is (0, (x,)), its inverse D^-1 lift(w0 x^-1) is (-1, (c,))
    steps = [(1, ()), (-1, ())] + [(0, (x,)) for x in range(1, tab.w0)] + \
        [(-1, (tab.left_comp[x],)) for x in range(1, tab.w0)]
    dist = {(0, ()): 0}
    layer = [(0, ())]
    for d in range(1, radius + 1):
        nxt = []
        for key in layer:
            for u in steps:
                k = mt._key_product(tab, key, u)
                if k not in dist:
                    dist[k] = d
                    nxt.append(k)
        layer = nxt
    return dist


def reference_word_length(g, oracle, universe_len):
    """Word length of g in the oracle's metric, for any kind but the
    simples, by a breadth-first search in the box of bound `universe_len`
    that forms every product with the key-level `metrics._key_product`:
    each expanded vertex is multiplied by every step generator, a product
    equal to g ends the search even outside the box, and every other
    product outside the box is dropped.  Distances 0 and 1 come from the
    membership predicate, 2 is exact, and a larger distance is an upper
    bound.  No product count is capped."""
    from garsidehyp import metrics as mt
    WordLengthResult = mt.WordLengthResult
    if g.is_identity:
        return WordLengthResult("exact", 0, universe_len)
    if oracle.membership(g):
        return WordLengthResult("exact", 1, universe_len)
    tab = oracle.group.table()
    gens = [mt._nf_key(u) for u in mt._box_step_generators(oracle, universe_len)]
    target = mt._nf_key(g)
    dist: dict = {}

    def step(key):
        if target in dist:   # reached: form no more products
            return ()
        out = []
        for u in gens:
            k = mt._key_product(tab, key, u)
            if k == target:   # kept even outside the box
                return (k,)
            if mt._in_box(k, universe_len):
                out.append(k)
        return out

    for d, _ in enumerate(mt._bfs_layers(dist, (0, ()), step)):
        if target in dist:
            return WordLengthResult("exact" if d <= 2 else "upper", d, universe_len)
    return WordLengthResult("unknown", None, universe_len)


def reference_standardize(p, q, radius):
    """Search D^k times the positives of canonical length <= radius, k in
    {0, 1}, for g with g^-1 P g and g^-1 Q g both standard.  Returns
    (g, T1, T2), or None when nothing is found within the radius.

    Multiplying by a power of D does not change canonical length, and D^2
    is central, so the twists k in {0, 1} exhaust the D-coset of each
    positive.
    """
    from garsidehyp import garside as gd, parabolic as pb
    group = p.group
    index = pb.standard_omega_index(group)
    for g in itertools.chain([gd.identity_element(group)],
                             gd.iter_positive_elements(group, radius)):
        for twist in (0, 1):
            h = gd.GarsideElement(group, twist, g.factors)
            hinv = gd.invert(h)
            ts = []
            for om in (p.omega, q.omega):
                om = gd.multiply(gd.multiply(hinv, om), h)
                ts.append(index.get((om.power, om.factors)))
            if None not in ts:
                return (h, *ts)
    return None
