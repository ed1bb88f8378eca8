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

`reference_table` is one exception: it searches the library's root model,
then derives every list of `coxeter.SimpleTable` directly (a sort for the
shortlex order, words folded for inverses, products with w0 for tau and
left_comp), and the tests require the table's recurrences to agree.

`factor_refusal` is the library's earlier check of a normal form's factors
(two `all` predicates on the table's descent sets), which its one loop must
match.  `recombed_invert` and `invert_based_membership` are its earlier
inverse and standard parabolic membership, on its kernel: they comb the
complement sequence with the library's sliding loop and build and invert
the negative prefix, where the library now reads both off g's factors.

The reference graph builders and searches at the end are the rest:
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
# Reference table of W
# ---------------------------------------------------------------------------

def reference_table(graph):
    """Every list of `coxeter.SimpleTable`, by the direct derivation.

    The breadth-first search of the library's root-permutation model, then:
    a sort of (length, lex-least word) tuples for the shortlex order,
    inverses by folding each word through left multiplication, descents by
    comparing lengths, supports from the words, and tau and left_comp by
    multiplying with w0.  Returns a dict keyed by attribute name.
    """
    from garsidehyp.coxeter import _root_permutations

    ident, perms = _root_permutations(graph)
    key_id = {ident: 0}
    keys, bfs_len, left = [ident], [0], []
    for x, key in enumerate(keys):  # grows as new elements are found
        row = []
        for perm in perms:
            prod = tuple([perm[k] for k in key])
            y = key_id.get(prod)
            if y is None:
                y = key_id[prod] = len(keys)
                keys.append(prod)
                bfs_len.append(bfs_len[x] + 1)
            row.append(y)
        left.append(row)
    size = len(keys)

    # The lex-least reduced word starts with the least left descent.
    word = [()] * size
    for x in range(1, size):
        for s, y in enumerate(left[x]):
            if bfs_len[y] < bfs_len[x]:
                word[x] = (s,) + word[y]
                break

    ordered = sorted(range(size), key=lambda x: (bfs_len[x], word[x]))
    index = [0] * size
    for i, x in enumerate(ordered):
        index[x] = i
    length = [bfs_len[x] for x in ordered]
    word = [word[x] for x in ordered]
    lmult = [[index[y] for y in left[x]] for x in ordered]
    w0 = size - 1

    # x^{-1} is the word of x read through left multiplication, and
    # x s = (s x^{-1})^{-1}.
    inverse = [0] * size
    for x, w in enumerate(word):
        acc = 0
        for s in w:
            acc = lmult[acc][s]
        inverse[x] = acc
    rmult = [[inverse[y] for y in lmult[inverse[x]]] for x in range(size)]

    rdesc, ldesc, support = [0] * size, [0] * size, [0] * size
    for x in range(size):
        for s in range(graph.rank):
            if length[rmult[x][s]] < length[x]:
                rdesc[x] |= 1 << s
            if length[lmult[x][s]] < length[x]:
                ldesc[x] |= 1 << s
        for s in word[x]:
            support[x] |= 1 << s

    def mult(x, y):
        for s in word[y]:
            x = rmult[x][s]
        return x

    return {"size": size, "length": length, "word": word, "lmult": lmult,
            "rmult": rmult, "inverse": inverse, "ldesc": ldesc, "rdesc": rdesc,
            "support": support, "w0": w0,
            "left_comp": [mult(w0, inverse[x]) for x in range(size)],
            "tau": [mult(mult(w0, x), w0) for x in range(size)]}


# ---------------------------------------------------------------------------
# Reference normal-form check, inverse and standard parabolic membership
# ---------------------------------------------------------------------------

def left_weighted(tab, x, y):
    """Whether the pair (x, y) is left-weighted: L(y) <= R(x)."""
    return tab.ldesc[y] & ~tab.rdesc[x] == 0


def factor_refusal(tab, factors):
    """The message with which a `GarsideElement` of these factors is
    refused, or None when it is built, by the library's earlier check of
    two `all` predicates: every factor strictly between 1 and w0, then
    every adjacent pair left-weighted."""
    if not all(0 < f < tab.w0 for f in factors):
        return "factor out of range"
    if not all(left_weighted(tab, factors[i], factors[i + 1])
               for i in range(len(factors) - 1)):
        return "factors not left-weighted"
    return None


def recombed_invert(g):
    """g^-1 as the library formed it before the complement rule: the
    sequence D^-(p+l) y_1..y_l of complements, y_i twisted when p + l - i
    is odd, combed again by the library's sliding loop, which merges or
    drops factors where the sequence is not left-weighted."""
    from garsidehyp import garside as gd
    tab = g.group.table()
    p, fs = g.power, g.factors
    ell = len(fs)
    ys = []
    for i in range(1, ell + 1):
        c = tab.left_comp[fs[ell - i]]
        if (p + ell - i) % 2:
            c = tab.tau[c]
        ys.append(c)
    d, out = gd._normalise(tab, ys)
    return gd.GarsideElement(g.group, -(p + ell) + d, out)


def invert_based_membership(g, labels):
    """Whether g lies in A_T, as the library decided it before reading the
    supports off g's factors: for p = -m < 0 the prefix D^-m x_1..x_j,
    j = min(m, k), is built as an element and inverted (by
    `recombed_invert`), and a and b = x_(j+1)..x_k of g = a^-1 b must both
    have every factor, and D if their power is positive, supported in T."""
    from garsidehyp import garside as gd
    group = g.group
    tab = group.table()
    outside = ~tab.mask_of(group.gen_indices(labels))

    def positive_member(power, factors):
        return (power == 0 or tab.support[tab.w0] & outside == 0) and \
            all(tab.support[x] & outside == 0 for x in factors)

    if g.power >= 0:
        return positive_member(g.power, g.factors)
    j = min(-g.power, len(g.factors))
    a = recombed_invert(gd.GarsideElement(group, g.power, g.factors[:j]))
    return positive_member(a.power, a.factors) and positive_member(0, g.factors[j:])


# ---------------------------------------------------------------------------
# Reference graph builders
# ---------------------------------------------------------------------------

def reference_graph(keys, key_edges):
    """(vertices, edges) on text keys: sorted vertices, index pairs i < j."""
    vertices = tuple(sorted(set(keys)))
    index = {k: i for i, k in enumerate(vertices)}
    edges = {tuple(sorted((index[a], index[b]))) for a, b in key_edges if a != b}
    return vertices, tuple(sorted(edges))


def reference_quotient_cayley(group, len_bound, extra=()):
    """Cay(A)/<D> truncation, stepping from every coset by every nontrivial
    simple, by its inverse and by the `extra` steps, as (power, factors)
    keys; with the keys of the absorbable census as `extra` it is the
    additional-length truncation, searched coset by coset."""
    from garsidehyp import garside as gd, metrics as mt
    tab = group.table()
    # a simple x is (0, (x,)), its inverse D^-1 lift(w0 x^-1) is (-1, (c,))
    steps = [(0, (x,)) for x in range(1, tab.w0)] + \
        [(-1, (tab.left_comp[x],)) for x in range(1, tab.w0)] + list(extra)

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
    """The word-metric ball with no product table and no box pruning: the
    steps are the members of the square box of bound 3B, every vertex the
    search expands is multiplied by every step with `garside.multiply`, the
    edge pass multiplies the last layer again, and a search that stalls
    inside the box raises UniverseTooSmall.  A search stalls when it ends
    with a product outside the box; besides the steps, each vertex is
    multiplied by the standard generators and D^2 that are members, so that
    a box with no step (bound 0) stalls too."""
    from garsidehyp import garside as gd
    from garsidehyp.errors import UniverseTooSmall
    if radius < 0:
        raise UniverseTooSmall("radius must be >= 0")
    group = oracle.group
    gens = oracle.enumerate_up_to(3 * universe_len) if radius else []
    probes = [u for u in [*(gd.generator_element(group, lab) for lab in group.generators),
                          gd.delta_pow(group, 2)] if oracle.membership(u)]
    one = gd.identity_element(group)

    def in_box(h):
        return abs(h.inf) <= universe_len and h.canonical_length <= universe_len

    layers = [{one.render(): one}]
    seen = dict(layers[0])
    clipped = False
    for _ in range(radius):
        nxt = {}
        for g in layers[-1].values():
            clipped |= not all(in_box(gd.multiply(g, u)) for u in probes)
            for u in gens:
                h = gd.multiply(g, u)
                if not in_box(h):
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
    from garsidehyp.coxeter import bfs_layers
    WordLengthResult = mt.WordLengthResult
    if g.is_identity:
        return WordLengthResult("exact", 0, universe_len)
    if oracle.membership(g):
        return WordLengthResult("exact", 1, universe_len)
    tab = oracle.group.table()
    gens = [mt._nf_key(u) for u in oracle.enumerate_up_to(3 * universe_len)]
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

    for d, _ in enumerate(bfs_layers(dist, (0, ()), step)):
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
