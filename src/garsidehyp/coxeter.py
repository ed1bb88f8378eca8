"""
Exact arithmetic in finite Coxeter groups.

A group is described by a `CoxeterGraph` (generator labels plus the symmetric
matrix of orders m_{s,t}).  The finite Coxeter group W is modelled by its
action on its root system, with each generator a permutation of root indices
(Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 4):

- a rank-2 component with label m has 2m roots, root k at angle k*pi/m; the
  simple roots are k = 0 and k = m-1, and the generators act by
  k -> (m - k) mod 2m and k -> (m - 2 - k) mod 2m;
- any other component's roots are the closure of its simple roots under
  reflection, in simple-root coordinates with exact Cartan entries in Z[phi]
  (phi^2 = phi + 1): -1 for label 3, (-1, -2) for label 4, -phi for label 5;
- a reducible group has the disjoint union of its components' roots, and each
  generator fixes the roots of the other components.

An element is keyed by the tuple of root indices it sends the simple roots
to, so left multiplication by a generator is pure tuple indexing.  A
breadth-first enumeration of W by left multiplication, stored in a
`SimpleTable`, gives everything else by index lookups: lengths, the
lexicographically least reduced words, inverses (the word folded through left
multiplication), right multiplication (x s = (s x^{-1})^{-1}), descent sets
and the longest element.  Element indices are assigned in shortlex order of
the lexicographically least reduced word, so index equality is element
equality and index 0 is the identity.

A table refuses any group whose order (a closed form per classified family)
exceeds DEFAULT_ORDER_CAP (52 000, large enough for E6), raising
OrderOverflow before enumerating anything.
"""

from __future__ import annotations

import dataclasses
import math
import re
from typing import Iterable, Sequence

from .errors import (
    EmptySubset,
    GroupMismatch,
    NonSpherical,
    OrderOverflow,
    RankOutOfRange,
    UnknownFamily,
    UnknownGenerator,
)

DEFAULT_ORDER_CAP = 52_000

LEFT = "left"
RIGHT = "right"


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CoxeterGraph:
    """A spherical-type diagram: generator labels and the order matrix.

    The matrix stores m_{s,t} with m_{s,s} = 1; off-diagonal entries are
    finite integers >= 2 (infinite labels are rejected as non-spherical).
    `family` is a human-readable tag such as "A3", "I2(7)" or "A1xA1".
    """

    generators: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    family: str

    def __post_init__(self):
        n = len(self.generators)
        if n == 0:
            raise EmptySubset("a Coxeter graph needs at least one generator")
        if len(set(self.generators)) != n:
            raise NonSpherical("duplicate generator labels")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise NonSpherical("matrix shape does not match the generator count")
        for i in range(n):
            if self.matrix[i][i] != 1:
                raise NonSpherical("diagonal entries must be 1")
            for j in range(i + 1, n):
                m = self.matrix[i][j]
                if m != self.matrix[j][i]:
                    raise NonSpherical("matrix must be symmetric")
                if not isinstance(m, int) or m < 2:
                    raise NonSpherical("off-diagonal entries must be integers >= 2")
        # Verifies sphericity: every component must classify.
        component_families(self)

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def is_dihedral(self) -> bool:
        return self.rank == 2

    def m(self, i: int, j: int) -> int:
        return self.matrix[i][j]

    def gen_index(self, label: str) -> int:
        try:
            return self.generators.index(label)
        except ValueError:
            raise UnknownGenerator(f"unknown generator {label!r} in {self.family}") from None

    def gen_indices(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.gen_index(lab) for lab in labels)

    def edges(self) -> list[tuple[int, int, int]]:
        """Labeled diagram edges (i, j, m) with m >= 3."""
        out = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if self.matrix[i][j] >= 3:
                    out.append((i, j, self.matrix[i][j]))
        return out

    def components(self) -> list[tuple[int, ...]]:
        """Connected components of the underlying labeled graph."""
        seen: set[int] = set()
        comps = []
        for start in range(self.rank):
            if start in seen:
                continue
            stack, comp = [start], set()
            while stack:
                v = stack.pop()
                if v in comp:
                    continue
                comp.add(v)
                stack.extend(w for w in range(self.rank)
                             if w != v and self.matrix[v][w] >= 3 and w not in comp)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        return comps

    @property
    def irreducible(self) -> bool:
        return len(self.components()) == 1

    def is_connected_subset(self, subset: Sequence[int]) -> bool:
        """Whether the induced sub-diagram on the given indices is connected."""
        sub = set(subset)
        if not sub:
            return False
        stack, seen = [next(iter(sub))], set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(w for w in sub if w != v and self.matrix[v][w] >= 3 and w not in seen)
        return seen == sub

    def subgraph(self, subset: Sequence[int]) -> "CoxeterGraph":
        """The induced diagram on a generator subset, with the same labels."""
        idx = tuple(sorted(set(subset)))
        if not idx:
            raise EmptySubset("empty generator subset")
        gens = tuple(self.generators[i] for i in idx)
        mat = tuple(tuple(self.matrix[i][j] for j in idx) for i in idx)
        g = CoxeterGraph(gens, mat, "?")
        object.__setattr__(g, "family", "x".join(f for _, f in component_families(g)))
        return g

    def coxeter_order(self) -> int:
        """|W| via the classification's closed forms, component by component."""
        order = 1
        for _, fam in component_families(self):
            order *= _family_order(fam)
        return order

    def table(self) -> "SimpleTable":
        # Kept on the instance too: hashing the matrix on every call costs
        # more than the table lookups of a short product.
        try:
            return self._table
        except AttributeError:
            tab = _tables.get(self)
            if tab is None:
                tab = _tables[self] = SimpleTable(self, DEFAULT_ORDER_CAP)
            object.__setattr__(self, "_table", tab)
            return tab


def _family_order(fam: str) -> int:
    letter, arg = _family_parts(fam)
    if letter == "A":
        return math.factorial(arg + 1)
    if letter == "B":
        return 2 ** arg * math.factorial(arg)
    if letter == "D":
        return 2 ** (arg - 1) * math.factorial(arg)
    if letter == "E":
        return {6: 51_840, 7: 2_903_040, 8: 696_729_600}[arg]
    if letter == "F":
        return 1152
    if letter == "H":
        return {3: 120, 4: 14_400}[arg]
    if letter == "I":
        return 2 * arg
    raise UnknownFamily(fam)


def _family_parts(fam: str) -> tuple[str, int]:
    m = re.fullmatch(r"I2\((\d+)\)", fam)
    if m:
        return "I", int(m.group(1))
    m = re.fullmatch(r"([ABDEFH])(\d+)", fam)
    if m:
        return m.group(1), int(m.group(2))
    raise UnknownFamily(fam)


def component_families(g: CoxeterGraph) -> list[tuple[tuple[int, ...], str]]:
    """Classify each connected component of the diagram; NonSpherical if any fails."""
    out = []
    for comp in g.components():
        out.append((comp, _classify_component(g, comp)))
    return out


def _classify_component(g: CoxeterGraph, comp: tuple[int, ...]) -> str:
    n = len(comp)
    if n == 1:
        return "A1"
    sub = {i: [j for j in comp if j != i and g.matrix[i][j] >= 3] for i in comp}
    labels = sorted(g.matrix[i][j] for a, i in enumerate(comp) for j in comp[a + 1:]
                    if g.matrix[i][j] >= 3)
    if n == 2:
        m = labels[0]
        if m == 3:
            return "A2"
        if m == 4:
            return "B2"
        return f"I2({m})"
    degs = sorted(len(v) for v in sub.values())
    if len(labels) != n - 1 or degs[0] != 1:
        raise NonSpherical("component is not a tree of the classified shapes")
    if degs[-1] == 2:
        # A path; inspect the multiset of labels and their position.
        big = [m for m in labels if m > 3]
        if not big:
            return f"A{n}"
        if len(big) > 1:
            raise NonSpherical("path with more than one higher label")
        ends = [i for i in comp if len(sub[i]) == 1]
        order = _path_order(sub, ends[0])
        lab_seq = [g.matrix[order[k]][order[k + 1]] for k in range(n - 1)]
        if big[0] == 4 and (lab_seq[0] == 4 or lab_seq[-1] == 4):
            return f"B{n}"
        if big[0] == 4 and n == 4 and lab_seq[1] == 4:
            return "F4"
        if big[0] == 5 and n in (3, 4) and (lab_seq[0] == 5 or lab_seq[-1] == 5):
            return f"H{n}"
        raise NonSpherical("unrecognized labeled path")
    if degs[-1] == 3 and degs.count(3) == 1 and all(m == 3 for m in labels):
        fork = next(i for i in comp if len(sub[i]) == 3)
        arms = sorted(_arm_length(sub, fork, first) for first in sub[fork])
        if arms[:2] == [1, 1]:
            return f"D{n}"
        if arms == [1, 2, n - 4] and n in (6, 7, 8):
            return f"E{n}"
        raise NonSpherical("unrecognized fork shape")
    raise NonSpherical("diagram is not of spherical type")


def _path_order(sub: dict[int, list[int]], start: int) -> list[int]:
    order, prev, cur = [start], None, start
    while True:
        nxt = [v for v in sub[cur] if v != prev]
        if not nxt:
            return order
        prev, cur = cur, nxt[0]
        order.append(cur)


def _arm_length(sub: dict[int, list[int]], fork: int, first: int) -> int:
    length, prev, cur = 1, fork, first
    while True:
        nxt = [v for v in sub[cur] if v != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1


# ---------------------------------------------------------------------------
# Group spec grammar
# ---------------------------------------------------------------------------

def parse_group_spec(spec: str) -> CoxeterGraph:
    """Parse a family token (A3, B4, D5, E6..E8, F4, H3, H4, I2(m)).

    I2(3) and I2(4) are aliases of A2 and B2.  Rank-2 groups use generator
    labels a, b; all others use s1..sn.
    """
    spec = spec.strip()
    m = re.fullmatch(r"I2\((\d+)\)", spec)
    if m:
        order = int(m.group(1))
        if order < 3:
            raise RankOutOfRange(f"I2(m) needs m >= 3, got {order}")
        return _dihedral_graph(order)
    m = re.fullmatch(r"([A-Z])(\d+)", spec)
    if not m:
        raise UnknownFamily(f"cannot parse group spec {spec!r}")
    letter, n = m.group(1), int(m.group(2))
    if letter == "A":
        if n < 1:
            raise RankOutOfRange("A_n needs n >= 1")
        if n == 1:
            return CoxeterGraph(("s1",), ((1,),), "A1")
        if n == 2:
            return _dihedral_graph(3)
        return _path_graph(n, [3] * (n - 1), f"A{n}")
    if letter == "B":
        if n < 2:
            raise RankOutOfRange("B_n needs n >= 2")
        if n == 2:
            return _dihedral_graph(4)
        return _path_graph(n, [3] * (n - 2) + [4], f"B{n}")
    if letter == "D":
        if n < 4:
            raise RankOutOfRange("D_n needs n >= 4")
        return _fork_graph(n, attach=n - 3, family=f"D{n}")
    if letter == "E":
        if n not in (6, 7, 8):
            raise RankOutOfRange("E_n needs n in {6, 7, 8}")
        return _fork_graph(n, attach=2, family=f"E{n}")
    if letter == "F":
        if n != 4:
            raise RankOutOfRange("only F4 exists")
        return _path_graph(4, [3, 4, 3], "F4")
    if letter == "H":
        if n not in (3, 4):
            raise RankOutOfRange("H_n needs n in {3, 4}")
        return _path_graph(n, [5] + [3] * (n - 2), f"H{n}")
    raise UnknownFamily(f"unknown family letter {letter!r}")


def _dihedral_graph(m: int) -> CoxeterGraph:
    fam = {3: "A2", 4: "B2"}.get(m, f"I2({m})")
    return CoxeterGraph(("a", "b"), ((1, m), (m, 1)), fam)


def _path_graph(n: int, labels: list[int], family: str) -> CoxeterGraph:
    gens = tuple(f"s{i}" for i in range(1, n + 1))
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for k, m in enumerate(labels):
        mat[k][k + 1] = mat[k + 1][k] = m
    return CoxeterGraph(gens, tuple(tuple(r) for r in mat), family)


def _fork_graph(n: int, attach: int, family: str) -> CoxeterGraph:
    # Path s1..s_{n-1} plus s_n attached (label 3) to s_{attach+1} (0-based `attach`).
    gens = tuple(f"s{i}" for i in range(1, n + 1))
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for k in range(n - 2):
        mat[k][k + 1] = mat[k + 1][k] = 3
    mat[attach][n - 1] = mat[n - 1][attach] = 3
    return CoxeterGraph(gens, tuple(tuple(r) for r in mat), family)


@dataclasses.dataclass(frozen=True)
class GraphProperties:
    irreducible: bool
    coxeter_order: int
    rank: int


def graph_properties(g: CoxeterGraph, cap: int | None = None) -> GraphProperties:
    """Connectivity, |W| (closed form per classified family) and rank.

    Raises OrderOverflow when |W| exceeds the cap; the cap is the same one that
    guards element enumeration, so a group whose order is reported here can
    also be tabulated.
    """
    cap = DEFAULT_ORDER_CAP if cap is None else cap
    order = g.coxeter_order()
    if order > cap:
        raise OrderOverflow(f"|W| = {order} exceeds cap {cap}")
    return GraphProperties(g.irreducible, order, g.rank)


# ---------------------------------------------------------------------------
# The root-permutation model
# ---------------------------------------------------------------------------

# Cartan entries (A[i][j], A[j][i]) per edge label, as a + b*phi over Z[phi]
# with phi^2 = phi + 1; A[i][j] * A[j][i] = 4 cos^2(pi/m).
_CARTAN = {2: ((0, 0), (0, 0)), 3: ((-1, 0), (-1, 0)),
           4: ((-1, 0), (-2, 0)), 5: ((0, -1), (0, -1))}


def _dihedral_roots(m: int) -> tuple[list[int], list[list[int]]]:
    """I2(m): root k at angle k*pi/m, k < 2m; the simple roots are 0 and m-1."""
    n = 2 * m
    return [0, m - 1], [[(m - k) % n for k in range(n)],
                        [(m - 2 - k) % n for k in range(n)]]


def _closed_roots(g: CoxeterGraph, comp: tuple[int, ...]) -> tuple[list[int], list[list[int]]]:
    """Close the simple roots of a component under reflection.

    Roots are vectors in simple-root coordinates with Z[phi] entries;
    s_i changes coordinate i only, to v_i - sum_j A[i][j] v_j.
    """
    n = len(comp)
    cartan = [[(2, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            cartan[a][b], cartan[b][a] = _CARTAN[g.matrix[comp[a]][comp[b]]]
    roots = [tuple((1, 0) if j == i else (0, 0) for j in range(n)) for i in range(n)]
    index = {r: k for k, r in enumerate(roots)}
    perms: list[list[int]] = [[] for _ in range(n)]
    for v in roots:  # grows as reflections find new roots
        for i in range(n):
            a, b = v[i]
            for (c, d), (x, y) in zip(cartan[i], v):
                a -= c * x + d * y
                b -= c * y + d * x + d * y
            image = v[:i] + ((a, b),) + v[i + 1:]
            k = index.get(image)
            if k is None:
                k = index[image] = len(roots)
                roots.append(image)
            perms[i].append(k)
    return list(range(n)), perms


def _root_permutations(g: CoxeterGraph) -> tuple[tuple[int, ...], list[list[int]]]:
    """The simple-root indices and, per generator, a permutation of all roots.

    The roots of a reducible group are the disjoint union of its components'
    roots; each generator fixes the roots of the other components.
    """
    parts = []
    for comp in g.components():
        if len(comp) == 2:
            parts.append((comp, *_dihedral_roots(g.matrix[comp[0]][comp[1]])))
        else:
            parts.append((comp, *_closed_roots(g, comp)))
    total = sum(len(perms[0]) for _, _, perms in parts)
    simple, gens = [0] * g.rank, [[]] * g.rank
    offset = 0
    for comp, local_simple, local_perms in parts:
        size = len(local_perms[0])
        for s, k, perm in zip(comp, local_simple, local_perms):
            full = list(range(total))
            full[offset:offset + size] = [offset + p for p in perm]
            simple[s], gens[s] = offset + k, full
        offset += size
    return tuple(simple), gens


# ---------------------------------------------------------------------------
# The element table
# ---------------------------------------------------------------------------

class SimpleTable:
    """Indexed enumeration of W with the derived combinatorial data.

    Everything downstream (Garside normal forms, searches, graphs) works with
    integer indices into this table.  Lengths are breadth-first distances from
    the identity, descent sets are bitmasks over generators, and `word[x]` is
    the lexicographically least reduced word of x (tuple of generator
    indices).  Indices are shortlex-ordered: index 0 is the identity and the
    last index is the longest element w0.
    """

    def __init__(self, graph: CoxeterGraph, cap: int):
        order = graph.coxeter_order()
        if order > cap:
            raise OrderOverflow(f"|W| of {graph.family} exceeds cap {cap}")
        ident, perms = _root_permutations(graph)

        # Breadth-first search by left multiplication; left[x][s] is s*x in
        # discovery order, which is by length.
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
        if size != order:
            raise NonSpherical(f"enumerated {size} elements of {graph.family}, "
                               f"expected {order}; model is broken")

        # The lex-least reduced word starts with the least left descent.
        word: list[tuple[int, ...]] = [()] * size
        for x in range(1, size):
            for s, y in enumerate(left[x]):
                if bfs_len[y] < bfs_len[x]:
                    word[x] = (s,) + word[y]
                    break

        ordered = sorted(range(size), key=lambda x: (bfs_len[x], word[x]))
        index = [0] * size
        for i, x in enumerate(ordered):
            index[x] = i

        self.graph = graph
        self.size = size
        self.length = [bfs_len[x] for x in ordered]
        self.word = [word[x] for x in ordered]
        self.lmult = lmult = [[index[y] for y in left[x]] for x in ordered]
        maxlen = self.length[-1]
        if self.length.count(maxlen) != 1:
            raise NonSpherical("longest element is not unique; model is broken")
        self.w0 = size - 1

        # x^{-1} is the word of x read through left multiplication, and
        # x s = (s x^{-1})^{-1}.
        self.inverse = inverse = [0] * size
        for x, w in enumerate(self.word):
            acc = 0
            for s in w:
                acc = lmult[acc][s]
            inverse[x] = acc
        self.rmult = [[inverse[y] for y in lmult[inverse[x]]] for x in range(size)]

        rank = graph.rank
        self.rdesc = [0] * size
        self.ldesc = [0] * size
        self.support = [0] * size
        for x in range(size):
            for s in range(rank):
                if self.length[self.rmult[x][s]] < self.length[x]:
                    self.rdesc[x] |= 1 << s
                if self.length[self.lmult[x][s]] < self.length[x]:
                    self.ldesc[x] |= 1 << s
            mask = 0
            for s in self.word[x]:
                mask |= 1 << s
            self.support[x] = mask

        # left_comp[x] = w0 x^{-1}  (the simple completing x to w0 on the left)
        # tau[x]       = w0 x w0    (conjugation by the Garside element)
        self.left_comp = [self.mult(self.w0, self.inverse[x]) for x in range(size)]
        self.tau = [self.mult(self.mult(self.w0, x), self.w0) for x in range(size)]

        self._follows_memo: dict[int, tuple[int, ...]] = {}

    def mult(self, x: int, y: int) -> int:
        """Product in W (not the monoid product of lifts)."""
        for s in self.word[y]:
            x = self.rmult[x][s]
        return x

    def is_left_weighted(self, x: int, y: int) -> bool:
        return self.ldesc[y] & ~self.rdesc[x] == 0

    def renorm(self, x: int, y: int) -> tuple[int, int]:
        """Slide letters left until (x, y) is left-weighted.

        Preserves the monoid product lift(x)lift(y); may return y = identity
        or x = w0.
        """
        ldesc, rdesc, rmult, lmult = self.ldesc, self.rdesc, self.rmult, self.lmult
        while True:
            free = ldesc[y] & ~rdesc[x]
            if not free:
                return x, y
            s = (free & -free).bit_length() - 1
            x = rmult[x][s]
            y = lmult[y][s]

    def follows(self, x: int) -> tuple[int, ...]:
        """All y (nontrivial, not w0) with (x, y) left-weighted, index order."""
        mask = self.rdesc[x]
        got = self._follows_memo.get(mask)
        if got is None:
            got = tuple(y for y in range(1, self.size)
                        if y != self.w0 and self.ldesc[y] & ~mask == 0)
            self._follows_memo[mask] = got
        return got

    def mask_of(self, indices: Iterable[int]) -> int:
        mask = 0
        for s in indices:
            mask |= 1 << s
        return mask

    def prefix_meet(self, x: int, y: int) -> int:
        """The greatest common prefix of two simples: x ^ y = s (s x ^ s y)
        for a common left descent s, computed on demand."""
        meet = 0
        while common := self.ldesc[x] & self.ldesc[y]:
            s = (common & -common).bit_length() - 1
            x, y, meet = self.lmult[x][s], self.lmult[y][s], self.rmult[meet][s]
        return meet

    def longest_in(self, subset_mask: int) -> int:
        """w0 of the standard parabolic W_T, T given as a bitmask."""
        x = 0
        while True:
            free = subset_mask & ~self.rdesc[x]
            if not free:
                return x
            s = (free & -free).bit_length() - 1
            x = self.rmult[x][s]


_tables: dict[CoxeterGraph, SimpleTable] = {}


# ---------------------------------------------------------------------------
# Elements of W
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SimpleElement:
    """An element of the finite Coxeter group W, canonical per (group, index)."""

    group: CoxeterGraph
    index: int

    @property
    def length(self) -> int:
        return self.group.table().length[self.index]

    @property
    def word(self) -> tuple[int, ...]:
        return self.group.table().word[self.index]

    @property
    def word_labels(self) -> tuple[str, ...]:
        return tuple(self.group.generators[s] for s in self.word)

    def render(self) -> str:
        return "".join(self.word_labels) if self.word else "e"

    @property
    def is_identity(self) -> bool:
        return self.index == 0

    @property
    def is_longest(self) -> bool:
        return self.index == self.group.table().w0


def identity_element(g: CoxeterGraph) -> SimpleElement:
    return SimpleElement(g, 0)


def generator_element(g: CoxeterGraph, label: str) -> SimpleElement:
    tab = g.table()
    return SimpleElement(g, tab.rmult[0][g.gen_index(label)])


def element_from_labels(g: CoxeterGraph, labels: Iterable[str]) -> SimpleElement:
    tab = g.table()
    x = 0
    for lab in labels:
        x = tab.rmult[x][g.gen_index(lab)]
    return SimpleElement(g, x)


def _check_same_group(u: SimpleElement, v: SimpleElement):
    if u.group != v.group:
        raise GroupMismatch("elements live in different groups")


def element_multiply(u: SimpleElement, v: SimpleElement) -> SimpleElement:
    _check_same_group(u, v)
    return SimpleElement(u.group, u.group.table().mult(u.index, v.index))


def element_inverse(u: SimpleElement) -> SimpleElement:
    return SimpleElement(u.group, u.group.table().inverse[u.index])


def descents(w: SimpleElement, side: str) -> frozenset[str]:
    """Generators s with l(sw) < l(w) (left) or l(ws) < l(w) (right)."""
    tab = w.group.table()
    mask = tab.ldesc[w.index] if side == LEFT else tab.rdesc[w.index]
    return frozenset(w.group.generators[s] for s in range(w.group.rank)
                     if mask >> s & 1)


def longest_element(g: CoxeterGraph, subset: Iterable[str]) -> SimpleElement:
    labels = tuple(subset)
    if not labels:
        raise EmptySubset("longest_element needs a nonempty subset")
    tab = g.table()
    return SimpleElement(g, tab.longest_in(tab.mask_of(g.gen_indices(labels))))


def weak_order_divides(u: SimpleElement, v: SimpleElement, side: str) -> bool:
    """Left: u is a prefix of v in the weak order; right: a suffix."""
    _check_same_group(u, v)
    tab = u.group.table()
    if side == LEFT:
        rest = tab.mult(tab.inverse[u.index], v.index)
    else:
        rest = tab.mult(v.index, tab.inverse[u.index])
    return u.length + tab.length[rest] == v.length
