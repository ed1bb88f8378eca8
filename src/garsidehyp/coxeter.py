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
`SimpleTable` enumerates W breadth-first by left multiplication, one length
at a time, and indexes each element as it is found, in shortlex order of its
lexicographically least reduced word: index equality is element equality
and index 0 is the identity.  The first letter f of that word is the least
left descent of x, and its tail is f x.  Everything else follows in O(rank)
per element from the tail and from the prefix without the last letter, by
two standard facts (Bjorner-Brenti ch. 3; Casselman, Invent. Math. 116,
1994):

- prefixes and suffixes of a lex-least reduced word are lex-least, so the
  word, support, prefix, last letter and inverse of x follow from those of
  its tail and prefix;
- w0 s w0 = sigma(s) is again a generator, so the twist w0 x w0 and the
  complement w0 x^{-1} follow letter by letter.

Right multiplication is x s = (s x^{-1})^{-1}, and the right descents of x
are the left descents of x^{-1}.

A table refuses any group whose order (a closed form per classified family)
exceeds DEFAULT_ORDER_CAP, raising OrderOverflow before enumerating
anything.
"""

from __future__ import annotations

import dataclasses
import math
import re
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    EmptySubset,
    NonSpherical,
    OrderOverflow,
    RankOutOfRange,
    UnknownFamily,
    UnknownGenerator,
)

# Large enough for E6 (51,840 elements), whose table builds in about 0.2 s
# (Python 3.11, one Xeon core).
DEFAULT_ORDER_CAP = 52_000


# ---------------------------------------------------------------------------
# Breadth-first search
# ---------------------------------------------------------------------------

def bfs_layers(dist: dict, start, neighbours: Callable) -> Iterator[list]:
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


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CoxeterGraph:
    """A spherical-type diagram: generator labels and the order matrix.

    The matrix stores m_{s,t} with m_{s,s} = 1; off-diagonal entries are
    finite integers >= 2 (infinite labels are rejected as non-spherical).
    `family` is derived from the matrix by the classification that checks
    sphericity: the components' names in component order, joined by "x",
    such as "A3", "I2(7)" or "A1xA1".
    """

    generators: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    family: str = dataclasses.field(init=False, compare=False)

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
        object.__setattr__(self, "family",
                           "x".join(fam for _, fam in component_families(self)))

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def is_dihedral(self) -> bool:
        return self.rank == 2

    def gen_index(self, label: str) -> int:
        try:
            return self.generators.index(label)
        except ValueError:
            raise UnknownGenerator(f"unknown generator {label!r} in {self.family}") from None

    def gen_indices(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.gen_index(lab) for lab in labels)

    def _reach(self, start: int, among: Iterable[int]) -> dict[int, int]:
        """The generators of `among` that edges (labels >= 3) inside it join
        to `start`, with their distances."""
        reached: dict[int, int] = {}
        for _ in bfs_layers(reached, start,
                            lambda v: [w for w in among if self.matrix[v][w] >= 3]):
            pass
        return reached

    def components(self) -> list[tuple[int, ...]]:
        """Connected components of the underlying labeled graph, each sorted,
        in the order of their least generators."""
        comps: list[tuple[int, ...]] = []
        for start in range(self.rank):
            if not any(start in comp for comp in comps):
                comps.append(tuple(sorted(self._reach(start, range(self.rank)))))
        return comps

    @property
    def irreducible(self) -> bool:
        return len(self.components()) == 1

    def is_connected_subset(self, subset: Sequence[int]) -> bool:
        """Whether the induced sub-diagram on the given indices is connected."""
        sub = set(subset)
        return bool(sub) and self._reach(min(sub), sub).keys() == sub

    def subgraph(self, subset: Sequence[int]) -> "CoxeterGraph":
        """The induced diagram on a generator subset, with the same labels."""
        idx = tuple(sorted(set(subset)))
        if not idx:
            raise EmptySubset("empty generator subset")
        gens = tuple(self.generators[i] for i in idx)
        return CoxeterGraph(gens, tuple(tuple(self.matrix[i][j] for j in idx) for i in idx))

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
                tab = _tables[self] = SimpleTable(self)
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
        order = [v for layer in bfs_layers({}, ends[0], sub.__getitem__) for v in layer]
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


def _arm_length(sub: dict[int, list[int]], fork: int, first: int) -> int:
    """The vertices of the arm that leaves the fork through `first`: those
    the search from `first` reaches with the fork marked reached."""
    arm = {fork: 0}
    for _ in bfs_layers(arm, first, sub.__getitem__):
        pass
    return len(arm) - 1


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
            return CoxeterGraph(("s1",), ((1,),))
        if n == 2:
            return _dihedral_graph(3)
        return _path_graph(n, [3] * (n - 1))
    if letter == "B":
        if n < 2:
            raise RankOutOfRange("B_n needs n >= 2")
        if n == 2:
            return _dihedral_graph(4)
        return _path_graph(n, [3] * (n - 2) + [4])
    if letter == "D":
        if n < 4:
            raise RankOutOfRange("D_n needs n >= 4")
        return _fork_graph(n, attach=n - 3)
    if letter == "E":
        if n not in (6, 7, 8):
            raise RankOutOfRange("E_n needs n in {6, 7, 8}")
        return _fork_graph(n, attach=2)
    if letter == "F":
        if n != 4:
            raise RankOutOfRange("only F4 exists")
        return _path_graph(4, [3, 4, 3])
    if letter == "H":
        if n not in (3, 4):
            raise RankOutOfRange("H_n needs n in {3, 4}")
        return _path_graph(n, [5] + [3] * (n - 2))
    raise UnknownFamily(f"unknown family letter {letter!r}")


def _dihedral_graph(m: int) -> CoxeterGraph:
    return CoxeterGraph(("a", "b"), ((1, m), (m, 1)))


def _path_graph(n: int, labels: list[int]) -> CoxeterGraph:
    gens = tuple(f"s{i}" for i in range(1, n + 1))
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for k, m in enumerate(labels):
        mat[k][k + 1] = mat[k + 1][k] = m
    return CoxeterGraph(gens, tuple(tuple(r) for r in mat))


def _fork_graph(n: int, attach: int) -> CoxeterGraph:
    # Path s1..s_{n-1} plus s_n attached (label 3) to s_{attach+1} (0-based `attach`).
    gens = tuple(f"s{i}" for i in range(1, n + 1))
    mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for k in range(n - 2):
        mat[k][k + 1] = mat[k + 1][k] = 3
    mat[attach][n - 1] = mat[n - 1][attach] = 3
    return CoxeterGraph(gens, tuple(tuple(r) for r in mat))


@dataclasses.dataclass(frozen=True)
class GraphProperties:
    irreducible: bool
    coxeter_order: int
    rank: int


def graph_properties(g: CoxeterGraph) -> GraphProperties:
    """Connectivity, |W| (closed form per classified family) and rank.

    Raises OrderOverflow when |W| exceeds DEFAULT_ORDER_CAP, the cap that
    guards element enumeration, so a group whose order is reported here can
    also be tabulated.
    """
    order = g.coxeter_order()
    if order > DEFAULT_ORDER_CAP:
        raise OrderOverflow(f"|W| = {order} exceeds cap {DEFAULT_ORDER_CAP}")
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
    the identity, descent sets and supports are bitmasks over generators, and
    `word[x]` is the lexicographically least reduced word of x (tuple of
    generator indices).  Indices are shortlex-ordered: index 0 is the identity
    and the last index is the longest element w0.

    Every list is built in O(|W| rank) steps.  Level k+1 of the search is
    listed by taking, for each generator s in turn, each y of level k in
    index order and keeping z = s y when it is longer and new.  The lex-least
    word of z starts with its least left descent f, so z is first found from
    s = f and y = f z, its tail, and the level comes out ordered by (f, index
    of the tail), which is shortlex.  Then, with pre[x] = x last[x]:

    - word[x] = (f,) + word[tail], support[x] = support[tail] | 1 << f;
    - pre[x] = f pre[tail] and last[x] = last[tail] (pre = 1 and last = f
      when the tail is 1), since prefixes and suffixes of lex-least words
      are lex-least;
    - inverse[x] = last[x] inverse[pre[x]] and rdesc[x] = ldesc[inverse[x]];
    - with sigma(s) = w0 s w0, a generator: tau[x] = sigma(f) tau[tail] and
      left_comp[x] = sigma(last[x]) left_comp[pre[x]], left_comp[0] = w0.
    """

    def __init__(self, graph: CoxeterGraph):
        order = graph.coxeter_order()
        if order > DEFAULT_ORDER_CAP:
            raise OrderOverflow(f"|W| of {graph.family} exceeds cap {DEFAULT_ORDER_CAP}")
        ident, perms = _root_permutations(graph)
        rank = graph.rank

        # Breadth-first search by left multiplication, indexing each element
        # in shortlex order as it is found.  lmult[x][s] = s x is filled at
        # both ends of each edge, -1 until then, so a key is formed only going
        # up and is looked up among the keys of the next level alone.
        # itemgetter(*key)(perm) is s x's key; a rank-1 key holds its root
        # twice, so that the getter returns a tuple.  `ids` holds the index
        # objects that lmult stores, so each index is one int object.
        ids, getters = [0], [itemgetter(*(ident * 2 if rank == 1 else ident))]
        lmult = [[-1] * rank]
        ldesc, length, first, tail = [0], [0], [0], [0]
        depth = 0
        while ids:
            depth += 1
            found: dict[tuple[int, ...], int] = {}
            for s, perm in enumerate(perms):
                bit = 1 << s
                for y, getter in zip(ids, getters):
                    row = lmult[y]
                    if row[s] < 0:
                        key = getter(perm)
                        z = found.get(key)
                        if z is None:
                            z = found[key] = len(lmult)
                            lmult.append([-1] * rank)
                            ldesc.append(bit)
                            first.append(s)
                            tail.append(y)
                        else:
                            ldesc[z] |= bit
                        row[s] = z
                        lmult[z][s] = y
            length += [depth] * len(found)
            ids = list(found.values())
            getters = [itemgetter(*key) for key in found]
        size = len(length)
        if size != order:
            raise NonSpherical(f"enumerated {size} elements of {graph.family}, "
                               f"expected {order}; model is broken")
        if length.count(length[-1]) != 1:
            raise NonSpherical("longest element is not unique; model is broken")
        w0 = size - 1

        word: list[tuple[int, ...]] = [()] * size
        support, inverse, pre = [0] * size, [0] * size, [0] * size
        last = first[:]  # kept where the tail is the identity
        for x in range(1, size):
            f, t = first[x], tail[x]
            word[x] = (f,) + word[t]
            support[x] = support[t] | 1 << f
            if t:
                pre[x] = lmult[pre[t]][f]
                last[x] = last[t]
            inverse[x] = lmult[inverse[pre[x]]][last[x]]

        self.graph = graph
        self.size = size
        self.length = length
        self.word = word
        self.lmult = lmult
        self.w0 = w0
        self.inverse = inverse
        # x s = (s x^{-1})^{-1}, and s is a right descent of x when it is a
        # left descent of x^{-1}.
        self.rmult = [[inverse[y] for y in lmult[i]] for i in inverse]
        self.ldesc = ldesc
        self.rdesc = [ldesc[i] for i in inverse]
        self.support = support

        # tau[x] = w0 x w0 and left_comp[x] = w0 x^{-1}, letter by letter.
        sigma = [word[self.mult(self.rmult[w0][s], w0)][0] for s in range(rank)]
        self.tau = tau = [0] * size
        self.left_comp = left_comp = [w0] * size
        for x in range(1, size):
            tau[x] = lmult[tau[tail[x]]][sigma[first[x]]]
            left_comp[x] = lmult[left_comp[pre[x]]][sigma[last[x]]]

        self._follows_memo: dict[int, tuple[int, ...]] = {}

    def mult(self, x: int, y: int) -> int:
        """Product in W (not the monoid product of lifts)."""
        for s in self.word[y]:
            x = self.rmult[x][s]
        return x

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
        """w0 of the standard parabolic W_T, T given as a bitmask.  Each step
        lengthens x by one, so a consistent table ends within l(w0) steps,
        and one whose rdesc and rmult disagree raises instead of looping."""
        x = 0
        for _ in range(self.length[self.w0] + 1):
            free = subset_mask & ~self.rdesc[x]
            if not free:
                return x
            s = (free & -free).bit_length() - 1
            x = self.rmult[x][s]
        raise RuntimeError(f"no longest element of the subset {subset_mask:#b} "
                           f"within l(w0) steps: rdesc and rmult disagree")


_tables: dict[CoxeterGraph, SimpleTable] = {}
