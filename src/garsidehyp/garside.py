"""
Exact Garside arithmetic in spherical Artin-Tits groups.

Every group element is kept in left-greedy normal form D^p x_1 ... x_l,
stored as the integer `power` p (the infimum) and the tuple `factors` of
simple-table indices.  The factors are nonidentity, different from w0, and
every adjacent pair is left-weighted: the right descent set of x_i contains
the left descent set of x_{i+1}.  Uniqueness of this form solves the word
problem; sup = p + l and the canonical length is l.

Construction checks that invariant on every element, in one loop over the
factors: each factor lies strictly between 1 and w0, and each adjacent
pair is left-weighted.  A failure raises AssertionError.  `python -O`
drops the check, so nothing that an output depends on may happen inside
it.  Words from outside reach the kernel only through `parse_word` and
`normal_form`, which build the form; the check guards the kernel's own
rules (products, inverses, twists).

Normalization is one sliding loop, `_normalise(tab, seq, start)`: while
some generator s lies in L(x_{i+1}) but not in R(x_i), replace
(x_i, x_{i+1}) by (x_i s, s x_{i+1}), combing backwards after each change.
Its contract is that seq[:start+1] is already normal, so the loop starts at
the junction `start`; a slide that empties x_{i+1} deletes it, and leading
w0 factors go into the Garside power.  Sliding preserves the monoid product
of the positive lifts, so the result represents the same group element.
A slide costs one table lookup per letter moved and is not memoized, so
memory does not grow with the number of products.  Products comb gh from
the junction of the two normal forms; the other entry points call the same
loop, but for inverses and tau twists, whose normal forms are read off the
factors (the complement rule at `invert`).

Words fold into the normal form letter by letter, each letter combed in at
the end.  A negative letter s^-1 enters as D^-1 (w0 s^-1), using that the
positive lifts satisfy lift(w0) = lift(w0 x^-1) lift(x); the D^-1 is
commuted to the front through the tau automorphism x -> w0 x w0
(conjugation by the Garside element, an involution on simples because D^2
is central).

The canonical text rendering is "D^p | w1 | w2 | ..." where wi is the
lexicographically least reduced word of the i-th factor.  One renderer,
`render_form`, writes it for elements and for the bare (power, factors)
keys of the graph builders alike, from one word table per group
(`simple_words`) that spells each simple once, when first asked for.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Iterator, Sequence

from .coxeter import CoxeterGraph, SimpleTable
from .errors import (
    EmptySubset,
    GroupMismatch,
    ReducibleSubset,
    UnknownGenerator,
)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LetterWord:
    """A word in the generators: pairs (generator index, nonzero exponent)."""

    group: CoxeterGraph
    letters: tuple[tuple[int, int], ...]

    def signed_letter_count(self) -> int:
        return sum(e for _, e in self.letters)

    def render(self) -> str:
        parts = []
        for s, e in self.letters:
            lab = self.group.generators[s]
            parts.append(lab if e == 1 else f"{lab}^{e}")
        return " ".join(parts)


def parse_word(group: CoxeterGraph, text: str) -> LetterWord:
    """Parse whitespace-separated tokens `gen`, `gen^k` or `gen^-k`."""
    letters = []
    for tok in text.split():
        if "^" in tok:
            base, _, exp = tok.partition("^")
            try:
                e = int(exp)
            except ValueError:
                raise UnknownGenerator(f"bad exponent in token {tok!r}") from None
        else:
            base, e = tok, 1
        if e == 0:
            continue
        letters.append((group.gen_index(base), e))
    return LetterWord(group, tuple(letters))


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class GarsideElement:
    """A group element in left-greedy normal form D^power factors.

    Construction checks the form: every factor lies strictly between 1 and
    w0 ("factor out of range"), and every adjacent pair (x, y) is
    left-weighted, L(y) <= R(x) ("factors not left-weighted"), in that
    order, raising AssertionError.  The check runs in debug mode only;
    `python -O` drops it.  Input from outside becomes an element only
    through `parse_word` and `normal_form`.
    """

    group: CoxeterGraph
    power: int
    factors: tuple[int, ...]

    def __post_init__(self):
        if __debug__ and (fs := self.factors):
            tab = self.group.table()
            assert 0 < min(fs) and max(fs) < tab.w0, "factor out of range"
            ldesc, rdesc, x = tab.ldesc, tab.rdesc, fs[0]
            for y in fs[1:]:
                assert not ldesc[y] & ~rdesc[x], "factors not left-weighted"
                x = y

    @property
    def inf(self) -> int:
        return self.power

    @property
    def sup(self) -> int:
        return self.power + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def is_identity(self) -> bool:
        return self.power == 0 and not self.factors

    def render(self) -> str:
        return render_form(self.group, self.power, self.factors)

    def sort_key(self):
        return (len(self.factors), self.power, self.factors)


_words: dict[SimpleTable, dict[int, str]] = {}


def simple_words(group: CoxeterGraph) -> dict[int, str]:
    """The word table of the group's simples, one per table: simple index
    -> its lex-least word spelled in the generator labels, spelled when
    first asked for."""
    tab = group.table()
    words = _words.get(tab)
    if words is None:
        labels, word = group.generators, tab.word

        class Words(dict):
            def __missing__(self, x):
                got = self[x] = "".join([labels[s] for s in word[x]])
                return got

        words = _words[tab] = Words()
    return words


def render_form(group: CoxeterGraph, power: int, factors: Iterable[int]) -> str:
    """The canonical text "D^p | w1 | ..." of the normal form D^power
    factors, with no element built."""
    return " | ".join([f"D^{power}", *map(simple_words(group).__getitem__, factors)])


def _normalise(tab: SimpleTable, seq: Sequence[int],
               start: int = 0) -> tuple[int, tuple[int, ...]]:
    """Slide a factor sequence into normal form, combing from `start` on.

    `seq[:start + 1]` must already be normal.  Returns (d, factors): d is
    the number of leading w0 factors absorbed into the Garside power;
    identity factors are dropped.
    """
    fs = [f for f in seq if f]
    ldesc, rdesc, renorm = tab.ldesc, tab.rdesc, tab.renorm
    i = start if start > 0 else 0
    while i < len(fs) - 1:
        x, y = fs[i], fs[i + 1]
        if not ldesc[y] & ~rdesc[x]:   # L(y) <= R(x): the pair is left-weighted
            i += 1
            continue
        a, b = renorm(x, y)
        if b:
            fs[i], fs[i + 1] = a, b
        else:
            fs[i] = a
            del fs[i + 1]
        if i:
            i -= 1
    d = 0
    while d < len(fs) and fs[d] == tab.w0:
        d += 1
    return d, tuple(fs[d:])


def _make(group: CoxeterGraph, power: int, seq: Sequence[int]) -> GarsideElement:
    d, fs = _normalise(group.table(), seq)
    return GarsideElement(group, power + d, fs)


def identity_element(group: CoxeterGraph) -> GarsideElement:
    return GarsideElement(group, 0, ())


def generator_element(group: CoxeterGraph, label: str) -> GarsideElement:
    return _make(group, 0, (group.table().rmult[0][group.gen_index(label)],))


def delta(group: CoxeterGraph) -> GarsideElement:
    return GarsideElement(group, 1, ())


def delta_pow(group: CoxeterGraph, k: int) -> GarsideElement:
    return GarsideElement(group, k, ())


def normal_form(word: LetterWord) -> GarsideElement:
    """Normal form of the element represented by a letter word."""
    tab = word.group.table()
    p, fs = 0, ()
    for gen_idx, exp in word.letters:
        s = tab.rmult[0][gen_idx]
        for _ in range(abs(exp)):
            if exp < 0:
                p -= 1
                fs = tuple(tab.tau[x] for x in fs)
                x = tab.left_comp[s]
            else:
                x = s
            d, fs = _normalise(tab, fs + (x,), len(fs) - 1)
            p += d
    return GarsideElement(word.group, p, fs)


def _check_group(g: GarsideElement, h: GarsideElement):
    if g.group is not h.group and g.group != h.group:
        raise GroupMismatch("elements live in different groups")


def multiply(g: GarsideElement, h: GarsideElement) -> GarsideElement:
    """Normal form of gh; inf is superadditive, sup subadditive."""
    _check_group(g, h)
    tab = g.group.table()
    gf = tuple(map(tab.tau.__getitem__, g.factors)) if h.power % 2 else g.factors
    d, fs = _normalise(tab, gf + h.factors, len(gf) - 1)
    return GarsideElement(g.group, g.power + h.power + d, fs)


def complement_factors(tab: SimpleTable, power: int,
                       factors: Sequence[int]) -> tuple[int, ...]:
    """The factors y_1..y_l of the normal form D^-(p+l) y_1..y_l of the
    inverse of D^power factors, by the complement rule of `invert`."""
    ys = list(map(tab.left_comp.__getitem__, reversed(factors)))
    first = (power + len(ys)) % 2   # ys[k] is y_(k+1), twisted when p + l - k - 1 is odd
    ys[first::2] = map(tab.tau.__getitem__, ys[first::2])
    return tuple(ys)


def invert(g: GarsideElement) -> GarsideElement:
    """Normal form of g^-1, read off the factors of g with no combing.

    Complement rule (Charney, Math. Ann. 292, 1992): g = D^p x_1..x_l has
    the inverse D^-(p+l) y_1..y_l, where y_i is the complement
    c(x_(l+1-i)) = w0 x_(l+1-i)^-1, twisted by t when p + l - i is odd.
    Proof sketch:
    - Value: x^-1 = D^-1 c(x), so g^-1 = D^-1 c(x_l) .. D^-1 c(x_1) D^-p,
      and each D^-1 moves to the front by y D^-1 = D^-1 t(y); c(x_(l+1-i))
      passes the l - i copies of D^-1 and the D^-p to its right.
    - No y_i is 1 or D, as c and t permute the simples, c exchanging 1
      and D, and no x_i is 1 or D.
    - Left-weighted: s is a right descent of c(z) exactly when it is not a
      left descent of z (c(z) z = w0 is reduced), and the left descents of
      c(x) are t of the generators that are not right descents of x.  The
      pair (y_i, y_(i+1)) is t^e of (c(x_(j+1)), t(c(x_j))), j = l - i, and
      L(t(c(x_j))) <= R(c(x_(j+1))) says S - R(x_j) <= S - L(x_(j+1)),
      which is the left-weightedness of (x_j, x_(j+1)).
    So the sequence is the normal form as it stands, of inf -(p + l) and
    sup -p.  The rule also serves standard parabolic membership, which
    reads the supports of its factors (`parabolic.standard_membership`),
    and, with power l, the complement u^-1 D^l of a positive u of length l
    (`metrics._coset_pair_distances`).
    """
    p, fs = g.power, g.factors
    return GarsideElement(g.group, -(p + len(fs)),
                          complement_factors(g.group.table(), p, fs))


def power(g: GarsideElement, k: int) -> GarsideElement:
    acc = identity_element(g.group)
    base = g if k >= 0 else invert(g)
    k = abs(k)
    while k:
        if k & 1:
            acc = multiply(acc, base)
        base = multiply(base, base)
        k >>= 1
    return acc


def are_equal(g: GarsideElement, h: GarsideElement) -> bool:
    """The word problem: equality of normal forms."""
    _check_group(g, h)
    return g.power == h.power and g.factors == h.factors


def commute(g: GarsideElement, h: GarsideElement) -> bool:
    return are_equal(multiply(g, h), multiply(h, g))


def exponent_sum(g: GarsideElement) -> int:
    """Image under the homomorphism sending every generator to 1."""
    tab = g.group.table()
    return g.power * tab.length[tab.w0] + sum(tab.length[x] for x in g.factors)


def tau_twist(g: GarsideElement) -> GarsideElement:
    """Conjugation D^-1 g D; an automorphism, trivial when D is central."""
    tau = g.group.table().tau   # a diagram automorphism: the form stays normal
    return GarsideElement(g.group, g.power, tuple(map(tau.__getitem__, g.factors)))


# ---------------------------------------------------------------------------
# Garside elements of standard parabolic subgroups
# ---------------------------------------------------------------------------

def delta_of(group: CoxeterGraph, subset: Iterable[str]) -> GarsideElement:
    """Positive lift of the longest element of W_T."""
    labels = tuple(subset)
    if not labels:
        raise EmptySubset("delta_of needs a nonempty subset")
    tab = group.table()
    w0t = tab.longest_in(tab.mask_of(group.gen_indices(labels)))
    return _make(group, 0, (w0t,))


@dataclasses.dataclass(frozen=True)
class OmegaResult:
    element: GarsideElement
    is_delta: bool


def omega_of(group: CoxeterGraph, subset: Iterable[str]) -> OmegaResult:
    """Minimal central element of A_T: Delta_T when central in A_T, else its square.

    Centrality is checked on generators: Delta_T s = s Delta_T for all s in T.
    """
    labels = tuple(subset)
    if not labels:
        raise EmptySubset("omega_of needs a nonempty subset")
    if not group.is_connected_subset(group.gen_indices(labels)):
        raise ReducibleSubset(f"subset {labels} induces a disconnected diagram")
    d = delta_of(group, labels)
    central = all(commute(d, generator_element(group, lab)) for lab in labels)
    return OmegaResult(d if central else multiply(d, d), central)


# ---------------------------------------------------------------------------
# Enumeration of positive normal forms
# ---------------------------------------------------------------------------

def iter_positive_factor_tuples(group: CoxeterGraph, length: int) -> Iterator[tuple[int, ...]]:
    """All left-weighted factor tuples of the given length, in index order."""
    tab = group.table()
    if length == 0:
        yield ()
        return
    first = tuple(x for x in range(1, tab.size) if x != tab.w0)
    buf = [0] * length

    def rec(depth: int, options):
        for x in options:
            buf[depth] = x
            if depth + 1 == length:
                yield tuple(buf)
            else:
                yield from rec(depth + 1, tab.follows(x))

    yield from rec(0, first)


def positive_nf_counts(group: CoxeterGraph, length: int) -> list[int]:
    """Numbers of positive normal forms of canonical length 0, 1, ..., length,
    counted in one pass over the lengths."""
    tab = group.table()
    out = [1]
    counts = {x: 1 for x in range(1, tab.size) if x != tab.w0}
    for ell in range(1, length + 1):
        out.append(sum(counts.values()))
        if ell < length:
            nxt: dict[int, int] = {}
            for x, c in counts.items():
                for y in tab.follows(x):
                    nxt[y] = nxt.get(y, 0) + c
            counts = nxt
    return out


def iter_positive_elements(group: CoxeterGraph, max_len: int) -> Iterator[GarsideElement]:
    """Positive elements (inf 0) of canonical length 1..max_len, level by level."""
    for ell in range(1, max_len + 1):
        for tup in iter_positive_factor_tuples(group, ell):
            yield GarsideElement(group, 0, tup)
