"""
Braid-specific constructions: standard curves, arc-stabilizer word
identities, strand doubling, and the three-parabolic factorization of the
Garside element.

Conventions.  The braid group on n+1 strands is the Artin-Tits group of type
A_n with generators s_1..s_n (half twists of adjacent punctures).  The round
curve enclosing punctures i..j corresponds to the standard parabolic on
{s_i,...,s_{j-1}}; its Dehn twist is the square of that subgroup's Garside
element.

Strand doubling replaces the strand starting at position 1 by a parallel
pair.  While scanning the word we track the block's position p; a crossing
sigma_t with t = p (block crosses its right neighbour) emits
sigma_{p+1} sigma_p, a crossing with t = p - 1 emits sigma_{p-1} sigma_p,
both with the sign of the original letter, and crossings not involving the
block are shifted by one when they happen to its right.  The convention
(front strand first) is validated by the homomorphism and normalizer
invariants in the tests rather than by an external formula.
"""

from __future__ import annotations

import dataclasses
import functools

from . import garside as gd
from . import parabolic as pb
from .coxeter import CoxeterGraph, parse_group_spec
from .errors import (
    GroupMismatch,
    IndexOutOfRange,
    NotFoundWithinSearch,
    NotPureAtStrandOne,
    RankTooSmall,
)
from .garside import GarsideElement, LetterWord
from .parabolic import ParabolicSubgroup


@functools.lru_cache(maxsize=None)
def braid_group(n: int) -> CoxeterGraph:
    """The Artin-Tits group of type A_n (braids on n+1 strands)."""
    return parse_group_spec(f"A{n}")


# ---------------------------------------------------------------------------
# Standard curves
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StandardCurve:
    """Round curve enclosing punctures i..j of the (n+1)-punctured disk."""

    n: int
    i: int
    j: int

    def __post_init__(self):
        if self.n < 2:
            raise RankTooSmall("standard curves need n >= 2")
        if not (1 <= self.i < self.j <= self.n + 1):
            raise IndexOutOfRange(f"need 1 <= i < j <= n+1, got ({self.i}, {self.j})")
        if (self.i, self.j) == (1, self.n + 1):
            raise IndexOutOfRange("the curve around all punctures is excluded")

    def render(self) -> str:
        return f"c({self.i},{self.j})"


def standard_curves(n: int) -> list[StandardCurve]:
    """All standard curves; there are n(n+1)/2 - 1 of them."""
    if n < 2:
        raise RankTooSmall("standard curves need n >= 2")
    return [StandardCurve(n, i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 2)
            if (i, j) != (1, n + 1)]


@dataclasses.dataclass(frozen=True)
class CurveDictEntry:
    subgroup: ParabolicSubgroup
    dehn_twist: GarsideElement


def curve_parabolic_dictionary(c: StandardCurve) -> CurveDictEntry:
    """The parabolic subgroup enclosed by the curve and its Dehn twist."""
    group = braid_group(c.n)
    labels = tuple(group.generators[t] for t in range(c.i - 1, c.j - 1))
    sub = pb.standard_parabolic(group, labels)
    d = gd.delta_of(group, labels)
    return CurveDictEntry(sub, gd.multiply(d, d))


# ---------------------------------------------------------------------------
# Arc stabilizer identities
# ---------------------------------------------------------------------------

def _descending_run(hi: int, lo: int) -> list[int]:
    # 1-based generator subscripts hi, hi-1, ..., lo as 0-based indices.
    return [t - 1 for t in range(hi, lo - 1, -1)]


def tubular_word(n: int, i: int) -> list[int]:
    """The two-fat-strand tubular braid word for the arc between blocks i, n+1-i."""
    word: list[int] = []
    for t in range(1, n - i + 2):
        word.extend(_descending_run(i + t - 1, t))
    for t in range(1, i + 1):
        word.extend(_descending_run(n - i + t, t))
    return word


def tubular_half_word(n: int, i: int) -> list[int]:
    """First block only: the half tubular braid (2i = n + 1 case)."""
    word: list[int] = []
    for t in range(1, n - i + 2):
        word.extend(_descending_run(i + t - 1, t))
    return word


def arc_stabilizer_identity(n: int, i: int, k: int, half: bool = False) -> bool:
    """Verify the tubular word against its Garside-element expression.

    Full case: ((s_i..s_1)(s_{i+1}..s_2)...(s_n..s_{n-i+1})(s_{n-i+1}..s_1)
    ...(s_n..s_{i+1}))^k equals D^2k D_{<s_1..s_{i-1}>}^-2k
    D_{<s_{i+1}..s_n>}^-2k.  Half case (2i = n+1): the first block to the
    k-th power equals (D D_{<s_1..s_{i-1}>}^-1 D_{<s_{i+1}..s_n>}^-1)^k.
    """
    if not (1 <= i <= n) or k < 1:
        raise IndexOutOfRange(f"need 1 <= i <= n and k >= 1, got i={i}, k={k}")
    if half and 2 * i != n + 1:
        raise IndexOutOfRange("half case requires 2i = n + 1")
    group = braid_group(n)
    left = tuple(group.generators[t] for t in range(i - 1))
    right = tuple(group.generators[t] for t in range(i, n))

    word = tubular_half_word(n, i) if half else tubular_word(n, i)
    lhs = gd.power(gd.normal_form(
        LetterWord(group, tuple((s, 1) for s in word))), k)

    e = 1 if half else 2
    rhs = gd.delta_pow(group, e)
    for part in (left, right):
        if part:
            rhs = gd.multiply(rhs, gd.power(gd.delta_of(group, part), -e))
    rhs = gd.power(rhs, k)
    return gd.are_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# Strand doubling
# ---------------------------------------------------------------------------

def doubled_letters(word: LetterWord, n: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Letter image of doubling the first strand, plus the signed count of
    crossings involving the tracked strand.

    The input is a word in the braid group on n strands (type A_{n-1}); the
    output letters live in type A_n.  Raises NotPureAtStrandOne when the
    tracked strand does not return to position 1.
    """
    if word.group.rank != n - 1:
        raise GroupMismatch(f"word group has rank {word.group.rank}, expected {n - 1}")
    pos = 1
    out: list[tuple[int, int]] = []
    tracked = 0
    for gen_idx, exp in word.letters:
        sign = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            t = gen_idx + 1
            if t == pos:
                out.extend([(pos, sign), (pos - 1, sign)])  # sigma_{pos+1}, sigma_pos
                tracked += sign
                pos += 1
            elif t == pos - 1:
                out.extend([(t - 1, sign), (t, sign)])  # sigma_{t}, sigma_{t+1}
                tracked += sign
                pos -= 1
            elif t > pos:
                out.append((t, sign))  # shifted right of the block
            else:
                out.append((t - 1, sign))  # untouched, left of the block
    if pos != 1:
        raise NotPureAtStrandOne(f"tracked strand ends at position {pos}")
    return tuple(out), tracked


def double_first_strand(word: LetterWord, n: int) -> GarsideElement:
    """Image of a pure-at-one braid word under doubling the first strand."""
    letters, _ = doubled_letters(word, n)
    target = braid_group(n)
    return gd.normal_form(LetterWord(target, letters))


# ---------------------------------------------------------------------------
# Three-parabolic factorization of Delta
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class DeltaFactorization:
    parts: tuple[tuple[GarsideElement, tuple[str, ...]], ...]


def _fits_proper_irreducible(group: CoxeterGraph, support_mask: int):
    for labels in pb.proper_irreducible_subsets(group):
        tmask = group.table().mask_of(group.gen_indices(labels))
        if support_mask & ~tmask == 0:
            return labels
    return None


def delta_three_parabolic_factorization(group: CoxeterGraph) -> DeltaFactorization:
    """Find u v w = Delta with each factor in a proper irreducible standard
    parabolic subgroup.

    The search is prefix-greedy over normal-form prefixes: u runs over
    simples supported in a proper irreducible subset, v over simple prefixes
    of the remainder u^-1 Delta, and the last factor w = (uv)^-1 Delta must
    again fit in a proper irreducible subset.
    """
    if group.rank < 3:
        raise RankTooSmall("the factorization needs rank >= 3")
    tab = group.table()
    for u in range(1, tab.w0):
        t_u = _fits_proper_irreducible(group, tab.support[u])
        if t_u is None:
            continue
        rem1 = tab.mult(tab.inverse[u], tab.w0)
        for v in range(1, tab.w0):
            # v must be a weak-order prefix of rem1.
            w = tab.mult(tab.inverse[v], rem1)
            if tab.length[v] + tab.length[w] != tab.length[rem1]:
                continue
            t_v = _fits_proper_irreducible(group, tab.support[v])
            if t_v is None:
                continue
            t_w = _fits_proper_irreducible(group, tab.support[w])
            if t_w is None or w == 0:
                continue
            parts = tuple(
                (GarsideElement(group, 0, (x,)), t)
                for x, t in ((u, t_u), (v, t_v), (w, t_w)))
            return DeltaFactorization(parts)
    raise NotFoundWithinSearch("no simple triple found")
