"""
Absorbable elements, the dihedral census, and fat triangles.

An element y is absorbable when inf(y) = 0 or sup(y) = 0 and some witness x
of the same canonical length L satisfies inf(x) = inf(xy) = 0 and
sup(x) = sup(xy) = L.  (For sup(y) = 0 the test is applied to y^-1, whose
inf is 0.)  The oracle is exact relative to this inf/sup formulation; the
census below relies on it through the prefix property of the last paragraph,
which `tests/test_absorbable.py::test_census_equals_the_unpruned_search`
checks against a census that tests every positive normal form.

The witness search enumerates positive normal forms of length exactly L in
index order (shortlex) and answers "yes" with the first witness, or "no"
once every candidate fails.  There are nearly |W|^L candidates, so a search
that passes `WITNESS_CANDIDATE_LIMIT` of them without a witness is refused
(CapExceeded) rather than answered.

The census uses that absorbability is inherited by normal-form prefixes:
if x absorbs y then the last j factors of x absorb y_1..y_j with the same
inf/sup equalities.  Absorbable elements of length l + 1 therefore extend
absorbable elements of length l, so the enumeration grows level by level and
stops at the first empty level (or at sup_bound); a refused witness search
stops it.  For dihedral groups the census is exact and finite; elsewhere it
is an explicitly bounded census.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from . import garside as gd
from .coxeter import CoxeterGraph
from .errors import (CapExceeded, IdentityInput, NotAnAbsorptionPair,
                     PreconditionViolated, ZeroLength)
from .garside import GarsideElement

WITNESS_CANDIDATE_LIMIT = 10_000_000


@dataclasses.dataclass(frozen=True)
class AbsorbResult:
    status: str  # "yes" | "no"; a search past the limit raises CapExceeded
    witness: GarsideElement | None = None
    inverted: bool = False  # the test ran on y^-1 (sup(y) = 0 case)

    def __bool__(self) -> bool:
        return self.status == "yes"


def is_absorbable(y: GarsideElement) -> AbsorbResult:
    """Decide absorbability of y by exhaustive same-length witness search."""
    if y.is_identity:
        raise IdentityInput("the identity is not eligible")
    if y.sup == 0:
        inner = is_absorbable(gd.invert(y))
        return AbsorbResult(inner.status, inner.witness, inverted=True)
    if y.inf != 0:
        return AbsorbResult("no")
    ell = y.canonical_length
    limit = WITNESS_CANDIDATE_LIMIT
    for seen, tup in enumerate(gd.iter_positive_factor_tuples(y.group, ell)):
        if seen == limit:
            raise CapExceeded(f"the witness search at canonical length {ell} found "
                              f"no witness within the limit of {limit} candidates")
        x = GarsideElement(y.group, 0, tup)
        xy = gd.multiply(x, y)
        if xy.inf == 0 and xy.sup == ell:
            return AbsorbResult("yes", witness=x)
    return AbsorbResult("no")


def enumerate_absorbable(group: CoxeterGraph, sup_bound: int) -> list[GarsideElement]:
    """All absorbable elements of canonical length <= sup_bound (none
    below 1).

    Both the inf = 0 family and its inverses (the sup = 0 family) are
    returned, in deterministic order.  Levels extend absorbable prefixes
    only; the enumeration stops early once a level is empty.
    """
    tab = group.table()
    positives: list[GarsideElement] = []
    level: list[tuple[int, ...]] = [()]
    for _ in range(sup_bound):
        found = [el for el in (GarsideElement(group, 0, tup + (x,)) for tup in level
                               for x in (tab.follows(tup[-1]) if tup else range(1, tab.w0)))
                 if is_absorbable(el)]
        if not found:
            break
        positives += found
        level = [el.factors for el in found]
    out = positives + [gd.invert(el) for el in positives]
    out.sort(key=lambda e: e.sort_key())
    return out


@dataclasses.dataclass(frozen=True)
class CensusSummary:
    m: int
    count: int
    expected: int
    elements: tuple[str, ...]


def dihedral_census(group: CoxeterGraph, sup_bound: int) -> CensusSummary:
    """Census of absorbable elements in a dihedral group, against 4m - 8."""
    if not group.is_dihedral:
        raise PreconditionViolated("dihedral census needs a rank-2 group")
    m = group.matrix[0][1]
    elems = enumerate_absorbable(group, sup_bound)
    return CensusSummary(m, len(elems), 4 * m - 8,
                         tuple(e.render() for e in elems))


# ---------------------------------------------------------------------------
# Fat triangles
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class FatTriangle:
    """Equilateral triangle on corners 1, x, xy with common inf 0 and sup L.

    Sides are vertex sequences of length L + 1: normal-form prefixes of x,
    the x-translates of prefixes of y, and prefixes of xy.
    """

    group: CoxeterGraph
    x: GarsideElement
    y: GarsideElement
    xy: GarsideElement
    length: int
    side_x: tuple[GarsideElement, ...]      # 1 .. x
    side_top: tuple[GarsideElement, ...]    # x .. xy
    side_xy: tuple[GarsideElement, ...]     # 1 .. xy


def _prefixes(g: GarsideElement) -> list[GarsideElement]:
    return [GarsideElement(g.group, 0, g.factors[:i])
            for i in range(len(g.factors) + 1)]


def absorption_equalities_hold(x: GarsideElement, y: GarsideElement) -> bool:
    """The four equalities inf(x)=inf(xy)=0, sup(x)=sup(xy)=L with L = len(y)
    and inf(y) = 0.  The product is formed first, so elements of two groups
    are refused (GroupMismatch) rather than answered."""
    xy = gd.multiply(x, y)
    ell = y.canonical_length
    return y.inf == x.inf == xy.inf == 0 and x.sup == xy.sup == ell


def build_fat_triangle(x: GarsideElement, y: GarsideElement) -> FatTriangle:
    """Triangle certificate for an absorption pair (x absorbs y)."""
    if not absorption_equalities_hold(x, y):
        raise NotAnAbsorptionPair("inf/sup equalities fail for (x, y)")
    ell = y.canonical_length
    if ell == 0:
        raise ZeroLength("triangle needs canonical length >= 1")
    xy = gd.multiply(x, y)
    side_x = tuple(_prefixes(x))
    side_top = tuple(gd.multiply(x, p) for p in _prefixes(y))
    side_xy = tuple(_prefixes(xy))
    return FatTriangle(x.group, x, y, xy, ell, side_x, side_top, side_xy)


@dataclasses.dataclass(frozen=True)
class SymmetryReport:
    pair2: tuple[GarsideElement, GarsideElement]
    pair3: tuple[GarsideElement, GarsideElement]
    both_verified: bool


def absorption_symmetry(x: GarsideElement, y: GarsideElement) -> SymmetryReport:
    """The two derived absorption pairs of a fat triangle.

    From x absorbing y: y absorbs (xy)^-1 D^L, and D^L (xy)^-1 absorbs x.
    Both derived pairs are re-verified through the inf/sup equalities.
    """
    if not absorption_equalities_hold(x, y):
        raise NotAnAbsorptionPair("inf/sup equalities fail for (x, y)")
    ell = y.canonical_length
    dl = gd.delta_pow(x.group, ell)
    xy_inv = gd.invert(gd.multiply(x, y))
    v2 = gd.multiply(xy_inv, dl)
    v3 = gd.multiply(dl, xy_inv)
    ok2 = absorption_equalities_hold(y, v2)
    ok3 = absorption_equalities_hold(v3, x)
    return SymmetryReport((y, v2), (v3, x), ok2 and ok3)


def absorption_pairs_from_census(group: CoxeterGraph, sup_bound: int) \
        -> Iterator[tuple[GarsideElement, GarsideElement]]:
    """(witness, absorbed) pairs for the positive census elements."""
    for y in enumerate_absorbable(group, sup_bound):
        if y.inf == 0 and y.sup > 0:
            res = is_absorbable(y)
            if res.status == "yes":
                yield res.witness, y
