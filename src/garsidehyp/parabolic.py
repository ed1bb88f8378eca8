"""
Irreducible parabolic subgroups and their canonical keys.

A parabolic subgroup P = a^-1 A_T a is represented by the normal form of its
minimal central element Omega_P = a^-1 Omega_T a, which depends only on P.
Equality of subgroups is equality of these keys.

Membership in a standard parabolic A_T is exact.  Write the normal form as
g = D^p x_1..x_k.  For p >= 0, g is positive, and a positive element lies in
A_T exactly when it lies in the submonoid A_T^+, that is when every greedy
factor (D counted p times) is supported in T; for proper T this rules out
p > 0.  For p = -m < 0, split g as
a^-1 b with a = (D^-m x_1..x_j)^-1 and b = x_{j+1}..x_k, j = min(m, k).
Both are positive, and this is the left-fraction (np) normal form of g:
a and b have no common left divisor.  Standard parabolic submonoids are
closed under left divisors and left gcds, so g lies in A_T exactly when both
a and b lie in A_T^+ (Paris, "Parabolic subgroups of Artin groups",
J. Algebra 196, 1997; Dehornoy et al., Foundations of Garside Theory,
EMS Tracts 22, 2015).  The normal form of a is D^(m-j) y_1..y_j, the
complement rule of `garside.invert` on x_1..x_j with power -m, so the test
reads the supports of those factors and of x_{j+1}..x_k, and builds no
element.  In both cases the power of D to test is |p + j| (j = 0 for p >= 0).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterable, Sequence

from . import garside as gd
from .coxeter import CoxeterGraph
from .errors import (
    EmptySubset,
    GroupMismatch,
    ImproperSubset,
    NotFoundWithinSearch,
    PreconditionViolated,
    ReducibleSubset,
    SameVertex,
)
from .garside import GarsideElement


@dataclasses.dataclass(frozen=True)
class ParabolicSubgroup:
    """An irreducible proper parabolic subgroup, keyed by Omega_P."""

    group: CoxeterGraph
    omega: GarsideElement
    witness_conj: GarsideElement = dataclasses.field(compare=False)
    witness_subset: tuple[str, ...] = dataclasses.field(compare=False)

    @property
    def rank(self) -> int:
        return len(self.witness_subset)

    def key(self) -> str:
        return self.omega.render()

    def render(self) -> str:
        return f"P[{self.key()}]"


def subset_labels(group: CoxeterGraph, subset: Iterable[str]) -> tuple[str, ...]:
    labels = tuple(subset)
    if not labels:
        raise EmptySubset("empty generator subset")
    group.gen_indices(labels)
    return labels


def _require_irreducible(group: CoxeterGraph, labels: Sequence[str]):
    if not group.is_connected_subset(group.gen_indices(labels)):
        raise ReducibleSubset(f"subset {tuple(labels)} induces a disconnected diagram")


def proper_irreducible_subsets(group: CoxeterGraph) -> list[tuple[str, ...]]:
    """All nonempty proper generator subsets with connected induced diagram."""
    out = []
    n = group.rank
    for r in range(1, n):
        for combo in itertools.combinations(range(n), r):
            if group.is_connected_subset(combo):
                out.append(tuple(group.generators[i] for i in combo))
    return out


def standard_membership(g: GarsideElement, subset: Iterable[str]) -> bool:
    """Whether g lies in the standard parabolic A_T (exact; see module docstring)."""
    labels = subset_labels(g.group, subset)
    tab = g.group.table()
    outside, support = ~tab.mask_of(g.group.gen_indices(labels)), tab.support
    j = min(max(-g.power, 0), len(g.factors))
    return (g.power + j == 0 or not support[tab.w0] & outside) and not any(
        support[x] & outside for x in itertools.chain(
            gd.complement_factors(tab, g.power, g.factors[:j]), g.factors[j:]))


def normalizer_membership(g: GarsideElement, subset: Iterable[str]) -> bool:
    """Whether g normalizes A_T, tested as commutation with Omega_T."""
    labels = subset_labels(g.group, subset)
    _require_irreducible(g.group, labels)
    return gd.commute(g, gd.omega_of(g.group, labels).element)


def parabolic_from_conjugate(a: GarsideElement,
                             subset: Iterable[str]) -> ParabolicSubgroup:
    """The subgroup a^-1 A_T a with its canonical Omega key."""
    labels = subset_labels(a.group, subset)
    if len(labels) == a.group.rank:
        raise ImproperSubset("T must be a proper subset")
    _require_irreducible(a.group, labels)
    omega_t = gd.omega_of(a.group, labels).element
    omega = gd.multiply(gd.multiply(gd.invert(a), omega_t), a)
    return ParabolicSubgroup(a.group, omega, a, labels)


def standard_parabolic(group: CoxeterGraph,
                       subset: Iterable[str]) -> ParabolicSubgroup:
    return parabolic_from_conjugate(gd.identity_element(group), subset)


def act_on_parabolic(b: GarsideElement, p: ParabolicSubgroup) -> ParabolicSubgroup:
    """Right conjugation action: the subgroup b^-1 P b."""
    if b.group != p.group:
        raise GroupMismatch("braid and subgroup live in different groups")
    omega = gd.multiply(gd.multiply(gd.invert(b), p.omega), b)
    return ParabolicSubgroup(p.group, omega,
                             gd.multiply(p.witness_conj, b), p.witness_subset)


def omega_commute_edge(p: ParabolicSubgroup, q: ParabolicSubgroup) -> bool:
    """C_parab adjacency: the minimal central elements commute."""
    if p.group != q.group:
        raise GroupMismatch("parabolic subgroups of different groups")
    if p.omega == q.omega:
        raise SameVertex("adjacency needs two distinct subgroups")
    return gd.commute(p.omega, q.omega)


def standard_omega_index(group: CoxeterGraph) -> dict[tuple[int, tuple[int, ...]], tuple[str, ...]]:
    """Map from Omega normal-form keys of standard subgroups to their subsets."""
    out = {}
    for labels in proper_irreducible_subsets(group):
        om = gd.omega_of(group, labels).element
        out[(om.power, om.factors)] = labels
    return out


def _slide_to_standard(omegas: Sequence[GarsideElement]) -> tuple:
    """(c, T, ...) with c^-1 Omega c = Omega_T for each Omega given, T standard.

    Cyclic sliding of the product x of the Omegas: the preferred prefix is
    p(x) = iota(x) ^ iota(x^-1), iota(D^p x_1..x_r) = t^p(x_1) (1 if r = 0),
    x slides to p(x)^-1 x p(x), and c is the product of the prefixes.  Each round
    conjugates the Omegas by c itself, so the c returned is verified.
    Sliding never lowers inf nor raises sup (Gebhardt and Gonzalez-Meneses,
    Math. Z. 265, 2010), so x keeps to a finite set; a repeat raises.
    """
    group = omegas[0].group
    tab = group.table()
    index = standard_omega_index(group)
    x = functools.reduce(gd.multiply, omegas)
    conj = gd.identity_element(group)
    seen = set()
    while True:
        cinv = gd.invert(conj)
        subsets = [index.get((om.power, om.factors)) for om in
                   (gd.multiply(gd.multiply(cinv, om), conj) for om in omegas)]
        if None not in subsets:
            return (conj, *subsets)
        if (x.power, x.factors) in seen:
            raise NotFoundWithinSearch(f"cyclic sliding came back to {x.render()}")
        seen.add((x.power, x.factors))
        iotas = [tab.tau[y.factors[0]] if y.power % 2 else y.factors[0]
                 for y in (x, gd.invert(x)) if y.factors]
        meet = tab.prefix_meet(*iotas) if iotas else 0
        prefix = GarsideElement(group, 0, (meet,) if meet else ())
        x = gd.multiply(gd.multiply(gd.invert(prefix), x), prefix)
        conj = gd.multiply(conj, prefix)


def standardize(p: ParabolicSubgroup) -> tuple[GarsideElement, tuple[str, ...]]:
    """(g, T) with g^-1 P g = A_T, by cyclic sliding of Omega_P."""
    return _slide_to_standard([p.omega])


def simultaneous_standardize(p: ParabolicSubgroup, q: ParabolicSubgroup):
    """(g, T1, T2) with g^-1 P g = A_T1 and g^-1 Q g = A_T2 for adjacent P
    and Q, by cyclic sliding of Omega_P Omega_Q."""
    if not omega_commute_edge(p, q):
        raise PreconditionViolated("Omega_P and Omega_Q do not commute")
    return _slide_to_standard([p.omega, q.omega])
