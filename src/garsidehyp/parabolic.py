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
EMS Tracts 22, 2015).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Iterator, Sequence

from . import garside as gd
from .coxeter import CoxeterGraph
from .errors import (
    EmptySubset,
    GroupMismatch,
    ImproperSubset,
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
    outside = ~tab.mask_of(g.group.gen_indices(labels))

    def positive_member(power: int, factors: Iterable[int]) -> bool:
        return (power == 0 or tab.support[tab.w0] & outside == 0) and \
            all(tab.support[x] & outside == 0 for x in factors)

    if g.power >= 0:
        return positive_member(g.power, g.factors)
    j = min(-g.power, len(g.factors))
    a = gd.invert(GarsideElement(g.group, g.power, g.factors[:j]))
    return positive_member(a.power, a.factors) and positive_member(0, g.factors[j:])


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


def _standardization_candidates(group: CoxeterGraph,
                                radius: int) -> Iterator[GarsideElement]:
    """Conjugator search ball: D^k times positives of canonical length <= radius.

    Multiplying by a power of D does not change canonical length, and D^2 is
    central, so the twists k in {0, 1} exhaust the D-coset of each positive.
    """
    for g in itertools.chain([gd.identity_element(group)],
                             gd.iter_positive_elements(group, radius)):
        for twist in (0, 1):
            yield GarsideElement(group, twist, g.factors)


def simultaneous_standardize(p: ParabolicSubgroup, q: ParabolicSubgroup,
                             radius: int):
    """Search for g with g^-1 P g and g^-1 Q g both standard.

    Returns (g, T1, T2) or None when nothing is found within the radius;
    None means "not found within radius", never "nonexistent" (existence is
    guaranteed whenever the Omegas commute).
    """
    if not omega_commute_edge(p, q):
        raise PreconditionViolated("Omega_P and Omega_Q do not commute")
    index = standard_omega_index(p.group)
    for g in _standardization_candidates(p.group, radius):
        ginv = gd.invert(g)
        op = gd.multiply(gd.multiply(ginv, p.omega), g)
        t1 = index.get((op.power, op.factors))
        if t1 is None:
            continue
        oq = gd.multiply(gd.multiply(ginv, q.omega), g)
        t2 = index.get((oq.power, oq.factors))
        if t2 is None:
            continue
        return g, t1, t2
    return None
