"""Garside arithmetic in spherical Artin-Tits groups and the candidate
hyperbolic structures built from parabolic subgroups and absorbable elements.

Quick tour:

    >>> from garsidehyp import coxeter, garside
    >>> group = coxeter.parse_group_spec("A2")
    >>> garside.normal_form(garside.parse_word(group, "a a b")).render()
    'D^0 | a | ab'

Submodules: `coxeter` (finite Coxeter groups), `garside` (normal forms),
`parabolic` (parabolic subgroups), `absorbable` (absorbability and fat
triangles), `braidtop` (braid-specific constructions), `metrics`
(generating-set oracles and truncated graphs), `graphio` (DOT/JSON),
`acceptance` (the checklist), `cli` (command line).
"""

from . import (  # noqa: F401
    absorbable,
    acceptance,
    braidtop,
    coxeter,
    garside,
    graphio,
    metrics,
    parabolic,
)

__version__ = "0.1.0"
