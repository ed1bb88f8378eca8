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

import importlib

from . import absorbable, coxeter, garside, parabolic  # noqa: F401

__version__ = "0.1.0"

# Loaded on first use, so that kernel work does not pay for the graph,
# acceptance and command-line modules.
_ON_DEMAND = ("acceptance", "braidtop", "cli", "graphio", "metrics")


def __getattr__(name: str):
    if name in _ON_DEMAND:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
