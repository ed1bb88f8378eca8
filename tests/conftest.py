"""Session-start check of the tables of W that the tests build on.

A table whose lists disagree (say `rdesc` with `rmult`) can send the Garside
kernel's loops round for ever, so the run would hang at its first product.
Before any test is collected, the table of each small group the tests use
is compared with the direct derivation of `oracles.reference_table` (0.1 to
17 ms per group, F4 the largest), and the run stops naming the group and
the lists that differ.
"""

import pytest

from garsidehyp.coxeter import CoxeterGraph, parse_group_spec
from oracles import reference_table

CHECKED_GROUPS = ("A1", "A2", "A3", "A4", "B2", "B3", "D4", "H3", "F4",
                  "I2(5)", "I2(6)", "I2(8)")
A1XA2 = CoxeterGraph(("s1", "s2", "s3"), ((1, 2, 2), (2, 1, 3), (2, 3, 1)))


def pytest_sessionstart(session):
    for graph in [*map(parse_group_spec, CHECKED_GROUPS), A1XA2]:
        tab = graph.table()
        bad = [name for name, value in reference_table(graph).items()
               if getattr(tab, name) != value]
        if bad:
            pytest.exit(f"the table of {graph.family} differs from "
                        f"oracles.reference_table in {', '.join(bad)}",
                        returncode=pytest.ExitCode.TESTS_FAILED)
