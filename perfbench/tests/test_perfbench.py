"""Tests of the benchmark itself: seeded inputs, labels, and the output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from garsidehyp import garside as gd  # noqa: E402
from garsidehyp import parabolic as pb  # noqa: E402
from garsidehyp.errors import CapExceeded, GarsideHypError  # noqa: E402

import workloads  # noqa: E402
from workloads import INCONCLUSIVE, Raised  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


def first_rounds(wl, seed: int, n: int = 2) -> list[tuple]:
    return [op for ops in itertools.islice(wl.rounds(seed), n) for op in ops]


@pytest.fixture
def graphs(tmp_path):
    return workloads.Graphs(GOLDEN, tmp_path)


@pytest.mark.parametrize("name", ["kernel", "census", "graphs"])
def test_same_seed_same_ops(name, tmp_path):
    a = first_rounds(workloads.make(name, GOLDEN, tmp_path), 7)
    b = first_rounds(workloads.make(name, GOLDEN, tmp_path), 7)
    c = first_rounds(workloads.make(name, GOLDEN, tmp_path), 8)
    assert a == b
    assert a != c


def test_rounds_have_fixed_composition():
    kinds = [sorted(op[0] for op in ops)
             for ops in itertools.islice(workloads.Kernel(GOLDEN).rounds(3), 3)]
    assert kinds[0] == kinds[1] == kinds[2]


def _s3_exponent(word: str) -> int:
    return sum(-1 if tok.endswith("^-1") else 1
               for tok in word.split() if tok.partition("^")[0] == "s3")


def test_membership_labels_by_construction():
    census = workloads.Census(GOLDEN)
    b3 = census.b3
    s3 = b3.gen_index("s3")
    # Every m(s3, t) is even, so the exponent sum of s3 is a homomorphism
    # A(B3) -> Z; it vanishes on A_{s1,s2}, so a word with s3-exponent +-1
    # is not in A_{s1,s2}.
    assert all(b3.matrix[s3][t] % 2 == 0 for t in range(b3.rank) if t != s3)
    mem = [op for op in first_rounds(census, 11, 1) if op[0] == "mem"][:300]
    assert {op[2] for op in mem} == {True, False}
    for _, word, label in mem:
        letters = {tok.partition("^")[0] for tok in word.split()}
        if label:
            assert letters <= set(census.member_subset)
        else:
            assert abs(_s3_exponent(word)) == 1
        g = gd.normal_form(gd.parse_word(b3, word))
        try:
            assert pb.standard_membership(g, census.member_subset) is label
        except CapExceeded:
            assert not label   # today's known inconclusive cases
    assert any(gd.normal_form(gd.parse_word(b3, w)).inf < 0
               for _, w, label in mem if not label)


def _run(wl, op):
    prep = wl.prepare(op)
    try:
        res = wl.execute(op, prep)
    except GarsideHypError as exc:
        res = Raised(exc)
    return prep, res


def test_kernel_checks_reject_corrupted_answers():
    k = workloads.Kernel(GOLDEN)
    s1 = gd.generator_element(k.group["A5"], "s1")
    cases = [("nf", "A5", "s1 s2 s3^-1 s2"), ("mul", "A5", "s1 s4", "s2^-1 s3"),
             ("inv", "A5", "s1 s2 s5^-1"),
             ("eq", "A5", "s1 s2", "s1 s3 s3^-1 s2", True)]
    for op in cases:
        prep, res = _run(k, op)
        assert k.check(op, prep, res, 0.0) is None
        wrong = (not res) if op[0] == "eq" else gd.multiply(res, s1)
        assert k.check(op, prep, wrong, 0.0) is not None



def test_kernel_digest_rejects_wrong_normal_forms(monkeypatch):
    # Twisting by tau keeps the exponent sum, so only the digest sees it.
    k = workloads.Kernel({"kernel": {}})
    k.groups = ("A5",)
    k.golden["kernel"]["nf_digest"] = k.golden_digest()
    assert k.final_checks() == []
    normal_form = gd.normal_form
    monkeypatch.setattr(gd, "normal_form", lambda w: gd.tau_twist(normal_form(w)))
    assert k.final_checks()


def test_census_checks_reject_corrupted_answers():
    c = workloads.Census(GOLDEN)
    yes_words, no_words = c.labelled_words(2)
    for ans, word in (("yes", yes_words[0]), ("no", no_words[0])):
        op = ("abs", 2, word, ans)
        prep, res = _run(c, op)
        assert res.status == ans and c.check(op, prep, res, 0.0) is None
        flipped = type(res)("no" if ans == "yes" else "yes", res.witness)
        assert c.check(op, prep, flipped, 0.0) is not None
    op = ("abs", 2, yes_words[0], "yes")
    prep, res = _run(c, op)
    bad_witness = type(res)("yes", gd.identity_element(c.b3))
    assert "witness" in c.check(op, prep, bad_witness, 0.0)

    op = ("enum", "I2(5)", 10)
    prep, res = _run(c, op)
    assert c.check(op, prep, res, 0.0) is None
    short = type(res)(res.m, res.count - 1, res.expected, res.elements[1:])
    assert "elements" in c.check(op, prep, short, 0.0)

    op = ("enum", "A3", 3)
    prep, res = _run(c, op)
    assert c.check(op, prep, res, 0.0) is None
    assert "elements" in c.check(op, prep, res[:-1], 0.0)
    assert "digest" in c.check(op, prep, res[1:] + res[:1], 0.0)

    op = ("mem", "s1 s2^-1", True)
    prep, res = _run(c, op)
    assert c.check(op, prep, res, 0.0) is None
    assert c.check(op, prep, False, 0.0) is not None
    assert c.check(op, prep, Raised(CapExceeded("cap")), 0.0) == INCONCLUSIVE
    assert c.check(op, prep, Raised(ValueError("x")), 0.0) not in (None, INCONCLUSIVE)


def test_graph_checks_reject_edited_graph(graphs):
    op = ("quotient-cayley", "A3", 3)
    prep, res = _run(graphs, op)
    path = prep[1]
    text = path.read_text()
    assert graphs.check(op, prep, res, 0.0) is None   # and removes the file
    path.write_text(text.replace('"D^0"', '"D^0 "', 1))
    assert "digest" in graphs.check(op, prep, res, 0.0)
    data = json.loads(text)
    data["edges"] = [e for e in data["edges"] if 0 not in e]
    path.write_text(json.dumps(data))
    assert graphs.check(op, prep, res, 0.0) is not None


def test_delta_check_rejects_wrong_delta(graphs):
    op = ("delta-estimate", "B3", 3, graphs.delta_seeds[0])
    want = graphs.golden["delta/B3/3/50"][str(op[3])]
    payload = {"provenance": {"sample": graphs.delta_sample, "seed": op[3]},
               "delta_estimate": want}
    assert graphs._check_delta(op, payload) is None
    payload["delta_estimate"] = str(Fraction(want) + Fraction(1, 2))
    assert "delta" in graphs._check_delta(op, payload)
    payload["provenance"]["seed"] += 1
    assert "provenance" in graphs._check_delta(op, payload)


def test_ball_checks_hold_only_invariants(graphs):
    op = ("ball", "A3", "Simples", 2, 1)
    prep, res = _run(graphs, op)
    text = prep[1].read_text()
    assert graphs.check(op, prep, res, 0.0) is None
    data = json.loads(text)
    data["vertices"][-1] = "D^5"
    prep[1].write_text(json.dumps(data))
    assert "box" in graphs.check(op, prep, res, 0.0)


def test_exit_codes_and_errors_are_classified(graphs):
    op = ("quotient-cayley", "A3", 1)
    prep = graphs.prepare(op)
    assert graphs.check(op, prep, (3, "{}"), 0.0) == INCONCLUSIVE
    assert "exit code 1" in graphs.check(op, prep, (1, "{}"), 0.0)


class _OneOpRounds:
    """A stand-in workload: every round is one op that answers right."""

    def rounds(self, seed):
        while True:
            yield [("x",)]

    prepare = execute = staticmethod(lambda *args: None)
    check = staticmethod(lambda *args: None)
    final_checks = staticmethod(lambda: [])


def test_traced_runs_have_a_fixed_number_of_rounds():
    # Per-layer totals compare across commits only if the work is fixed.
    import worker
    rec = worker.measure(_OneOpRounds(), 0, seconds=0.5, tracer=None, n_rounds=3)
    assert rec["rounds"] == 3 and rec["attempted"] == 3


def _pace(at, took):
    from pace import Pace
    p = Pace()
    p.at, p.took = list(at), list(took)
    return p


def test_pace_scales_by_the_reference_loop_around_an_op():
    from pace import REFERENCE_S, WINDOW_S
    slow = 2 * REFERENCE_S
    p = _pace([0.0, 1.0, 1.01, 1.02, 5.0], [REFERENCE_S, slow, slow, slow, REFERENCE_S])
    # An op from 1.0 to 1.03 saw only the slow runs: half the reference pace.
    assert p.scale(1.0, 1.03) == pytest.approx(0.5)
    assert p.slowdown(1.0, 1.03) == pytest.approx(2.0)
    # Away from every run, the nearest one sets the pace.
    assert p.scale(3.0, 3.0 + WINDOW_S / 10) == pytest.approx(1.0)
    # Runs that fell inside the op are taken off its time.
    assert p.inside(1.005, 1.5) == pytest.approx(2 * slow)
    assert p.inside(2.0, 3.0) == 0.0


def test_paced_measure_scales_each_op_and_keeps_unscaled(monkeypatch):
    import worker

    class Halved:
        """A stand-in pace: the host runs at half the reference pace."""
        def stop(self):
            pass

        def inside(self, t0, t1):
            return 0.0

        def scale(self, t0, t1):
            return 0.5

        def slowdown(self, t0, t1):
            return 2.0

    rec = worker.measure(_OneOpRounds(), 0, seconds=0.1, tracer=None,
                         n_rounds=50, pace=Halved())
    assert rec["ops_per_s"] == pytest.approx(2 * rec["unscaled"]["ops_per_s"])
    assert rec["op_p50_ms"] == pytest.approx(0.5 * rec["unscaled"]["op_p50_ms"])
    assert rec["slowdown"] == 2.0


def test_pace_runs_on_a_timer():
    import time
    from pace import INTERVAL_S, Pace
    p = Pace()
    p.start()
    try:
        end = time.perf_counter() + 20 * INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        p.stop()
    assert len(p.at) >= 5 and all(t > 0 for t in p.took)
