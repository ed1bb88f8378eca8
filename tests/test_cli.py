import json
import math
import random
import time

import pytest

from garsidehyp import absorbable as ab, cli, graphio, metrics as mt
from garsidehyp.coxeter import parse_group_spec


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def last_json(out):
    return json.loads(out.splitlines()[-1])


def test_nf_command(capsys):
    code, out = run(capsys, "nf", "--group", "A2", "--word", "a a b")
    assert code == 0
    assert last_json(out)["normal_form"] == "D^0 | a | ab"


def test_census_command(capsys):
    code, out = run(capsys, "census", "--group", "I2(5)", "--sup-bound", "12")
    data = last_json(out)
    assert code == 0
    assert data["count"] == data["expected"] == 12


def test_mul_inv_member(capsys):
    code, out = run(capsys, "mul", "--group", "A3", "--left", "s1", "--right", "s3")
    assert code == 0
    code, out = run(capsys, "inv", "--group", "A2", "--word", "a")
    assert last_json(out)["inverse"] == "D^-1 | ab"
    code, out = run(capsys, "member", "--group", "A3", "--word", "s1 s2 s1",
                    "--subset", "s1,s2")
    assert code == 0 and last_json(out)["member"] is True
    # non-members with negative inf get an answer, not an exit 3
    for word in ("s3^-1", "s1 s3^-1"):
        code, out = run(capsys, "member", "--group", "A3", "--word", word,
                        "--subset", "s1,s2")
        assert code == 0 and last_json(out)["member"] is False
    code, out = run(capsys, "normalizer", "--group", "A3", "--word", "s1 s2 s1 s2 s1 s3 s2 s1 s2 s1 s2 s3",
                    "--subset", "s2")
    assert code == 0


def test_omega_command(capsys):
    code, out = run(capsys, "omega", "--group", "B2")
    data = last_json(out)
    assert code == 0 and data["is_delta"] is True


def test_fat_triangle_command(capsys):
    code, out = run(capsys, "fat-triangle", "--group", "A3",
                    "--x", "s1^3", "--y", "s3^3",
                    "--check-distances", "--check-symmetry")
    data = last_json(out)
    assert code == 0
    assert data["distance_checks"]["all_pass"] is True
    assert data["symmetry_verified"] is True


def test_arc_identity_and_double(capsys):
    code, out = run(capsys, "arc-identity", "--n", "3", "--i", "2", "--k", "1",
                    "--half")
    assert code == 0 and last_json(out)["equal"] is True
    code, out = run(capsys, "double", "--n", "3", "--word", "b")
    assert code == 0 and last_json(out)["image"] == "D^0 | s3"


def test_wordlen_and_ball(capsys):
    code, out = run(capsys, "wordlen", "--group", "I2(5)", "--kind", "XP",
                    "--word", "a^5", "--universe", "8")
    data = last_json(out)
    assert code == 0 and (data["kind"], data["value"]) == ("exact", 1)
    code, out = run(capsys, "ball", "--group", "I2(3)", "--kind",
                    "FiniteS_plus_Delta2", "--radius", "2", "--universe", "6")
    assert code == 0 and last_json(out)["vertices"] > 1


def test_delta_factor_and_qi(capsys):
    code, out = run(capsys, "delta-factor", "--group", "A3")
    assert code == 0 and last_json(out)["product_is_delta"] is True
    code, out = run(capsys, "qi-constants", "--group", "A3",
                    "--lipschitz-samples", "25")
    data = last_json(out)
    assert code == 0 and data["M1"] == 2 and data["lipschitz"]["failures"] == 0
    assert set(data) == {"M1", "M1_exact", "lipschitz"}


def test_delta_estimate(capsys, tmp_path):
    out_file = tmp_path / "ball.json"
    code, out = run(capsys, "delta-estimate", "--group", "I2(3)",
                    "--len-bound", "4", "--sample", "400", "--seed", "7",
                    "--out", str(out_file))
    data = last_json(out)
    assert code == 0
    assert data["provenance"]["seed"] == 7
    assert out_file.exists()
    # 400 of C(n, 4) 4-tuples drawn: a lower bound on delta of the truncation
    n = data["vertices"]
    assert data["quadruples_total"] == n * (n - 1) * (n - 2) * (n - 3) // 24 > 400
    rng = random.Random(7)   # the sampler of estimate_delta; draws may repeat
    drawn = {tuple(sorted(rng.sample(range(n), 4))) for _ in range(400)}
    assert data["quadruples_examined"] == len(drawn)
    assert data["delta_exactness"] == "sampled lower bound"
    assert len(data["delta_certificate"]) == 4
    # every 4-subset examined: the quotient-Cayley truncation is the ball of
    # radius L, isometrically, so its delta is exact and bounds the graph's
    code, out = run(capsys, "delta-estimate", "--group", "A2", "--len-bound", "2",
                    "--sample", "35")
    data = last_json(out)
    assert code == 0 and data["vertices"] == 7
    assert data["quadruples_examined"] == data["quadruples_total"] == 35
    assert data["delta_exactness"] == \
        "exact delta of the radius-2 ball of Cay(A)/<D>; a lower bound for Cay(A)/<D>"
    assert "\\u" not in out   # the raw line reads as it parses
    # the first 4-subset examined attains delta 0
    assert data["delta_certificate"] == ["D^0", "D^0 | a", "D^0 | a | a", "D^0 | a | ab"]
    # the cal graph is exact for its truncation only
    code, out = run(capsys, "delta-estimate", "--group", "A2", "--len-bound", "2",
                    "--sample", "35", "--construction", "cal")
    data = last_json(out)
    assert data["quadruples_examined"] == data["quadruples_total"] == 35
    assert data["delta_exactness"] == "exact for the truncation"
    # fewer than 4 vertices: no 4-tuple, no certificate
    code, out = run(capsys, "delta-estimate", "--group", "A1", "--len-bound", "1")
    data = last_json(out)
    assert code == 0 and data["vertices"] == 1 and data["delta_certificate"] is None
    # 34 draws of the 35 4-subsets repeat some and examine 23 distinct ones
    code, out = run(capsys, "delta-estimate", "--group", "A2", "--len-bound", "2",
                    "--sample", "34")
    data = last_json(out)
    assert data["delta_exactness"] == "sampled lower bound"
    assert data["quadruples_examined"] == 23


@pytest.mark.parametrize("argv", [
    ("quotient-cayley", "--group", "F4", "--len-bound", "3"),
    ("quotient-cayley", "--group", "H4", "--len-bound", "2"),
    ("delta-estimate", "--group", "A5", "--len-bound", "2"),
])
def test_oversized_product_tables_are_refused(capsys, argv):
    # F4 to length 3 would have 77 M normal forms, H4 to length 2 50 M; the
    # forms are listed only up to the level before the limit is passed
    parse_group_spec(argv[2]).table()   # the table of W is built once per group
    t0 = time.perf_counter()
    code, out = run(capsys, *argv)
    data = last_json(out)
    assert code == 3 and data["error"] == "CapExceeded"
    assert str(mt.TABLE_LIMIT) in data["message"]
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv,limit,count", [
    (("ball", "--group", "F4", "--kind", "Simples", "--radius", "3", "--universe", "3"),
     "BALL_PRODUCT_LIMIT", "358586477571"),
    (("cparab", "--group", "A4", "--p0", "std:s1,s2", "--conj-len", "3", "--hops", "2"),
     "CPARAB_CANDIDATE_LIMIT", "679401"),
    (("ball", "--group", "D4", "--kind", "XNP", "--radius", "2", "--universe", "1"),
     "BALL_PRODUCT_LIMIT", "2818710"),
])
def test_oversized_balls_and_cparab_are_refused(capsys, argv, limit, count):
    # the products a ball would read, and the candidates of C_parab, are
    # counted before any is formed: a ball of the simples counts its
    # |V| (n - 1) products from the closed form, with no walk, and a walk
    # those of each layer before it expands it
    parse_group_spec(argv[2]).table()
    t0 = time.perf_counter()
    code, out = run(capsys, *argv)
    data = last_json(out)
    assert code == 3 and data["error"] == "CapExceeded"
    assert count in data["message"] and str(getattr(mt, limit)) in data["message"]
    assert time.perf_counter() - t0 < (1.0 if "Simples" in argv else 2.0)


@pytest.mark.parametrize("group,count", [("H4", "500801"), ("E6", "509720")])
def test_oversized_quotient_cayley_boundaries_are_refused(capsys, group, count):
    # the upper intervals the boundary scan reads are listed before any edge
    # is formed: H4 would list 4,197,284 simples, E6 more
    parse_group_spec(group).table()
    t0 = time.perf_counter()
    code, out = run(capsys, "quotient-cayley", "--group", group, "--len-bound", "1")
    data = last_json(out)
    assert code == 3 and data["error"] == "CapExceeded"
    assert count in data["message"] and str(mt.TABLE_LIMIT) in data["message"]
    assert time.perf_counter() - t0 < 5.0


def test_largest_boundary_scan_under_the_limit_builds():
    # B5 to length 1 lists 441,760 simples, just under the limit; it was
    # built before the boundary scan was counted (in about 9 s), as was A6
    # to length 1 (335,630 simples)
    graph = mt.quotient_cayley_graph(parse_group_spec("B5"), 1)
    assert (len(graph.vertices), len(graph.codes)) == (3839, 441760)


def test_word_length_walk_is_refused_past_the_product_limit(capsys, monkeypatch):
    # word lengths walk the box under the ball's product limit; the limit is
    # lowered, as a real refusal (F4 Finite, (s1 s2 s3 s4)^5 at universe 3,
    # 4,642,068 products) takes about 10 s.  At the real limit this word
    # answers "upper 3" (test_usage_and_error_exit_codes).
    monkeypatch.setattr(mt, "BALL_PRODUCT_LIMIT", 10_000)
    code, out = run(capsys, "wordlen", "--group", "A3", "--kind", "XP",
                    "--word", "s1 s3 s2 s1 s3", "--universe", "2")
    data = last_json(out)
    assert code == 3 and data["error"] == "CapExceeded"
    assert data["message"] == ("the walk of the box of bound 2 would form at least "
                               "42504 products, over the limit of 10000")


@pytest.mark.parametrize("argv", [
    ("census", "--group", "A3", "--sup-bound", "2"),
    ("wordlen", "--group", "A3", "--kind", "Xabs", "--word", "s1 s2 s1 s3 s2",
     "--universe", "1"),
], ids=lambda argv: argv[0])
def test_witness_search_is_refused_past_the_candidate_limit(capsys, monkeypatch, argv):
    # the limit is lowered, as a real refusal needs more than 10^7 candidates;
    # the A3 simple s1s2s1s3s2 absorbs none of the 22 candidates of length 1,
    # so the census refuses at its first level and the word at membership
    monkeypatch.setattr(ab, "WITNESS_CANDIDATE_LIMIT", 5)
    code, out = run(capsys, *argv)
    data = last_json(out)
    assert code == 3 and data["error"] == "CapExceeded"
    assert data["message"] == ("the witness search at canonical length 1 found no "
                               "witness within the limit of 5 candidates")


@pytest.mark.parametrize("argv", [
    ("quotient-cayley", "--group", "A2", "--len-bound", "-1"),
    ("ball", "--group", "A2", "--kind", "Simples", "--universe", "1", "--radius", "-1"),
    ("ball", "--group", "A2", "--kind", "Simples", "--radius", "1", "--universe", "-1"),
    ("cparab", "--group", "A3", "--p0", "std:s1", "--hops", "-1"),
    ("cparab", "--group", "A3", "--p0", "std:s1", "--conj-len", "-1"),
    ("delta-estimate", "--group", "A2", "--len-bound", "1", "--sample", "-5"),
    ("census", "--group", "A2", "--sup-bound", "-1"),
    ("cal", "--group", "A2", "--len-bound", "1", "--abs-bound", "-1"),
    ("wordlen", "--group", "A2", "--kind", "XP", "--word", "a", "--universe", "-2"),
    ("qi-constants", "--group", "A3", "--lipschitz-samples", "-3"),
], ids=lambda argv: " ".join(argv[-2:]))
def test_negative_sizes_are_usage_errors(capsys, argv):
    # the option under test comes last
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be >= 0, got {argv[-1]}" in capsys.readouterr().err


def test_negative_config_sizes_are_usage_errors(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hops=-1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "cparab", "--group", "A3", "--p0", "std:s1"])
    assert exc.value.code == 2
    assert "argument --hops: must be >= 0, got -1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["ball", "--group", "A2", "--kind", "Simples", "--radius", "x",
                  "--universe", "1"])
    assert exc.value.code == 2
    assert "argument --radius: invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("spec,radius", [("A5", 2), ("D4", 3), ("F4", 2), ("E6", 2)])
def test_finite_balls_in_large_groups_are_built(capsys, spec, radius):
    # a ball forms the products of the forms it visits, so its cost follows
    # the ball (a few hundred vertices), not |W|^L
    code, out = run(capsys, "ball", "--group", spec, "--kind", "FiniteS_plus_Delta2",
                    "--radius", str(radius), "--universe", str(radius))
    assert code == 0 and last_json(out)["vertices"] > 60


@pytest.mark.parametrize("universe", ["0", "1", "3"])
def test_simples_wordlen_is_exact_at_any_universe(capsys, universe):
    for group, word, length in [("I2(5)", "a^9", 9), ("A2", "a^-1 b^-1 a^-1", 1),
                                ("A2", "a b^-1", 2), ("A2", "a^-3 b^2", 5),
                                ("A3", "", 0)]:
        code, out = run(capsys, "wordlen", "--group", group, "--kind", "Simples",
                        "--word", word, "--universe", universe)
        assert code == 0
        assert last_json(out) == {"kind": "exact", "value": length,
                                  "universe": int(universe)}


def test_usage_and_error_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nf", "--group", "A2"])  # missing --word
    assert exc.value.code == 2
    code, _out = run(capsys, "nf", "--group", "Z5", "--word", "a")
    assert code == 2
    code, _out = run(capsys, "props", "--group", "E8")
    assert code == 3
    # a ball's X_NP steps at universe 2 fill the A3 box |inf| <= 6, length
    # <= 4, 87,061 elements, and the ball answers
    t0 = time.perf_counter()
    code, out = run(capsys, "ball", "--group", "A3", "--kind", "XNP",
                    "--radius", "1", "--universe", "2")
    assert code == 0 and last_json(out)["edges"] == 24028
    assert time.perf_counter() - t0 < 3.0
    # a word length keeps the square box of bound 6, 2,651,623 elements; it
    # is refused up front for a word that is no member
    code, out = run(capsys, "wordlen", "--group", "A3", "--kind", "XNP",
                    "--word", "s1 s2 s3", "--universe", "2")
    data = last_json(out)
    assert code == 3 and data["error"] == "CapExceeded"
    assert "2651623" in data["message"] and str(mt.XNP_BOX_LIMIT) in data["message"]
    # the XP enumerator walks the subgroup forms D_T^p y_1..y_k with |p| and
    # k at most the bound of the step box, 6 here: 6,617 of them in A3, and
    # the walk of the box of bound 2 answers
    t0 = time.perf_counter()
    code, out = run(capsys, "wordlen", "--group", "A3", "--kind", "XP",
                    "--word", "s1 s3 s2 s1 s3", "--universe", "2")
    assert code == 0 and last_json(out) == {"kind": "upper", "value": 3, "universe": 2}
    assert time.perf_counter() - t0 < 1.0
    # in D4 it would walk 7,964,788 subgroup elements; that is refused up front
    t0 = time.perf_counter()
    code, out = run(capsys, "wordlen", "--group", "D4", "--kind", "XP",
                    "--word", "s1 s2 s3 s4", "--universe", "2")
    data = last_json(out)
    assert code == 3 and data["error"] == "CapExceeded"
    assert "7964788" in data["message"] and str(mt.XNP_BOX_LIMIT) in data["message"]
    assert time.perf_counter() - t0 < 1.0
    # a truncation too small for the answer is inconclusive too: a ball that
    # stalls inside its box, and a representative outside the C_parab ball
    code, out = run(capsys, "ball", "--group", "A2", "--kind", "Simples",
                    "--radius", "6", "--universe", "1")
    data = last_json(out)
    assert code == 3 and data["error"] == "UniverseTooSmall"
    assert data["message"] == "ball expansion stalled at radius 3 < 6"
    code, out = run(capsys, "qi-constants", "--group", "A3", "--hops", "0")
    assert code == 3 and last_json(out)["error"] == "RepresentativeMissing"
    # a delta estimate counts its 4-tuples and pairs before it draws any:
    # one 4-tuple past the limit on A3 to length 3 (624 vertices), the
    # exhaustive pass of A3 to length 2 (106 vertices), and the 6 pairs of
    # each of (limit / 6 + 1) 4-tuples on A4 to length 2 (1,778 vertices)
    quads, every = mt.DELTA_QUAD_LIMIT + 1, math.comb(106, 4)
    for spec, bound, sample, count, limit in [
            ("A3", 3, quads, quads, mt.DELTA_QUAD_LIMIT),
            ("A3", 2, every, every, mt.DELTA_QUAD_LIMIT),
            ("A4", 2, mt.DELTA_PAIR_LIMIT // 6 + 1, 6 * (mt.DELTA_PAIR_LIMIT // 6 + 1),
             mt.DELTA_PAIR_LIMIT)]:
        t0 = time.perf_counter()
        code, out = run(capsys, "delta-estimate", "--group", spec, "--len-bound", str(bound),
                        "--sample", str(sample))
        data = last_json(out)
        assert code == 3 and data["error"] == "CapExceeded"
        assert f" {count} " in data["message"] and data["message"].endswith(f" {limit}")
        assert time.perf_counter() - t0 < 1.0
    # and a distance pass counts its sweep cells: I2(5) to length 8 has
    # 87,381 vertices and 218,450 edges, so n // 6 + 1 draws leave the closed
    # form, and their 3 draws + 1 sources fill 43 batches of 524,281 cells
    # (about 30 s of work); the graph builds in about 1.2 s
    n, e = 87_381, 218_450
    draws = n // 6 + 1
    count = -(-(3 * draws + 1) // mt.SOURCE_BATCH) * (n + 2 * e)
    assert count > mt.DELTA_SWEEP_LIMIT
    t0 = time.perf_counter()
    code, out = run(capsys, "delta-estimate", "--group", "I2(5)", "--len-bound", "8",
                    "--sample", str(draws))
    data = last_json(out)
    assert code == 3 and data["error"] == "CapExceeded"
    assert f" {count} sweep cells" in data["message"]
    assert data["message"].endswith(f" {mt.DELTA_SWEEP_LIMIT}")
    assert time.perf_counter() - t0 < 10.0
    code, _out = run(capsys, "census", "--group", "I2(5)", "--sup-bound", "12")
    assert code == 0
    # a malformed parabolic literal is a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["cparab", "--group", "A3", "--p0", "s1,s2"])
    assert exc.value.code == 2
    assert "bad parabolic literal 's1,s2'" in capsys.readouterr().err
    # invalid braid-command input is a usage error, not a failed check
    code, out = run(capsys, "arc-identity", "--n", "3", "--i", "9", "--k", "1")
    assert code == 2 and last_json(out)["error"] == "IndexOutOfRange"
    code, out = run(capsys, "delta-factor", "--group", "A2")
    assert code == 2 and last_json(out)["error"] == "RankTooSmall"
    # A1 has no proper irreducible subset to centre C_parab on
    code, out = run(capsys, "qi-constants", "--group", "A1")
    assert code == 2 and last_json(out)["error"] == "RankTooSmall"
    # a subset that is not irreducible, or not proper, is a usage error too
    for argv, error in [
            (("omega", "--group", "A3", "--subset", "s1,s3"), "ReducibleSubset"),
            (("normalizer", "--group", "A3", "--word", "s1", "--subset", "s1,s3"),
             "ReducibleSubset"),
            (("cparab", "--group", "A2", "--p0", "std:a,b"), "ImproperSubset")]:
        code, out = run(capsys, *argv)
        assert code == 2 and last_json(out)["error"] == error
    # a dihedral census to sup 0 holds no element, against 4m - 8
    code, out = run(capsys, "census", "--group", "I2(5)", "--sup-bound", "0")
    assert code == 1 and (last_json(out)["count"], last_json(out)["expected"]) == (0, 12)
    for n in ("0", "1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["double", "--n", n, "--word", "s1"])
        assert exc.value.code == 2
        assert f"argument --n: must be >= 2, got {n}" in capsys.readouterr().err


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("subset=s1,s2\n# comment\nconj-len=0\nhops=1\nhalf=yes\n")
    code, out = run(capsys, "--config", str(cfg), "member", "--group", "A3",
                    "--word", "s1", "--subset", "s1")
    # explicit flag wins over config
    assert code == 0 and last_json(out)["subset"] == ["s1"]
    # config values replace defaults: std:s1 within conj-len 0 and 1 hop
    # has 3 vertices (the defaults 1 and 2 give more)
    code, out = run(capsys, "--config", str(cfg), "cparab", "--group", "A3",
                    "--p0", "std:s1")
    data = last_json(out)
    assert code == 0 and data["vertices"] == 3
    assert (data["provenance"]["conj_len"], data["provenance"]["hops"]) == (0, 1)
    code, out = run(capsys, "--config", str(cfg), "cparab", "--group", "A3",
                    "--p0", "std:s1", "--hops", "2")
    assert code == 0 and last_json(out)["provenance"]["hops"] == 2
    # a flag is set by yes
    code, out = run(capsys, "--config", str(cfg), "arc-identity", "--n", "3",
                    "--i", "2", "--k", "1")
    assert code == 0 and last_json(out)["half"] is True
    # a config value is checked against the option's choices
    bad = tmp_path / "bad.cfg"
    bad.write_text("format=xml\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(bad), "quotient-cayley", "--group", "A2",
                  "--len-bound", "1", "--out", str(tmp_path / "f")])
    assert exc.value.code == 2
    assert "argument --format: invalid choice: 'xml'" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_config_defaults_stay_out_of_the_shared_parser(capsys, tmp_path, monkeypatch):
    # every call without --config uses the one parser of the process; a
    # --config call sets its defaults on a fresh parser, so a later call
    # without it sees the option defaults again
    run(capsys, "props", "--group", "A2")
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("conj-len=0\nhops=1\n")
    argv = ("cparab", "--group", "A3", "--p0", "std:s1")
    code, out = run(capsys, "--config", str(cfg), *argv)
    prov = last_json(out)["provenance"]
    assert code == 0 and (prov["conj_len"], prov["hops"]) == (0, 1)
    code, out = run(capsys, *argv)
    prov = last_json(out)["provenance"]
    assert code == 0 and (prov["conj_len"], prov["hops"]) == (1, 2)
    assert built == [1]
    # usage errors exit 2 with their messages, before and after
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--hops", "-1"])
        assert exc.value.code == 2
        assert "argument --hops: must be >= 0, got -1" in capsys.readouterr().err
    assert built == [1]


def test_graph_export_roundtrip(tmp_path):
    graph = mt.quotient_cayley_graph(parse_group_spec("A2"), 3)
    path = tmp_path / "q.json"
    graphio.export_json(graph, path)
    back = graphio.import_json(path)
    assert back.vertices == graph.vertices
    assert back.edges == graph.edges
    assert back.provenance == graph.provenance
    # bit-stable output
    first = path.read_bytes()
    graphio.export_json(graph, path)
    assert path.read_bytes() == first
    dot = tmp_path / "q.dot"
    graphio.export_dot(graph, dot)
    text = dot.read_text()
    assert text.startswith("// provenance:")
    assert "--" in text
    # empty graph stays valid
    empty = mt.MetricGraph((), (), {"construction": "empty"})
    graphio.export_json(empty, tmp_path / "e.json")
    assert graphio.import_json(tmp_path / "e.json").vertices == ()
    graphio.export_dot(empty, tmp_path / "e.dot")


def test_parabolic_literals(capsys):
    code, out = run(capsys, "cparab", "--group", "A3", "--p0", "std:s1",
                    "--conj-len", "0", "--hops", "1")
    assert code == 0 and last_json(out)["vertices"] == 3
    code, out = run(capsys, "cparab", "--group", "A3", "--p0",
                    "conj:(s2):s1", "--conj-len", "0", "--hops", "1")
    assert code == 0


def test_accept_single_criterion(capsys):
    code, out = run(capsys, "accept", "--criterion", "3")
    assert code == 0
    assert "[PASS] criterion 3" in out
