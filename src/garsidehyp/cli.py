"""Command-line surface.

Every paper-facing check is reachable as a subcommand; outputs are JSON
objects on stdout (stable key order).  Exit codes: 0 pass, 1 check failure,
2 usage error, 3 inconclusive (a cap or truncation prevented a definite
answer).  A flat key=value config file can pre-set the default of any long
option of the chosen subcommand; explicit flags win, and a required option
must still be given as a flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import absorbable as ab
from . import garside as gd
from . import parabolic as pb
from .coxeter import CoxeterGraph, graph_properties, parse_group_spec
from .errors import GarsideHypError, Inconclusive, RankTooSmall, UsageError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

def _size(text: str) -> int:
    """The type of a size option: a non-negative int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, default=str))


def _export(graph, args) -> None:
    if getattr(args, "out", None):
        from . import graphio
        fmt = args.format or ("dot" if str(args.out).endswith(".dot") else "json")
        graphio.export_graph(graph, fmt, args.out)


def _emit_graph(graph, args) -> int:
    """Export a built graph if asked, and print its summary."""
    _export(graph, args)
    _emit({"vertices": len(graph.vertices), "edges": len(graph.codes),
           "provenance": graph.provenance})
    return EXIT_PASS


def _parse_parabolic(group: CoxeterGraph, literal: str) -> pb.ParabolicSubgroup:
    """std:s1,s2 or conj:(word):s1,s2"""
    if literal.startswith("std:"):
        labels = tuple(literal[4:].split(","))
        return pb.standard_parabolic(group, labels)
    if literal.startswith("conj:(") and "):" in literal:
        word_part, _, subset_part = literal[6:].partition("):")
        conj = gd.normal_form(gd.parse_word(group, word_part))
        return pb.parabolic_from_conjugate(conj, tuple(subset_part.split(",")))
    raise argparse.ArgumentTypeError(
        f"bad parabolic literal {literal!r}; use std:s1,s2 or conj:(word):s1,s2")


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def cmd_nf(args) -> int:
    group = parse_group_spec(args.group)
    nf = gd.normal_form(gd.parse_word(group, args.word))
    _emit({"group": group.family, "word": args.word, "normal_form": nf.render(),
           "inf": nf.inf, "sup": nf.sup, "canonical_length": nf.canonical_length,
           "exponent_sum": gd.exponent_sum(nf)})
    return EXIT_PASS


def cmd_mul(args) -> int:
    group = parse_group_spec(args.group)
    left = gd.normal_form(gd.parse_word(group, args.left))
    right = gd.normal_form(gd.parse_word(group, args.right))
    _emit({"product": gd.multiply(left, right).render()})
    return EXIT_PASS


def cmd_inv(args) -> int:
    group = parse_group_spec(args.group)
    g = gd.normal_form(gd.parse_word(group, args.word))
    _emit({"inverse": gd.invert(g).render()})
    return EXIT_PASS


def cmd_member(args) -> int:
    group = parse_group_spec(args.group)
    g = gd.normal_form(gd.parse_word(group, args.word))
    labels = tuple(args.subset.split(","))
    _emit({"member": pb.standard_membership(g, labels), "subset": list(labels)})
    return EXIT_PASS


def cmd_normalizer(args) -> int:
    group = parse_group_spec(args.group)
    g = gd.normal_form(gd.parse_word(group, args.word))
    labels = tuple(args.subset.split(","))
    _emit({"normalizes": pb.normalizer_membership(g, labels),
           "subset": list(labels)})
    return EXIT_PASS


def cmd_omega(args) -> int:
    group = parse_group_spec(args.group)
    labels = tuple(args.subset.split(",")) if args.subset else group.generators
    res = gd.omega_of(group, labels)
    _emit({"subset": list(labels), "omega": res.element.render(),
           "is_delta": res.is_delta})
    return EXIT_PASS


def cmd_census(args) -> int:
    group = parse_group_spec(args.group)
    bound = args.sup_bound
    if group.is_dihedral:
        summary = ab.dihedral_census(group, bound)
        _emit({"m": summary.m, "count": summary.count,
               "expected": summary.expected, "elements": list(summary.elements)})
        return EXIT_PASS if summary.count == summary.expected else EXIT_FAIL
    elems = ab.enumerate_absorbable(group, bound)
    _emit({"group": group.family, "sup_bound": bound, "count": len(elems),
           "elements": [e.render() for e in elems],
           "note": "bounded census; finiteness only known in dihedral type"})
    return EXIT_PASS


def cmd_cparab(args) -> int:
    from . import metrics as mt
    group = parse_group_spec(args.group)
    p0 = _parse_parabolic(group, args.p0)
    graph = mt.build_cparab_neighborhood(p0, args.conj_len, args.hops)
    return _emit_graph(graph, args)


def cmd_cal(args) -> int:
    from . import metrics as mt
    group = parse_group_spec(args.group)
    graph = mt.build_cal_graph(group, args.len_bound, args.abs_bound)
    return _emit_graph(graph, args)


def cmd_quotient_cayley(args) -> int:
    from . import metrics as mt
    group = parse_group_spec(args.group)
    graph = mt.quotient_cayley_graph(group, args.len_bound)
    return _emit_graph(graph, args)


def cmd_ball(args) -> int:
    from . import metrics as mt
    group = parse_group_spec(args.group)
    oracle = mt.genset_oracle(group, args.kind)
    graph = mt.bounded_ball_graph(oracle, args.radius, args.universe)
    return _emit_graph(graph, args)


def cmd_wordlen(args) -> int:
    from . import metrics as mt
    group = parse_group_spec(args.group)
    oracle = mt.genset_oracle(group, args.kind)
    g = gd.normal_form(gd.parse_word(group, args.word))
    res = mt.word_length_bound(g, oracle, args.universe)
    _emit({"kind": res.kind, "value": res.value, "universe": res.universe_len})
    return EXIT_PASS if res.kind != "unknown" else EXIT_INCONCLUSIVE


def cmd_fat_triangle(args) -> int:
    group = parse_group_spec(args.group)
    x = gd.normal_form(gd.parse_word(group, args.x))
    y = gd.normal_form(gd.parse_word(group, args.y))
    tri = ab.build_fat_triangle(x, y)
    payload = {"L": tri.length, "x": tri.x.render(), "xy": tri.xy.render()}
    code = EXIT_PASS
    if args.check_distances:
        from . import metrics as mt
        rep = mt.fat_triangle_distances(tri)
        payload["distance_checks"] = {
            "pairs": len(rep.pair_checks), "corners": len(rep.corner_checks),
            "all_pass": rep.all_pass}
        if not rep.all_pass:
            code = EXIT_FAIL
    if args.check_symmetry:
        rep = ab.absorption_symmetry(x, y)
        payload["symmetry_verified"] = rep.both_verified
        if not rep.both_verified:
            code = EXIT_FAIL
    _emit(payload)
    return code


def cmd_arc_identity(args) -> int:
    from . import braidtop as bt
    ok = bt.arc_stabilizer_identity(args.n, args.i, args.k, half=args.half)
    _emit({"n": args.n, "i": args.i, "k": args.k, "half": args.half, "equal": ok})
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_double(args) -> int:
    from . import braidtop as bt
    if args.n < 2:
        raise argparse.ArgumentTypeError(f"argument --n: must be >= 2, got {args.n}")
    source = parse_group_spec(f"A{args.n - 1}")
    word = gd.parse_word(source, args.word)
    img = bt.double_first_strand(word, args.n)
    _emit({"image": img.render(), "group": f"A{args.n}"})
    return EXIT_PASS


def cmd_delta_factor(args) -> int:
    from . import braidtop as bt
    group = parse_group_spec(args.group)
    fact = bt.delta_three_parabolic_factorization(group)
    prod = gd.identity_element(group)
    for el, _t in fact.parts:
        prod = gd.multiply(prod, el)
    ok = gd.are_equal(prod, gd.delta(group))
    _emit({"parts": [{"element": el.render(), "subset": list(t)}
                     for el, t in fact.parts],
           "product_is_delta": ok})
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_qi_constants(args) -> int:
    from . import metrics as mt
    group = parse_group_spec(args.group)
    stds = [pb.standard_parabolic(group, t)
            for t in pb.proper_irreducible_subsets(group)]
    if not stds:
        raise RankTooSmall(f"{group.family} has no proper irreducible standard parabolic")
    graph = mt.build_cparab_neighborhood(stds[0], args.conj_len, args.hops)
    qi = mt.qi_constants(graph, [p.key() for p in stds])
    payload = {"M1": qi.m1, "M1_exact": qi.m1_exact}
    code = EXIT_PASS
    if args.lipschitz_samples:
        rep = mt.lipschitz_path_check(group, stds[0], args.lipschitz_samples,
                                      seed=args.seed)
        payload["lipschitz"] = {"samples": rep.samples, "failures": rep.failures,
                                "m1": rep.m1}
        if not rep.all_pass:
            code = EXIT_FAIL
    _emit(payload)
    return code


def cmd_delta_estimate(args) -> int:
    from . import metrics as mt
    group = parse_group_spec(args.group)
    if args.construction == "cal":
        graph = mt.build_cal_graph(group, args.len_bound)
    else:
        graph = mt.quotient_cayley_graph(group, args.len_bound)
    graph.provenance["seed"] = args.seed
    graph.provenance["sample"] = args.sample
    delta, quad, examined = mt.estimate_delta(graph, args.sample, seed=args.seed)
    _export(graph, args)
    total = math.comb(len(graph.vertices), 4)
    if examined < total:
        exactness = "sampled lower bound"
    elif args.construction == "cal":
        exactness = "exact for the truncation"
    else:   # the truncation is the ball, isometrically (metrics.coset_distance)
        exactness = (f"exact delta of the radius-{args.len_bound} ball of Cay(A)/<D>; "
                     "a lower bound for Cay(A)/<D>")
    _emit({"delta_estimate": str(delta), "delta_exactness": exactness,
           "delta_certificate": quad and [graph.vertices[i] for i in quad],
           "quadruples_examined": examined, "quadruples_total": total,
           "vertices": len(graph.vertices), "provenance": graph.provenance})
    return EXIT_PASS


def cmd_accept(args) -> int:
    from . import acceptance
    if args.criterion == "all":
        numbers = sorted(acceptance.CRITERIA)
    else:
        numbers = [int(args.criterion)]
    results = [acceptance.CRITERIA[n]() for n in numbers]
    all_ok = True
    for res in results:
        print(res.line())
        all_ok &= res.passed
    _emit({"passed": sum(r.passed for r in results), "total": len(results)})
    return EXIT_PASS if all_ok else EXIT_FAIL


def cmd_props(args) -> int:
    group = parse_group_spec(args.group)
    props = graph_properties(group)
    _emit({"family": group.family, "irreducible": props.irreducible,
           "coxeter_order": props.coxeter_order, "rank": props.rank})
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    from . import metrics as mt
    parser = argparse.ArgumentParser(
        prog="garsidehyp",
        description="Garside arithmetic and candidate hyperbolic structures "
                    "for spherical Artin-Tits groups")
    parser.add_argument("--config", help="flat key=value file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        return p

    p = add("nf", cmd_nf, help="normal form of a word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)

    p = add("mul", cmd_mul, help="product of two words")
    p.add_argument("--group", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = add("inv", cmd_inv, help="inverse of a word")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)

    p = add("member", cmd_member, help="standard parabolic membership")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--subset", required=True, help="comma-separated labels")

    p = add("normalizer", cmd_normalizer, help="normalizer membership")
    p.add_argument("--group", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--subset", required=True)

    p = add("omega", cmd_omega, help="minimal central element of A_T")
    p.add_argument("--group", required=True)
    p.add_argument("--subset", default=None)

    p = add("census", cmd_census, help="absorbable census")
    p.add_argument("--group", required=True)
    p.add_argument("--sup-bound", type=_size, required=True)

    p = add("cparab", cmd_cparab, help="parabolic-graph neighborhood")
    p.add_argument("--group", required=True)
    p.add_argument("--p0", required=True, help="std:s1,s2 or conj:(word):s1,s2")
    p.add_argument("--conj-len", type=_size, default=1)
    p.add_argument("--hops", type=_size, default=2)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("dot", "json"), default=None)

    p = add("cal", cmd_cal, help="additional-length graph truncation")
    p.add_argument("--group", required=True)
    p.add_argument("--len-bound", type=_size, required=True)
    p.add_argument("--abs-bound", type=_size, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("dot", "json"), default=None)

    p = add("quotient-cayley", cmd_quotient_cayley, help="Cay(A)/<D> truncation")
    p.add_argument("--group", required=True)
    p.add_argument("--len-bound", type=_size, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("dot", "json"), default=None)

    p = add("ball", cmd_ball, help="bounded word-metric ball")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", choices=mt.KINDS, required=True)
    p.add_argument("--radius", type=_size, required=True)
    p.add_argument("--universe", type=_size, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("dot", "json"), default=None)

    p = add("wordlen", cmd_wordlen, help="word-length bound in a generating set")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", choices=mt.KINDS, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--universe", type=_size, required=True)

    p = add("fat-triangle", cmd_fat_triangle, help="fat-triangle certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--check-distances", action="store_true")
    p.add_argument("--check-symmetry", action="store_true")

    p = add("arc-identity", cmd_arc_identity, help="tubular word identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--half", action="store_true")

    p = add("double", cmd_double, help="double the first strand")
    p.add_argument("--n", type=int, required=True, help="input strand count")
    p.add_argument("--word", required=True)

    p = add("delta-factor", cmd_delta_factor,
            help="Delta as three parabolic factors")
    p.add_argument("--group", required=True)

    p = add("qi-constants", cmd_qi_constants, help="cocompact-lemma constants")
    p.add_argument("--group", required=True)
    p.add_argument("--conj-len", type=_size, default=1)
    p.add_argument("--hops", type=_size, default=3)
    p.add_argument("--lipschitz-samples", type=_size, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = add("delta-estimate", cmd_delta_estimate, help="four-point delta")
    p.add_argument("--group", required=True)
    p.add_argument("--len-bound", type=_size, required=True)
    p.add_argument("--sample", type=_size, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--construction", choices=("quotient-cayley", "cal"),
                   default="quotient-cayley")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("dot", "json"), default=None)

    p = add("accept", cmd_accept, help="run acceptance criteria")
    p.add_argument("--criterion", default="all", help="1..12 or 'all'")

    p = add("props", cmd_props, help="diagram properties")
    p.add_argument("--group", required=True)

    return parser, sub.choices


# One parser per process: building all the subparsers costs a few ms a call.
# A `--config` run sets defaults on a fresh parser of its own instead.
_parser = functools.cache(_build_parser)


def _config_defaults(path: str, args: argparse.Namespace) -> dict:
    """The key=value lines of a config file that name an option in `args`.

    Values stay strings, which argparse converts with the option's type; a
    flag (an option whose value is a bool) is set by 1, true or yes.
    """
    config = {}
    with open(path) as fh:
        for line in fh:
            key, eq, val = line.partition("=")
            key, val = key.strip().replace("-", "_"), val.strip()
            if (not eq or key.startswith("#") or not hasattr(args, key)
                    or key in ("command", "config", "func")):
                continue
            if isinstance(getattr(args, key), bool):
                val = val.lower() in ("1", "true", "yes")
            config[key] = val
    return config


def main(argv=None) -> int:
    parser, commands = _parser()
    args = parser.parse_args(argv)
    if args.config:
        # Config values become defaults, so flags win; argparse checks no default's choices.
        config = _config_defaults(args.config, args)
        parser, commands = _build_parser()
        sub = commands[args.command]
        for action in sub._actions:
            if action.dest in config and action.choices is not None:
                try:
                    sub._check_value(action, config[action.dest])
                except argparse.ArgumentError as exc:
                    sub.error(str(exc))
        sub.set_defaults(**config)
        args = parser.parse_args(argv)
    sub = commands[args.command]
    try:
        code = args.func(args)
    except argparse.ArgumentTypeError as exc:   # a literal parsed by a handler
        sub.error(str(exc))
    except GarsideHypError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        if isinstance(exc, Inconclusive):
            return EXIT_INCONCLUSIVE
        if isinstance(exc, UsageError):
            return EXIT_USAGE
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
