"""Regenerate golden.json: the reference outputs the workload checks compare to.

    python3 perfbench/make_golden.py

The values are the program's outputs at the commit that defined the
benchmark.  A change that keeps outputs byte-identical (as every perf change
must) keeps them valid; rerun this only for a deliberate change of output,
and say so.  It takes a few minutes, mostly the B3 census to sup 3 that
labels the witness-search queries.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from garsidehyp import absorbable as ab  # noqa: E402
from garsidehyp import cli, coxeter  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    golden = {"kernel": {}, "census": {}, "graphs": {}}
    golden["kernel"]["nf_digest"] = workloads.Kernel(golden).golden_digest()

    census = golden["census"]
    for spec, bound in workloads.Census.enumerations:
        elems = [e.render() for e in
                 ab.enumerate_absorbable(coxeter.parse_group_spec(spec), bound)]
        census[f"{spec}_sup{bound}"] = {
            "count": len(elems), "digest": workloads.sha256_lines(elems)}
    b3_sup3 = ab.enumerate_absorbable(coxeter.parse_group_spec("B3"), 3)
    census["b3_absorbable_positive"] = sorted(
        e.render() for e in b3_sup3 if e.inf == 0)

    graphs = golden["graphs"]
    graphs["order"] = {spec: coxeter.parse_group_spec(spec).coxeter_order()
                       for spec in workloads.Graphs.groups}
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.Graphs(golden, Path(tmp))
        ops = [("quotient-cayley", "B3", 3), ("quotient-cayley", "A3", 3),
               ("quotient-cayley", "B3", 2)]
        ops += [("cparab", "A4", p0) for p0 in wl.cparab_p0]
        for op in ops:
            argv, out = wl.prepare(op)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == cli.EXIT_PASS, argv
            graph, digest = workloads.read_graph(out)
            graphs["/".join(str(x) for x in op)] = {
                "vertices": len(graph["vertices"]),
                "edges": len(graph["edges"]), "digest": digest}
        deltas = graphs[f"delta/B3/3/{wl.delta_sample}"] = {}
        for seed in wl.delta_seeds:
            argv, _ = wl.prepare(("delta-estimate", "B3", 3, seed))
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                assert cli.main(argv) == cli.EXIT_PASS, argv
            deltas[str(seed)] = json.loads(text.getvalue())["delta_estimate"]
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
