"""One measurement process: set up, run the timed closed loop, check outputs.

Started by run.py as a fresh single-threaded process per measurement, so
tables and memos begin cold exactly as a command-line user gets them.
Prints one JSON record as its last line of standard output.

    python3 perfbench/worker.py --workload kernel --seed 1 --seconds 10 \
        --trace 0 [--rounds N] [--paced] [--setup-only]

`ready_at` in the record is the CLOCK_MONOTONIC instant at which set-up
(import plus the table of every group of the workload) finished; run.py
subtracts the instant it started this process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from pace import Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def _import_library() -> None:
    os.environ.pop("GARSIDE_CACHE_DIR", None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import garsidehyp
    if Path(garsidehyp.__file__).resolve().parent != src / "garsidehyp":
        raise SystemExit(f"garsidehyp imported from {garsidehyp.__file__}, "
                         f"not from {src}")


def measure(wl, seed: int, seconds: float, tracer, n_rounds: int = 0,
            pace: Pace | None = None) -> dict:
    """Run whole rounds of ops until `seconds` of wall time have passed, or,
    if `n_rounds` is set, exactly that many rounds.

    Inputs are prepared before a round and outputs checked after it; only
    the ops themselves are timed, and `ops_per_s` is ops over their summed
    latencies.  With a running `pace`, which this stops once the ops are
    done, each op's time is scaled to the reference pace (pace.py); the
    unscaled figures go under "unscaled".
    """
    from workloads import INCONCLUSIVE, Raised
    kinds: list[str] = []
    spans: list[tuple[float, float]] = []
    failures: list[str] = []
    inconclusive = 0
    done = 0
    rounds = wl.rounds(seed)
    begin = time.perf_counter()
    while (done < n_rounds if n_rounds
           else time.perf_counter() - begin < seconds):
        ops = next(rounds)
        preps = [wl.prepare(op) for op in ops]
        results = []
        for op, prep in zip(ops, preps):
            if tracer is not None:
                tracer.op, tracer.phase = len(spans), "ops"
            t0 = time.perf_counter()
            try:
                res = wl.execute(op, prep)
            except Exception as exc:   # an op's failure is its result
                res = Raised(exc)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.phase = None
            results.append(res)
            spans.append((t0, t1))
        done += 1
        for op, prep, res, (t0, t1) in zip(ops, preps, results, spans[-len(ops):]):
            kinds.append(op[0])
            verdict = wl.check(op, prep, res, t1 - t0)
            if verdict == INCONCLUSIVE:
                inconclusive += 1
            elif verdict is not None:
                failures.append(f"{op[:2]}: {verdict}")
    failures += [f"final: {msg}" for msg in wl.final_checks()]
    record = {"attempted": len(spans), "failed": len(failures),
              "inconclusive": inconclusive, "rounds": done,
              "wall_s": time.perf_counter() - begin,
              "failures": failures[:20]}
    if pace is None:
        record.update(latency_stats(kinds, [t1 - t0 for t0, t1 in spans]))
        return record
    pace.stop()
    # Reference runs that fell inside an op are not the op's time.
    lats = [t1 - t0 - pace.inside(t0, t1) for t0, t1 in spans]
    unscaled = latency_stats(kinds, lats)
    record.update(latency_stats(kinds, [
        lat * pace.scale(t0, t1) for lat, (t0, t1) in zip(lats, spans)]))
    record["unscaled"] = {k: unscaled[k] for k in ("ops_per_s", "op_p50_ms")}
    record["slowdown"] = pace.slowdown(begin, time.perf_counter())
    return record


def latency_stats(kinds: list[str], lats: list[float]) -> dict:
    """Throughput and latency percentiles of ops of the given kinds."""
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(kinds, lats):
        by_kind.setdefault(kind, []).append(lat)
    timed = sum(lats)
    ordered = sorted(lats)
    return {"timed_s": timed,
            "ops_per_s": len(lats) / timed,
            "op_p50_ms": 1000 * nearest_rank(ordered, 0.50),
            "op_p90_ms": 1000 * nearest_rank(ordered, 0.90),
            "op_p99_ms": 1000 * nearest_rank(ordered, 0.99),
            "op_ms_by_kind": {
                kind: {"n": len(v), "p50": 1000 * statistics.median(v),
                       "max": 1000 * max(v), "time_share": sum(v) / timed}
                for kind, v in sorted(by_kind.items())}}


def nearest_rank(sorted_values, q: float) -> float:
    """The q-quantile by the nearest-rank rule (no interpolation)."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("kernel", "census", "graphs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=0,
                    help="run exactly this many rounds instead of --seconds")
    ap.add_argument("--paced", action="store_true",
                    help="scale times to the reference pace (pace.py)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pace = Pace() if args.paced else None
    if pace is not None:
        pace.start()
    _import_library()
    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.phase = "setup"
    workloads.setup(args.workload)
    ready_at = time.monotonic()
    if tracer is not None:
        tracer.phase = None
    record = {"ready_at": ready_at}
    if pace is not None:
        # The set-up's slowdown; run.py scales its set-up time by it.
        record["setup_slowdown"] = pace.slowdown(0.0, time.perf_counter())
    golden = json.loads((HERE / "golden.json").read_text())
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        wl = workloads.make(args.workload, golden, tmp)
        if not args.setup_only:
            record.update(measure(wl, args.seed, args.seconds, tracer,
                                  args.rounds, pace))
            record["properties"] = wl.properties()
            record["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.uninstall()
                record["trace"] = layer_report(tracer)
                tracer.write(OUT / f"spans-{args.workload}.bin")
    finally:
        if pace is not None:
            pace.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))
    return 0


def layer_report(tracer) -> dict:
    """Per-layer metrics of the traced run, and which layer dominates.

    Counts and times are totals over the run's fixed number of rounds; the
    `coxeter.table` figures include the tables built at set-up.
    """
    ops, setup = tracer.counts["ops"], tracer.counts["setup"]

    def calls(name):
        return tracer.stat("ops", name).calls

    def self_s(name):
        return tracer.stat("ops", name).self_s

    def outer_s(name):
        return tracer.stat("ops", name).outer_s

    table_s = outer_s("coxeter.table") + tracer.stat("setup", "coxeter.table").outer_s
    table_elems = ops.get("coxeter.table.elems", 0) + setup.get("coxeter.table.elems", 0)
    tried = ops.get("absorbable.candidates_tried", 0)
    metrics = {
        "coxeter.table.s": table_s,
        "coxeter.table.elems_per_s": table_elems / table_s if table_s else 0.0,
        "coxeter.renorm.calls": ops.get("coxeter.renorm.calls", 0),
        "garside.normal_form.calls": calls("garside.normal_form"),
        "garside.normal_form.self_s": self_s("garside.normal_form"),
        "garside.multiply.calls": calls("garside.multiply"),
        "garside.multiply.self_s": self_s("garside.multiply"),
        "garside.invert.self_s": self_s("garside.invert"),
        "absorbable.is_absorbable.calls": calls("absorbable.is_absorbable"),
        "absorbable.is_absorbable.self_s": self_s("absorbable.is_absorbable"),
        "absorbable.candidates_tried": tried,
        "absorbable.yes_per_candidate":
            ops.get("absorbable.yes", 0) / tried if tried else 0.0,
        "absorbable.enumerate_absorbable.s": outer_s("absorbable.enumerate_absorbable"),
        "parabolic.standard_membership.calls": calls("parabolic.standard_membership"),
        "parabolic.standard_membership.self_s": self_s("parabolic.standard_membership"),
        "parabolic.standard_membership.inconclusive":
            ops.get("parabolic.standard_membership.inconclusive", 0),
        "metrics.quotient_cayley_graph.s": outer_s("metrics.quotient_cayley_graph"),
        "metrics.bounded_ball_graph.s": outer_s("metrics.bounded_ball_graph"),
        "metrics.build_cparab_neighborhood.s": outer_s("metrics.build_cparab_neighborhood"),
        "metrics.bfs_distances.calls": calls("metrics.bfs_distances"),
        "metrics.estimate_delta.s": outer_s("metrics.estimate_delta"),
        "metrics.estimate_delta.peak_mb": ops.get("metrics.estimate_delta.peak_mb", 0.0),
        "graphio.export_graph.s": outer_s("graphio.export_graph"),
        "cli.main.self_s": self_s("cli.main"),
    }
    shares = {}
    for phase in ("setup", "ops"):
        layer_s = tracer.layer_self_s(phase)
        total = sum(layer_s.values())
        shares[phase] = {k: v / total if total else 0.0 for k, v in layer_s.items()}
    for layer, seconds in tracer.layer_self_s("ops").items():
        metrics[f"{layer}.self_s"] = seconds
    return {
        "metrics": metrics,
        "self_share": shares,
        "dominant_layer": {p: max(s, key=s.get) for p, s in shares.items()},
        "spans_total": tracer.spans_total,
        "spans_kept": len(tracer.kept_names),
    }


if __name__ == "__main__":
    sys.exit(main())
