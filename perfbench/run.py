"""The benchmark of garsidehyp: one command, three workloads.

    python3 perfbench/run.py --workload kernel|census|graphs --seed N \
        --seconds S --trace 0|1

Each measurement runs in a fresh single-threaded worker process (worker.py),
one at a time.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it
is the full run record (workload properties, failures, inconclusive
answers, layer shares), which is also saved under `.perfbench_out/`.

With `--trace 0` the metrics are the end-to-end ones:

- `setup_s`: median over fresh processes of the time from process start
  through import and building the table of every group of the workload;
  at least SETUP_SAMPLES of them, and more until their set-up times add up
  to SETUP_MIN_S, so that a short set-up is sampled as often as it is cheap;
- `ops_per_s`: ops completed per second of the timed phase;
- `op_p50_ms`: median op latency (nearest rank) over every op of the run;
- `peak_rss_mb`: peak resident memory of the measuring process.

The times are at the reference pace (pace.py): each op's time, and each
set-up time, is scaled by how much slower than REFERENCE_S a fixed
reference loop ran around it, so that the figures follow the program's
speed and not the load of the shared host.  The run record keeps the
unscaled figures and the slowdown next to them.

Every metric is printed on every workload, so tail percentiles, which need
at least 100 (p90) or 1,000 (p99) ops in a run and `graphs` runs eight, are
in the run record with their op count instead.

With `--trace 1` one untraced and one traced worker run the same seeded op
stream, and the metrics are the per-layer ones from the traced worker plus
`trace.overhead`, the share of `ops_per_s` that tracing costs.  The traced
worker runs a fixed number of rounds (TRACE_ROUNDS), so its counts and times
are totals over the same work in every run, whatever the code's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("kernel", "census", "graphs")
SETUP_SAMPLES = 3
SETUP_MIN_S = 4.0
TRACE_ROUNDS = {"kernel": 10, "census": 1, "graphs": 1}
DEADLINE_S = 170


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its record and its start instant."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    env = {k: v for k, v in os.environ.items() if k != "GARSIDE_CACHE_DIR"}
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for another worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out: {' '.join(cmd[1:])}") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


OP_METRICS = ("ops_per_s", "op_p50_ms", "peak_rss_mb")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="garsidehyp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "garsidehyp" / "__init__.py").is_file():
        print(f"no garsidehyp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def worker(trace: int, *extra: str):
        return run_worker(args.workload, args.seed, args.seconds, trace,
                          list(extra), deadline)

    try:
        if args.trace:
            # Traced and untraced, the same rounds, neither one paced.
            rounds = str(TRACE_ROUNDS[args.workload])
            main_rec, started = worker(1, "--rounds", rounds)
            base, _ = worker(0, "--rounds", rounds)
            runs = [main_rec, base]
            metrics = dict(main_rec["trace"]["metrics"])
            metrics["trace.overhead"] = 1 - main_rec["ops_per_s"] / base["ops_per_s"]
        else:
            main_rec, started = worker(0, "--paced")
            runs = [main_rec]
            setups = [(main_rec, main_rec["ready_at"] - started)]
            while (len(setups) < SETUP_SAMPLES
                   or sum(t for _, t in setups) < SETUP_MIN_S):
                rec, t0 = worker(0, "--paced", "--setup-only")
                setups.append((rec, rec["ready_at"] - t0))
            setup_s = [t / rec["setup_slowdown"] for rec, t in setups]
            metrics = {"setup_s": statistics.median(setup_s),
                       **{k: main_rec[k] for k in OP_METRICS}}
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    inconclusive = sum(r["inconclusive"] for r in runs)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = {m["name"]: m["unit"]
            for m in units["end_to_end"] + units["per_layer"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "failed_ratio": failed / attempted,
        "inconclusive_ratio": inconclusive / attempted,
        "failures": [f for r in runs for f in r["failures"]],
        "properties": main_rec["properties"],
        "ops": main_rec["attempted"],
        "op_p90_ms": main_rec["op_p90_ms"], "op_p99_ms": main_rec["op_p99_ms"],
        "op_ms_by_kind": main_rec["op_ms_by_kind"],
        "rounds": [r["rounds"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
    }
    if args.trace:
        record.update({k: v for k, v in main_rec["trace"].items() if k != "metrics"})
    else:
        record["setup_s_samples"] = setup_s
        record["setup_s_unscaled"] = [t for _, t in setups]
        record["slowdown"] = main_rec["slowdown"]
        record["unscaled"] = main_rec["unscaled"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}}
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
