"""One round of the `graphs` and `kernel` benchmark workloads.

Each round checks its outputs against `perfbench/golden.json`, so a change
that breaks a workload's golden check fails here, not only in a benchmark
run.  `census` is left out: one of its rounds takes about 9 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload,ops", [("graphs", 8), ("kernel", 1244)])
def test_one_benchmark_round_passes_its_golden_checks(workload, ops):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    record = json.loads(run.stdout.splitlines()[-1])
    assert record["failures"] == [] and record["failed"] == 0
    assert (record["rounds"], record["attempted"]) == (1, ops)
