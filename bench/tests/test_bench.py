"""Tests of the benchmark itself; they are not part of the library's suite.

    python3 -m pytest bench/tests -q

The smoke runs use ``--smoke``: every workload, every metric name and
the traced run, at tiny sizes, in a few seconds each.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))
from run import end_to_end  # noqa: E402
from tracing import MEMORY_SPANS, NullTracer, Tracer  # noqa: E402
from workloads import Run  # noqa: E402


def run_bench(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_without_the_package_no_result_is_printed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "eval_64", 0)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.track_memory = True
    with tr.span(next(iter(MEMORY_SPANS))) as outer:
        with tr.span("inner") as inner:
            time.sleep(0.02)
            block = bytearray(4_000_000)
        del block
        time.sleep(0.01)
    assert inner.parent == outer.id
    assert tr.self_ms([outer])[0] == pytest.approx(outer.ms - inner.ms)
    # the child's allocation is freed before the parent ends, yet counts
    assert outer.peak_bytes >= inner.peak_bytes >= 4_000_000


def test_timings_are_scaled_by_the_frozen_pair():
    run = Run(NullTracer(), seed=0, seconds=1)
    run.op_ms, run.frozen_ms = [30.0, 60.0, 90.0], [10.0, 20.0, 45.0]
    run.info.update(units_per_op=10, psnr_gain_db=1.0, peak_rss_mb=1.0)
    pairs = [{"program": 0.3, "frozen": 0.2}, {"program": 0.2, "frozen": 0.2},
             {"program": 0.5, "frozen": 0.25}]
    values = end_to_end(run, 100.0, 0.4, pairs)
    # per-pair ratios 3, 3, 2; summed times 180 over 75
    assert values["op_ms_p50"] == pytest.approx(300.0)
    assert values["ops_per_s"] == pytest.approx(10 * 1000.0 / (100.0 * 180.0 / 75.0))
    assert values["setup_s"] == pytest.approx(0.4 * 1.5)
