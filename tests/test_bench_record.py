"""tools/bench_record.py's file assembly, on canned bench output; no bench runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(seed, ops_per_s, correct=True, failed=0):
    """What bench/run.py prints: progress, then the report and result lines."""
    report = {"workload": "eval_64", "seconds": 25.0, "trace": 0,
              "provenance": {"nproc": 2, "numpy": "2.4.6", "seed": seed,
                             "git_commit": "0" * 40},
              "op_ms": [16.0, 17.0]}
    values = {"setup_s": 0.3, "ops_per_s": ops_per_s, "op_ms_p50": 1000 / ops_per_s,
              "psnr_gain_db": 0.623, "peak_rss_mb": 63.4}
    result = {"correct": correct, "attempted": 400, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": "u"} for name in E2E}}
    return f"warming up\n{json.dumps(report)}\n{json.dumps(result)}\n"


def _run(record, seed, ops_per_s):
    report, result = record.parse_output(_stdout(seed, ops_per_s))
    return {"workload": "eval_64", "seed": seed,
            "provenance": report["provenance"], "result": result}


def test_parse_output_takes_the_last_two_lines(record):
    report, result = record.parse_output(_stdout(7, 60.0))
    assert report["provenance"]["seed"] == 7
    assert result["metrics"]["ops_per_s"]["value"] == 60.0


def test_assemble_keeps_every_run_and_takes_medians(record):
    runs = [_run(record, seed, ops) for seed, ops in ((1, 58.0), (2, 64.0), (3, 61.0))]
    checkout = {"commit": "a" * 40, "uncommitted_changes": False, "src_sha256": "b" * 64}
    bench = record.assemble(runs, checkout, 25.0, "2026-10-19T00:00:00+00:00")
    assert bench["commit"] == "a" * 40
    assert bench["uncommitted_changes"] is False
    assert bench["seconds"] == 25.0
    assert bench["command"] == SPEC["command"]
    assert list(bench["workloads"]) == ["eval_64"]
    entry = bench["workloads"]["eval_64"]
    assert entry["runs"] == runs
    assert entry["runs"][1]["provenance"]["seed"] == 2
    assert list(entry["median"]) == E2E
    assert entry["median"]["ops_per_s"] == 61.0
    assert entry["median"]["op_ms_p50"] == 1000 / 61.0
    json.dumps(bench)  # the file is plain JSON


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 3)])
def test_wrong_or_failing_run_writes_no_file(record, monkeypatch, tmp_path,
                                             correct, failed):
    def bench(argv, **kwargs):
        return subprocess.CompletedProcess(
            argv, 0, stdout=_stdout(7, 60.0, correct, failed), stderr="")

    monkeypatch.setattr(record.subprocess, "run", bench)
    monkeypatch.setattr(record, "ROOT", tmp_path)
    monkeypatch.setattr(record, "checkout_state", lambda: {"commit": "a" * 40})
    with pytest.raises(SystemExit) as exc:
        record.main(["--seeds", "7", "8"])
    message = str(exc.value.code)
    assert message.startswith(f"error: {WORKLOADS[0]} seed 7: ")
    assert f"correct={correct}, failed={failed} of 400" in message
    assert list(tmp_path.iterdir()) == []


def test_correct_run_passes_the_check(record, monkeypatch):
    def bench(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=_stdout(7, 60.0), stderr="")

    monkeypatch.setattr(record.subprocess, "run", bench)
    run = record.run_once("eval_64", 7, 1.0)
    assert run["seed"] == 7 and run["result"]["failed"] == 0


def test_next_path_numbers_after_the_highest(record, tmp_path):
    assert record.next_path(tmp_path).name == "BENCH_1.json"
    for name in ("BENCH_1.json", "BENCH_10.json", "BENCH_x.json", "BENCH_3.json.bak"):
        (tmp_path / name).write_text("{}")
    assert record.next_path(tmp_path).name == "BENCH_11.json"


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_files_have_every_median(path):
    bench = json.loads(path.read_text())
    assert len(bench["commit"]) == 40
    for workload in WORKLOADS:
        assert list(bench["workloads"][workload]["median"]) == E2E
        for run in bench["workloads"][workload]["runs"]:
            assert run["result"]["failed"] == 0


def test_first_file_is_the_backfilled_baseline():
    bench = json.loads((ROOT / "BENCH_1.json").read_text())
    assert "bench/README.md" in bench["backfilled"]
    assert bench["workloads"]["eval_64"]["median"]["ops_per_s"] == 18.18
