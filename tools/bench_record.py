"""Record the benchmark of this checkout in BENCH_<n>.json.

    python3 tools/bench_record.py --seeds 501 502 503 --seconds 25

For each workload that BENCHMARK.json declares the script runs
``python3 bench/run.py --trace 0`` once per seed, one process at a
time, and writes BENCH_<n>.json at the repository root, where n is one
more than the highest number already there.  The file holds every run's
result line with its report line's provenance, the per-workload median
of each end-to-end metric, the git commit of the checkout, whether src/
or bench/ differed from it, and a SHA-256 of the src/ files measured.
A run whose result says ``"correct": false`` or ``"failed"`` > 0 stops
the script with a non-zero exit naming its workload and seed, and no
file is written.
Three seeds per workload is the usual record; pick seeds that no
earlier file used.
"""

import argparse
import datetime
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_output(stdout):
    """The report and result objects: the last two lines bench/run.py prints."""
    report, result = (json.loads(line) for line in stdout.splitlines()[-2:])
    return report, result


def check_result(workload, seed, result):
    """Exit non-zero, before any file is written, on a wrong or failing run."""
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"error: {workload} seed {seed}: correct={result['correct']}, "
                 f"failed={result['failed']} of {result['attempted']}; no file written")


def run_once(workload, seed, seconds):
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} exited with {done.returncode}: "
                 f"{done.stderr.strip()}")
    report, result = parse_output(done.stdout)
    check_result(workload, seed, result)
    return {"workload": workload, "seed": seed,
            "provenance": report["provenance"], "result": result}


def assemble(runs, checkout, seconds, recorded):
    """The BENCH_<n>.json object for ``runs`` (as run_once returns them)."""
    names = [m["name"] for m in SPEC["end_to_end"]]
    workloads = {}
    for run in runs:
        workloads.setdefault(run["workload"], []).append(run)
    return {
        **checkout,
        "recorded": recorded,
        "command": SPEC["command"],
        "seconds": seconds,
        "workloads": {
            name: {
                "median": {metric: statistics.median(
                    r["result"]["metrics"][metric]["value"] for r in group)
                    for metric in names},
                "runs": group,
            }
            for name, group in workloads.items()
        },
    }


def next_path(root):
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def checkout_state():
    """The commit, whether src/ or bench/ differ from it, and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"commit": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git("status", "--porcelain", "--", "src", "bench")),
            "src_sha256": digest.hexdigest()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True,
                   help="one run per seed and workload")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = p.parse_args(argv)
    checkout = checkout_state()
    runs = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in args.seeds:
            print(f"{workload} seed {seed} ...", file=sys.stderr, flush=True)
            runs.append(run_once(workload, seed, args.seconds))
    recorded = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    path = next_path(ROOT)
    path.write_text(json.dumps(assemble(runs, checkout, args.seconds, recorded),
                               indent=1) + "\n")
    print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
