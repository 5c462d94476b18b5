"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload eval_64 --seed 3 --seconds 20 --trace 0

The last line of standard output is the result: one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the workload runs traced and the metrics are the per-layer ones, and
its spans are written to ``.bench_out/`` at the root of the checkout.
The line before the result is a report: provenance, sample counts and
the numbers behind the metrics.  ``--smoke`` shrinks every workload so
that a run takes seconds.

The package is imported from ``src/`` next to this directory; without
it the script exits with an error and prints no result.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

PROBE = BENCH_DIR / "probe.py"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "psnr_gain_db": "dB",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "denoiser.train_s": "s",
    "denoiser.loss_gradient_ms": "ms",
    "denoiser.item_loss_value_ms": "ms",
    "denoiser.train_self_ms_per_step": "ms",
    "denoiser.predict_ms": "ms",
    "denoiser.predict_calls": "count",
    "denoiser.predict_gflops": "GFLOP/s",
    "denoiser.predict_peak_mb": "MB",
    "denoiser.load_checkpoint_ms": "ms",
    "diffusion.reverse_sample_ms": "ms",
    "diffusion.reverse_self_ms": "ms",
    "diffusion.forward_marginal_ms": "ms",
    "diffusion.reverse_peak_mb": "MB",
    "noise.standard_normal_ms": "ms",
    "noise.normal_fields": "count",
    "imagedata.synth_dataset_ms": "ms",
    "imagedata.make_lr_pair_ms": "ms",
    "imagedata.bicubic_resize_ms": "ms",
    "imagedata.read_image_ms": "ms",
    "imagedata.write_image_ms": "ms",
    "imagedata.bytes_read": "bytes",
    "imagedata.bytes_written": "bytes",
    "metrics.metric_report_ms": "ms",
    "metrics.psnr_ms": "ms",
    "metrics.ssim_ms": "ms",
    "metrics.loe_ms": "ms",
    "metrics.loe_sites": "count",
    "metrics.edge_report_ms": "ms",
    "analysis.noise_fit_report_ms": "ms",
    "analysis.samples": "count",
    "cli.sr_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_pair(args, workdir, k):
    """Import plus set-up seconds of the program and of the frozen copy.

    Each is timed in a fresh interpreter (``probe.py``), one right after
    the other; pair k starts with the program when k is even.
    """
    from workloads import SetupError
    order = ("program", "frozen") if k % 2 == 0 else ("frozen", "program")
    pair = {}
    for which in order:
        probe_dir = os.path.join(workdir, f"probe{k}-{which}")
        os.mkdir(probe_dir)
        done = subprocess.run([sys.executable, str(PROBE), which, args.workload,
                               str(args.seed), str(int(args.smoke)), probe_dir],
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SetupError(f"{which} set-up probe: {done.stderr.strip()[-500:]}")
        pair[which] = sum(float(x) for x in done.stdout.split())
    return pair


def scaled_ms(run, frozen_ms):
    """Each operation's time over its frozen pair's, times ``frozen_ms``."""
    return [frozen_ms * op / ref for op, ref in zip(run.op_ms, run.frozen_ms)]


def end_to_end(run, frozen_ms, frozen_setup_s, setup_pairs):
    """End-to-end metrics; timings are scaled by the frozen copy's pace.

    ``op_ms_p50`` is the median of ``scaled_ms``, where ``frozen_ms`` is
    the frozen copy's time on the reference machine.  ``ops_per_s`` uses
    the ratio of the summed times.  ``setup_s`` is the median ratio of
    the ``setup_pairs`` times ``frozen_setup_s``, the frozen copy's
    import and set-up time on the reference machine.
    """
    ratio = sum(run.op_ms) / sum(run.frozen_ms) if run.op_ms else 0.0
    return {
        "setup_s": frozen_setup_s * statistics.median(
            p["program"] / p["frozen"] for p in setup_pairs),
        "ops_per_s": (1000.0 * run.info["units_per_op"] / (frozen_ms * ratio)
                      if ratio else 0.0),
        "op_ms_p50": _median(scaled_ms(run, frozen_ms)),
        "psnr_gain_db": run.info.get("psnr_gain_db", 0.0),
        "peak_rss_mb": run.info.get("peak_rss_mb", 0.0),
    }


def per_layer(tr, run):
    """Per-layer metrics from the spans; 0 where the workload makes no such call.

    A function called both in set-up and in operations is measured on its
    calls in operations.  Times leave out the pass that tracks memory, and
    peaks come from that pass alone.
    """
    def spans(name):
        named = [s for s in tr.named(name) if not (s.op or "").startswith("memory")]
        return [s for s in named if not (s.op or "").startswith("setup")] or named

    def ms(name):
        return _median([s.ms for s in spans(name)])

    def peak_mb(name):
        return _median([s.peak_bytes / 1e6 for s in tr.named(name)
                        if (s.op or "").startswith("memory")])

    def work(name):
        return _median([s.work for s in spans(name)])

    reverse = spans("diffusion.reverse_sample")
    reverse_ids = {s.id for s in reverse}
    predict = spans("denoiser.predict")
    fields = [s for s in spans("noise.standard_normal") if s.parent in reverse_ids]
    predict_s = sum(s.ms for s in predict) / 1000.0

    # train() is one opaque span; its per-item calls were replayed before
    # and after it
    item_ms = sum(statistics.fmean([s.ms for s in tr.named(n)] or [0.0])
                  for n in ("diffusion.forward_marginal", "denoiser.item_loss_value",
                            "denoiser.loss_gradient"))
    steps, batch = run.info.get("sgd_steps"), run.info.get("batch_size")
    train_ms = ms("denoiser.train")
    train_self = train_ms / steps - batch * item_ms if steps and train_ms else 0.0

    return {
        "denoiser.train_s": train_ms / 1000.0,
        "denoiser.loss_gradient_ms": ms("denoiser.loss_gradient"),
        "denoiser.item_loss_value_ms": ms("denoiser.item_loss_value"),
        "denoiser.train_self_ms_per_step": train_self,
        "denoiser.predict_ms": ms("denoiser.predict"),
        "denoiser.predict_calls": len(predict) / len(reverse_ids) if reverse_ids else 0.0,
        "denoiser.predict_gflops": (sum(s.work for s in predict) / predict_s / 1e9
                                    if predict_s else 0.0),
        "denoiser.predict_peak_mb": peak_mb("denoiser.predict"),
        "denoiser.load_checkpoint_ms": ms("denoiser.load_checkpoint"),
        "diffusion.reverse_sample_ms": ms("diffusion.reverse_sample"),
        "diffusion.reverse_self_ms": _median(tr.self_ms(reverse)),
        "diffusion.forward_marginal_ms": ms("diffusion.forward_marginal"),
        "diffusion.reverse_peak_mb": peak_mb("diffusion.reverse_sample"),
        "noise.standard_normal_ms": _median([s.ms for s in fields]),
        "noise.normal_fields": len(fields) / len(reverse_ids) if reverse_ids else 0.0,
        "imagedata.synth_dataset_ms": ms("imagedata.synth_dataset"),
        "imagedata.make_lr_pair_ms": ms("imagedata.make_lr_pair"),
        "imagedata.bicubic_resize_ms": ms("imagedata.bicubic_resize"),
        "imagedata.read_image_ms": ms("imagedata.read_image"),
        "imagedata.write_image_ms": ms("imagedata.write_image"),
        "imagedata.bytes_read": work("imagedata.read_image"),
        "imagedata.bytes_written": work("imagedata.write_image"),
        "metrics.metric_report_ms": ms("metrics.metric_report"),
        "metrics.psnr_ms": ms("metrics.psnr"),
        "metrics.ssim_ms": ms("metrics.ssim"),
        "metrics.loe_ms": ms("metrics.loe"),
        "metrics.loe_sites": work("metrics.metric_report"),
        "metrics.edge_report_ms": ms("metrics.edge_report"),
        "analysis.noise_fit_report_ms": ms("analysis.noise_fit_report"),
        "analysis.samples": work("analysis.noise_fit_report"),
        "cli.sr_ms": ms("cli.sr"),
        "bench.trace_overhead_ratio": run.info.get("trace_overhead_ratio", 0.0),
    }


def _blas_threads(numpy):
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout of the files, not a clone
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "seed": seed,
        "git_commit": _git_commit(),
        "load": "one closed-loop process; one operation at a time",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("toy_protocol", "eval_64", "sr_512"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: every workload and metric in seconds")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import pixelboost
    except ImportError as exc:
        print(f"error: cannot import pixelboost from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if Path(pixelboost.__file__).resolve().parent.parent != SRC:
        print(f"error: imported pixelboost from {pixelboost.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from tracing import NullTracer, Tracer
    from workloads import (FROZEN_MS, FROZEN_SETUP_S, SETUP_PAIRS, WORKLOADS, Run,
                           SetupError)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    tracer = Tracer() if args.trace else NullTracer()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        tracer.op_id = "setup"
        begin = time.perf_counter()
        workload.setup(tracer)
        setup_s = time.perf_counter() - begin
        tracer.op_id = None
        run = Run(tracer, args.seed, args.seconds)
        workload.measure(run)
        setup_pairs = [setup_pair(args, workdir, k) for k in range(SETUP_PAIRS)]
    except SetupError as exc:
        print(f"error: setup failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "provenance": provenance(args.seed),
        "import_s": import_s, "setup_s": setup_s, "setup_pairs": setup_pairs,
        "op_samples": len(run.op_ms),
        "op_ms_p50_measured": _median(run.op_ms),
        "frozen_ms_p50_measured": _median(run.frozen_ms),
        "frozen_ms_reference": FROZEN_MS[args.workload],
        "op_ms_p90": _percentile(scaled_ms(run, FROZEN_MS[args.workload]), 90),
        "op_ms": run.op_ms, "frozen_ms": run.frozen_ms,
        "failed_op_ratio": run.failed / max(run.attempted, 1),
        "failures": run.failures, **run.info,
    }
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        values, units = per_layer(tracer, run), PER_LAYER
    else:
        values = end_to_end(run, FROZEN_MS[args.workload],
                            FROZEN_SETUP_S[args.workload], setup_pairs)
        units = END_TO_END
    print(json.dumps(report))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
