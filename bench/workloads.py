"""The three benchmark workloads and the closed loop that runs one of them.

Each workload generates its inputs from the workload seed, then runs one
operation at a time until the measuring time is used up.  Every
operation's output is checked; an exception or a failed check marks the
operation as failed and the loop goes on.

Each timed operation is paired with the same operation done by
``frozen/pixelboost_frozen``, a copy of the library as it was when the
benchmark was made.  The two run back to back, in alternating order, so
both meet the same host speed.  The host this benchmark was built on
changes speed by up to 70 % within seconds; the ratio of the two times
stays put, and the end-to-end timings are that ratio times the frozen
copy's time on the reference machine (``FROZEN_MS``).  A change to the
library moves the numerator only.

The quality metric ``psnr_gain_db`` is measured on a reference set fixed
by ``REFERENCE_SEED`` rather than on the seeded inputs: the gain of one
image over bicubic varies by several dB from image to image, so a mean
over the images a seed draws would move with the seed far more than the
metric's bound allows.  On the reference set it changes only when the
program's results change.
"""

import hashlib
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pixelboost as pb
from pixelboost import cli
from pixelboost.denoiser import item_loss_value
from tracing import NullTracer

BENCH_DIR = Path(__file__).resolve().parent
CHECKPOINT = BENCH_DIR / "data" / "conv2_toy_seed0.pxbk"
CHECKPOINT_SHA256 = "085b8c9a15d6fdff6f2fe304298e014b49c099b7c41725d9fad9cd10a501b877"

# The acceptance battery's reference seed (criterion 07).  It fixes the
# toy training run and the reference images psnr_gain_db is measured on.
REFERENCE_SEED = 0
SETUP_PAIRS = 3
LOE_GRID = 64

# The toy protocol of tests/conftest.py.
TOY_SIGMA = 1.5
TOY_STEP_SIZE = 0.2
TOY_BATCH = 8

# Time of one operation of the frozen copy on the reference machine
# (2 vCPUs, Intel Xeon, Python 3.11, numpy 2.4): the median over runs.
FROZEN_MS = {"toy_protocol": 130.0, "eval_64": 55.0, "sr_512": 2800.0}
# The same for the frozen copy's import plus one set-up, in seconds.
FROZEN_SETUP_S = {"toy_protocol": 0.48, "eval_64": 0.53, "sr_512": 0.57}


class SetupError(Exception):
    """The workload's inputs could not be prepared; no result is printed."""


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def frozen_library():
    sys.path.insert(0, str(BENCH_DIR / "frozen"))
    import pixelboost_frozen
    return pixelboost_frozen


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def check_image(img, shape):
    if img.shape != shape:
        raise CheckFailed(f"output shape {img.shape}, expected {shape}")
    if not np.all(np.isfinite(img)):
        raise CheckFailed("output is not finite")
    if img.min() < 0.0 or img.max() > 1.0:
        raise CheckFailed("output leaves [0, 1]")


def check_finite(what, values):
    if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
        raise CheckFailed(f"{what} is not finite")


def loe_sites(shape, grid=LOE_GRID):
    """Sample sites LOE compares: a ceil stride keeps <= grid per axis."""
    h, w = shape[:2]
    return len(range(0, h, -(-h // grid))) * len(range(0, w, -(-w // grid)))


def conv2_flops_per_pixel(spec):
    """Multiply-adds of both 3x3 convolutions, two FLOPs each; biases left out."""
    c_in, wh, c_out = spec.channels, spec.hidden_width, spec.image_channels
    return 2 * (9 * c_in * wh + 9 * wh * c_out)


def timed_denoiser(tr, lib, ckpt):
    """``as_denoiser(ckpt)``, with each call a ``denoiser.predict`` span."""
    predict = lib.as_denoiser(ckpt)
    if not tr.enabled:
        return predict
    per_pixel = conv2_flops_per_pixel(ckpt.spec)

    def timed(x_t, y0_up, t):
        with tr.span("denoiser.predict") as span:
            span.work = per_pixel * x_t.shape[0] * x_t.shape[1]
            return predict(x_t, y0_up, t)
    return timed


def sample_and_score(tr, lib, hr, lr_up, ckpt, cfg, key):
    """Reverse-sample from ``lr_up`` and score the result against ``hr``."""
    stream = lib.RngStream(key[0], lib.STREAM_SAMPLER).substream(key[1])
    sr, _ = tr.call("diffusion.reverse_sample", lib.reverse_sample, lr_up,
                    timed_denoiser(tr, lib, ckpt), cfg, tr.rng(stream))
    check_image(sr, hr.shape)
    with tr.span("metrics.metric_report") as span:
        report = lib.metric_report(hr, sr, grid=LOE_GRID)
        span.work = loe_sites(hr.shape)
    check_finite("metric report", [report.psnr_db, report.ssim, report.loe])
    return sr, report


def replay_metrics(tr, hr, sr):
    """Time metric_report's three parts on the pair it just scored."""
    tr.call("metrics.psnr", pb.psnr, hr, sr)
    tr.call("metrics.ssim", pb.ssim, hr, sr)
    tr.call("metrics.loe", pb.loe, sr, hr, grid=LOE_GRID)


def load_fixed_checkpoint(tr, lib):
    data = CHECKPOINT.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != CHECKPOINT_SHA256:
        raise SetupError(f"{CHECKPOINT.name} has SHA-256 {digest}, "
                         f"expected {CHECKPOINT_SHA256}")
    return tr.call("denoiser.load_checkpoint", lib.load_checkpoint, CHECKPOINT)


def sampling_config(lib, ckpt, seed):
    tc = ckpt.train_config
    return lib.make_config(steps=int(tc["steps"]), sigma=float(tc["sigma"]),
                           t_mid=tc["t_mid"], mode=tc["mode"],
                           convention=tc.get("convention", "eq5_variance"),
                           seed=seed)


def toy_training(tr, lib, train_count, test_count, size):
    """The toy protocol's pairs at REFERENCE_SEED: training set, held-out set."""
    images = tr.call("imagedata.synth_dataset", lib.synth_dataset, "mixed",
                     train_count + test_count, size,
                     lib.RngStream(REFERENCE_SEED, lib.STREAM_DATASET))
    pairs = [tr.call("imagedata.make_lr_pair", lib.make_lr_pair, hr) for hr in images]
    return [(p.hr, p.lr_up) for p in pairs[:train_count]], pairs[train_count:]


@dataclass
class Item:
    """One input an operation works on."""

    hr: np.ndarray = None
    key: tuple = None           # (seed, substream) of its sampler stream
    lr_up: np.ndarray = None
    lr_path: str = None
    baseline_psnr: float = None
    cfg: object = None          # the diffusion config of a training operation


class Run:
    """Counts, latencies and failures of one closed-loop run.

    ``op_ms`` and ``frozen_ms`` hold the times of the paired operations
    that completed, in the order they ran.
    """

    def __init__(self, tracer, seed, seconds):
        self.tr = tracer
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.op_ms = []
        self.frozen_ms = []
        self.info = {}

    def attempt(self, op_id, fn, *args):
        """Run one operation; return (result, ms), or (None, None) if it failed."""
        self.attempted += 1
        self.tr.op_id = op_id
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation's failure is counted, never fatal
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op_id}: {exc!r}")
            return None, None
        finally:
            self.tr.op_id = None
        return result, 1000.0 * (time.perf_counter() - start)

    def fail(self, op_id, message):
        """Mark an operation that returned as failed by a later check."""
        self.failed += 1
        self.failures.append(f"{op_id}: {message}")

    @contextmanager
    def untraced(self):
        """Run a block as the untraced run does."""
        tracer, self.tr = self.tr, NullTracer()
        try:
            yield
        finally:
            self.tr = tracer


def frozen_ms(twin, item):
    """Time one operation of the frozen copy; its failure stops the run."""
    start = time.perf_counter()
    twin.op(NullTracer(), item)
    return 1000.0 * (time.perf_counter() - start)


class Workload:
    """Shared flow of the workloads: reference pass, then the timed loop.

    A subclass has ``FULL`` and ``SMOKE`` sizes and defines ``setup(tr)``,
    which sets ``cfg``, ``pool`` and ``reference``; ``score(tr, item)``,
    which samples a reference image and returns the SR image and its
    metric report; ``op(tr, item)``, one timed operation on a pool item,
    returning the array a repeat of the input must reproduce; and
    ``lr_up(item)``, the bicubic upsampling ``score`` samples from.  The
    library it calls is ``self.lib``: the program, or the frozen copy.
    """

    def __init__(self, seed, smoke, workdir, lib=pb):
        self.seed = seed
        self.smoke = smoke
        self.sizes = self.SMOKE if smoke else self.FULL
        self.workdir = workdir
        self.lib = lib
        self.prefix = "" if lib is pb else "frozen-"

    def draw(self, tr, count, seed):
        """``count`` mixed HR images from ``seed``'s dataset stream."""
        lib = self.lib
        return tr.call("imagedata.synth_dataset", lib.synth_dataset, "mixed", count,
                       self.sizes["size"], lib.RngStream(seed, lib.STREAM_DATASET))

    def set_baselines(self):
        """PSNR of the clipped bicubic upsampling of each reference image."""
        for item in self.reference:
            item.baseline_psnr = self.lib.psnr(item.hr,
                                               np.clip(self.lr_up(item), 0.0, 1.0))

    def reference_pass(self, run, label):
        """Score the reference set; return the mean PSNR gain over bicubic."""
        gains = []
        for j, item in enumerate(self.reference):
            result, _ = run.attempt(f"{label}{j}", self.score, run.tr, item)
            if result is not None:
                gains.append(result[1].psnr_db - item.baseline_psnr)
        return float(np.mean(gains)) if gains else 0.0

    def quality_and_overhead(self, run):
        """psnr_gain_db; in the traced run also tracing overhead and peak memory.

        The traced run scores the reference set untraced, traced, and
        untraced again, and reports the traced wall time over the mean
        untraced one.  A fourth pass, labelled ``memory``, records peak
        memory with ``tracemalloc``.
        """
        if not run.tr.enabled:
            run.info["psnr_gain_db"] = self.reference_pass(run, "reference")
            return
        gains, seconds = [], []
        for label in ("reference-untraced", "reference", "reference-untraced"):
            start = time.perf_counter()
            if label == "reference":
                gains.append(self.reference_pass(run, label))
            else:
                with run.untraced():
                    gains.append(self.reference_pass(run, label))
            seconds.append(time.perf_counter() - start)
        run.info["trace_overhead_ratio"] = 2 * seconds[1] / (seconds[0] + seconds[2])
        run.tr.track_memory = True
        gains.append(self.reference_pass(run, "memory"))
        run.tr.track_memory = False
        if len(set(gains)) != 1:
            run.fail("reference", "traced and untraced passes differ")
        run.info["psnr_gain_db"] = gains[1]

    def oracle_check(self, run):
        """With the true image as prediction, reverse_sample returns it bit-exactly."""
        item = self.reference[0]

        def check():
            out, _ = pb.reverse_sample(self.lr_up(item), pb.OracleDenoiser(item.hr),
                                       self.cfg, pb.RngStream(self.seed, pb.STREAM_SAMPLER))
            if not np.array_equal(out, item.hr):
                raise CheckFailed("oracle reverse chain does not return x0 exactly")
        run.attempt("oracle", check)

    def frozen_twin(self):
        """The same workload on the frozen copy, set up with the same seed."""
        twin = type(self)(self.seed, self.smoke, self.workdir, frozen_library())
        twin.setup(NullTracer())
        frozen_ms(twin, twin.pool[0])   # warm-up, as the reference pass warms the program
        return twin

    def paired_loop(self, run, twin):
        """Operation k on pool item k mod pool size, for the measuring time.

        Each operation is paired with the frozen copy's on the same pool
        index; even pairs run the program first, odd ones the frozen copy.
        An input met again must give a bit-identical output.
        """
        outputs = {}
        start = time.perf_counter()
        k = 0
        while k < self.sizes.get("min_ops", 1) or time.perf_counter() - start < run.seconds:
            j = k % len(self.pool)
            op_id = f"op{k}"
            if k % 2:
                ref_ms = frozen_ms(twin, twin.pool[j])
            result, ms = run.attempt(op_id, self.op, run.tr, self.pool[j])
            if not k % 2:
                ref_ms = frozen_ms(twin, twin.pool[j])
            k += 1
            if result is None:
                continue
            digest = hashlib.sha256(np.ascontiguousarray(result).tobytes()).digest()
            if outputs.setdefault(j, digest) != digest:
                run.fail(op_id, "repeat of an input gave a different output")
                continue
            run.op_ms.append(ms)
            run.frozen_ms.append(ref_ms)
            self.after_op(run, op_id, self.pool[j], result)
        run.info["loop_s"] = time.perf_counter() - start

    def after_op(self, run, op_id, item, result):
        """Traced run: time metric_report's parts on the pair just scored."""
        if run.tr.enabled:
            run.tr.op_id = op_id
            replay_metrics(run.tr, item.hr, result)
            run.tr.op_id = None

    def measure(self, run):
        """Quality pass, then the paired loop, then the oracle check.

        Peak RSS is read before the frozen copy is set up, so that it
        counts the program alone.
        """
        self.quality_and_overhead(run)
        run.info["peak_rss_mb"] = peak_rss_mb()
        self.paired_loop(run, self.frozen_twin())
        # what ops_per_s counts: SGD steps for training, else images
        run.info["units_per_op"] = self.sizes.get("chunk_steps", 1)
        self.oracle_check(run)


class ToyProtocol(Workload):
    """Train conv2 by the toy protocol; time short train() calls.

    The quality pass trains once by the protocol at REFERENCE_SEED
    (criterion 07) and scores the 20 held-out images: the held-out PSNR
    gain of a model trained at another seed ranges from -0.94 to +0.97
    dB over seeds 0-4.  That one train() call lasts about 20 s, too long
    to pair with the frozen copy's, so the timed operations are train()
    calls of ``chunk_steps`` SGD steps on the same training set, with
    SGD seeds drawn from the workload seed.
    """

    FULL = dict(size=16, train_count=200, test_count=20, sgd_steps=2000,
                chunk_steps=10, pool=4, replay_steps=100)
    SMOKE = dict(size=16, train_count=16, test_count=4, sgd_steps=5,
                 chunk_steps=2, pool=2, replay_steps=2)

    def setup(self, tr):
        s, lib = self.sizes, self.lib
        self.cfg = lib.make_config(steps=15, sigma=TOY_SIGMA, seed=REFERENCE_SEED)
        self.train_set, held_out = toy_training(tr, lib, s["train_count"],
                                                s["test_count"], s["size"])
        self.reference = [Item(hr=p.hr, lr_up=p.lr_up, key=(REFERENCE_SEED, j))
                          for j, p in enumerate(held_out)]
        self.set_baselines()
        self.pool = [Item(cfg=lib.make_config(steps=15, sigma=TOY_SIGMA,
                                              seed=1000 * self.seed + j))
                     for j in range(s["pool"])]

    def score(self, tr, item):
        return sample_and_score(tr, self.lib, item.hr, item.lr_up, self.ckpt,
                                self.cfg, item.key)

    def lr_up(self, item):
        return item.lr_up

    def trained(self, history, ckpt, steps):
        if len(history) != steps:
            raise CheckFailed(f"{len(history)} losses for {steps} steps")
        check_finite("loss history", history)
        check_finite("trained parameters", ckpt.params)
        return ckpt

    def op(self, tr, item):
        steps = self.sizes["chunk_steps"]
        opt = self.lib.TrainOptions(step_size=TOY_STEP_SIZE, steps=steps,
                                    batch_size=TOY_BATCH)
        ckpt, history = self.lib.train(self.train_set, item.cfg, opt)
        return self.trained(history, ckpt, steps).params

    def after_op(self, run, op_id, item, result):
        pass

    def train_op(self, tr):
        steps = self.sizes["sgd_steps"]
        opt = pb.TrainOptions(step_size=TOY_STEP_SIZE, steps=steps, batch_size=TOY_BATCH)
        ckpt, history = tr.call("denoiser.train", pb.train, self.train_set, self.cfg, opt)
        return self.trained(history, ckpt, steps)

    def replay_training(self, tr, ckpt):
        """Time train()'s per-item calls on items drawn as train() draws them.

        The traced run replays before and after train(), so the replayed
        calls bracket the time train() ran in.
        """
        rng = pb.RngStream(self.cfg.seed, pb.STREAM_TRAIN)
        tr.op_id = "train-replay"
        for _ in range(self.sizes["replay_steps"]):
            for i in rng.integers(0, len(self.train_set), TOY_BATCH):
                x0, y0_up = self.train_set[int(i)]
                t = int(rng.integers(1, self.cfg.steps + 1))
                x_t = tr.call("diffusion.forward_marginal", pb.forward_marginal,
                              x0, y0_up - x0, t, self.cfg, rng)
                tr.call("denoiser.item_loss_value", item_loss_value, ckpt,
                        (x0, y0_up), t, x_t)
                tr.call("denoiser.loss_gradient", pb.loss_gradient, ckpt,
                        (x0, y0_up), t, x_t)
        tr.op_id = None

    def measure(self, run):
        """The protocol's train() call, then the shared flow on its model."""
        if run.tr.enabled:
            self.replay_training(run.tr, pb.init_checkpoint(
                pb.spec_for_images("conv2"), self.cfg))
        self.ckpt, ms = run.attempt("train", self.train_op, run.tr)
        if self.ckpt is None:
            return
        run.info.update(protocol_train_s=ms / 1000.0, sgd_steps=self.sizes["sgd_steps"],
                        batch_size=TOY_BATCH)
        if run.tr.enabled:
            self.replay_training(run.tr, self.ckpt)
        super().measure(run)


class Eval64(Workload):
    """Sweep-style evaluation of many 64x64 images with the fixed checkpoint."""

    FULL = dict(size=64, pool=600, reference=20)
    SMOKE = dict(size=16, pool=6, reference=2)

    def setup(self, tr):
        s = self.sizes
        self.ckpt = load_fixed_checkpoint(tr, self.lib)
        self.cfg = sampling_config(self.lib, self.ckpt, self.seed)
        self.pool = [Item(hr=hr, key=(self.seed, j))
                     for j, hr in enumerate(self.draw(tr, s["pool"], self.seed))]
        self.reference = [Item(hr=hr, key=(REFERENCE_SEED, j)) for j, hr
                          in enumerate(self.draw(tr, s["reference"], REFERENCE_SEED))]
        self.set_baselines()

    def score(self, tr, item):
        pair = tr.call("imagedata.make_lr_pair", self.lib.make_lr_pair, item.hr)
        return sample_and_score(tr, self.lib, pair.hr, pair.lr_up, self.ckpt,
                                self.cfg, item.key)

    def op(self, tr, item):
        return self.score(tr, item)[0]

    def lr_up(self, item):
        return self.lib.make_lr_pair(item.hr).lr_up


class Sr512(Workload):
    """The single-image pipeline: LR file in, SR file out, then every report."""

    FULL = dict(size=512, pool=4, reference=1, min_ops=3)
    SMOKE = dict(size=32, pool=2, reference=1)

    def _write_lr(self, tr, hr, name):
        pair = tr.call("imagedata.make_lr_pair", self.lib.make_lr_pair, hr)
        path = os.path.join(self.workdir, self.prefix + name)
        tr.call("imagedata.write_image", self.lib.write_image, pair.lr, path)
        return path

    def setup(self, tr):
        s = self.sizes
        self.ckpt = load_fixed_checkpoint(tr, self.lib)
        self.cfg = sampling_config(self.lib, self.ckpt, self.seed)
        self.pool = [Item(hr=hr, key=(self.seed, j),
                          lr_path=self._write_lr(tr, hr, f"lr{j}.pgm"))
                     for j, hr in enumerate(self.draw(tr, s["pool"], self.seed))]
        self.reference = [Item(hr=hr, key=(REFERENCE_SEED, j),
                               lr_path=self._write_lr(tr, hr, f"reference{j}.pgm"))
                          for j, hr in enumerate(self.draw(tr, s["reference"],
                                                           REFERENCE_SEED))]
        self.set_baselines()

    def lr_up(self, item):
        return self.lib.bicubic_resize(self.lib.read_image(item.lr_path), 4)

    def score(self, tr, item):
        lib = self.lib
        with tr.span("imagedata.read_image") as span:
            lr = lib.read_image(item.lr_path)
            span.work = os.path.getsize(item.lr_path)
        lr_up = tr.call("imagedata.bicubic_resize", lib.bicubic_resize, lr, 4)
        sr, report = sample_and_score(tr, lib, item.hr, lr_up, self.ckpt, self.cfg,
                                      item.key)
        out_path = os.path.join(self.workdir, self.prefix + "sr.pgm")
        with tr.span("imagedata.write_image") as span:
            lib.write_image(sr, out_path)
            span.work = written = os.path.getsize(out_path)
        if written < sr.size:
            raise CheckFailed(f"wrote {written} bytes for {sr.size} pixels")
        edges = tr.call("metrics.edge_report", lib.edge_report, sr, item.hr)
        check_finite("edge report", edges.diff)
        residual = (sr - item.hr).ravel()
        stream = lib.RngStream(item.key[0], lib.STREAM_ANALYSIS).substream(item.key[1])
        with tr.span("analysis.noise_fit_report") as span:
            fit = lib.noise_fit_report(residual, self.cfg.sigma, stream)
            span.work = residual.size
        check_finite("noise fit", list(fit.statistics.values()))
        return sr, report

    def op(self, tr, item):
        return self.score(tr, item)[0]

    def measure(self, run):
        super().measure(run)
        if run.tr.enabled:
            run.attempt("cli-sr", self.cli_sr, run.tr)

    def cli_sr(self, tr):
        """One in-process ``pixelboost sr`` on the first LR file."""
        out_path = os.path.join(self.workdir, "cli_sr.pgm")
        argv = ["sr", "--input", self.pool[0].lr_path, "--checkpoint", str(CHECKPOINT),
                "--out", out_path, "--seed", str(self.seed)]
        code = tr.call("cli.sr", cli.main, argv)
        if code != 0:
            raise CheckFailed(f"pixelboost sr exited with {code}")
        check_image(pb.read_image(out_path), self.pool[0].hr.shape)


WORKLOADS = {"toy_protocol": ToyProtocol, "eval_64": Eval64, "sr_512": Sr512}
