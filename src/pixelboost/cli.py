"""Batch command-line front end.

Subcommands cover the whole pipeline: schedule tables, degradation,
forward simulation, training, super-resolution sampling, noise
analysis, metric reports, and a sigma sweep.  Every command is
byte-reproducible under a fixed ``--seed``.

One table, ``_COMMANDS``, names the ``RunConfig`` fields each command
reads; those fields, with ``--seed`` and ``--out``, are the command's
flags and the keys its ``--config`` file may set.  A flag takes its type
from the field's annotation and its choices from ``_CHOICES``, which
config values must also meet.

Configuration precedence: command-line flags > ``--config`` JSON file >
``PIXELBOOST_SEED`` environment variable (seed only) > built-in
defaults.  A config key the command does not take is a usage error, and
so is a value that the library setting it configures refuses: each
command builds those settings before it reads input or trains, and the
refusal names the flags the setting reads.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional, get_args

import numpy as np

from .analysis import DEFAULT_BIN_COUNT, _bin_count, noise_fit_report
from .denoiser import (DenoiserSpec, TrainOptions, _batch_size, as_denoiser,
                       load_checkpoint, save_checkpoint, train)
from .diffusion import CONVENTIONS, DiffusionConfig, forward_chain, reverse_sample
from .errors import CodecError, ParameterError, PixelBoostError, ShapeError, _require_arrays
from .imagedata import (bicubic_resize, make_lr_pair, read_image, synth_dataset,
                        write_image, SYNTH_KINDS)
from .metrics import (EDGE_PATCH_DEFAULT, LOE_GRID_DEFAULT, _edge_patch, _loe_grid,
                      edge_report, grid_csv, metric_report)
from .noise import (STREAM_ANALYSIS, STREAM_DATASET, STREAM_FORWARD,
                    STREAM_SAMPLER, NoiseKind, RngStream)
from .schedule import MODES, _steps, build_schedule

SEED_ENV = "PIXELBOOST_SEED"
# RngStream keys Philox with a list that numpy casts through float64 once a
# value reaches 2**63, so larger seeds, and negative ones, alias other seeds
MAX_SEED = 2 ** 63


class _UsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    """Fully resolved settings for one command; every field has a default."""

    command: str = ""
    input: Optional[str] = None
    out: Optional[str] = None
    gt: Optional[str] = None
    test: Optional[str] = None
    manifest: Optional[str] = None
    checkpoint: Optional[str] = None
    sigmas: Optional[tuple] = None
    steps: int = 15
    t_mid: Optional[float] = None
    sigma: float = 1.5
    mode: str = "normalized"
    convention: str = "eq5_variance"
    seed: int = 0
    bins: int = DEFAULT_BIN_COUNT
    grid: int = LOE_GRID_DEFAULT
    patch: int = EDGE_PATCH_DEFAULT
    train_steps: int = TrainOptions.steps
    step_size: float = TrainOptions.step_size
    batch_size: int = TrainOptions.batch_size
    hidden_width: int = DenoiserSpec.hidden_width
    kind: str = "mixed"
    count: int = 16
    size: int = 16
    eval_count: int = 4


# the value type of each field, with Optional[X] read as X
_FIELD_TYPES = {f.name: (get_args(f.type) or (f.type,))[0] for f in fields(RunConfig)}
_OPTIONAL_FIELDS = {f.name for f in fields(RunConfig) if f.default is None}
# the values a field's flag and config key accept, where they are a fixed set
_CHOICES = {"mode": MODES, "convention": CONVENTIONS, "kind": SYNTH_KINDS}


def _parse_sigmas(value):
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = [s for s in str(value).split(",") if s.strip()]
    try:
        sigmas = tuple(float(s) for s in items)
    except (TypeError, ValueError) as exc:  # TypeError: a config's [[1.5]]
        raise _UsageError(f"bad --sigmas value: {exc}") from exc
    if not sigmas:
        raise _UsageError("--sigmas needs at least one value")
    return sigmas


def _coerce(name, value):
    """A --config file value converted to the type of its RunConfig field.

    Numbers may be JSON numbers or numeric strings; an int field refuses a
    fractional value rather than truncating it.  ``None`` is allowed where
    it is the field's default.  A string may not hold a NUL character,
    which no file path can contain.
    """
    kind = _FIELD_TYPES[name]
    if kind is tuple or (value is None and name in _OPTIONAL_FIELDS):
        return value  # sigmas are parsed by _parse_sigmas
    accepted = str if kind is str else (int, float, str)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise _UsageError(
            f"config value {name}={value!r} is not of type {kind.__name__}")
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")
        if kind is str and "\0" in value:
            raise ValueError("contains a NUL character")
        value = kind(value)
    except (ValueError, OverflowError) as exc:
        raise _UsageError(f"bad config value {name}={value!r}: {exc}") from exc
    choices = _CHOICES.get(name)
    if choices is not None and value not in choices:
        raise _UsageError(f"config value {name}={value!r} is not one of "
                          f"{', '.join(choices)}")
    return value


def _resolve(args):
    """Merge flags, config file, environment, and defaults into a RunConfig."""
    names = _COMMON_FIELDS + _COMMANDS[args.command][2]
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise _UsageError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise _UsageError("config file must hold a JSON object")
        refused = sorted(set(file_cfg) - set(names))
        if refused:
            raise _UsageError(f"config keys that {args.command} does not take: "
                              f"{', '.join(refused)}")

    cfg = RunConfig(command=args.command)
    for name in names:
        flag = getattr(args, name)
        if flag is not None:
            value = flag
        elif name in file_cfg:
            value = _coerce(name, file_cfg[name])
        elif name == "seed" and SEED_ENV in os.environ:
            try:
                value = int(os.environ[SEED_ENV])
            except ValueError as exc:
                raise _UsageError(f"bad {SEED_ENV} value: {exc}")
        else:
            continue
        if name == "sigmas":
            value = _parse_sigmas(value)
        setattr(cfg, name, value)
    if not 0 <= cfg.seed < MAX_SEED:
        raise _UsageError(f"seed must lie in [0, 2**63), got {cfg.seed}")
    return cfg


def _flag(name):
    return "--" + name.replace("_", "-")


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise _UsageError(f"{cfg.command} requires {_flag(name)}")


def _setting(names, build, *args, **kwargs):
    """A library setting built from the flags of the RunConfig fields
    ``names`` (space-separated); a value it refuses is a usage error that
    names those flags before the library's own message."""
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        raise _UsageError(f"{', '.join(map(_flag, names.split()))}: {exc}") from exc


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _img_name(stem, img):
    return stem + (".pgm" if img.shape[2] == 1 else ".ppm")


def _schedule(cfg):
    """The schedule of --steps and --t-mid: --steps alone, then the two together."""
    _setting("steps", _steps, cfg.steps)
    return _setting("steps t_mid", build_schedule, cfg.steps, t_mid=cfg.t_mid,
                    mode=cfg.mode)


def _diffusion_config(cfg, sigma_flag="sigma"):
    """The DiffusionConfig of the flags, its sigma set by flag ``sigma_flag``."""
    return _setting(sigma_flag, DiffusionConfig, sigma=cfg.sigma,
                    schedule=_schedule(cfg), seed=cfg.seed)


# TrainOptions' fields and the flags that set them
_TRAIN_OPTIONS = (("step_size", "step_size"), ("steps", "train_steps"),
                  ("batch_size", "batch_size"))


def _training(cfg):
    """TrainOptions and DenoiserSpec of the flags, each value checked alone."""
    options = {field: getattr(cfg, name) for field, name in _TRAIN_OPTIONS}
    for field, name in _TRAIN_OPTIONS:
        _setting(name, TrainOptions, **{field: options[field]})
    return (TrainOptions(**options),
            _setting("hidden_width", DenoiserSpec, hidden_width=cfg.hidden_width))


# --- subcommands ---------------------------------------------------------

def cmd_schedule(cfg):
    sched = _schedule(cfg)
    lines = ["t,eta,alpha"]
    for t in range(1, sched.steps + 1):
        lines.append(f"{t},{float(sched.etas[t])!r},{float(sched.alphas[t - 1])!r}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_degrade(cfg):
    _require(cfg, "input", "out")
    pair = make_lr_pair(read_image(cfg.input))
    os.makedirs(cfg.out, exist_ok=True)
    write_image(pair.lr, os.path.join(cfg.out, _img_name("lr", pair.lr)))
    write_image(pair.lr_up, os.path.join(cfg.out, _img_name("lr_up", pair.lr_up)))
    with open(os.path.join(cfg.out, "delta0.f64"), "wb") as fh:
        fh.write(pair.delta0.astype("<f8").tobytes())
    return 0


def cmd_forward(cfg):
    _require(cfg, "input", "out")
    dcfg = _diffusion_config(cfg)
    pair = make_lr_pair(read_image(cfg.input))
    rng = RngStream(cfg.seed, STREAM_FORWARD)
    _, frames = forward_chain(pair.hr, pair.delta0, dcfg, rng, keep_trajectory=True,
                              convention=cfg.convention)
    os.makedirs(cfg.out, exist_ok=True)
    for t, frame in enumerate(frames):
        write_image(np.clip(frame, 0.0, 1.0),
                    os.path.join(cfg.out, _img_name(f"frame_{t:03d}", frame)))
    return 0


def _load_manifest(path):
    base = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise _UsageError(f"manifest {path} is not UTF-8: {exc}")
    if not names:
        raise _UsageError(f"manifest {path} lists no images")
    if any("\0" in name for name in names):
        raise _UsageError(f"manifest {path} holds a NUL character")
    paths = [os.path.join(base, name) for name in names]
    images = []
    for image_path in paths:
        img = read_image(image_path)
        h, w, c = img.shape
        if h % 4 or w % 4:
            raise ShapeError(f"{image_path} is {h}x{w}; training images need "
                             f"a height and width divisible by 4")
        if images and c != images[0].shape[2]:
            raise ShapeError(f"{image_path} has {c} channels, but {paths[0]} "
                             f"has {images[0].shape[2]}")
        images.append(img)
    return images


def cmd_train(cfg):
    _require(cfg, "manifest", "checkpoint")
    dcfg = _diffusion_config(cfg)
    opt, spec = _training(cfg)
    images = _load_manifest(cfg.manifest)
    dataset = [(p.hr, p.lr_up) for p in map(make_lr_pair, images)]
    # a width that fits grey images may not fit colour ones: exit 1
    spec = replace(spec, image_channels=dataset[0][0].shape[2])
    ckpt, history = train(dataset, dcfg, opt, spec)
    save_checkpoint(ckpt, cfg.checkpoint)
    if cfg.out is not None:
        rows = ["step,loss"]
        rows += [f"{i},{float(loss)!r}" for i, loss in enumerate(history)]
        _write_text(cfg.out, "\n".join(rows) + "\n")
    return 0


def cmd_sr(cfg):
    _require(cfg, "input", "checkpoint", "out")
    lr = read_image(cfg.input)
    ckpt = load_checkpoint(cfg.checkpoint)
    if lr.shape[2] != ckpt.spec.image_channels:
        raise ShapeError(f"{cfg.input} has {lr.shape[2]} channels, but the "
                         f"checkpoint takes {ckpt.spec.image_channels}")
    dcfg = ckpt.config(cfg.seed)
    lr_up = bicubic_resize(lr, 4)
    rng = RngStream(cfg.seed, STREAM_SAMPLER)
    sr, _ = reverse_sample(lr_up, as_denoiser(ckpt), dcfg, rng)
    write_image(sr, cfg.out)
    return 0


def cmd_analyze_noise(cfg):
    _setting("sigma", NoiseKind, "brownian", cfg.sigma)  # the one candidate sigma scales
    bins = _setting("bins", _bin_count, cfg.bins)
    if cfg.input is not None:
        size = os.path.getsize(cfg.input)
        if size % 8:
            raise CodecError(f"{cfg.input} holds {size} bytes, "
                             "not a whole number of float64 values")
        sample = np.fromfile(cfg.input, dtype="<f8")
    elif cfg.gt is not None and cfg.test is not None:
        gt, test = _require_arrays(read_image(cfg.gt), read_image(cfg.test))
        sample = (test - gt).ravel()
    else:
        raise _UsageError("analyze-noise needs --input or both --gt and --test")
    rng = RngStream(cfg.seed, STREAM_ANALYSIS)
    report = noise_fit_report(sample, cfg.sigma, rng, bins)
    _write_text(cfg.out, report.csv())
    return 0


def cmd_metrics(cfg):
    _require(cfg, "gt", "test")
    grid = _setting("grid", _loe_grid, cfg.grid)
    gt, test = read_image(cfg.gt), read_image(cfg.test)
    report = metric_report(gt, test, gt_id=cfg.gt, test_id=cfg.test, grid=grid)
    _write_text(cfg.out, report.csv())
    return 0


def cmd_edge_report(cfg):
    _require(cfg, "gt", "test", "out")
    patch = _setting("patch", _edge_patch, cfg.patch)
    gt, test = read_image(cfg.gt), read_image(cfg.test)
    report = edge_report(test, gt, patch=patch)
    os.makedirs(cfg.out, exist_ok=True)
    _write_text(os.path.join(cfg.out, "patch_means_test.csv"),
                grid_csv(report.patch_means_a))
    _write_text(os.path.join(cfg.out, "patch_means_gt.csv"),
                grid_csv(report.patch_means_b))
    _write_text(os.path.join(cfg.out, "patch_diff.csv"), grid_csv(report.diff))
    return 0


def _run_pairs(cfg):
    """``cfg.count`` training pairs, then ``cfg.eval_count`` held-out SrPairs."""
    pairs = [make_lr_pair(hr) for hr in synth_dataset(
        cfg.kind, cfg.count + cfg.eval_count, cfg.size, RngStream(cfg.seed, STREAM_DATASET))]
    return [(p.hr, p.lr_up) for p in pairs[:cfg.count]], pairs[cfg.count:]


def _run_model(cfg, dcfg, train_set, held_out):
    """Train under ``dcfg`` on grey images, then sample and score each held-out
    pair: the checkpoint, its loss history and the held-out (PSNR, SSIM, LOE)."""
    ckpt, history = train(train_set, dcfg, *_training(cfg))
    scores = []
    for j, pair in enumerate(held_out):
        # keyed by image alone, so no result depends on the order of --sigmas
        rng = RngStream(dcfg.seed, STREAM_SAMPLER).substream(j)
        sr, _ = reverse_sample(pair.lr_up, as_denoiser(ckpt), dcfg, rng)
        r = metric_report(pair.hr, sr, grid=cfg.grid)
        scores.append((r.psnr_db, r.ssim, r.loe))
    # along axis 0 numpy adds the images in order; a 1-D mean sums pairwise
    return ckpt, history, np.mean(scores, axis=0)


def cmd_sweep(cfg):
    _require(cfg, "sigmas")
    for name in ("count", "eval_count"):
        if getattr(cfg, name) < 1:
            raise _UsageError(f"{_flag(name)} must be >= 1, got {getattr(cfg, name)}")
    dcfgs = [_diffusion_config(replace(cfg, sigma=s), "sigmas") for s in cfg.sigmas]
    opt, spec = _training(cfg)
    _setting("grid", _loe_grid, cfg.grid)
    pairs = _setting("count eval_count size", _run_pairs, cfg)  # synthesis reads no input
    _setting("batch_size size hidden_width", _batch_size, spec, opt.batch_size,
             cfg.size ** 2)
    rows = ["sigma,psnr_db,ssim,loe"]
    for dcfg in dcfgs:
        _, _, means = _run_model(cfg, dcfg, *pairs)
        rows.append(",".join(repr(float(v)) for v in (dcfg.sigma, *means)))
    _write_text(cfg.out, "\n".join(rows) + "\n")
    return 0


_COMMON_FIELDS = ("seed", "out")
_TRAINING = ("train_steps", "step_size", "batch_size", "hidden_width")
# each command: its function, its --help summary, and the RunConfig fields
# it reads, which with _COMMON_FIELDS are its flags and its config keys
_COMMANDS = {
    "schedule": (cmd_schedule, "dump the shifting sequence as CSV",
                 ("steps", "t_mid", "mode")),
    "degrade": (cmd_degrade, "write LR / LR-up / residual for an image",
                ("input",)),
    "forward": (cmd_forward, "simulate the forward chain, dump frames",
                ("input", "steps", "t_mid", "sigma", "mode", "convention")),
    "train": (cmd_train, "train a denoiser from a manifest",
              ("manifest", "checkpoint", "steps", "t_mid", "sigma") + _TRAINING),
    "sr": (cmd_sr, "super-resolve an LR image with a checkpoint",
           ("input", "checkpoint")),
    "analyze-noise": (cmd_analyze_noise, "rank noise families for a residual",
                      ("input", "gt", "test", "sigma", "bins")),
    "metrics": (cmd_metrics, "PSNR/SSIM/LOE for an image pair",
                ("gt", "test", "grid")),
    "edge-report": (cmd_edge_report, "per-patch Sobel magnitude grids",
                    ("gt", "test", "patch")),
    "sweep": (cmd_sweep, "train/sample/score across sigma values",
              ("sigmas", "kind", "count", "size", "eval_count", "grid", "steps",
               "t_mid") + _TRAINING),
}
# --help text of the flags that have one
_HELP = {
    ("degrade", "input"): "HR image (PGM/PPM)",
    ("forward", "input"): "HR image (PGM/PPM)",
    ("train", "manifest"): "text file, one image path per line",
    ("train", "checkpoint"): "output checkpoint path",
    ("sr", "input"): "LR image (PGM/PPM)",
    ("sr", "checkpoint"): "trained checkpoint path",
    ("analyze-noise", "input"): "flat binary of little-endian float64",
    ("sweep", "sigmas"): "comma-separated sigma list",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pixelboost",
        description="Brownian residual-shifting super-resolution toolkit")
    subs = parser.add_subparsers(dest="command", metavar="command")
    for command, (_, summary, names) in _COMMANDS.items():
        # no prefix matching, or sweep would read --sigma as --sigmas
        p = subs.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file (flags still win)")
        for name in _COMMON_FIELDS + names:
            kind = _FIELD_TYPES[name]
            p.add_argument("--" + name.replace("_", "-"),
                           type=str if kind is tuple else kind,
                           choices=_CHOICES.get(name),
                           help=_HELP.get((command, name)))
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command][0](cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PixelBoostError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
