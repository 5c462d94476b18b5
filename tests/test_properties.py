"""Property tests: the CLI's exit codes, the decoders on damaged files, and
the library's public calls on bad arguments.

Argument vectors are drawn from each subcommand's flags, with values from
small edge sets: numbers that are negative, zero, NaN, infinite or not
numbers at all, and paths to good, odd and broken files.  Every size stays
small, so one example runs in milliseconds.  The decoders get truncations
and single-byte header mutations of valid PGM, PPM and checkpoint files.
The library's public calls get one argument at a time from an edge set
(see the docstring of test_public_call_returns_or_refuses).
"""

import json
import os
import re
import shutil
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pixelboost as pb
from pixelboost import CheckpointError, CodecError, PixelBoostError
from pixelboost.cli import main
from pixelboost.denoiser import item_loss_value
from pixelboost.noise import STREAM_DATASET

BENCH_CHECKPOINT = (Path(__file__).resolve().parents[1]
                    / "bench" / "data" / "conv2_toy_seed0.pxbk")

# --- the CLI --------------------------------------------------------------

FLOATS = ["-1.5", "0", "0.001", "0.5", "1.5", "8", "nan", "inf", "-inf", "x"]
COUNTS = ["-1", "0", "1", "4", "nan", "x"]  # --count, --eval-count: <= 4

# a path is "@" and a name inside the example's copy of the corpus
IMAGES = ["@grey16.pgm", "@colour16.ppm", "@grey8.pgm", "@grey4.pgm",
          "@odd.pgm", "@colour_odd.ppm"]
BROKEN = ["@junk.bin", "@empty", "@subdir", "@missing.pgm"]
MANIFESTS = ["@manifest_ok.txt", "@manifest_colour.txt", "@manifest_mixed.txt",
             "@manifest_odd.txt", "@manifest_nul.txt", "@manifest_latin1.txt",
             "@manifest_blank.txt", "@manifest_missing.txt", "@manifest_dir.txt"]
CONFIGS = {
    "config_seed.json": {"seed": 2},  # a key every command takes
    "config_ok.json": {"seed": 2, "steps": 4, "sigma": 0.5},
    "config_strings.json": {"steps": "6", "seed": 3.0, "mode": "raw"},
    "config_bad_type.json": {"sigma": "abc"},
    "config_nul_input.json": {"input": "a\u0000b"},
    "config_nul_out.json": {"out": "a\u0000b"},
    "config_unknown.json": {"bogus": 1},
    "config_list.json": [1, 2],
    "config_nested_sigmas.json": {"sigmas": [[1.5]]},
    "config_null_sigma.json": {"sigmas": [None]},
}
OUTS = ["@out", "@out.csv", "@subdir", "@no/such/out", "@grey16.pgm"]


def _paths(specific, generic=BROKEN):
    """Half the time a file made for the flag, else a broken path."""
    return st.one_of(st.sampled_from(specific), st.sampled_from(generic))


def _values(values):
    return st.sampled_from(values)


CONFIG = _paths(["@" + name for name in CONFIGS])
OUT = _values(OUTS)
SEED = _values(["-1", "0", "7", "18446744073709551617", "x"])
STEPS = {
    "--steps": _values(["-1", "0", "1", "2", "3", "16", "nan", "x"]),
    "--t-mid": _values(FLOATS),
}
SIGMA = {"--sigma": _values(FLOATS)}
MODE = {"--mode": _values(["normalized", "raw", "bogus"])}
CONVENTION = {"--convention": _values(["eq5_variance", "eq4_literal", "bogus"])}
TRAINING = {
    "--train-steps": _values(["-1", "0", "2", "x"]),
    "--step-size": _values(FLOATS),
    "--batch-size": _values(["-1", "0", "1", "4", "x"]),
    "--hidden-width": _values(["-1", "0", "1", "8", "200", "x"]),
}
IMAGE = _paths(IMAGES)
IMAGE_PAIR = {"--gt": IMAGE, "--test": IMAGE}

# per subcommand: flags always given, flags of which up to three are drawn,
# and a prefix of cheap settings that drawn flags override (argparse keeps
# the last occurrence).  --config is added to half the vectors.
COMMANDS = {
    "schedule": ({}, {**STEPS, **MODE, "--seed": SEED, "--out": OUT}, []),
    "degrade": ({"--input": IMAGE, "--out": OUT}, {"--seed": SEED}, []),
    "forward": ({"--input": IMAGE, "--out": OUT},
                {**STEPS, **SIGMA, **MODE, **CONVENTION, "--seed": SEED}, []),
    "train": ({"--manifest": _paths(MANIFESTS, IMAGES + BROKEN),
               "--checkpoint": _paths(["@model.pxbk", "@new.pxbk"])},
              {**STEPS, **SIGMA, **TRAINING, "--seed": SEED, "--out": OUT},
              ["--train-steps", "1"]),
    "sr": ({"--input": IMAGE, "--out": OUT,
            "--checkpoint": _paths(["@model.pxbk", "@truncated.pxbk"],
                                   IMAGES + BROKEN)}, {"--seed": SEED}, []),
    "analyze-noise": (IMAGE_PAIR,
                      {"--input": _paths(["@resid.f64", "@partial.f64"],
                                         IMAGES + BROKEN),
                       **SIGMA,
                       "--bins": _values(["-1", "0", "1", "2", "8", "x"]),
                       "--seed": SEED, "--out": OUT}, []),
    "metrics": (IMAGE_PAIR, {"--grid": _values(["-1", "0", "1", "8", "64", "65",
                                                "x"]),
                             "--seed": SEED, "--out": OUT}, []),
    "edge-report": ({**IMAGE_PAIR, "--out": OUT},
                    {"--patch": _values(["-1", "0", "1", "2", "7", "x"]),
                     "--seed": SEED}, []),
    "sweep": ({}, {**STEPS, **TRAINING,
                   "--sigmas": _values(["1.5", "0.5,1.5", "nan", "inf", "-1",
                                        ",", "a,b"]),
                   "--kind": _values(list(pb.SYNTH_KINDS) + ["bogus"]),
                   "--count": _values(COUNTS), "--eval-count": _values(COUNTS),
                   "--size": _values(["-4", "0", "5", "8", "16", "x"]),
                   "--grid": _values(["0", "8", "x"]),
                   "--seed": SEED, "--out": OUT},
              ["--sigmas", "1.5", "--count", "2", "--eval-count", "1",
               "--train-steps", "1"]),
}


def _image(path, shape, seed):
    img = pb.RngStream(seed, STREAM_DATASET).uniform(0.0, 1.0, shape)
    pb.write_image(img, path)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Template directory of every file an argument vector may name."""
    root = tmp_path_factory.mktemp("corpus")
    pb.write_image(pb.synth_dataset("mixed", 1, 16,
                                    pb.RngStream(0, STREAM_DATASET))[0],
                   root / "grey16.pgm")
    for name, shape in [("colour16.ppm", (16, 16, 3)), ("grey8.pgm", (8, 8, 1)),
                        ("grey4.pgm", (4, 4, 1)), ("odd.pgm", (7, 5, 1)),
                        ("colour_odd.ppm", (5, 3, 3))]:
        _image(root / name, shape, seed=len(name))
    (root / "junk.bin").write_bytes(bytes(range(256)) * 3)
    (root / "empty").write_bytes(b"")
    (root / "subdir").mkdir()
    sample = 1.5 * pb.RngStream(0, 5).standard_normal(640)
    (root / "resid.f64").write_bytes(sample.astype("<f8").tobytes())
    (root / "partial.f64").write_bytes(sample.astype("<f8").tobytes()[:-4])
    for name, text in [("ok", b"grey16.pgm\ngrey8.pgm\n"),
                       ("colour", b"colour16.ppm\n"),
                       ("mixed", b"grey16.pgm\ncolour16.ppm\n"),
                       ("odd", b"odd.pgm\n"), ("nul", b"\x00\x00\x00\n"),
                       ("latin1", b"gr\xe9y.pgm\n"), ("blank", b"\n \n"),
                       ("missing", b"missing.pgm\n"), ("dir", b"subdir\n")]:
        (root / f"manifest_{name}.txt").write_bytes(text)
    for name, value in CONFIGS.items():
        (root / name).write_text(json.dumps(value))
    shutil.copy(BENCH_CHECKPOINT, root / "model.pxbk")
    (root / "truncated.pxbk").write_bytes(BENCH_CHECKPOINT.read_bytes()[:100])
    return root


@st.composite
def _argv(draw, command):
    required, optional, prefix = COMMANDS[command]
    drawn = draw(st.lists(st.sampled_from(sorted(optional)), max_size=3,
                          unique=True))
    argv = [command] + prefix
    for flag in list(required) + drawn:
        argv += [flag, draw({**required, **optional}[flag])]
    if draw(st.booleans()):
        argv += ["--config", draw(CONFIG)]
    return argv


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60)
@given(data=st.data())
def test_cli_exits_0_1_or_2(corpus, command, data):
    argv = data.draw(_argv(command))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        shutil.copytree(corpus, work)  # commands may overwrite what they name
        argv = [str(work / t[1:]) if t.startswith("@") else t for t in argv]
        assert main(argv) in (0, 1, 2)


# --- the decoders -----------------------------------------------------------

def _damaged(raw, header_len):
    """A truncation of ``raw``, or one byte of its header set to any value."""
    truncated = st.integers(0, len(raw) - 1).map(lambda n: raw[:n])

    def mutate(pos, value):
        out = bytearray(raw)
        out[pos] = value
        return bytes(out)
    mutated = st.builds(mutate, st.integers(0, header_len - 1),
                        st.integers(0, 255))
    return st.one_of(truncated, mutated)


def _netpbm(shape):
    img = pb.RngStream(1, STREAM_DATASET).uniform(0.0, 1.0, shape)
    raw = pb.write_image_bytes(img)
    return raw, len(raw) - int(np.prod(shape))


PGM, PGM_HEADER = _netpbm((4, 5, 1))
PPM, PPM_HEADER = _netpbm((2, 3, 3))
PXBK = BENCH_CHECKPOINT.read_bytes()
PXBK_HEADER = len(PXBK) - 8 * pb.load_checkpoint(BENCH_CHECKPOINT).params.size


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "file"


@pytest.mark.parametrize("raw,header_len", [(PGM, PGM_HEADER), (PPM, PPM_HEADER)],
                         ids=["pgm", "ppm"])
@settings(max_examples=150)
@given(data=st.data())
def test_damaged_image_is_refused_or_well_shaped(scratch, raw, header_len, data):
    scratch.write_bytes(data.draw(_damaged(raw, header_len)))
    try:
        img = pb.read_image(scratch)
    except CodecError:
        return
    assert img.dtype == np.float64 and img.ndim == 3
    assert img.shape[0] >= 1 and img.shape[1] >= 1 and img.shape[2] in (1, 3)
    assert 0.0 <= img.min() and img.max() <= 1.0


@settings(max_examples=300)
@given(raw=_damaged(PXBK, PXBK_HEADER))
def test_damaged_checkpoint_is_refused_or_well_shaped(scratch, raw):
    scratch.write_bytes(raw)
    try:
        ckpt = pb.load_checkpoint(scratch)
    except CheckpointError:
        return
    assert ckpt.params.shape == (ckpt.spec.param_count(),)
    assert 2 <= ckpt.config().steps <= pb.MAX_STEPS
    x = np.zeros((4, 4, ckpt.spec.image_channels))
    assert pb.predict(ckpt, x, x, 1).shape == x.shape


# --- the library's public calls ---------------------------------------------

# ROADMAP item 18's edge set: None, a string, a bool, NaN, +-inf, negative,
# zero, fractional (also as a numpy float32 and a Fraction) and huge numbers,
# and 0-sized, 1-D, 2-D, 4-D, object and complex arrays
EDGES = [None, "x", True, float("nan"), float("inf"), float("-inf"), -1, -1.5,
         0, 0.5, np.float32(0.5), Fraction(1, 2), 1e300, 10**18,
         np.zeros((0, 4, 1)), np.zeros(3), np.zeros((4, 4)), np.zeros((2, 2, 2, 2)),
         np.array([0.5, None], dtype=object), np.array(["x"], dtype=object),
         np.array([0.5 + 1j])]
# RngStream keys Philox through a float64 cast: a negative key, or one that
# rounds to 2**64, warns (ROADMAP item 10); test_philox_key_edges keeps them
KEYS = [v for v in EDGES if not (isinstance(v, int) and v < 0)]

IMG = pb.RngStream(0, STREAM_DATASET).uniform(0.0, 1.0, (8, 8, 1))
CFG = pb.make_config(steps=4)
SPEC = pb.DenoiserSpec(image_channels=1, hidden_width=2)
CKPT = pb.init_checkpoint(SPEC, CFG)
SAMPLE = pb.RngStream(1, STREAM_DATASET).standard_normal(64)
OPT = pb.TrainOptions(steps=1, batch_size=1)


def _rng():
    return pb.RngStream(0, 4)


def _row(fn, base, edges=None, **own):
    """A table row: ``fn``, ``base`` making a valid call's keyword arguments,
    and the edge values of each argument replaced: ``EDGES`` for the names in
    ``edges`` (every argument by default), and ``own`` names its own lists."""
    args = {name: EDGES for name in (base() if edges is None else edges)}
    args.update(own)
    return fn, base, args


# each public callable: the arguments the test replaces, and their edge sets
CALLS = {
    "build_schedule": _row(pb.build_schedule,
                           lambda: dict(steps=4, t_mid=2.5, mode="normalized")),
    "default_t_mid": _row(pb.default_t_mid, lambda: dict(steps=4)),
    "Schedule": _row(pb.Schedule, lambda: dict(steps=4, t_mid=2.5, mode="normalized")),
    "RngStream": _row(pb.RngStream, lambda: dict(seed=0, stream_id=0), [],
                      seed=KEYS, stream_id=KEYS),
    "RngStream.substream": _row(lambda k: pb.RngStream(0, 3).substream(k),
                                lambda: dict(k=1)),
    "NoiseKind": _row(pb.NoiseKind, lambda: dict(tag="brownian", sigma=1.5)),
    "sample_noise": _row(pb.sample_noise, lambda: dict(
        kind=pb.NoiseKind("gaussian"), shape=(3,), rng=_rng())),
    "as_image": _row(pb.as_image, lambda: dict(arr=IMG)),
    "bicubic_resize": _row(pb.bicubic_resize, lambda: dict(img=IMG, scale=0.5)),
    "make_lr_pair": _row(pb.make_lr_pair, lambda: dict(hr=IMG)),
    "synth_dataset": _row(pb.synth_dataset, lambda: dict(
        kind="mixed", count=1, size=8, rng=_rng())),
    "quantize": _row(pb.quantize, lambda: dict(img=IMG)),
    "write_image_bytes": _row(pb.write_image_bytes, lambda: dict(img=IMG)),
    "write_image": _row(pb.write_image, lambda: dict(img=IMG, path=os.devnull),
                        ["img"]),
    "chi_square": _row(pb.chi_square, lambda: dict(
        observed=SAMPLE, expected=SAMPLE[::-1], bins=4)),
    "noise_fit_report": _row(pb.noise_fit_report, lambda: dict(
        observed=SAMPLE, sigma=1.5, rng=_rng(), bins=4)),
    "psnr": _row(pb.psnr, lambda: dict(a=IMG, b=IMG[::-1])),
    "ssim": _row(pb.ssim, lambda: dict(a=IMG, b=IMG[::-1])),
    "loe": _row(pb.loe, lambda: dict(enhanced=IMG, original=IMG[::-1], grid=4)),
    "lightness": _row(pb.lightness, lambda: dict(img=IMG)),
    "sobel_magnitude": _row(pb.sobel_magnitude, lambda: dict(img=IMG)),
    "edge_report": _row(pb.edge_report, lambda: dict(a=IMG, b=IMG[::-1], patch=2)),
    "grid_csv": _row(pb.grid_csv, lambda: dict(grid=IMG[:2, :3, 0])),
    "metric_report": _row(pb.metric_report, lambda: dict(
        gt=IMG, test=IMG[::-1], gt_id="gt", test_id="test", grid=4)),
    "DiffusionConfig": _row(pb.DiffusionConfig, lambda: dict(
        sigma=1.5, schedule=CFG.schedule, seed=0)),
    "make_config": _row(pb.make_config, lambda: dict(
        steps=4, sigma=1.5, t_mid=None, mode="normalized",
        convention="eq5_variance", seed=0)),
    "step_increment": _row(pb.step_increment, lambda: dict(
        delta0=IMG, alpha_t=0.2, sigma=0.5, noise=IMG, convention="eq5_variance")),
    "forward_step": _row(pb.forward_step, lambda: dict(
        x_prev=IMG, delta0=IMG, t=2, cfg=CFG, rng=_rng(), convention="eq4_literal")),
    "forward_marginal": _row(pb.forward_marginal, lambda: dict(
        x0=IMG, delta0=IMG, t=2, cfg=CFG, rng=_rng())),
    "forward_chain": _row(pb.forward_chain, lambda: dict(
        x0=IMG, delta0=IMG, cfg=CFG, rng=_rng(), convention="eq5_variance")),
    "posterior_params": _row(pb.posterior_params, lambda: dict(
        x_t=IMG, x0_hat=IMG, t=2, cfg=CFG)),
    "reverse_sample": _row(pb.reverse_sample, lambda: dict(
        y0_up=IMG, denoiser=pb.OracleDenoiser(IMG), cfg=CFG, rng=_rng())),
    "DenoiserSpec": _row(pb.DenoiserSpec, lambda: dict(image_channels=1,
                                                       hidden_width=2)),
    "spec_for_images": _row(pb.spec_for_images, lambda: dict(
        kind="conv2", image_channels=1, hidden_width=2)),
    "DenoiserCheckpoint": _row(pb.DenoiserCheckpoint, lambda: dict(
        spec=SPEC, params=CKPT.params, step_count=0, train_config=CKPT.train_config)),
    "DenoiserCheckpoint.config": _row(CKPT.config, lambda: dict(seed=0)),
    "OracleDenoiser": _row(pb.OracleDenoiser, lambda: dict(x0=IMG)),
    "init_checkpoint": _row(pb.init_checkpoint, lambda: dict(spec=SPEC, cfg=CFG)),
    "as_denoiser": _row(pb.as_denoiser, lambda: dict(ckpt=CKPT)),
    "save_checkpoint": _row(pb.save_checkpoint, lambda: dict(ckpt=CKPT, path=os.devnull),
                            ["ckpt"]),
    "TrainOptions": _row(pb.TrainOptions, lambda: dict(
        step_size=0.1, steps=1, batch_size=1)),
    "predict": _row(pb.predict, lambda: dict(ckpt=CKPT, x_t=IMG, y0_up=IMG, t=2)),
    "loss_gradient": _row(pb.loss_gradient, lambda: dict(
        ckpt=CKPT, item=(IMG, IMG), t=2, x_t=IMG)),
    "item_loss_value": _row(item_loss_value, lambda: dict(
        ckpt=CKPT, item=(IMG, IMG), t=2, x_t=IMG)),
    "train": _row(pb.train, lambda: dict(dataset=[(IMG, IMG)], cfg=CFG, opt=OPT,
                                         spec=SPEC)),
    "train (an image of the first pair)": _row(
        lambda x0, y0_up: pb.train([(x0, y0_up)], CFG, OPT),
        lambda: dict(x0=IMG, y0_up=IMG)),
}


def _returns_or_refuses(fn, kwargs):
    """Call ``fn(**kwargs)`` with warnings as errors; a PixelBoostError is a refusal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(**kwargs)
        except PixelBoostError:
            pass


@pytest.mark.parametrize("name", sorted(CALLS))
def test_table_calls_are_valid(name):
    # the unreplaced call returns, so each refusal below is the edge value's
    fn, base, _ = CALLS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fn(**base())


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=250)
@given(data=st.data())
def test_public_call_returns_or_refuses(name, data):
    """Each public call, with one argument replaced by an edge value, returns
    or raises a PixelBoostError, with warnings as errors.

    The library's own objects (cfg, ckpt, spec, opt, a NoiseKind, and the
    rng of sample_noise, synth_dataset and noise_fit_report) draw the edge
    set too, as do the work-sizing integers (counts, sizes, shapes and
    bins), which one shared bound refuses before anything is allocated.
    Left out of the table: file paths, whose errors are OSError; boolean
    flags; the draw methods of RngStream, which pass their arguments to
    numpy.  TrainOptions(steps=10**18) is valid and allocates
    nothing, so no row trains with a huge step count.
    """
    fn, base, args = CALLS[name]
    arg, value = data.draw(st.sampled_from([(a, v) for a in args for v in args[a]]))
    kwargs = base()
    # a copy, as a call may keep its argument or make it read-only
    kwargs[arg] = value.copy() if isinstance(value, np.ndarray) else value
    _returns_or_refuses(fn, kwargs)


GAUSSIAN = pb.NoiseKind("gaussian")
# calls that once ended in AttributeError, struct.error, MemoryError or no
# end at all, or made a checkpoint that could not be loaded, and the argument
# each refusal names; every size is refused before anything is allocated
NAMED_REFUSALS = [
    (pb.reverse_sample, (IMG, pb.OracleDenoiser(IMG), None, _rng()), "cfg"),
    (pb.forward_marginal, (IMG, IMG, 2, None, _rng()), "cfg"),
    (pb.predict, (None, IMG, IMG, 1), "ckpt"),
    (pb.loss_gradient, (None, (IMG, IMG), 2, IMG), "ckpt"),
    (pb.save_checkpoint, (None, os.devnull), "ckpt"),
    (pb.init_checkpoint, (None, CFG), "spec"),
    (pb.init_checkpoint, (SPEC, None), "cfg"),
    (pb.train, ([(IMG, IMG)], None, OPT), "cfg"),
    (pb.train, ([(IMG, IMG)], CFG, "x"), "opt"),
    (pb.train, ([(IMG, IMG)], CFG, OPT, 1), "spec"),
    (pb.DenoiserCheckpoint, (None, CKPT.params), "spec"),
    (pb.DenoiserCheckpoint, (SPEC, CKPT.params, "x"), "step_count"),
    (pb.DenoiserCheckpoint, (SPEC, CKPT.params, 2**64), "step_count"),
    (pb.DenoiserCheckpoint, (SPEC, CKPT.params, 0, None), "train_config"),
    (pb.DiffusionConfig, (1.5, None), "schedule"),
    (pb.sample_noise, (None, 3, _rng()), "kind"),
    (pb.sample_noise, (GAUSSIAN, 3, None), "rng"),
    (pb.synth_dataset, ("mixed", 1, 8, None), "rng"),
    (pb.noise_fit_report, (SAMPLE, 1.5, None, 4), "rng"),
    (pb.sample_noise, (GAUSSIAN, 10**18, _rng()), "shape"),
    (pb.sample_noise, (GAUSSIAN, (2**20, 2**20), _rng()), "shape"),
    (pb.chi_square, (SAMPLE, SAMPLE, 10**10), "bins"),
    (pb.synth_dataset, ("mixed", 10**18, 8, _rng()), "count * size**2"),
    (pb.synth_dataset, ("mixed", 1, 4 * 10**9, _rng()), "count * size**2"),
]


@pytest.mark.parametrize("fn,args,name", NAMED_REFUSALS,
                         ids=[f"{fn.__name__}-{name}" for fn, _, name in NAMED_REFUSALS])
def test_refusal_names_the_argument(fn, args, name):
    with pytest.raises(pb.ParameterError, match=re.escape(name)):
        fn(*args)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the Philox key's float64 cast")
@pytest.mark.parametrize("kwargs", [dict(seed=-1), dict(seed=2**64 - 1),
                                    dict(seed=0, stream_id=-1)])
def test_philox_key_edges(kwargs):
    _returns_or_refuses(pb.RngStream, kwargs)
