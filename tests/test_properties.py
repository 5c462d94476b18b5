"""Property tests: the CLI's exit codes, and the decoders on damaged files.

Argument vectors are drawn from each subcommand's flags, with values from
small edge sets: numbers that are negative, zero, NaN, infinite or not
numbers at all, and paths to good, odd and broken files.  Every size stays
small, so one example runs in milliseconds.  The decoders get truncations
and single-byte header mutations of valid PGM, PPM and checkpoint files.
"""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pixelboost as pb
from pixelboost import CheckpointError, CodecError
from pixelboost.cli import main
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
