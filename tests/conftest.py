"""Shared fixtures: the toy super-resolution training protocol, and the
hypothesis profile of the property tests.

The protocol (200 mixed 16x16 training images, 2000 SGD steps, 20
held-out images scored against the bicubic baseline) is consumed by both
the training-property tests and the acceptance suite.  Ten full runs are
expensive, so results are computed lazily and cached for the session.
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import pixelboost as pb
from pixelboost.denoiser import TrainOptions, as_denoiser, train
from pixelboost.noise import STREAM_DATASET, STREAM_SAMPLER

TOY_SIZE = 16
TOY_TRAIN_COUNT = 200
TOY_TEST_COUNT = 20
TOY_SGD_STEPS = 2000
# Default 1e-2 stalls well short of convergence within the step budget;
# 0.2 is the fastest setting that stays stable on the reference seed.
TOY_STEP_SIZE = 0.2
TOY_SEEDS = (0, 1, 2, 3, 4)
TOY_SIGMAS = (1.5, 0.01)

# property tests: the same examples on every run, no example database on
# disk, no per-example deadline on a shared host, and a bounded count
settings.register_profile("pixelboost", derandomize=True, database=None,
                          deadline=None, max_examples=50)
settings.load_profile("pixelboost")


def pytest_configure(config):
    # hypothesis caches constants read from the source in its home directory
    # (./.hypothesis by default) while collecting; give it a throwaway one
    home = tempfile.mkdtemp(prefix="pixelboost-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def toy_protocol(seed, sigma):
    """One full train-and-evaluate run at the given seed and sigma."""
    cfg = pb.make_config(steps=15, sigma=sigma, seed=seed)
    images = pb.synth_dataset("mixed", TOY_TRAIN_COUNT + TOY_TEST_COUNT,
                              TOY_SIZE, pb.RngStream(seed, STREAM_DATASET))
    pairs = [pb.make_lr_pair(hr) for hr in images]
    train_set = [(p.hr, p.lr_up) for p in pairs[:TOY_TRAIN_COUNT]]
    held_out = pairs[TOY_TRAIN_COUNT:]
    opt = TrainOptions(step_size=TOY_STEP_SIZE, steps=TOY_SGD_STEPS,
                       batch_size=8)
    ckpt, history = train(train_set, cfg, opt)

    model_scores = []
    baseline_scores = []
    for j, pair in enumerate(held_out):
        rng = pb.RngStream(seed, STREAM_SAMPLER).substream(j)
        sr, _ = pb.reverse_sample(pair.lr_up, as_denoiser(ckpt), cfg, rng)
        model_scores.append(pb.psnr(pair.hr, sr))
        baseline_scores.append(pb.psnr(pair.hr, np.clip(pair.lr_up, 0.0, 1.0)))
    return {
        "params": ckpt.params,
        "history": np.asarray(history),
        "model_psnr": float(np.mean(model_scores)),
        "baseline_psnr": float(np.mean(baseline_scores)),
    }


class _ToyRunCache(dict):
    def __missing__(self, key):
        seed, sigma = key
        self[key] = toy_protocol(seed, sigma)
        return self[key]


@pytest.fixture(scope="session")
def toy_runs():
    """Lazily evaluated map (seed, sigma) -> toy_protocol result."""
    return _ToyRunCache()
