"""The trainable predictors: architecture contracts, hand-derived
gradients against finite differences, SGD training, and the checkpoint
file format."""

import json
import math
import os
import resource
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import pixelboost as pb
from pixelboost import (CheckpointError, CheckpointVersionError,
                        ParameterError, ShapeError, TrainingError)
from pixelboost import denoiser
from pixelboost.denoiser import (_BAND_VALUES, CHECKPOINT_MAGIC,
                                 INIT_WEIGHT_HALF_RANGE, MAX_CONV2_PARAMS,
                                 _band_rows, _conv3x3_input_grad, _forward,
                                 _losses_and_gradients, _tile_rows,
                                 item_loss_value)
from pixelboost.noise import (STREAM_DATASET, STREAM_INIT, STREAM_SAMPLER,
                              STREAM_TRAIN)

BENCH_CHECKPOINT = (Path(__file__).resolve().parents[1]
                    / "bench" / "data" / "conv2_toy_seed0.pxbk")


def _ckpt(kind="conv2", hidden_width=8, sigma=1.5, seed=0, steps=15,
          image_channels=1):
    cfg = pb.make_config(steps=steps, sigma=sigma, seed=seed)
    spec = pb.spec_for_images(kind, image_channels=image_channels,
                              hidden_width=hidden_width)
    return pb.init_checkpoint(spec, cfg)


def _item(size=6, seed=0):
    rng = pb.RngStream(seed, STREAM_DATASET)
    x0 = rng.uniform(0.0, 1.0, (size, size, 1))
    y = rng.uniform(0.0, 1.0, (size, size, 1))
    x_t = rng.uniform(-0.5, 1.5, (size, size, 1))
    return x0, y, x_t


def _fd_gradient(ckpt, item, t, x_t, weighting, eps=1e-6):
    base = ckpt.params.copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        ckpt.params[i] = base[i] + eps
        hi = item_loss_value(ckpt, item, t, x_t, weighting)
        ckpt.params[i] = base[i] - eps
        lo = item_loss_value(ckpt, item, t, x_t, weighting)
        ckpt.params[i] = base[i]
        grad[i] = (hi - lo) / (2 * eps)
    return grad


class TestSpec:
    def test_channel_layout(self):
        spec = pb.spec_for_images("conv2", image_channels=3)
        assert spec.channels == 7
        assert spec.image_channels == 3

    def test_param_counts(self):
        conv = pb.spec_for_images("conv2", image_channels=1, hidden_width=8)
        assert conv.param_count() == 9 * 3 * 8 + 8 + 9 * 8 * 1 + 1

    def test_parameter_budget_enforced(self):
        with pytest.raises(ParameterError):
            pb.spec_for_images("conv2", image_channels=3, hidden_width=160)

    def test_validation(self):
        # conv2 is the one network, so the spec holds only its two sizes
        assert pb.DenoiserSpec() == pb.spec_for_images("conv2")
        for kind in ("mlp", "oracle", "affine"):
            with pytest.raises(ParameterError, match="conv2"):
                pb.spec_for_images(kind)
        with pytest.raises(ParameterError):
            pb.DenoiserSpec(image_channels=0)
        with pytest.raises(ParameterError):
            pb.DenoiserSpec(hidden_width=0)

    @pytest.mark.parametrize("name", ["image_channels", "hidden_width"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_sizes_need_integers(self, name, value):
        # hidden_width=2.5 used to validate with a parameter count of 93.5
        # and end in a bare TypeError from init_checkpoint
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            pb.DenoiserSpec(**{name: value})


class TestPredict:
    def test_zero_parameters_give_zero_output(self):
        # no residual path: the net's output is entirely parameter-driven
        ckpt = _ckpt()
        ckpt.params[:] = 0.0
        x0, y, x_t = _item()
        out = pb.predict(ckpt, x_t, y, 8)
        np.testing.assert_array_equal(out, np.zeros_like(x0))

    def test_output_shape(self):
        ckpt = _ckpt()
        x0, y, x_t = _item(size=10)
        assert pb.predict(ckpt, x_t, y, 3).shape == (10, 10, 1)

    def test_bias_only_network_is_constant(self):
        ckpt = _ckpt()
        ckpt.params[:] = 0.0
        views = ckpt.spec._unpack(ckpt.params)
        views["b2"][:] = 0.25
        x0, y, x_t = _item()
        np.testing.assert_allclose(pb.predict(ckpt, x_t, y, 8), 0.25,
                                   rtol=0, atol=1e-15)

    def test_timestep_channel_matters(self):
        ckpt = _ckpt(seed=3)
        x0, y, x_t = _item(seed=3)
        a = pb.predict(ckpt, x_t, y, 2)
        b = pb.predict(ckpt, x_t, y, 14)
        assert not np.array_equal(a, b)

    def test_shape_checks(self):
        ckpt = _ckpt()
        x0, y, x_t = _item()
        with pytest.raises(ShapeError):
            pb.predict(ckpt, x_t[:3], y, 1)
        with pytest.raises(ShapeError):
            pb.predict(ckpt, np.zeros((4, 4, 3)), np.zeros((4, 4, 3)), 1)
        with pytest.raises(IndexError):
            pb.predict(ckpt, x_t, y, 0)

    @pytest.mark.parametrize("t", [0, 16, -1])
    def test_timestep_range_message(self, t):
        # both ends of the range name the timesteps the checkpoint takes
        ckpt = _ckpt()
        _, y, x_t = _item()
        with pytest.raises(IndexError, match=rf"^t={t} outside 1\.\.15$"):
            pb.predict(ckpt, x_t, y, t)

    @pytest.mark.parametrize("t", [2.7, 2.0, np.float64(3.0)])
    def test_fractional_timestep_refused(self, t):
        # int() used to run t=2.7 at t=2
        ckpt = _ckpt()
        _, y, x_t = _item()
        with pytest.raises(ParameterError, match="t must be an integer"):
            pb.predict(ckpt, x_t, y, t)

    def test_as_denoiser_matches_predict(self):
        ckpt = _ckpt(seed=5)
        x0, y, x_t = _item(seed=5)
        fn = pb.as_denoiser(ckpt)
        np.testing.assert_array_equal(fn(x_t, y, 4),
                                      pb.predict(ckpt, x_t, y, 4))


class TestGradients:
    @pytest.mark.parametrize("weighting", ["uniform_mse", "exact_kl"])
    @pytest.mark.parametrize("kind", ["conv2"])
    def test_analytic_matches_finite_difference(self, kind, weighting):
        ckpt = _ckpt(kind=kind, hidden_width=4, seed=11)
        x0, y, x_t = _item(size=5, seed=11)
        t = 7
        analytic = pb.loss_gradient(ckpt, (x0, y), t, x_t, weighting)
        fd = _fd_gradient(ckpt, (x0, y), t, x_t, weighting)
        scale = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(analytic - fd) / scale) < 1e-4

    def test_terminal_step_gradient(self):
        # t=1 uses the unweighted squared error under exact_kl
        ckpt = _ckpt(hidden_width=3, seed=13)
        x0, y, x_t = _item(size=4, seed=13)
        analytic = pb.loss_gradient(ckpt, (x0, y), 1, x_t, "exact_kl")
        fd = _fd_gradient(ckpt, (x0, y), 1, x_t, "exact_kl")
        scale = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(analytic - fd) / scale) < 1e-4

    @pytest.mark.parametrize("x0_shape", [(6, 6), (1, 6, 1)])
    def test_x0_must_match_the_pair(self, x0_shape):
        # (6, 6) broke a reshape inside loss_gradient and broadcast to a
        # (6, 6, 6) difference in item_loss_value; (1, 6, 1) broadcast in both
        ckpt = _ckpt()
        _, y, x_t = _item()
        x0 = np.zeros(x0_shape)
        with pytest.raises(ShapeError):
            pb.loss_gradient(ckpt, (x0, y), 3, x_t)
        with pytest.raises(ShapeError):
            item_loss_value(ckpt, (x0, y), 3, x_t)


class TestInit:
    def test_weights_in_half_range_biases_zero(self):
        ckpt = _ckpt(seed=21)
        views = ckpt.spec._unpack(ckpt.params)
        for name in ("w1", "w2"):
            w = views[name]
            assert np.all(np.abs(w) <= INIT_WEIGHT_HALF_RANGE)
            assert np.ptp(w) > 0.0
        np.testing.assert_array_equal(views["b1"], 0.0)
        np.testing.assert_array_equal(views["b2"], 0.0)

    def test_deterministic_per_seed(self):
        a = _ckpt(seed=8).params
        b = _ckpt(seed=8).params
        c = _ckpt(seed=9).params
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_config_rebuilds_training_config(self):
        ckpt = _ckpt(sigma=0.7, steps=11)
        cfg = ckpt.config(seed=5)
        assert (cfg.steps, cfg.sigma, cfg.seed) == (11, 0.7, 5)
        assert cfg.schedule is ckpt.schedule()
        assert ckpt.train_config["convention"] == "eq5_variance"

    @pytest.mark.parametrize("seed", [2.9, 2.0, "2"])
    def test_config_seed_must_be_an_integer(self, seed):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            _ckpt().config(seed)

    @pytest.mark.parametrize("key", ["steps", "sigma", "t_mid", "mode"])
    def test_config_needs_metadata(self, key):
        ckpt = _ckpt()
        del ckpt.train_config[key]
        with pytest.raises(CheckpointError, match=key):
            ckpt.config()

    def test_config_rejects_invalid_metadata(self):
        ckpt = _ckpt()
        ckpt.train_config["sigma"] = -1.0
        with pytest.raises(CheckpointError):
            ckpt.config()

    def test_train_config_records_schedule(self):
        ckpt = _ckpt(sigma=0.7, steps=11)
        tc = ckpt.train_config
        assert tc["steps"] == 11 and tc["sigma"] == 0.7
        assert tc["mode"] == "normalized"
        assert ckpt.schedule().steps == 11


def _dataset(count=6, seed=0):
    images = pb.synth_dataset("mixed", count, 16,
                              pb.RngStream(seed, STREAM_DATASET))
    return [(p.hr, p.lr_up) for p in map(pb.make_lr_pair, images)]


# --- per-item reference ------------------------------------------------------
# The network, loss and SGD loop as they ran one item at a time, before the
# batched core.  The library must match them bit for bit.

def _ref_conv3x3(x, w, b):
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="edge")
    win = sliding_window_view(xp, (3, 3), axis=(0, 1))
    return np.einsum("hwcuv,uvco->hwo", win, w, optimize=True) + b


def _ref_conv3x3_grads(x, gout):
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)), mode="edge")
    win = sliding_window_view(xp, (3, 3), axis=(0, 1))
    dw = np.einsum("hwcuv,hwo->uvco", win, gout, optimize=True)
    return dw, gout.sum(axis=(0, 1))


def _ref_conv3x3_input_grad(w, gout, in_shape):
    h, wd, _ = in_shape
    gw = np.einsum("hwo,uvco->hwuvc", gout, w, optimize=True)
    dxp = np.zeros((h + 2, wd + 2, w.shape[2]))
    for u in range(3):
        for v in range(3):
            dxp[u:u + h, v:v + wd] += gw[:, :, u, v, :]
    dx = dxp[1:h + 1, 1:wd + 1].copy()
    dx[0, :] += dxp[0, 1:wd + 1]
    dx[-1, :] += dxp[h + 1, 1:wd + 1]
    dx[:, 0] += dxp[1:h + 1, 0]
    dx[:, -1] += dxp[1:h + 1, wd + 1]
    dx[0, 0] += dxp[0, 0]
    dx[0, -1] += dxp[0, wd + 1]
    dx[-1, 0] += dxp[h + 1, 0]
    dx[-1, -1] += dxp[h + 1, wd + 1]
    return dx


def _ref_forward(ckpt, x_t, y0_up, t):
    tchan = np.full(x_t.shape[:2] + (1,), ckpt.schedule().etas[t])
    z = np.concatenate([x_t, y0_up, tchan], axis=2)
    p = ckpt.spec._unpack(ckpt.params)
    h = _ref_conv3x3(z, p["w1"], p["b1"])
    a = np.maximum(h, 0.0)
    return _ref_conv3x3(a, p["w2"], p["b2"]), (z, h, a)


def _ref_backward(ckpt, cache, gout):
    p = ckpt.spec._unpack(ckpt.params)
    z, h, a = cache
    dw2, db2 = _ref_conv3x3_grads(a, gout)
    dh = _ref_conv3x3_input_grad(p["w2"], gout, a.shape) * (h > 0.0)
    dw1, db1 = _ref_conv3x3_grads(z, dh)
    return np.concatenate([dw1.ravel(), db1.ravel(), dw2.ravel(), db2.ravel()])


def _ref_loss_and_gradient(ckpt, cfg, x0, y0_up, t, x_t, weighting):
    out, cache = _ref_forward(ckpt, x_t, y0_up, t)
    diff = out - x0
    if weighting == "uniform_mse":
        gout = (2.0 / diff.size) * diff
    elif ckpt.schedule().etas[t - 1] == 0.0:
        gout = 2.0 * diff
    else:
        gout = 2.0 * pb.kl_weight(t, cfg) * diff
    return (pb.item_loss(x0, out, t, cfg, weighting),
            _ref_backward(ckpt, cache, gout))


def _ref_train(dataset, cfg, opt, spec):
    ckpt = pb.init_checkpoint(spec, cfg)
    params = ckpt.params
    rng = pb.RngStream(cfg.seed, STREAM_TRAIN)
    history = []
    for _ in range(opt.steps):
        idx = rng.integers(0, len(dataset), opt.batch_size)
        grad = np.zeros_like(params)
        loss_acc = 0.0
        for i in idx:
            x0, y0_up = dataset[int(i)]
            t = int(rng.integers(1, cfg.steps + 1))
            x_t = pb.forward_marginal(x0, y0_up - x0, t, cfg, rng)
            loss, item_grad = _ref_loss_and_gradient(ckpt, cfg, x0, y0_up, t, x_t,
                                                     opt.weighting)
            loss_acc += loss
            grad += item_grad
        params -= opt.step_size * (grad / opt.batch_size)
        history.append(loss_acc / opt.batch_size)
    return params, history


def _mixed_dataset(seed=0):
    """Pairs of three image sizes, interleaved so batches mix them."""
    rng = pb.RngStream(seed, STREAM_DATASET)
    groups = [[pb.make_lr_pair(hr) for hr in pb.synth_dataset("mixed", 4, size, rng)]
              for size in (16, 8, 12)]
    return [(p.hr, p.lr_up) for trio in zip(*groups) for p in trio]


class TestBatchedCore:
    """The batched core against the per-item reference, bit for bit."""

    # exact_kl weights reach ~1e3 near t = 2, so it needs a far smaller step
    STEP_SIZES = {"uniform_mse": 0.2, "exact_kl": 1e-5}
    # taller than one second-conv band, so each weight gradient reads a patch
    # matrix that the forward filled band by band; with colour, the first
    # conv runs in bands too
    MULTI_BAND_SHAPES = [(64, 64), (40, 128), (200, 16)]

    @pytest.mark.parametrize("weighting", ["uniform_mse", "exact_kl"])
    @pytest.mark.parametrize("kind", ["conv2"])
    def test_train_matches_reference(self, kind, weighting):
        cfg = pb.make_config(steps=15, sigma=1.5, seed=4)
        opt = pb.TrainOptions(step_size=self.STEP_SIZES[weighting], steps=50,
                              batch_size=8, weighting=weighting)
        spec = pb.spec_for_images(kind)
        data = _dataset(count=12, seed=4)
        ckpt, history = pb.train(data, cfg, opt, spec)
        params, ref_history = _ref_train(data, cfg, opt, spec)
        assert history == ref_history
        np.testing.assert_array_equal(ckpt.params, params)
        assert not np.array_equal(params, pb.init_checkpoint(spec, cfg).params)

    def test_mixed_sizes_match_reference(self):
        cfg = pb.make_config(steps=15, sigma=1.5, seed=6)
        opt = pb.TrainOptions(step_size=0.2, steps=20, batch_size=8)
        spec = pb.spec_for_images("conv2")
        data = _mixed_dataset(seed=6)
        ckpt, history = pb.train(data, cfg, opt, spec)
        params, ref_history = _ref_train(data, cfg, opt, spec)
        assert history == ref_history
        np.testing.assert_array_equal(ckpt.params, params)

    # grey hidden 3 and 5: 9C of the one-output conv is 27 and 45, not a
    # multiple of 4, so its gemv treats the last columns as left-overs
    @pytest.mark.parametrize("kind,channels,hidden", [
        ("conv2", 1, 8), ("conv2", 3, 1), ("conv2", 3, 8), ("conv2", 1, 3),
        ("conv2", 1, 5), ("conv2", 3, 2)])
    def test_batch_gradients_match_reference(self, kind, channels, hidden):
        # odd sizes, a 1x1 image and images of several bands: every item
        # must be independent of the others, however BLAS blocks the columns
        spec = pb.spec_for_images(kind, image_channels=channels, hidden_width=hidden)
        cfg = pb.make_config(seed=7)
        ckpt = pb.init_checkpoint(spec, cfg)
        rng = pb.RngStream(7, STREAM_DATASET)
        shapes = [(5, 7), (1, 1), (5, 7), (16, 16), (5, 7), (1, 1)]
        items = []
        for k, (h, w) in enumerate(shapes + 2 * self.MULTI_BAND_SHAPES):
            x0, y0_up, x_t = (rng.uniform(0.0, 1.0, (h, w, channels)) for _ in range(3))
            items.append((x0, y0_up, 1 + (2 * k) % 15, x_t))
        losses, grads = _losses_and_gradients(ckpt, cfg, items, "exact_kl")
        for (x0, y0_up, t, x_t), loss, grad in zip(items, losses, grads):
            ref_loss, ref_grad = _ref_loss_and_gradient(ckpt, cfg, x0, y0_up, t, x_t,
                                                        "exact_kl")
            assert loss == ref_loss
            np.testing.assert_array_equal(grad, ref_grad)

    def test_multi_band_shapes_span_several_bands(self):
        assert [_band_rows(8, h, w) for h, w in self.MULTI_BAND_SHAPES] == [28, 14, 113]

    @pytest.mark.parametrize("channels,hidden", [(1, 8), (3, 8), (3, 1)])
    def test_multi_band_train_matches_reference(self, channels, hidden):
        cfg = pb.make_config(steps=15, sigma=1.5, seed=5)
        opt = pb.TrainOptions(step_size=0.2, steps=3, batch_size=4)
        spec = pb.spec_for_images("conv2", image_channels=channels, hidden_width=hidden)
        rng = pb.RngStream(5, STREAM_DATASET)
        data = [tuple(rng.uniform(0.0, 1.0, (h, w, channels)) for _ in range(2))
                for h, w in self.MULTI_BAND_SHAPES]
        ckpt, history = pb.train(data, cfg, opt, spec)
        params, ref_history = _ref_train(data, cfg, opt, spec)
        assert history == ref_history
        np.testing.assert_array_equal(ckpt.params, params)

    # down to one pixel, one row and one column, where the taps' slices are
    # mostly padding
    @pytest.mark.parametrize("size", [(1, 1), (1, 9), (33, 1), (5, 7), (12, 8),
                                      (16, 16)])
    @pytest.mark.parametrize("hidden", [1, 8])
    @pytest.mark.parametrize("outputs", [1, 3])
    def test_input_grad_matches_reference(self, outputs, hidden, size):
        rng = pb.RngStream(13, STREAM_DATASET).generator
        w = rng.uniform(-1.0, 1.0, (3, 3, hidden, outputs))
        shape = (3,) + size + (outputs,)
        # magnitudes 1e-6 to 10, about a quarter exact zeros, some of them -0.0
        gout = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-6.0, 1.0, shape)
        gout[rng.random(shape) < 0.2] = 0.0
        gout[rng.random(shape) < 0.1] = -0.0
        dx = _conv3x3_input_grad(w, gout)
        assert dx.flags.c_contiguous
        for i in range(shape[0]):
            ref = _ref_conv3x3_input_grad(w, gout[i], size + (hidden,))
            np.testing.assert_array_equal(dx[i], ref)
            np.testing.assert_array_equal(np.signbit(dx[i]), np.signbit(ref))

    @staticmethod
    def _check_predict(ckpt, size):
        rng = pb.RngStream(9, STREAM_DATASET)
        shape = size + (ckpt.spec.image_channels,)
        x_t, y0_up = (rng.uniform(0.0, 1.0, shape) for _ in range(2))
        for t in (1, 8, 15):
            np.testing.assert_array_equal(pb.predict(ckpt, x_t, y0_up, t),
                                          _ref_forward(ckpt, x_t, y0_up, t)[0])

    @staticmethod
    def _check_stacked(ckpt):
        rng = pb.RngStream(10, STREAM_DATASET)
        shape = (5, 12, 9, ckpt.spec.image_channels)
        x_t, y0_up = (rng.uniform(0.0, 1.0, shape) for _ in range(2))
        ts = [1, 4, 4, 9, 15]
        out, _ = _forward(ckpt, x_t, y0_up, ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(out[i], pb.predict(ckpt, x_t[i], y0_up[i], t))

    # the last three run their convs in several bands (TestBands); with one
    # output, H*W is a multiple of 8 so BLAS threads split both sides alike
    @pytest.mark.parametrize("size", [(16, 16), (5, 7), (64, 64), (96, 160),
                                      (100, 100), (200, 333), (4000, 1)])
    def test_predict_matches_reference(self, size):
        self._check_predict(_ckpt(seed=9), size)

    # 33x1: reshaping a one-pixel-wide image's windows can give a strided view
    @pytest.mark.parametrize("hidden,size", [(8, (16, 16)), (8, (96, 160)), (1, (33, 1)),
                                             (8, (41, 513)), (8, (300, 257))])
    def test_colour_predict_matches_reference(self, hidden, size):
        self._check_predict(_ckpt(hidden_width=hidden, seed=9, image_channels=3), size)

    def test_stacked_batch_matches_per_image_predict(self):
        self._check_stacked(_ckpt(seed=10))

    def test_stacked_colour_batch_matches_per_image_predict(self):
        self._check_stacked(_ckpt(seed=10, image_channels=3))


# --- banded forward ------------------------------------------------------------
# Images whose convs run in several bands: short last bands, widths that are
# not a multiple of 8, a one-pixel-wide column of three bands and a
# one-pixel-high row.
BAND_SHAPES = [(100, 100), (200, 333), (37, 335), (41, 513), (13, 333),
               (97, 1029), (300, 257), (4000, 1), (1, 2000)]


def _tile_shapes(w):
    """Heights at the forward's tile boundaries for images W wide.

    One and two rows, one second-conv band, a tile less one row, a tile
    and a tile plus one, and three tiles with a short last one.
    """
    band, tile = _band_rows(8, 4096, w), _tile_rows(8, 4096, w)
    return [(h, w) for h in (1, 2, band, tile - 1, tile, tile + 1,
                             3 * tile + band + 1)]


# 333 columns: bands of 8 rows; 512: bands of 3 rows, as in the bench
TILE_SHAPES = _tile_shapes(333) + _tile_shapes(512)


def _band_mismatches(channels, shapes=BAND_SHAPES + TILE_SHAPES):
    """(H, W) shapes whose two-image batched forward differs from the reference."""
    ckpt = _ckpt(seed=12, image_channels=channels)
    bad = []
    for h, w in shapes:
        rng = pb.RngStream(12, STREAM_DATASET)
        x_t, y0_up = (rng.uniform(0.0, 1.0, (2, h, w, channels)) for _ in range(2))
        out, _ = _forward(ckpt, x_t, y0_up, [3, 15])
        if not all(np.array_equal(out[i], _ref_forward(ckpt, x_t[i], y0_up[i], t)[0])
                   for i, t in enumerate([3, 15])):
            bad.append((h, w))
    return bad


class TestBands:
    """The forward, run one tile of rows at a time and each conv one band
    of rows at a time, against the whole-image reference (see the comment
    above denoiser._fill_border)."""

    @pytest.mark.parametrize("c", [3, 7, 8])
    @pytest.mark.parametrize("h,w", BAND_SHAPES + [(16, 16), (512, 512)])
    def test_band_rows(self, c, h, w):
        rows = _band_rows(c, h, w)
        step = 8 // math.gcd(w, 8)
        assert 1 <= rows <= h
        if rows < h:
            assert rows % step == 0 and (rows * w) % 8 == 0
            assert rows == step or 9 * c * rows * w <= _BAND_VALUES

    def test_shapes_span_several_bands(self):
        # the shapes above exercise what the band loop can get wrong
        rows = {(h, w): _band_rows(8, h, w) for h, w in BAND_SHAPES}
        assert all(h > rows[h, w] for h, w in BAND_SHAPES[:-1])
        assert any(h % rows[h, w] for h, w in BAND_SHAPES[:-1])
        assert {333, 335, 513} <= {w for _, w in BAND_SHAPES}

    @pytest.mark.parametrize("c", [3, 8])
    def test_training_images_fit_one_band(self, c):
        assert _band_rows(c, 16, 16) == 16

    def test_every_shape_matches_reference_on_one_blas_thread(self):
        # grey and colour, two-image stacks: bit-exact on every shape once
        # BLAS splits no call between threads
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]))
        code = ("from test_denoiser import _band_mismatches as m; "
                "print(m(1) + m(3))")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_grey_within_tolerance_of_threaded_reference(self):
        # One output takes BLAS gemv, and with several BLAS threads the
        # reference's split and the short last band's split can each put a
        # few outputs in a left-over block (97x1029 with 2 threads: 2-4 of
        # 99813 outputs, off by at most 7e-18).  The tolerance is over a
        # hundred times that, and far below any change a reader could see.
        ckpt = _ckpt(seed=12)
        for h, w in BAND_SHAPES + TILE_SHAPES:
            rng = pb.RngStream(12, STREAM_DATASET)
            x_t, y0_up = (rng.uniform(0.0, 1.0, (h, w, 1)) for _ in range(2))
            for t in (1, 8, 15):
                np.testing.assert_allclose(
                    pb.predict(ckpt, x_t, y0_up, t),
                    _ref_forward(ckpt, x_t, y0_up, t)[0], rtol=0, atol=1e-15)

    def test_bench_chain_matches_reference_at_512(self):
        ckpt = pb.load_checkpoint(BENCH_CHECKPOINT)
        cfg = ckpt.config(0)
        hr = pb.synth_dataset("mixed", 1, 512, pb.RngStream(0, STREAM_DATASET))[0]
        y0_up = pb.make_lr_pair(hr).lr_up
        runs = [pb.reverse_sample(y0_up, fn, cfg, pb.RngStream(0, STREAM_SAMPLER))[0]
                for fn in (pb.as_denoiser(ckpt),
                           lambda x, y, t: _ref_forward(ckpt, x, y, t)[0])]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_predict_memory_is_banded_at_512(self):
        # the whole (9C, H*W) patch matrix alone would take 151 MB
        ckpt = pb.load_checkpoint(BENCH_CHECKPOINT)
        x = np.zeros((512, 512, 1))
        tracemalloc.start()
        try:
            pb.predict(ckpt, x, x, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_predict_memory_is_tiled(self):
        # every activation lives in one tile's buffers: only the output
        # grows with the image's height
        ckpt = pb.load_checkpoint(BENCH_CHECKPOINT)
        peaks = {}
        for h in (512, 2048):
            x = np.zeros((h, 512, 1))
            tracemalloc.start()
            try:
                pb.predict(ckpt, x, x, 8)
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[512] < 12e6
        assert peaks[2048] - peaks[512] <= (2048 - 512) * 512 * 8 + 1e6

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("h,w", BAND_SHAPES + TILE_SHAPES)
    def test_tiles_are_whole_second_conv_bands(self, monkeypatch, c, h, w):
        # so that every call of the thread-sensitive one-output conv is the
        # whole-image banded conv's
        calls = []
        conv = denoiser._conv3x3

        def spy(xp, wt, out, work, rows):
            calls.append((xp.shape[1], xp.shape[2] - 2, rows))
            conv(xp, wt, out, work, rows)

        monkeypatch.setattr(denoiser, "_conv3x3", spy)
        x = np.zeros((h, w, c))
        pb.predict(_ckpt(image_channels=c), x, x, 8)
        band = _band_rows(8, h, w)
        tiles = [n for channels, n, rows in calls if channels == 8 and rows == band]
        assert len(tiles) == sum(channels == 8 for channels, _, _ in calls)
        assert sum(tiles) == h
        assert all(n % band == 0 for n in tiles[:-1])
        assert tiles[:-1] == [_tile_rows(8, h, w)] * (len(tiles) - 1)


def _train_faults_per_step(hidden, steps=100):
    """Minor page faults per step of a warmed-up batch-8 16x16 train()."""
    spec = pb.spec_for_images("conv2", hidden_width=hidden)
    cfg = pb.make_config(steps=15, sigma=1.5, seed=0)
    opt = pb.TrainOptions(step_size=0.01, steps=steps, batch_size=8)
    data = _dataset(count=16)
    pb.train(data, cfg, opt, spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    pb.train(data, cfg, opt, spec)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps


class TestTrain:
    @pytest.mark.parametrize("hidden", [8, 16])
    def test_steps_reuse_the_heap(self, hidden):
        # glibc gives the top of its heap back to the OS once a free leaves
        # more than twice the largest chunk it has yet unmapped free there,
        # and a step whose temporaries cross that line faults 540 or more
        # pages back in; the heap's history sets the line, so this runs in
        # a fresh process
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]))
        code = ("from test_denoiser import _train_faults_per_step as f; "
                f"print(f({hidden}))")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) <= 20

    def test_loss_decreases_on_smoke_run(self):
        cfg = pb.make_config(steps=15, sigma=1.5, seed=1)
        opt = pb.TrainOptions(step_size=0.1, steps=120, batch_size=8)
        ckpt, history = pb.train(_dataset(seed=1), cfg, opt)
        assert len(history) == 120
        assert ckpt.step_count == 120
        assert np.mean(history[-20:]) < 0.5 * np.mean(history[:20])

    def test_reproducible(self):
        cfg = pb.make_config(seed=2)
        opt = pb.TrainOptions(steps=10)
        data = _dataset(seed=2)
        a, ha = pb.train(data, cfg, opt)
        b, hb = pb.train(data, cfg, opt)
        np.testing.assert_array_equal(a.params, b.params)
        assert ha == hb

    def test_divergence_raises(self):
        cfg = pb.make_config(seed=3)
        opt = pb.TrainOptions(step_size=1e6, steps=200)
        # Blowing up the step size overflows on purpose before the guard fires.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError):
                pb.train(_dataset(seed=3), cfg, opt)

    def test_empty_dataset(self):
        with pytest.raises(ParameterError):
            pb.train([], pb.make_config())

    def test_options_validation(self):
        with pytest.raises(ParameterError):
            pb.TrainOptions(step_size=0.0)
        with pytest.raises(ParameterError):
            pb.TrainOptions(step_size=math.inf)
        with pytest.raises(ParameterError):
            pb.TrainOptions(batch_size=0)
        with pytest.raises(ParameterError):
            pb.TrainOptions(weighting="bogus", steps=0)

    @pytest.mark.parametrize("name", ["steps", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_options_need_integer_counts(self, name, value):
        # a fractional count used to pass and end in a bare TypeError
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            pb.TrainOptions(**{name: value})

    def test_toy_run_reproduces_bench_checkpoint(self, toy_runs):
        # the session's reference toy run is the one bench/make_checkpoint.py
        # trains, so every SGD step of it must still give the same bits
        ckpt = pb.load_checkpoint(BENCH_CHECKPOINT)
        np.testing.assert_array_equal(toy_runs[(0, 1.5)]["params"], ckpt.params)

    def test_smoothed_loss_trend_is_downward(self, toy_runs):
        # window-50 moving average over the last 80% of the reference run:
        # quarter means never rise by more than 5% and the tail ends lower
        # than it starts (plain SGD noise rules out pointwise decrease)
        history = toy_runs[(0, 1.5)]["history"]
        smoothed = np.convolve(history, np.ones(50) / 50, mode="valid")
        tail = smoothed[int(0.2 * smoothed.size):]
        quarters = [seg.mean() for seg in np.array_split(tail, 4)]
        for earlier, later in zip(quarters, quarters[1:]):
            assert later <= 1.05 * earlier
        assert tail[-1] < tail[0]


class TestCheckpointIO:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        cfg = pb.make_config(seed=5)
        data = _dataset(seed=5)
        ckpt, _ = pb.train(data, cfg, pb.TrainOptions(steps=5))
        path = tmp_path / "model.pxbk"
        pb.save_checkpoint(ckpt, path)
        back = pb.load_checkpoint(path)
        np.testing.assert_array_equal(back.params, ckpt.params)
        assert back.spec == ckpt.spec
        assert back.step_count == ckpt.step_count
        assert back.train_config == ckpt.train_config

    def test_file_bytes_are_stable(self, tmp_path):
        ckpt = _ckpt(seed=6)
        p1, p2 = tmp_path / "a.pxbk", tmp_path / "b.pxbk"
        pb.save_checkpoint(ckpt, p1)
        pb.save_checkpoint(pb.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_prefix(self, tmp_path):
        path = tmp_path / "m.pxbk"
        pb.save_checkpoint(_ckpt(), path)
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC)

    def test_predictions_survive_roundtrip(self, tmp_path):
        ckpt = _ckpt(seed=7)
        x0, y, x_t = _item(seed=7)
        path = tmp_path / "p.pxbk"
        pb.save_checkpoint(ckpt, path)
        back = pb.load_checkpoint(path)
        np.testing.assert_array_equal(pb.predict(back, x_t, y, 4),
                                      pb.predict(ckpt, x_t, y, 4))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pxbk"
        pb.save_checkpoint(_ckpt(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            pb.load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "t.pxbk"
        pb.save_checkpoint(_ckpt(), path)
        raw = path.read_bytes()
        for cut in (3, 6, 12, 30, len(raw) - 5):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                pb.load_checkpoint(path)

    @pytest.mark.parametrize("code", [0, 1])
    def test_unknown_kind_code(self, tmp_path, code):
        # only kind code 2 (conv2) loads
        path = tmp_path / "k.pxbk"
        pb.save_checkpoint(_ckpt(), path)
        raw = bytearray(path.read_bytes())
        raw[8] = code
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"kind code {code}"):
            pb.load_checkpoint(path)

    def test_kernel_size_other_than_3(self, tmp_path):
        path = tmp_path / "k5.pxbk"
        pb.save_checkpoint(_ckpt(), path)
        raw = bytearray(path.read_bytes())
        # magic(4) + version(4) + kind(1) + image_channels(1) + hidden_width(4)
        assert struct.unpack_from("<I", raw, 14) == (3,)
        struct.pack_into("<I", raw, 14, 5)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="kernel size 5"):
            pb.load_checkpoint(path)

    def test_committed_bench_checkpoint_resaves_identically(self, tmp_path):
        src = BENCH_CHECKPOINT.read_bytes()
        path = tmp_path / "resaved.pxbk"
        pb.save_checkpoint(pb.load_checkpoint(BENCH_CHECKPOINT), path)
        assert path.read_bytes() == src

    @staticmethod
    def _with_metadata(path, meta):
        """Rewrite a saved checkpoint's JSON metadata block in place."""
        raw = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", raw, 26)
        blob = meta.encode("utf-8")
        path.write_bytes(raw[:26] + struct.pack("<I", len(blob)) + blob
                         + raw[30 + meta_len:])

    def test_metadata_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.pxbk"
        pb.save_checkpoint(_ckpt(), path)
        self._with_metadata(path, "[]")
        with pytest.raises(CheckpointError, match="JSON object"):
            pb.load_checkpoint(path)

    @pytest.mark.parametrize("convention", ["eq4_literal", "bogus", 5, [1]])
    def test_other_conventions_refused_on_load(self, tmp_path, convention):
        # training and sampling implement only the eq5_variance kernel; an
        # eq4_literal checkpoint used to load and fail at its first reverse step
        ckpt = _ckpt()
        ckpt.train_config["convention"] = convention
        path = tmp_path / "conv.pxbk"
        pb.save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError, match="convention"):
            pb.load_checkpoint(path)

    def test_metadata_checked_on_load(self, tmp_path):
        ckpt = _ckpt()
        del ckpt.train_config["sigma"]
        path = tmp_path / "nosigma.pxbk"
        pb.save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError, match="sigma"):
            pb.load_checkpoint(path)

    def test_overflowing_metadata_value(self, tmp_path):
        path = tmp_path / "inf.pxbk"
        ckpt = _ckpt()
        pb.save_checkpoint(ckpt, path)
        meta = dict(ckpt.train_config, steps=float("inf"))
        self._with_metadata(path, json.dumps(meta))
        with pytest.raises(CheckpointError, match="invalid checkpoint metadata"):
            pb.load_checkpoint(path)

    def test_fractional_steps_refused_on_load(self, tmp_path):
        # int() used to rebuild a 15-step schedule from 15.5
        path = tmp_path / "steps.pxbk"
        ckpt = _ckpt()
        ckpt.train_config["steps"] = 15.5
        pb.save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError, match="steps must be an integer"):
            pb.load_checkpoint(path)

    def test_huge_steps_refused_before_allocating(self, tmp_path):
        path = tmp_path / "steps.pxbk"
        ckpt = _ckpt()
        ckpt.train_config["steps"] = 5_000_000
        pb.save_checkpoint(ckpt, path)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="steps must lie in"):
                pb.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.pxbk"
        pb.save_checkpoint(_ckpt(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError):
            pb.load_checkpoint(path)

    @pytest.mark.parametrize("field", ["metadata", "parameters"])
    def test_forged_length_refused_before_reading(self, tmp_path, field):
        # a length beyond the file is refused without allocating or reading it
        path = tmp_path / "f.pxbk"
        pb.save_checkpoint(_ckpt(), path)
        raw = bytearray(path.read_bytes())
        (meta_len,) = struct.unpack_from("<I", raw, 26)
        if field == "metadata":
            struct.pack_into("<I", raw, 26, 2**32 - 1)
        else:
            struct.pack_into("<Q", raw, 30 + meta_len, 2**62)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated"):
            pb.load_checkpoint(path)

    def test_newer_version_refused(self, tmp_path):
        path = tmp_path / "v.pxbk"
        pb.save_checkpoint(_ckpt(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            pb.load_checkpoint(path)

    def test_corrupt_metadata(self, tmp_path):
        path = tmp_path / "j.pxbk"
        ckpt = _ckpt()
        pb.save_checkpoint(ckpt, path)
        raw = bytearray(path.read_bytes())
        # JSON starts after magic(4)+version(4)+spec(10)+steps(8)+len(4)
        raw[30] = ord("{") ^ 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            pb.load_checkpoint(path)

    def test_parameter_count_mismatch(self):
        spec = pb.spec_for_images("conv2")
        with pytest.raises(CheckpointError):
            pb.DenoiserCheckpoint(spec=spec, params=np.zeros(3))
