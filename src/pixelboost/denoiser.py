"""x0 predictors: a test oracle and one small trainable network.

The trainable kind, ``conv2``, is two 3x3 convolutions with a ReLU in
between (replicate padding, under 10k parameters).  It reads the input
stack [x_t, y0_up, eta_t-channel] and emits an x0 prediction.  Gradients
are hand-derived and checked against finite differences in the tests.
"""

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .diffusion import (WEIGHTINGS, DiffusionConfig, _check_t,
                        forward_marginal, item_loss, loss_weight)
from .errors import (CheckpointError, CheckpointVersionError, ParameterError,
                     ShapeError, TrainingError, _require_int)
from .imagedata import check_same_shape
from .noise import STREAM_INIT, STREAM_TRAIN, RngStream
from .schedule import build_schedule

CHECKPOINT_MAGIC = b"PXBK"
CHECKPOINT_VERSION = 1
_CONV2_CODE = 2
_KERNEL_SIZE = 3
# patch-matrix values per item in one band of a forward conv: 1 MiB of float64
_BAND_VALUES = 1 << 17
# hidden activation values per item in one tile of the forward: 1.5 MiB
_TILE_VALUES = 3 * _BAND_VALUES // 2

INIT_WEIGHT_HALF_RANGE = 0.05
MAX_CONV2_PARAMS = 10_000


@dataclass(frozen=True)
class DenoiserSpec:
    """Architecture description for images of ``image_channels`` channels."""

    image_channels: int = 1
    hidden_width: int = 8

    def __post_init__(self):
        _require_int("image_channels", self.image_channels, 1)
        _require_int("hidden_width", self.hidden_width, 1)
        if self.param_count() >= MAX_CONV2_PARAMS:
            raise ParameterError(
                f"conv2 parameter count {self.param_count()} exceeds {MAX_CONV2_PARAMS}")

    @property
    def channels(self):
        """Stacked input channels: x_t, y0_up and one timestep channel."""
        return 2 * self.image_channels + 1

    def param_count(self):
        c_in, c_out, wh = self.channels, self.image_channels, self.hidden_width
        return 9 * c_in * wh + wh + 9 * wh * c_out + c_out

    def _unpack(self, params):
        """Views of the flat parameter vector, in serialization order."""
        c_in, c_out, wh = self.channels, self.image_channels, self.hidden_width
        i = 0
        w1 = params[i:i + 9 * c_in * wh].reshape(3, 3, c_in, wh); i += 9 * c_in * wh
        b1 = params[i:i + wh]; i += wh
        w2 = params[i:i + 9 * wh * c_out].reshape(3, 3, wh, c_out); i += 9 * wh * c_out
        b2 = params[i:]
        return {"w1": w1, "b1": b1, "w2": w2, "b2": b2}


def spec_for_images(kind, image_channels=1, hidden_width=8):
    # ``kind`` stays while the bench calls spec_for_images("conv2"); it goes
    # when the bench builds a DenoiserSpec itself
    if kind != "conv2":
        raise ParameterError(f"the one denoiser kind is 'conv2', got {kind!r}")
    return DenoiserSpec(image_channels=image_channels, hidden_width=hidden_width)


@dataclass
class DenoiserCheckpoint:
    """Flat float64 parameter bundle plus the metadata needed to use it."""

    spec: DenoiserSpec
    params: np.ndarray
    step_count: int = 0
    train_config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64).reshape(-1)
        if self.params.size != self.spec.param_count():
            raise CheckpointError(
                f"parameter count {self.params.size} does not match spec "
                f"({self.spec.param_count()})")
        self._schedule_cache = None

    def schedule(self):
        """Rebuild the shifting sequence recorded at training time."""
        if self._schedule_cache is None:
            tc = self.train_config
            with _metadata_errors():
                self._schedule_cache = build_schedule(
                    tc["steps"], t_mid=tc["t_mid"], mode=tc["mode"])
        return self._schedule_cache

    def config(self, seed=0):
        """The diffusion config recorded at training time, with the given seed.

        Missing or invalid metadata, or a convention other than the
        eq5_variance that training and sampling implement, raises
        CheckpointError; a seed that is not an integer, ParameterError.
        """
        seed = _require_int("seed", seed)
        schedule = self.schedule()
        tc = self.train_config
        convention = tc.get("convention", "eq5_variance")
        if convention != "eq5_variance":
            raise CheckpointError(f"convention {convention!r} is not eq5_variance")
        with _metadata_errors():
            return DiffusionConfig(sigma=float(tc["sigma"]), schedule=schedule,
                                   seed=seed)


@contextmanager
def _metadata_errors():
    """Report missing or malformed training metadata as a CheckpointError."""
    try:
        yield
    except KeyError as exc:
        raise CheckpointError(f"checkpoint lacks metadata {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"invalid checkpoint metadata: {exc}") from exc


class OracleDenoiser:
    """Test-only predictor that always returns the attached ground truth."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=np.float64)

    def __call__(self, x_t, y0_up, t):
        return self.x0.copy()


def as_denoiser(ckpt):
    """Wrap a checkpoint as the (x_t, y0_up, t) -> x0_hat callable samplers expect."""
    return lambda x_t, y0_up, t: predict(ckpt, x_t, y0_up, t)


# --- forward / backward ------------------------------------------------------
# The forward holds activations channel-first as padded (B, C, N+2, W+2)
# buffers of N rows; the backward holds gradients channel-last, (B, H, W, C).
# Every BLAS call is one matmul per item on the operands that the
# single-image einsums (np.einsum(..., optimize=True), kept as the reference
# in the tests) pass, or on a band of their columns: the conv is
# W(o, u*v*c) @ cols(u*v*c, n) for a band of n = rows*W output columns, the
# weight gradient gout(o, H*W) @ cols(H*W, u*v*c) on the whole patch matrix
# that the forward built, and with o > 1 the input gradient's products
# gout(H*W, o) @ W(o, u*v*c).  Transposed operands are views.  With o = 1 the
# weight gradient is a gemv, whose columns must come in the reference's
# order: its operand is patches(H*W, c*u*v), a C-contiguous copy of one
# item's cols.  A batch is then bit-identical to its items run one at a
# time, on any image size.  A contiguous copy of a transposed view, another
# order of a summed axis or of a gemv's columns, a channel-first gout, or one
# matmul over all B*H*W columns lets BLAS pick another kernel or blocking
# and can change the last bit.  With o = 1 each of the input gradient's
# products is a single product, rounded once by np.multiply as by BLAS.
#
# The input gradient sums, for each input pixel, the products of the nine
# taps (u, v) that read it.  _conv3x3_input_grad lays one tap's products out
# as zero-padded channel-first planes (B, c, H+2, W+2), so the tap's shift is
# a constant flat offset u*(W+2) + v and its add is one contiguous 1-D slice
# into a zeroed buffer of the same layout; the replicate border is then
# folded into the edge pixels.  Every sum takes the reference's additions in
# the reference's (u, v) order, and the +-0.0 products that the slices carry
# from the padding change no sum, which starts at +0.0 and never becomes
# -0.0, so the result is bit-identical to the reference's.
#
# The conv's bands hold about _BAND_VALUES patch values (1 MiB) per item, so
# one small workspace serves every band and the whole patch matrix (151 MB
# for the second conv at 512x512) never exists outside training.  Training
# images fit in one band, so their operands are exactly the reference's; on
# taller ones each band fills its columns of the whole matrix, and a matmul
# on those columns equals one on a contiguous band.  With o = 1 the
# matmul is a BLAS gemv, which works through the columns in blocks and
# treats the left-over columns at the end of its range another way; a
# column's last bit thus depends on where its call's range, and each BLAS
# thread's share of it, ends.  So every band but the last starts and ends
# on a multiple of 8 columns, and with one BLAS thread the banded conv
# equals the whole-image reference on every shape.  With T threads OpenBLAS
# splits a call into T near-equal shares.  Where H*W is not a multiple of 8
# the reference's shares or the short last band's shares can end off a
# block boundary, and a few outputs differ from the reference in the last
# bit: at 97x1029 with 2 threads, 2 to 4 of 99813 outputs, by at most 7e-18.
# On 2 threads, all 70 shapes tried whose H*W is a multiple of 8 matched.
#
# The forward runs one tile of output rows at a time through both convs
# (_tile_rows), so no image-sized activation exists: a 512x512 predict
# peaks at about 7 MB, 2 MB of it the output, where whole-image
# activations took 43 MB.  A tile is a whole number of the second conv's
# bands, so each call of that conv, the thread-sensitive gemv, is the one
# the whole-image banded conv makes.  The first conv computes each hidden
# row once, running a few rows ahead of the tile so that each of its calls
# also starts and ends on a multiple of 8 columns or at the image's end;
# the tile's hidden rows above and below it are thus the real neighbouring
# rows, bit for bit, and replicate padding applies only at the image's
# border.  Training runs the whole image as one tile and keeps both convs'
# whole patch matrices for the backward.

def _fill_border(xp, top, bottom):
    """Replicate edge pixels into the border of padded rows (B, C, N+2, W+2).

    The border columns always take their row's edge pixels; the first and
    last rows copy their neighbours only where ``top`` and ``bottom`` say
    they lie on the image's border rather than hold real image rows.
    """
    xp[..., 0] = xp[..., 1]
    xp[..., -1] = xp[..., -2]
    if top:
        xp[:, :, 0] = xp[:, :, 1]
    if bottom:
        xp[:, :, -1] = xp[:, :, -2]


def _band_rows(c, h, wd):
    """Output rows per band of a conv on C input channels and an H x W image.

    A band's patch matrix holds about _BAND_VALUES values per item, and the
    row count is a multiple of 8 // gcd(W, 8), so that every band starts on
    an output column that is a multiple of 8.
    """
    step = 8 // math.gcd(wd, 8)
    rows = _BAND_VALUES // (9 * c * wd) // step * step
    return min(h, max(step, rows))


def _tile_rows(wh, h, wd):
    """Output rows per tile of the forward: a whole number of second-conv bands.

    A tile's hidden activations hold about _TILE_VALUES values per item.
    """
    rows = _band_rows(wh, h, wd)
    return min(h, rows * max(1, _TILE_VALUES // (wh * rows * wd)))


def _conv3x3(xp, w, out, work, rows):
    """3x3 conv, without bias, of padded channel-first rows into ``out``.

    ``xp`` is (B, C, N+2, W+2) and ``out`` (B, Co, N*W).  The patch matrix
    is built ``rows`` output rows at a time, rows in (u, v, c) order: in
    the flat workspace ``work``, which each band overwrites, or, where
    ``work`` is the whole (B, 9C, N*W) patch matrix, in the band's columns
    of it, so that the whole matrix outlives the call.
    """
    b, c, h, wd = xp.shape[0], xp.shape[1], xp.shape[2] - 2, xp.shape[3] - 2
    wt = w.reshape(9 * c, -1).T
    for r0 in range(0, h, rows):
        n = min(rows, h - r0)
        if work.ndim == 1:
            band = work[:b * 9 * c * n * wd].reshape(b, 9 * c, n * wd)
        else:
            band = work[:, :, r0 * wd:(r0 + n) * wd]
        cols = band.reshape(b, 3, 3, c, n, wd)
        for u in range(3):
            for v in range(3):
                cols[:, u, v] = xp[:, :, r0 + u:r0 + u + n, v:v + wd]
        np.matmul(wt, band, out=out[:, :, r0 * wd:(r0 + n) * wd])


def _conv3x3_grads(cols, gout):
    """Per-item parameter gradients of a 3x3 conv: dw (B, 3, 3, Ci, Co), db (B, Co).

    ``cols`` is the conv's whole patch matrix (B, 9Ci, H*W) as _conv3x3
    built it, rows in (u, v, c) order, and ``gout`` is channel-last.
    """
    b, h, wd, o = gout.shape
    c = cols.shape[1] // 9
    g = gout.reshape(b, h * wd, o)
    if o == 1:
        # the gemv's (c, u, v)-ordered operand (see above _fill_border), one
        # item at a time: a whole batch's copy left so much free on top of
        # the heap that glibc trimmed it every step at hidden width 16
        pat = np.empty((h * wd, c, 3, 3))
        dw = np.empty((b, 1, 9 * c))
        for i in range(b):
            pat[...] = cols[i].reshape(3, 3, c, h * wd).transpose(3, 2, 0, 1)
            np.matmul(g[i].T, pat.reshape(h * wd, 9 * c), out=dw[i])
        return dw.reshape(b, 1, c, 3, 3).transpose(0, 3, 4, 2, 1), g.sum(axis=1)
    dw = np.matmul(g.transpose(0, 2, 1), cols.transpose(0, 2, 1))
    return dw.reshape(b, o, 3, 3, c).transpose(0, 2, 3, 4, 1), g.sum(axis=1)


def _conv3x3_input_grad(w, gout):
    """Gradient w.r.t. the conv input, folding replicate-pad contributions.

    Returns a C-contiguous channel-last (B, H, W, Ci) array.  One buffer of
    zero-padded channel-first planes (B, Ci, H+2, W+2) holds each tap's
    products in turn: with one output channel, one np.multiply of the
    zero-padded gout by the tap's weights; otherwise the per-item matmul's
    products, copied into the planes' interiors.  The tap's add is one
    contiguous 1-D slice, from plane position (1, 1) of the first plane to
    (H, W) of the last, at flat offset u*(W+2) + v; the comment above
    _fill_border says why this is bit-exact.  A non-finite weight makes the
    padding's products NaN (0 * inf) where the reference forms none, so
    that gradient, non-finite either way, may hold NaNs where the
    reference's holds infinities.
    """
    b, h, wd, o = gout.shape
    c = w.shape[2]
    pitch = wd + 2
    prod = np.zeros((b, c, h + 2, pitch))
    if o == 1:
        gp = np.zeros((b, 1, h + 2, pitch))
        gp[:, 0, 1:-1, 1:-1] = gout[..., 0]
        wc = w.reshape(3, 3, c, 1, 1)
    else:
        gw = np.matmul(gout.reshape(b, h * wd, o), w.transpose(3, 0, 1, 2).reshape(o, 9 * c))
        gw = gw.reshape(b, h, wd, 3, 3, c)
    dxp = np.zeros((b, c, h + 2, pitch))
    acc = dxp.reshape(-1)
    src = prod.reshape(-1)[pitch + 1:prod.size - pitch - 1]
    for u in range(3):
        for v in range(3):
            if o == 1:
                np.multiply(gp, wc[u, v], out=prod)
            else:
                prod[:, :, 1:-1, 1:-1] = gw[:, :, :, u, v].transpose(0, 3, 1, 2)
            k = u * pitch + v
            acc[k:k + src.size] += src
    dxp = dxp.transpose(0, 2, 3, 1)
    dx = dxp[:, 1:h + 1, 1:wd + 1].copy()
    dx[:, 0] += dxp[:, 0, 1:wd + 1]
    dx[:, -1] += dxp[:, h + 1, 1:wd + 1]
    dx[:, :, 0] += dxp[:, 1:h + 1, 0]
    dx[:, :, -1] += dxp[:, 1:h + 1, wd + 1]
    dx[:, 0, 0] += dxp[:, 0, 0]
    dx[:, 0, -1] += dxp[:, 0, wd + 1]
    dx[:, -1, 0] += dxp[:, h + 1, 0]
    dx[:, -1, -1] += dxp[:, h + 1, wd + 1]
    return dx


def _check_pair(spec, x_t, y0_up):
    """One (H, W, C) input pair as float64 arrays, validated against the spec."""
    x_t = np.asarray(x_t, dtype=np.float64)
    y0_up = np.asarray(y0_up, dtype=np.float64)
    check_same_shape(x_t, y0_up)
    if x_t.ndim != 3 or x_t.shape[2] != spec.image_channels:
        raise ShapeError(
            f"expected (H, W, {spec.image_channels}) inputs, got {x_t.shape}")
    return x_t, y0_up


def _stack_rows(zp, x_t, y0_up, r0, r1):
    """Fill zp[:, :, :r1-r0+2] with the padded network input of rows r0..r1-1.

    The channels are x_t, y0_up and the constant eta_t channel, which the
    caller sets once for the whole buffer.  The rows above and below come
    from the image, or replicate its edge rows at its border.
    """
    h, c = x_t.shape[1], x_t.shape[3]
    lo, hi = max(r0 - 1, 0), min(r1 + 1, h)
    z = zp[:, :, lo - r0 + 1:hi - r0 + 1, 1:-1]
    z[:, :c] = x_t[:, lo:hi].transpose(0, 3, 1, 2)
    z[:, c:2 * c] = y0_up[:, lo:hi].transpose(0, 3, 1, 2)
    _fill_border(zp[:, :, :r1 - r0 + 2], top=r0 == 0, bottom=r1 == h)


def _forward(ckpt, x_t, y0_up, ts, keep_cache=False):
    """Network output (B, H, W, Co) for (B, H, W, C) inputs, and _backward's cache.

    The image runs one tile of output rows at a time through both convs
    (see the comment above _fill_border); every buffer is allocated once
    and reused by each tile.  Row j of the padded activation ``ap`` holds
    hidden row r0 - 1 + j of the tile that starts at row r0.  With
    ``keep_cache`` the tile is the whole image and the cache holds both
    convs' whole patch matrices and the padded activation, as _backward
    needs; otherwise the cache is None and predict's peak is a few tile
    buffers and the output.
    """
    schedule = ckpt.schedule()
    etas = schedule.etas[[_check_t(t, schedule.steps) for t in ts]]
    spec = ckpt.spec
    p = spec._unpack(ckpt.params)
    b, h, wd, c = x_t.shape
    ci, wh = 2 * c + 1, spec.hidden_width
    rows = h if keep_cache else _tile_rows(wh, h, wd)
    ahead = 8 // math.gcd(wd, 8)
    # the most rows the first conv computes in one tile
    span = min(rows + ahead, h)
    band1, band2 = _band_rows(ci, h, wd), _band_rows(wh, h, wd)
    # what may outlive the call first, in one buffer: the temporaries then
    # lie on top of the heap, which glibc reuses; another order had it trim
    # the heap and fault the pages back in, 540 or more minor faults per
    # training step
    if keep_cache:
        pat = np.empty((b, 9 * (ci + wh), h * wd))
        work1, work2 = pat[:, :9 * ci], pat[:, 9 * ci:]
    out = np.empty((b, spec.image_channels, h * wd))
    zp = np.empty((b, ci, span + 2, wd + 2))
    zp[:, 2 * c] = etas[:, None, None]
    ap = np.empty((b, wh, span + 2, wd + 2))
    hid = np.empty((b, wh, span * wd))
    if not keep_cache:
        work1 = work2 = np.empty(
            b * 9 * wd * max(ci * min(band1, span), wh * min(band2, rows)))
    done = 0  # hidden rows 0..done-1 are computed
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        n = r1 - r0
        if r0:
            # the last tile's final row and the rows it computed ahead
            k = done - r0 + 1
            ap[:, :, :k] = ap[:, :, rows:rows + k]
        end = min(r1 + ahead, h)
        if end > done:
            m, j = end - done, done - r0 + 1
            _stack_rows(zp, x_t, y0_up, done, end)
            hv = hid[:, :, :m * wd]
            _conv3x3(zp[:, :, :m + 2], p["w1"], hv, work1, band1)
            hv += p["b1"][:, None]
            np.maximum(hv.reshape(b, wh, m, wd), 0.0, out=ap[:, :, j:j + m, 1:-1])
            done = end
        _fill_border(ap[:, :, :n + 2], top=r0 == 0, bottom=r1 == h)
        tile = out[:, :, r0 * wd:r1 * wd]
        _conv3x3(ap[:, :, :n + 2], p["w2"], tile, work2, band2)
        tile += p["b2"][:, None]
    out = np.ascontiguousarray(out.reshape(b, -1, h, wd).transpose(0, 2, 3, 1))
    return out, ((work1, work2, ap) if keep_cache else None)


def _backward(spec, params, cache, gout):
    """Per-item flat gradients (B, param_count), in parameter-vector layout."""
    p = spec._unpack(params)
    b = gout.shape[0]
    cols1, cols2, ap = cache
    dw2, db2 = _conv3x3_grads(cols2, gout)
    dh = _conv3x3_input_grad(p["w2"], gout)
    # ap's interior is relu(h), so it is > 0 exactly where h > 0
    dh *= ap[:, :, 1:-1, 1:-1].transpose(0, 2, 3, 1) > 0.0
    dw1, db1 = _conv3x3_grads(cols1, dh)
    return np.concatenate([dw1.reshape(b, -1), db1, dw2.reshape(b, -1), db2], axis=1)


def _losses_and_gradients(ckpt, cfg, items, weighting):
    """Per-item losses and gradients of (x0, y0_up, t, x_t) items, in item order.

    Items of one image shape share one forward and one backward pass.
    """
    losses = [0.0] * len(items)
    grads = np.empty((len(items), ckpt.params.size))
    groups = {}
    for k, item in enumerate(items):
        groups.setdefault(item[0].shape, []).append(k)
    for ks in groups.values():
        x0, y0_up, x_t = (np.stack([items[k][j] for k in ks]) for j in (0, 1, 3))
        ts = [items[k][2] for k in ks]
        out, cache = _forward(ckpt, x_t, y0_up, ts, keep_cache=True)
        diff = out - x0
        # d loss / d prediction = 2 w (prediction - x0)
        scale = [2.0 * loss_weight(t, cfg, weighting, diff[0].size) for t in ts]
        gout = np.array(scale)[:, None, None, None] * diff
        grads[ks] = _backward(ckpt.spec, ckpt.params, cache, gout)
        for i, k in enumerate(ks):
            losses[k] = item_loss(x0[i], out[i], ts[i], cfg, weighting)
    return losses, grads


def predict(ckpt, x_t, y0_up, t):
    """x0 prediction; the timestep enters as a constant eta_t channel."""
    x_t, y0_up = _check_pair(ckpt.spec, x_t, y0_up)
    return _forward(ckpt, x_t[None], y0_up[None], [t])[0][0]


def loss_gradient(ckpt, item, t, x_t, weighting="uniform_mse"):
    """Analytic gradient of the single-item loss w.r.t. every parameter."""
    x0, y0_up = item
    x0 = np.asarray(x0, dtype=np.float64)
    x_t, y0_up = _check_pair(ckpt.spec, x_t, y0_up)
    check_same_shape(x0, x_t)
    _, grads = _losses_and_gradients(ckpt, ckpt.config(), [(x0, y0_up, t, x_t)],
                                     weighting)
    return grads[0]


def item_loss_value(ckpt, item, t, x_t, weighting="uniform_mse"):
    """The loss whose gradient loss_gradient returns."""
    x0, y0_up = item
    x0 = np.asarray(x0, dtype=np.float64)
    x_t, y0_up = _check_pair(ckpt.spec, x_t, y0_up)
    check_same_shape(x0, x_t)
    out, _ = _forward(ckpt, x_t[None], y0_up[None], [t])
    return item_loss(x0, out[0], t, ckpt.config(), weighting)


# --- training ----------------------------------------------------------------

@dataclass(frozen=True)
class TrainOptions:
    step_size: float = 1e-2
    steps: int = 500
    batch_size: int = 8
    weighting: str = "uniform_mse"

    def __post_init__(self):
        if not 0 < self.step_size < math.inf:
            raise ParameterError(
                f"step_size must be positive and finite, got {self.step_size}")
        _require_int("steps", self.steps, 0)
        _require_int("batch_size", self.batch_size, 1)
        if self.weighting not in WEIGHTINGS:
            raise ParameterError(
                f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")


def init_checkpoint(spec, cfg):
    """Fresh checkpoint: weights i.i.d. uniform +-0.05, biases zero."""
    rng = RngStream(cfg.seed, STREAM_INIT)
    params = np.zeros(spec.param_count())
    for name, view in spec._unpack(params).items():
        if name.startswith("w"):
            view[...] = rng.uniform(-INIT_WEIGHT_HALF_RANGE,
                                    INIT_WEIGHT_HALF_RANGE, view.shape)
    train_config = {
        "steps": cfg.steps,
        "t_mid": cfg.schedule.t_mid,
        "mode": cfg.schedule.mode,
        "sigma": cfg.sigma,
        # the one forward kernel training and sampling implement; config()
        # refuses any other recorded value
        "convention": "eq5_variance",
        "seed": cfg.seed,
    }
    return DenoiserCheckpoint(spec=spec, params=params, step_count=0,
                              train_config=train_config)


def train(dataset, cfg, opt=None, spec=None):
    """Plain SGD on the diffusion loss; deterministic given cfg.seed.

    ``dataset`` is a list of (x_0, y0_up) pairs on the HR grid.  Returns
    the trained checkpoint and the per-step batch losses.
    """
    if len(dataset) == 0:
        raise ParameterError("dataset must be nonempty")
    if opt is None:
        opt = TrainOptions()
    if spec is None:
        spec = DenoiserSpec(image_channels=np.shape(dataset[0][0])[2])
    dataset = [_check_pair(spec, x0, y0_up) for x0, y0_up in dataset]

    ckpt = init_checkpoint(spec, cfg)
    ckpt.train_config.update(step_size=opt.step_size, batch_size=opt.batch_size,
                             weighting=opt.weighting)
    loss_cfg = ckpt.config(cfg.seed)
    params = ckpt.params
    rng = RngStream(cfg.seed, STREAM_TRAIN)
    history = []
    n = len(dataset)
    for step in range(opt.steps):
        # draw order: the batch indices, then t and the noise of each item
        items = []
        for i in rng.integers(0, n, opt.batch_size):
            x0, y0_up = dataset[int(i)]
            t = int(rng.integers(1, cfg.steps + 1))
            items.append((x0, y0_up, t, forward_marginal(x0, y0_up - x0, t, cfg, rng)))
        losses, grads = _losses_and_gradients(ckpt, loss_cfg, items, opt.weighting)
        # summed in item order, as the per-item reference does
        grad = np.zeros_like(params)
        loss_acc = 0.0
        for value, item_grad in zip(losses, grads):
            loss_acc += value
            grad += item_grad
        loss = loss_acc / opt.batch_size
        if not np.isfinite(loss):
            raise TrainingError(
                f"loss became non-finite at step {step} with step_size="
                f"{opt.step_size} and weighting={opt.weighting}; "
                "try a smaller step size")
        params -= opt.step_size * (grad / opt.batch_size)
        history.append(loss)
    ckpt.step_count = opt.steps
    return ckpt, history


# --- checkpoint file format --------------------------------------------------
# magic "PXBK" | u32 version | u8 kind | u8 image_channels | u32 hidden_width
# | u32 kernel_size | u64 step_count | u32 json_len | json train_config
# | u64 param_count | param_count * f64, all little-endian.  Only kind code 2
# (conv2) and kernel size 3 load.

def save_checkpoint(ckpt, path):
    meta = json.dumps(ckpt.train_config, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    spec = ckpt.spec
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<BBII", _CONV2_CODE, spec.image_channels,
                             spec.hidden_width, _KERNEL_SIZE))
        fh.write(struct.pack("<Q", ckpt.step_count))
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<Q", ckpt.params.size))
        fh.write(ckpt.params.astype("<f8").tobytes())


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint: short read in {what}")
    return buf


def _check_remaining(fh, n, what):
    """Refuse a declared length before reading it if the file is shorter."""
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > remaining:
        raise CheckpointError(
            f"truncated checkpoint: {what} declares {n} bytes, {remaining} remain")


def load_checkpoint(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}; not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version > CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"format version {version} is newer than supported "
                f"({CHECKPOINT_VERSION})")
        kind_code, img_c, hidden, ksize = struct.unpack(
            "<BBII", _read_exact(fh, 10, "spec"))
        if kind_code != _CONV2_CODE:
            raise CheckpointError(f"unknown denoiser kind code {kind_code}")
        if ksize != _KERNEL_SIZE:
            raise CheckpointError(f"only 3x3 kernels load, got kernel size {ksize}")
        (step_count,) = struct.unpack("<Q", _read_exact(fh, 8, "step count"))
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
        _check_remaining(fh, meta_len, "metadata")
        try:
            meta = json.loads(_read_exact(fh, meta_len, "metadata").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt metadata: {exc}") from exc
        if not isinstance(meta, dict):
            raise CheckpointError("checkpoint metadata must be a JSON object")
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "parameter count"))
        _check_remaining(fh, 8 * count, "parameter block")
        raw = _read_exact(fh, 8 * count, "parameters")
        if fh.read(1) != b"":
            raise CheckpointError("trailing bytes after parameter block")
    try:
        spec = DenoiserSpec(image_channels=img_c, hidden_width=hidden)
    except ParameterError as exc:
        raise CheckpointError(f"inconsistent spec fields: {exc}") from exc
    params = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    ckpt = DenoiserCheckpoint(spec=spec, params=params, step_count=step_count,
                              train_config=meta)
    ckpt.config()  # refuse missing or invalid metadata now, not on first use
    return ckpt
