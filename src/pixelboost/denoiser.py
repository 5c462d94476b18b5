"""x0 predictors: a test oracle and one small trainable network.

The trainable kind, ``conv2``, is two 3x3 convolutions with a ReLU in
between (replicate padding, under 10k parameters).  It reads the input
stack [x_t, y0_up, eta_t-channel] and emits an x0 prediction.  Gradients
are hand-derived and checked against finite differences in the tests.
"""

import json
import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from . import _threads
from .diffusion import DiffusionConfig, _check_cfg, _check_t, _marginal
from .errors import (CheckpointError, CheckpointVersionError, ParameterError,
                     ShapeError, TrainingError, _read_exact, _require_arrays,
                     _require_int, _require_positive, _require_size, _require_type,
                     _shown)
from .noise import STREAM_INIT, STREAM_TRAIN, RngStream
from .schedule import build_schedule

CHECKPOINT_MAGIC = b"PXBK"
CHECKPOINT_VERSION = 1
_CONV2_CODE = 2
_KERNEL_SIZE = 3
# patch-matrix values per item in one band of predict's convs: 1 MiB of float64
_BAND_VALUES = 1 << 17
# hidden activation values per item in one tile of the forward: 1.5 MiB
_TILE_VALUES = 3 * _BAND_VALUES // 2
# zeroed values before the first row and after the last of a flat padded
# plane, which the throw-away columns of a band read
_SLACK = 16

INIT_WEIGHT_HALF_RANGE = 0.05
MAX_CONV2_PARAMS = 10_000


@dataclass(frozen=True)
class DenoiserSpec:
    """Architecture description for images of ``image_channels`` channels."""

    image_channels: int = 1
    hidden_width: int = 8

    def __post_init__(self):
        # stored as plain ints, like the sizes a checkpoint file records
        object.__setattr__(self, "image_channels",
                           _require_int("image_channels", self.image_channels, 1))
        object.__setattr__(self, "hidden_width",
                           _require_int("hidden_width", self.hidden_width, 1))
        if self.image_channels > 255:  # a checkpoint records it as a u8
            raise ParameterError(f"image_channels {_shown(self.image_channels)} is over 255")
        if self.param_count() >= MAX_CONV2_PARAMS:
            raise ParameterError(f"conv2 parameter count {_shown(self.param_count())} "
                                 f"exceeds {MAX_CONV2_PARAMS}")

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
    if not isinstance(kind, str) or kind != "conv2":
        raise ParameterError(f"the one denoiser kind is 'conv2', got {_shown(kind)}")
    return DenoiserSpec(image_channels=image_channels, hidden_width=hidden_width)


@dataclass(frozen=True)
class DenoiserCheckpoint:
    """Flat float64 parameter bundle plus the metadata needed to use it: a
    value, checked once when built.  The metadata must hold a valid training
    config (steps, t_mid, mode, sigma), no convention but eq5_variance, and
    encode as JSON with no array or object value.  ``params`` is a read-only
    copy and ``train_config`` a read-only mapping; dataclasses.replace
    derives a new checkpoint."""

    spec: DenoiserSpec = field(compare=False)
    params: np.ndarray = field(compare=False)
    step_count: int = field(default=0, compare=False)
    train_config: Mapping = field(default_factory=dict, compare=False)
    # what save_checkpoint writes, by which checkpoints compare and hash
    _content: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _require_type("spec", self.spec, DenoiserSpec)
        _require_type("train_config", self.train_config, Mapping)
        # the file stores the count as a u64
        step_count = _require_int("step_count", self.step_count, 0)
        if step_count >= 1 << 64:
            raise ParameterError(f"step_count must be below 2**64, got {_shown(step_count)}")
        params = np.array(_require_arrays(self.params)[0].reshape(-1))
        if params.size != self.spec.param_count():
            raise CheckpointError(
                f"parameter count {params.size} does not match spec "
                f"({self.spec.param_count()})")
        params.setflags(write=False)
        tc = dict(self.train_config)
        try:
            schedule = build_schedule(tc["steps"], t_mid=tc["t_mid"], mode=tc["mode"])
            config = DiffusionConfig(sigma=float(tc["sigma"]), schedule=schedule)
            meta = json.dumps(tc, sort_keys=True, separators=(",", ":")).encode()
        except KeyError as exc:
            raise CheckpointError(f"checkpoint lacks metadata {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"invalid checkpoint metadata: {exc}") from exc
        for key, value in tc.items():  # which a read-only mapping would leave mutable
            if isinstance(value, (list, tuple, dict)):
                raise CheckpointError(f"metadata {key!r} is a JSON array or object")
        if tc.get("convention", "eq5_variance") != "eq5_variance":
            raise CheckpointError(f"convention {tc['convention']!r} is not eq5_variance")
        content = self.spec, step_count, meta, params.astype("<f8").tobytes()
        for name, value in (("step_count", step_count), ("params", params),
                            ("train_config", MappingProxyType(tc)),
                            ("_config", config), ("_content", content)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # rebuilt through the constructor: a mapping proxy does not pickle
        return DenoiserCheckpoint, (self.spec, self.params, self.step_count,
                                    dict(self.train_config))

    def schedule(self):
        """The shifting sequence recorded at training time."""
        return self._config.schedule

    def config(self, seed=0):
        """The diffusion config recorded at training time, with the integer ``seed``."""
        return replace(self._config, seed=seed)


class OracleDenoiser:
    """Test-only predictor that always returns the attached ground truth."""

    def __init__(self, x0):
        (self.x0,) = _require_arrays(x0)

    def __call__(self, x_t, y0_up, t):
        return self.x0.copy()


def _check_ckpt(ckpt):
    return _require_type("ckpt", ckpt, DenoiserCheckpoint)


def as_denoiser(ckpt):
    """Wrap a checkpoint as the (x_t, y0_up, t) -> x0_hat callable samplers expect."""
    _check_ckpt(ckpt)
    return lambda x_t, y0_up, t: predict(ckpt, x_t, y0_up, t)


# --- forward / backward ------------------------------------------------------
# The forward holds activations channel-first as padded (B, C, N+2, W+2)
# rows; the backward holds gradients channel-last, (B, H, W, C).
# Every BLAS call is one matmul per item on the operands that the
# single-image einsums (np.einsum(..., optimize=True), kept as the reference
# in the tests) pass, or, in predict, on a band of their columns with
# throw-away columns between rows (see below): the conv is
# W(o, u*v*c) @ cols(u*v*c, H*W), the weight gradient
# gout(o, H*W) @ cols(H*W, u*v*c) on the whole patch matrix that the
# forward built, and with o > 1 the input gradient's products
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
# Training keeps each conv's whole patch matrix (B, 9C, H*W), columns in
# the reference's pixel order, because the backward's gemv and gemm take it
# as the reference's operands; _conv3x3 fills it and multiplies it at once.
# loss_gradient and item_loss_value run this whole-image forward too, so a
# loss and its gradient come from the same bits; the tiled forward below
# serves predict alone.
#
# predict never holds a whole patch matrix (151 MB for the second conv at
# 512x512): it runs each conv in bands of about _BAND_VALUES patch values
# (1 MiB) per item.  Its forward keeps the padded input and hidden
# activation as flat channel-first planes of pitch P = W + 2, and the band
# whose first output row is q has one patch-matrix column per plane
# position from (q, 0) on: tap (u, v) of the band is then, over all
# channels, the one contiguous slice planes[..., (q+u)*P + v : ... + L],
# where the unpadded layout copies n rows of W values.  The matmul thus
# also computes the 2 columns between rows, which are thrown away: the
# first conv writes its band straight into the hidden planes at flat
# offset P + 1, where they land on border cells that _fill_border then
# overwrites, and the second conv's tile is de-padded, with its bias,
# into the channel-last output.
#
# BLAS gives a column the same bits wherever it sits in a call, except in
# the left-over block at a call's end: with o = 1 the matmul is a gemv,
# which treats the last N mod 4 of N columns another way, and also takes
# another path for a call of 3 or fewer columns.  So each pitched band is
# rounded up to a multiple of 8 columns (the extra columns read and write
# the zeroed slack past the rows), and where H*W is not a multiple of 8,
# each conv's last band runs unpadded, as _conv3x3 runs it: that call
# starts on a multiple of 8 outputs and ends on the image's last, so the
# reference's left-over columns are left over there too.  (Starting a
# pitched last call early so that its length is H*W mod 8 does not do:
# one pixel wide, the left-over block spans more than the last row.)
# With one BLAS thread the forward then equals the whole-image reference
# on every shape, and predict holds numpy's bundled OpenBLAS at one thread
# (_threads), so its bytes do not depend on OPENBLAS_NUM_THREADS.  With T
# threads OpenBLAS splits a call into T near-equal shares, which where H*W
# is not a multiple of 8 can end off a block boundary: the reference run on
# 2 threads differs from predict at 97x1029 in 2 to 4 of 99813 outputs, by
# at most 7e-18.
#
# The forward runs one tile of output rows at a time through both convs
# (_tile_rows), so no image-sized activation exists: a 512x512 predict
# peaks at about 6 MB, 2 MB of it the output, where whole-image
# activations took 43 MB.  A tile is a whole number of the second conv's
# bands, so each call of that conv, the thread-sensitive gemv, starts and
# ends where the whole-image banded conv's did.  The first conv computes
# each hidden row once, running a few rows ahead of the tile so that each
# of its bands also starts on a multiple of 8 outputs; the tile's hidden
# rows above and below it are thus the real neighbouring rows, bit for
# bit, and replicate padding applies only at the image's border.

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
    """Output rows per band of predict's conv on C input channels, H x W image.

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


def _conv3x3(xp, w, out, cols):
    """3x3 conv, without bias, of padded channel-first rows into ``out``.

    ``xp`` is (B, C, H+2, W+2) and ``out`` (B, Co, H*W).  The whole patch
    matrix ``cols`` (B, 9C, H*W), rows in (u, v, c) order, is filled and
    multiplied in one call; the matrix outlives the call, for the backward.
    """
    b, c, h, wd = xp.shape[0], xp.shape[1], xp.shape[2] - 2, xp.shape[3] - 2
    taps = cols.reshape(b, 3, 3, c, h, wd)
    for u in range(3):
        for v in range(3):
            taps[:, u, v] = xp[:, :, u:u + h, v:v + wd]
    np.matmul(w.reshape(9 * c, -1).T, cols, out=out)


def _conv3x3_rows(planes, pitch, m, w, rows, ends, work, out, at):
    """3x3 conv, without bias, of M output rows of flat padded planes, by bands.

    ``planes`` is (B, C, S), channel-first planes of pitch P = W + 2 whose
    padded row i starts at _SLACK + i*P, with finite values around the
    rows, and output (i, x) goes to out[:, :, at + i*P + x], likewise of
    pitch P.  A band of n rows is one matmul of n*P columns rounded up to
    a multiple of 8, whose patch matrix is built in the flat workspace
    ``work``, each tap (u, v) one contiguous slice of every plane, and
    whose product goes straight into ``out``, the columns past each row's
    W outputs and past the band included.  With ``ends`` the last band is
    instead one call of _conv3x3 on n*W columns, copied into ``out``.
    """
    b, c = planes.shape[:2]
    wd = pitch - 2
    wt = w.reshape(9 * c, -1).T
    for q in range(0, m, rows):
        n = min(rows, m - q)
        if ends and q + n == m:
            # the image's last band, which holds the left-over columns
            xp = planes[:, :, _SLACK:_SLACK + (m + 2) * pitch].reshape(b, c, m + 2, pitch)
            pat = work[:b * 9 * c * n * wd].reshape(b, 9 * c, n * wd)
            res = np.empty((b, wt.shape[0], n * wd))
            _conv3x3(xp[:, :, q:], w, res, pat)
            dst = out[:, :, at + q * pitch:at + m * pitch].reshape(b, -1, n, pitch)
            dst[..., :wd] = res.reshape(b, -1, n, wd)
            break
        cols = -(-n * pitch // 8) * 8
        pat = work[:b * 9 * c * cols].reshape(b, 9 * c, cols)
        taps = pat.reshape(b, 3, 3, c, cols)
        for u in range(3):
            for v in range(3):
                k = _SLACK + (q + u) * pitch + v
                taps[:, u, v] = planes[:, :, k:k + cols]
        k = at + q * pitch
        np.matmul(wt, pat, out=out[:, :, k:k + cols])


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


def _check_images(spec, *arrays):
    """Float64 (H, W, C) arrays of one shape, C the spec's channels, H and W >= 1."""
    arrays = _require_arrays(*arrays)
    shape = arrays[0].shape
    if len(shape) != 3 or shape[2] != spec.image_channels or 0 in shape:
        raise ShapeError(
            f"expected nonempty (H, W, {spec.image_channels}) inputs, got {shape}")
    return arrays


def _as_pairs(dataset):
    """``dataset`` as a list of 2-tuples; refused unless a nonempty sequence of pairs."""
    try:
        pairs = [tuple(pair) for pair in dataset]
    except TypeError:
        pairs = []
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ParameterError(f"need a nonempty sequence of pairs, got {_shown(dataset):.40}")
    return pairs


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


def _forward_whole(spec, schedule, params, x_t, y0_up, ts):
    """The whole-image forward of training on checked (B, H, W, C) inputs.

    Returns the network output (B, H, W, Co) and _backward's cache: both
    convs' whole patch matrices and the padded activation.
    """
    etas = schedule.etas[ts]
    p = spec._unpack(params)
    b, h, wd, c = x_t.shape
    ci, wh, co = 2 * c + 1, p["b1"].size, p["b2"].size
    # what may outlive the call first, in one buffer: the temporaries then
    # lie on top of the heap, which glibc reuses; another order had it trim
    # the heap and fault the pages back in, 540 or more minor faults per
    # training step
    pat = np.empty((b, 9 * (ci + wh), h * wd))
    cols1, cols2 = pat[:, :9 * ci], pat[:, 9 * ci:]
    out = np.empty((b, co, h * wd))
    zp = np.empty((b, ci, h + 2, wd + 2))
    zp[:, 2 * c] = etas[:, None, None]
    ap = np.empty((b, wh, h + 2, wd + 2))
    hid = np.empty((b, wh, h * wd))
    _stack_rows(zp, x_t, y0_up, 0, h)
    _conv3x3(zp, p["w1"], hid, cols1)
    hid += p["b1"][:, None]
    np.maximum(hid.reshape(b, wh, h, wd), 0.0, out=ap[:, :, 1:-1, 1:-1])
    _fill_border(ap, top=True, bottom=True)
    _conv3x3(ap, p["w2"], out, cols2)
    out += p["b2"][:, None]
    out = np.ascontiguousarray(out.reshape(b, co, h, wd).transpose(0, 2, 3, 1))
    return out, (cols1, cols2, ap)


def _forward_tiled(spec, schedule, params, x_t, y0_up, ts):
    """The forward of predict on checked (B, H, W, C) inputs, one tile of
    output rows at a time (see the comment above _fill_border).

    ``zp`` and ``ap`` hold the tile's padded input and hidden activation,
    and ``op`` the tile's second-conv output, as flat planes of pitch W + 2
    (see _conv3x3_rows), zero around the rows; ``zq`` and ``aq`` view their
    rows.  Row j of ``aq`` holds hidden row r0 - 1 + j of the tile that
    starts at row r0.  Every buffer is allocated once and reused by each
    tile and band.
    """
    etas = schedule.etas[ts]
    p = spec._unpack(params)
    b, h, wd, c = x_t.shape
    ci, wh, co = 2 * c + 1, p["b1"].size, p["b2"].size
    pitch = wd + 2
    rows = _tile_rows(wh, h, wd)
    # the first conv runs this many rows ahead of the tile, so that each of
    # its bands starts on a multiple of 8 columns of the image
    ahead = 8 // math.gcd(wd, 8)
    # the most rows the first conv computes in one tile
    span = min(rows + ahead, h)
    band1, band2 = _band_rows(ci, h, wd), _band_rows(wh, h, wd)
    # each conv's last band then runs as _conv3x3 runs it
    ragged = h * wd % 8 != 0
    out = np.empty((b, h, wd, co))
    size = _SLACK + (span + 2) * pitch + _SLACK
    zp = np.zeros((b, ci, size))
    zp[:, 2 * c] = etas[:, None]
    ap = np.zeros((b, wh, size))
    zq, aq = (x[:, :, _SLACK:size - _SLACK].reshape(b, -1, span + 2, pitch)
              for x in (zp, ap))
    op = np.empty((b, co, _SLACK + rows * pitch + _SLACK))
    # a band of n rows has at most n*P + 7 columns
    work = np.empty(b * 9 * max(ci * (min(band1, span) * pitch + 8),
                                wh * (min(band2, rows) * pitch + 8)))
    done = 0  # hidden rows 0..done-1 are computed
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        n = r1 - r0
        if r0:
            # the last tile's final row and the rows it computed ahead
            k = done - r0 + 1
            aq[:, :, :k] = aq[:, :, rows:rows + k]
        end = min(r1 + ahead, h)
        if end > done:
            _stack_rows(zq, x_t, y0_up, done, end)
            k = _SLACK + (done - r0 + 1) * pitch + 1
            _conv3x3_rows(zp, pitch, end - done, p["w1"], band1,
                          ragged and end == h, work, ap, k)
            # the throw-away columns between rows are border cells
            run = ap[:, :, k:k + (end - done) * pitch - 2]
            run += p["b1"][:, None]
            np.maximum(run, 0.0, out=run)
            done = end
        _fill_border(aq[:, :, :n + 2], top=r0 == 0, bottom=r1 == h)
        _conv3x3_rows(ap, pitch, n, p["w2"], band2, ragged and r1 == h,
                      work, op, _SLACK)
        tile = op[:, :, _SLACK:_SLACK + n * pitch].reshape(b, co, n, pitch)[..., :wd]
        np.add(tile.transpose(0, 2, 3, 1), p["b2"], out=out[:, r0:r1])
    return out


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


def _item_loss(x0, x0_hat):
    """The mean squared error of each item, over its last three axes."""
    diff = x0_hat - x0
    return np.mean(diff * diff, axis=(-3, -2, -1))


def _losses_and_gradients(spec, schedule, params, items):
    """Per-item losses (B,) and gradients (B, P) of checked (x0, y0_up, t, x_t) items.

    Items of one image shape share a forward, a backward and an item_loss call.
    """
    losses = np.empty(len(items))
    grads = np.empty((len(items), params.size))
    groups = {}
    for k, item in enumerate(items):
        groups.setdefault(item[0].shape, []).append(k)
    for ks in groups.values():
        x0, y0_up, x_t = (np.stack([items[k][j] for k in ks]) for j in (0, 1, 3))
        ts = [items[k][2] for k in ks]
        out, cache = _forward_whole(spec, schedule, params, x_t, y0_up, ts)
        diff = out - x0
        # d mean((prediction - x0)^2) / d prediction = 2 / size * (prediction - x0)
        gout = (2.0 / diff[0].size) * diff
        grads[ks] = _backward(spec, params, cache, gout)
        losses[ks] = _item_loss(x0, out)
    return losses, grads


def predict(ckpt, x_t, y0_up, t):
    """x0 prediction; the timestep enters as a constant eta_t channel."""
    x_t, y0_up = _check_images(_check_ckpt(ckpt).spec, x_t, y0_up)
    t = _check_t(t, ckpt.schedule().steps)
    with _threads.one_blas_thread():
        return _forward_tiled(ckpt.spec, ckpt.schedule(), ckpt.params,
                              x_t[None], y0_up[None], [t])[0]


def _checked_item(ckpt, item, t, x_t):
    """One item's checked (x0, y0_up, t, x_t), refused past the size bound."""
    x0, y0_up, x_t = _check_images(_check_ckpt(ckpt).spec, *_as_pairs([item])[0],
                                   x_t)
    t = _check_t(t, ckpt.schedule().steps)
    _batch_size(ckpt.spec, 1, x0.shape[0] * x0.shape[1])
    return x0, y0_up, t, x_t


def loss_gradient(ckpt, item, t, x_t):
    """Analytic gradient of the single-item loss w.r.t. every parameter."""
    item = _checked_item(ckpt, item, t, x_t)
    _, grads = _losses_and_gradients(ckpt.spec, ckpt.schedule(), ckpt.params, [item])
    return grads[0]


def item_loss_value(ckpt, item, t, x_t):
    """The loss whose gradient loss_gradient returns, as a Python float."""
    x0, y0_up, t, x_t = _checked_item(ckpt, item, t, x_t)
    out, _ = _forward_whole(ckpt.spec, ckpt.schedule(), ckpt.params,
                            x_t[None], y0_up[None], [t])
    return float(_item_loss(x0, out[0]))


# --- training ----------------------------------------------------------------

@dataclass(frozen=True)
class TrainOptions:
    step_size: float = 1e-2
    steps: int = 500
    batch_size: int = 8

    def __post_init__(self):
        # stored as a plain float and ints, so checkpoints record them as JSON
        object.__setattr__(self, "step_size", _require_positive("step_size", self.step_size))
        object.__setattr__(self, "steps", _require_int("steps", self.steps, 0))
        object.__setattr__(self, "batch_size",
                           _require_int("batch_size", self.batch_size, 1))


def init_checkpoint(spec, cfg):
    """Fresh checkpoint: weights i.i.d. uniform +-0.05, biases zero."""
    _require_type("spec", spec, DenoiserSpec)
    rng = RngStream(_check_cfg(cfg).seed, STREAM_INIT)
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
        # the one forward kernel training and sampling implement; a
        # checkpoint refuses any other recorded value
        "convention": "eq5_variance",
        "seed": cfg.seed,
    }
    return DenoiserCheckpoint(spec=spec, params=params, train_config=train_config)


def _batch_size(spec, batch_size, pixels):
    """Refuse a batch whose step's patch matrices pass errors._MAX_VALUES."""
    _require_size(f"batch_size {batch_size} at {pixels} pixels an image",
                  batch_size * 9 * (spec.channels + spec.hidden_width) * pixels)


def train(dataset, cfg, opt=None, spec=None):
    """Plain SGD on the diffusion loss; deterministic given cfg.seed.

    ``dataset`` is a list of (x_0, y0_up) pairs on the HR grid.  Returns
    the trained checkpoint and the per-step batch losses.
    """
    dataset = _as_pairs(dataset)
    opt = TrainOptions() if opt is None else _require_type("opt", opt, TrainOptions)
    if spec is None:
        (x0,) = _require_arrays(dataset[0][0])
        spec = DenoiserSpec(image_channels=x0.shape[2] if x0.ndim == 3 else 1)
    _require_type("spec", spec, DenoiserSpec)
    dataset = [_check_images(spec, x0, y0_up) for x0, y0_up in dataset]
    _batch_size(spec, opt.batch_size, max(x0.shape[0] * x0.shape[1] for x0, _ in dataset))

    init = init_checkpoint(spec, cfg)
    params = np.array(init.params)
    rng = RngStream(cfg.seed, STREAM_TRAIN)
    history = []
    n = len(dataset)
    for step in range(opt.steps):
        # draw order: the batch indices, then t and the noise of each item
        items = []
        for i in rng.integers(0, n, opt.batch_size):
            x0, y0_up = dataset[int(i)]
            t = int(rng.integers(1, cfg.steps + 1))
            x_t = _marginal(x0, y0_up - x0, t, cfg, rng.standard_normal(x0.shape))
            items.append((x0, y0_up, t, x_t))
        losses, grads = _losses_and_gradients(spec, cfg.schedule, params, items)
        # both sums add the items in order, as the per-item reference does:
        # np.sum would pair the losses, and sum() compensates from Python 3.12
        loss = float(np.cumsum(losses)[-1]) / opt.batch_size
        if not np.isfinite(loss):
            raise TrainingError(
                f"loss became non-finite at step {step} with step_size="
                f"{opt.step_size}; try a smaller step size")
        params -= opt.step_size * (grads.sum(axis=0) / opt.batch_size)
        history.append(loss)
    # every checkpoint is trained on the one loss; the key stays in the metadata
    train_config = dict(init.train_config, step_size=opt.step_size,
                        batch_size=opt.batch_size, weighting="uniform_mse")
    return replace(init, params=params, step_count=opt.steps,
                   train_config=train_config), history


# --- checkpoint file format --------------------------------------------------
# _HEADER: magic "PXBK" | u32 version | u8 kind | u8 image_channels
# | u32 hidden_width | u32 kernel_size | u64 step_count | u32 json_len; then
# json train_config | u64 param_count | param_count * f64, all little-endian.
# Only kind code 2 (conv2) and kernel size 3 load.
_HEADER = struct.Struct("<4sIBBIIQI")


def save_checkpoint(ckpt, path):
    spec, step_count, meta, raw = _check_ckpt(ckpt)._content
    data = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _CONV2_CODE,
                        spec.image_channels, spec.hidden_width, _KERNEL_SIZE, step_count,
                        len(meta)) + meta + struct.pack("<Q", len(raw) // 8) + raw
    with open(path, "wb") as fh:  # after the bytes: a failed save leaves no file
        fh.write(data)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        # zero-filled, a cut-off version reads at most the version written
        magic, version, kind_code, img_c, hidden, ksize, step_count, meta_len = (
            _HEADER.unpack(head.ljust(_HEADER.size, b"\0")))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {head[:4]!r}; not a checkpoint file")
        if version > CHECKPOINT_VERSION:
            raise CheckpointVersionError(f"format version {version} is newer than "
                                         f"supported ({CHECKPOINT_VERSION})")
        if len(head) < _HEADER.size:
            raise CheckpointError(f"truncated checkpoint header of {len(head)} bytes")
        if kind_code != _CONV2_CODE:
            raise CheckpointError(f"unknown denoiser kind code {kind_code}")
        if ksize != _KERNEL_SIZE:
            raise CheckpointError(f"only 3x3 kernels load, got kernel size {ksize}")
        try:
            meta = json.loads(_read_exact(fh, meta_len, "checkpoint metadata",
                                          CheckpointError).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"corrupt metadata: {exc}") from exc
        if not isinstance(meta, dict):
            raise CheckpointError("checkpoint metadata must be a JSON object")
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "checkpoint parameter count",
                                                   CheckpointError))
        raw = _read_exact(fh, 8 * count, "checkpoint parameters", CheckpointError)
        if fh.read(1) != b"":
            raise CheckpointError("trailing bytes after parameter block")
    try:
        spec = DenoiserSpec(image_channels=img_c, hidden_width=hidden)
    except ParameterError as exc:
        raise CheckpointError(f"inconsistent spec fields: {exc}") from exc
    return DenoiserCheckpoint(spec, np.frombuffer(raw, dtype="<f8"), step_count, meta)
