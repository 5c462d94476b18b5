"""Image tensors, the bicubic x4 degradation pipeline, and PGM/PPM I/O.

Images are float64 arrays of shape (H, W, C) with C = 1 or 3 and values
nominally in [0, 1].  Values may leave [0, 1] mid-diffusion; only the
codec clamps, and only on write.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (_MAX_VALUES, CodecError, ParameterError, ShapeError,
                     UnsupportedFormatError, _read_exact, _require_arrays,
                     _require_int, _require_positive, _require_size, _require_type,
                     _shown)
from .noise import RngStream


def as_image(arr):
    """Coerce to a float64 (H, W, C) image array, validating the contract."""
    (a,) = _require_arrays(arr)
    if a.ndim == 2:
        a = a[:, :, None]
    if a.ndim != 3 or a.shape[2] not in (1, 3):
        raise ShapeError(f"expected (H, W, C) with C in {{1, 3}}, got {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"image dims must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("image contains non-finite values")
    return a


def _image_pair(a, b):
    """Two images of one shape, each converted and checked once, as by as_image."""
    return _require_arrays(as_image(a), as_image(b))


@dataclass(frozen=True)
class SrPair:
    """A HR image with its x4 degradation products."""

    hr: np.ndarray
    lr: np.ndarray
    lr_up: np.ndarray

    @property
    def delta0(self):
        """The residual lr_up - hr, on the HR grid."""
        return self.lr_up - self.hr


# --- bicubic resampling ------------------------------------------------------

def _cubic_kernel(x):
    """Cubic convolution kernel, a = -0.5 (Catmull-Rom family)."""
    x = np.abs(x)
    return np.where(x <= 1.0, (1.5 * x - 2.5) * x * x + 1.0,
                    np.where(x < 2.0, ((-0.5 * x + 2.5) * x - 4.0) * x + 2.0, 0.0))


def _taps(n_in, n_out):
    """Each output's four taps, positions and weights (4, n_out), centred on
    src = (dst + 0.5) * n_in/n_out - 0.5.  Border-clipped taps add to the
    border's weight in kernel order; a tap past the image's end weighs 0."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) / (n_out / n_in) - 0.5
    base = np.floor(src).astype(np.int64)
    frac = src - base
    first = np.clip(base - 1, 0, n_in - 1)
    weights = np.zeros((4, n_out))
    for k in range(-1, 3):
        tap = np.clip(base + k, 0, n_in - 1) - first
        weights[tap, np.arange(n_out)] += _cubic_kernel(frac - k)
    return np.minimum(first + np.arange(4)[:, None], n_in - 1), weights


# A resize sums each output's taps, columns then rows, as numpy 2.4's einsum
# over the dense (n_out, n_in) matrices of _taps (the tests' reference) sums
# a C-contiguous image: from +0.0, a contiguous axis (grey columns,
# one-value-wide rows) in two SIMD lanes, (even taps) + (odd taps), any
# other in position order.  A lane's two taps commute, zero weights change
# no sum, and the +0.0 start turns -0.0 into +0.0.  A band's taps: 256 KiB.
_BAND_VALUES = 1 << 13


@lru_cache(maxsize=16)
def _pass_taps(axis, h, w, c, n_out):
    """_resample's read-only plan for axis ``axis`` of an (h, w, c) array: its
    output shape, whether it sums by parity, and per band of output rows its
    first row r0 and its taps' index and weights (4, rows, ...); a column pass
    indexes its input's values from row r0 on, a row pass the input's rows."""
    index, weights = _taps(w if axis else h, n_out)
    if axis:  # offsets within a band's own rows, the same for every band
        rows = min(h, max(1, _BAND_VALUES // (n_out * c)))
        index = (np.arange(rows)[:, None, None] * w + index[:, None, :, None]) * c
        index = (index + np.arange(c)).reshape(4, rows, -1)
        weights = np.broadcast_to(weights[:, None, :, None], (4, rows, n_out, c))
    else:  # one band's weights span its rows, sparing a small pass a broadcast
        rows = max(1, _BAND_VALUES // (w * c))
        weights = np.repeat(weights[..., None], w * c if rows >= n_out else 1, axis=2)
    weights = np.ascontiguousarray(weights).reshape(index.shape[:2] + (-1,))
    index.flags.writeable = weights.flags.writeable = False
    parts = [(r0, slice(0, min(rows, h - r0)) if axis else slice(r0, r0 + rows))
             for r0 in range(0, h if axis else n_out, rows)]
    bands = [(r0, index[:, part], weights[:, part]) for r0, part in parts]
    return ((h, n_out, c) if axis else (n_out, w, c)), (c if axis else w * c) == 1, bands


def _resample(x, axis, n_out):
    """Axis 0 or 1 of an (H, W, C) array resampled to ``n_out`` (see above)."""
    shape, by_parity, bands = _pass_taps(axis, *x.shape, n_out)
    out = np.empty((shape[0], shape[1] * shape[2]))
    flat = x.reshape(len(x), -1)
    for r0, index, weights in bands:
        taps = flat[r0:].take(index) if axis else flat.take(index, axis=0)
        taps *= weights
        if by_parity:
            taps = taps[:2] + taps[2:]
        # each output's terms in order, from +0.0
        np.add.reduce(taps, axis=0, out=out[r0:r0 + taps.shape[1]], initial=0.0)
    return out.reshape(shape)


def bicubic_resize(img, scale):
    """Separable bicubic resize by a rational scale factor.

    Dimensions are rounded to the nearest integer; scale 1 returns the
    input values unchanged.
    """
    img = as_image(img)
    _require_positive("scale", scale)
    h, w, _ = img.shape
    # the most output pixels: 8192^2, sr of a 2048^2 LR image, about 0.63 GiB
    # at the resize's peak in grey.  sr_512's 512^2 is 1/256 of it.
    if h * scale * w * scale > _MAX_VALUES:
        raise ParameterError(f"scale {scale} takes {h}x{w} past {_MAX_VALUES} pixels")
    h_out, w_out = int(round(h * scale)), int(round(w * scale))
    if h_out < 1 or w_out < 1:
        raise ParameterError(f"scale {scale} collapses {h}x{w} to {h_out}x{w_out}")
    return _resample(_resample(img, 1, w_out), 0, h_out)


def make_lr_pair(hr):
    """Degrade a HR image: bicubic 1/4 down, bicubic x4 back up, residual."""
    hr = as_image(hr)
    if hr.shape[0] % 4 or hr.shape[1] % 4:
        raise ParameterError(f"HR dims must be divisible by 4, got {hr.shape[:2]}")
    lr = _resample(_resample(hr, 1, hr.shape[1] // 4), 0, hr.shape[0] // 4)
    lr_up = _resample(_resample(lr, 1, hr.shape[1]), 0, hr.shape[0])
    return SrPair(hr=hr, lr=lr, lr_up=lr_up)


# --- synthetic datasets ------------------------------------------------------

# An image is filled a band of rows at a time, about this many values a
# band, in a few band-sized work arrays that stay in cache.  Each kind
# draws its scalars before it fills any pixel, as no draw depends on one,
# and its filler computes a pixel by the operations, operands and order of
# one whole-image expression, so no value depends on the band size.
_SYNTH_BAND = 1 << 15


def _gradient(size, rng):
    """A linear ramp at a random angle, stretched to [lo, hi + 0.05]."""
    axis = np.arange(size) / (size - 1)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    cols, rows = np.cos(theta) * axis, np.sin(theta) * axis  # ramp = cols + rows
    lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
    # rounding is monotone, so these are the whole ramp's extremes bit for bit
    rmin, rmax = cols.min() + rows.min(), cols.max() + rows.max()
    gain, span = hi - lo + 0.05, rmax - rmin

    def fill(out, band, work):
        np.add(cols, rows[band, None], out=out)
        np.subtract(out, rmin, out=out)
        np.multiply(gain, out, out=out)
        np.divide(out, span, out=out)
        np.add(lo, out, out=out)
        np.clip(out, 0.0, 1.0, out=out)
    return fill


def _checker(size, rng):
    """A two-level board whose cells and phases snap to the x4 grid."""
    # cells of >= 8 px stay >= 2 px after downsampling, and aligned edges
    # make the round trip blurry but unambiguous, so the board is structure
    # a model can re-sharpen
    cell = 4 * int(rng.integers(2, size // 4 + 1))
    phase_y = 4 * int(rng.integers(0, cell // 4))
    phase_x = 4 * int(rng.integers(0, cell // 4))
    lo = rng.uniform(0.0, 0.4)
    hi = rng.uniform(0.6, 1.0)
    axis = np.arange(size)
    # a pixel's parity is its row's plus its column's, mod 2: an even row
    # reads levels[0], an odd one levels[1]
    rows = (axis + phase_y) // cell % 2
    cols = (axis + phase_x) // cell % 2
    levels = np.where(np.stack([cols, 1 - cols]) > 0, hi, lo)

    def fill(out, band, work):
        # mode="clip" writes to out unbuffered; every index is 0 or 1
        levels.take(rows[band], axis=0, out=out, mode="clip")
    return fill


def _blobs(size, rng):
    """One to four Gaussian bumps on a flat base."""
    # widths of >= 2 px survive x4 decimation as blurred bumps whose lost
    # peak amplitude a model can restore
    base = rng.uniform(0.05, 0.35)
    axis = np.arange(size)
    bumps = []
    for _ in range(int(rng.integers(1, 5))):
        cy = rng.uniform(0.15 * size, 0.85 * size)
        cx = rng.uniform(0.15 * size, 0.85 * size)
        width = rng.uniform(0.13 * size, 0.3 * size)
        amp = rng.uniform(0.3, 0.65)
        bumps.append(((axis - cy) ** 2, (axis - cx) ** 2, 2 * width**2, amp))

    def fill(out, band, work):
        term = work[0]
        out.fill(base)
        for dy2, dx2, spread, amp in bumps:
            np.add(dy2[band, None], dx2, out=term)
            np.negative(term, out=term)
            np.divide(term, spread, out=term)
            np.exp(term, out=term)
            np.multiply(amp, term, out=term)
            np.add(out, term, out=out)
        np.clip(out, 0.0, 1.0, out=out)
    return fill


def _mixed(size, rng):
    """A checkerboard modulated by a ramp and blobs."""
    # superpose all three structures, edge-dominant: a checkerboard base
    # modulated by smooth ramps and blobs keeps difficulty homogeneous
    # and leaves recoverable sharp structure in every image
    gradient, blobs = _gradient(size, rng), _blobs(size, rng)
    weight = rng.uniform(0.65, 0.9)
    checker = _checker(size, rng)

    def fill(out, band, work):
        smooth, board = work[0], work[1]
        gradient(out, band, work)
        blobs(smooth, band, work[1:])
        np.multiply(0.55, out, out=out)
        np.multiply(0.45, smooth, out=smooth)
        np.add(out, smooth, out=out)
        checker(board, band, work)
        np.multiply(weight, board, out=board)
        np.multiply(1 - weight, out, out=out)
        np.add(board, out, out=out)
        np.clip(out, 0.0, 1.0, out=out)
    return fill


SYNTH_KINDS = ("gradients", "checkers", "blobs", "mixed")
_SYNTH_FILLERS = dict(zip(SYNTH_KINDS, (_gradient, _checker, _blobs, _mixed)))


def synth_dataset(kind, count, size, rng):
    """Deterministic-per-seed synthetic HR images in [0, 1], shape (size, size, 1)."""
    if not isinstance(kind, str) or kind not in SYNTH_KINDS:
        raise ParameterError(f"kind must be one of {SYNTH_KINDS}, got {_shown(kind)}")
    count = _require_int("count", count, 1)
    size = _require_int("size", size)
    if size % 4:
        raise ParameterError(f"size must be divisible by 4, got {size}")
    if size < 8:
        raise ParameterError(f"size must be at least 8, got {size}")
    _require_size("count * size**2", count * size * size)
    _require_type("rng", rng, RngStream)
    rows = min(size, max(1, _SYNTH_BAND // size))
    work = np.empty((2, rows, size))
    images = []
    for _ in range(count):
        fill = _SYNTH_FILLERS[kind](size, rng)
        img = np.empty((size, size))
        for r0 in range(0, size, rows):
            band = slice(r0, min(r0 + rows, size))
            fill(img[band], band, work[:, :band.stop - r0])
        images.append(img[:, :, None])
    return images


# --- PGM (P5) / PPM (P6) codec, binary, maxval 255 ---------------------------

def quantize(img):
    """Clamp to [0, 1] then round-half-up to a uint8 byte image."""
    img = as_image(img)
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def write_image(img, path):
    """Write a PGM (1 channel) or PPM (3 channels) binary file, maxval 255."""
    data = write_image_bytes(img)  # before open: a bad image leaves no file
    with open(path, "wb") as fh:
        fh.write(data)


def _read_token(fh):
    # netpbm tokens are whitespace separated; '#' starts a comment to EOL
    token = b""
    while True:
        ch = fh.read(1)
        if ch == b"":
            if token:
                return token
            raise CodecError("unexpected end of header")
        if ch == b"#":
            while ch not in (b"", b"\n"):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        if len(token) == 20:  # a u64's digits; keeps the byte-at-a-time growth short
            raise CodecError("header token longer than 20 bytes")
        token += ch


def read_image(path):
    """Read a binary PGM/PPM file back to a float image with values k/255."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        channels = {b"P5": 1, b"P6": 3}.get(magic)
        if channels is None:
            raise UnsupportedFormatError(f"unsupported magic {magic!r}; need P5 or P6")
        try:
            width, height, maxval = [int(_read_token(fh)) for _ in range(3)]
        except ValueError as exc:
            raise CodecError(f"malformed header: {exc}") from exc
        if width < 1 or height < 1:
            raise CodecError(f"bad dimensions {width}x{height}")
        if maxval != 255:
            raise UnsupportedFormatError(f"only maxval 255 is supported, got {maxval}")
        payload = _read_exact(fh, width * height * channels, "payload", CodecError)
    data = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return data.astype(np.float64) / 255.0


def write_image_bytes(img):
    """The PGM/PPM file contents of an image, exactly as write_image writes them."""
    data = quantize(img)
    h, w, c = data.shape
    magic = b"P5" if c == 1 else b"P6"
    return magic + b"\n%d %d\n255\n" % (w, h) + data.tobytes()


def image_roundtrip(img, path):
    """Write then re-read; the result equals quantize(img)/255 exactly."""
    write_image(img, path)
    return read_image(path)
