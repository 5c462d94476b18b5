"""Image quality measures: PSNR, SSIM, lightness-order error, edge stats.

PSNR and SSIM follow the conventions of the usual Python measurement
stack (7x7 uniform SSIM window, K1=0.01/K2=0.03, border crop).  LOE
counts pairwise lightness-order flips over a strided subsample of
sites.  The edge report compares mean Sobel magnitudes over
non-overlapping patches.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, _require_arrays, _require_int, _shown
from .imagedata import _image_pair, as_image

# the peak value of the [0, 1] image contract, which PSNR and SSIM assume
_DATA_RANGE = 1.0
SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03
LOE_GRID_DEFAULT = 64
LOE_GRID_MAX = 64  # grid must lie in 1..LOE_GRID_MAX
EDGE_PATCH_DEFAULT = 7

SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T


def lightness(img):
    """Per-pixel lightness: the max over channels."""
    return as_image(img).max(axis=2)


def psnr(a, b):
    """10*log10(R^2 / MSE) with R = _DATA_RANGE; +inf for identical images."""
    return _psnr(*_image_pair(a, b))


def _psnr(a, b):
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(_DATA_RANGE ** 2 / mse))


# Values (1 MiB) that one band's working arrays hold together: SSIM and
# the Sobel filters run a band of rows at a time, so their working set
# stays in cache and their memory stays flat however large the image.
_BAND_VALUES = 1 << 17


def _reflect_index(n, r):
    """Indices of a length-n axis padded by r <= n in reflect mode (dcba|abcd|dcba)."""
    i = np.arange(-r, n + r)
    i = np.maximum(i, ~i)
    return np.minimum(i, 2 * n - 1 - i)


def _moment_bands(x, y):
    """Local means of x, y, x*x, y*y and x*y over the SSIM window, by bands of rows.

    Yields ``(row, means)``: ``means[k, i, SSIM_WINDOW - 1:]`` is the k-th
    map's mean at image row ``row + i``; the first ``SSIM_WINDOW - 1``
    columns hold partial windows.  The caller may overwrite ``means``; the
    next band reuses its memory.

    The means are scipy.ndimage.uniform_filter's, bit for bit: reflect
    padding, then along axis 0 and then axis 1 a running sum that starts at
    0.0 with each line's first window, adds (entering - leaving) per step,
    and divides each output by the window size.
    """
    win, r = SSIM_WINDOW, SSIM_WINDOW // 2
    h, w = x.shape
    hp, wp = h + 2 * r, w + 2 * r
    src = _reflect_index(h, r)
    band = min(hp, max(win, _BAND_VALUES // (10 * wp)))
    # rows[:, win:] holds a band's padded rows and rows[:, :win] the win
    # rows before them: zeros before the first band, where entering - 0.0
    # is the entering value
    rows = np.zeros((5, win + band, wp))
    # axis-0 running sums, one row per padded row; row 0 carries in the
    # previous band's last sums, and 0.0 into the first band, from which
    # scipy sums each line's first window
    sums = np.zeros((1 + band, 5, wp))
    lines = list(sums)
    for j0 in range(0, hp, band):
        n = min(band, hp - j0)
        cur = rows[:, win:win + n]
        xs, ys = x[src[j0:j0 + n]], y[src[j0:j0 + n]]
        mid = cur[..., r:-r]
        mid[0] = xs
        mid[1] = ys
        np.multiply(xs, xs, out=mid[2])
        np.multiply(ys, ys, out=mid[3])
        np.multiply(xs, ys, out=mid[4])
        cur[..., :r] = cur[..., 2 * r - 1:r - 1:-1]
        cur[..., -r:] = cur[..., -r - 1:-2 * r - 1:-1]
        np.subtract(cur, rows[:, :n], out=sums[1:1 + n].transpose(1, 0, 2))
        rows[:, :win] = rows[:, n:n + win]
        # in order down the rows, each add across all five maps' columns
        for prev, line in zip(lines, lines[1:1 + n]):
            np.add(prev, line, out=line)
        sums[0] = sums[n]
        # padded rows before win - 1 hold partial windows, not outputs
        first = max(0, win - 1 - j0)
        count = n - first
        mean0 = sums[1 + first:1 + n].transpose(1, 0, 2)
        mean0 /= win
        # axis 1, into rows' spent band; a running sum is never -0.0, so
        # here a line's first value needs no 0.0 +
        means = rows[:, win:win + count]
        means[..., :win] = mean0[..., :win]
        np.subtract(mean0[..., win:], mean0[..., :-win], out=means[..., win:])
        np.cumsum(means, axis=2, out=means)
        means /= win
        yield j0 + first - (win - 1), means


def _ssim_plane(x, y):
    np_win = SSIM_WINDOW * SSIM_WINDOW
    cov_norm = np_win / (np_win - 1.0)  # unbiased sample covariance
    c1 = (SSIM_K1 * _DATA_RANGE) ** 2
    c2 = (SSIM_K2 * _DATA_RANGE) ** 2
    s = np.empty(x.shape)
    cols = slice(SSIM_WINDOW - 1, None)
    # s = ((2 ux uy + c1)(2 vxy + c2)) / ((ux ux + uy uy + c1)(vx + vy + c2))
    # with v = cov_norm (mean of product - product of means), computed in
    # place in that order of operations; vx, vy and vxy start as the means
    # of x*x, y*y and x*y
    for row, (ux, uy, vx, vy, vxy) in _moment_bands(x, y):
        den = ux * ux
        t = uy * uy
        vx -= den
        vx *= cov_norm
        vy -= t
        vy *= cov_norm
        den += t
        den += c1
        vx += vy
        vx += c2
        den *= vx
        np.multiply(ux, uy, out=t)
        vxy -= t
        vxy *= cov_norm
        vxy *= 2.0
        vxy += c2
        np.multiply(ux, 2.0, out=t)
        t *= uy
        t += c1
        t *= vxy
        np.divide(t[:, cols], den[:, cols], out=s[row:row + len(t)])
    pad = (SSIM_WINDOW - 1) // 2
    return float(np.mean(s[pad:-pad, pad:-pad]))


def ssim(a, b):
    """Mean local structural similarity, per channel then averaged."""
    return _ssim(*_image_pair(a, b))


def _ssim(a, b):
    if min(a.shape[0], a.shape[1]) < SSIM_WINDOW:
        raise ParameterError(
            f"image {a.shape[:2]} is smaller than the {SSIM_WINDOW}x"
            f"{SSIM_WINDOW} window")
    vals = [_ssim_plane(a[:, :, c], b[:, :, c]) for c in range(a.shape[2])]
    return float(np.mean(vals))


def _loe_sites(plane, grid):
    h, w = plane.shape
    # ceil strides keep <= grid sites per axis
    return plane[::-(-h // grid), ::-(-w // grid)].ravel()


# Sites per block in _inversions' first pass, which compares every
# pair inside a block at once; merge levels take over from this width.
_INVERSION_BLOCK = 16
_UPPER = np.triu(np.ones((_INVERSION_BLOCK, _INVERSION_BLOCK), dtype=bool), 1)


def _inversions(r):
    """Pairs i < j with r[i] > r[j], for integer ranks in 0..r.size - 1.

    A bottom-up merge count over whole arrays: padded to a power of two
    with the rank r.size, which sorts last and inverts with nothing, each
    block of _INVERSION_BLOCK counts its pairs by one broadcast
    comparison; then each level counts, for every right half of a pair of
    sorted blocks, the left half's ranks above it by one searchsorted, and
    merges the pairs by one sort.
    """
    n = r.size
    if n < 2:
        return 0
    m = 1 << (n - 1).bit_length()
    width = min(_INVERSION_BLOCK, m)
    s = np.full((m // width, width), n, dtype=np.int64)
    s.ravel()[:n] = r
    count = int(np.count_nonzero((s[:, :, None] > s[:, None, :])
                                 & _UPPER[:width, :width]))
    s.sort(axis=1)
    while width < m:
        pairs = s.reshape(-1, 2, width)
        k = len(pairs)
        # pair i's ranks offset by i * (n + 1) keep every search in its pair
        base = np.arange(0, k * (n + 1), n + 1)[:, None]
        below = np.searchsorted((pairs[:, 0] + base).ravel(),
                                (pairs[:, 1] + base).ravel(), side="right")
        # pair i's right half finds (i + 1) * width - below[j] ranks above it
        count += width * width * k * (k + 1) // 2 - int(below.sum())
        # two sorted runs: the stable sort merges them in one pass
        s = np.sort(pairs.reshape(k, 2 * width), axis=1, kind="stable")
        width *= 2
    return count


def _loe_grid(grid):
    grid = _require_int("grid", grid)
    if not 1 <= grid <= LOE_GRID_MAX:
        raise ParameterError(f"grid must be in 1..{LOE_GRID_MAX}, got {_shown(grid)}")
    return grid


def _pairs_within(counts):
    """Pairs within groups of the given sizes."""
    return int((counts * (counts - 1) // 2).sum())


def loe(enhanced, original, grid=LOE_GRID_DEFAULT):
    """Mean pairwise lightness-order flips over strided sample sites.

    0 means the enhanced image preserves the original's lightness order
    everywhere (on the sampled sites); larger is worse.  Values are only
    comparable at a fixed grid setting.

    A site's flips are the other sites j where [u_i >= u_j] differs from
    [v_i >= v_j].  Over all sites that totals two per discordant pair and
    one per pair tied in exactly one of u, v.  Both are counted exactly,
    in integers, in O(n log n) and a few whole-array passes: one sort each
    gives u's and v's dense ranks and their ties, one sort of the key
    rank_u * n + rank_v gives the (u, v) order and its ties, and the
    discordant pairs are the strict inversions of v's ranks in that order
    (Knight's merge count for Kendall's tau).  At the default 4096 sites
    a call takes 1.5-1.8 ms on a 2-vCPU Xeon; the n x n order matrices
    take about 28 ms.
    """
    return _loe(*_image_pair(enhanced, original), _loe_grid(grid))


def _loe(enhanced, original, grid):
    u = _loe_sites(enhanced.max(axis=2), grid)
    v = _loe_sites(original.max(axis=2), grid)
    n = u.size
    # -0.0 == +0.0, so signed zeros share a rank
    _, rank_u, counts_u = np.unique(u, return_inverse=True, return_counts=True)
    _, rank_v, counts_v = np.unique(v, return_inverse=True, return_counts=True)
    keys, counts_uv = np.unique(rank_u * n + rank_v, return_counts=True)
    # in (u, v) order a discordant pair is a strict inversion of v's ranks
    discordant = _inversions(np.repeat(keys % n, counts_uv))
    tied_uv = _pairs_within(counts_uv)
    flips = (2 * discordant + (_pairs_within(counts_u) - tied_uv)
             + (_pairs_within(counts_v) - tied_uv))
    return flips / n


def _correlate3(p, weights):
    """``weights`` correlated with an edge-padded plane, as scipy.ndimage.correlate.

    Each output sums its non-zero taps in C order from 0.0; a weight of
    +-1 or +-2 makes every product exact, so every bit matches.
    """
    h, w = p.shape[0] - 2, p.shape[1] - 2
    g = np.zeros((h, w))
    product = np.empty((h, w))
    for (i, j), weight in np.ndenumerate(weights):
        if weight:
            g += np.multiply(p[i:i + h, j:j + w], weight, out=product)
    return g


def sobel_magnitude(img):
    """Gradient magnitude sqrt(Gx^2 + Gy^2) of the lightness plane."""
    return _sobel(lightness(img))


def _sobel(plane):
    h, w = plane.shape
    p = np.empty((h + 2, w + 2))  # the plane, edge-padded by one
    p[1:-1, 1:-1] = plane
    p[0], p[-1] = p[1], p[-2]
    p[:, 0], p[:, -1] = p[:, 1], p[:, -2]
    mag = np.empty((h, w))
    band = max(1, _BAND_VALUES // (4 * w))
    for r0 in range(0, h, band):
        rows = p[r0:r0 + band + 2]
        gx = _correlate3(rows, SOBEL_X)
        gy = _correlate3(rows, SOBEL_Y)
        gx *= gx
        gy *= gy
        gx += gy
        np.sqrt(gx, out=mag[r0:r0 + len(gx)])
    return mag


def _edge_patch(patch):
    return _require_int("patch", patch, 2)


def _patch_means(mag, patch):
    nh, nw = mag.shape[0] // patch, mag.shape[1] // patch
    trimmed = mag[: nh * patch, : nw * patch]
    return trimmed.reshape(nh, patch, nw, patch).mean(axis=(1, 3))


@dataclass(frozen=True)
class EdgeReport:
    magnitude_a: np.ndarray
    magnitude_b: np.ndarray
    patch_means_a: np.ndarray
    patch_means_b: np.ndarray
    diff: np.ndarray  # patch_means_a - patch_means_b
    patch: int


def edge_report(a, b, patch=EDGE_PATCH_DEFAULT):
    """Sobel magnitudes plus per-patch mean comparisons.

    Patches are non-overlapping patch x patch cells; partial cells at
    the right/bottom edges are dropped.
    """
    a, b = _image_pair(a, b)
    patch = _edge_patch(patch)
    if a.shape[0] < patch or a.shape[1] < patch:
        raise ParameterError(
            f"image {a.shape[:2]} is smaller than one {_shown(patch)}-wide patch")
    mag_a = _sobel(a.max(axis=2))
    mag_b = _sobel(b.max(axis=2))
    pm_a = _patch_means(mag_a, patch)
    pm_b = _patch_means(mag_b, patch)
    return EdgeReport(magnitude_a=mag_a, magnitude_b=mag_b,
                      patch_means_a=pm_a, patch_means_b=pm_b,
                      diff=pm_a - pm_b, patch=patch)


@dataclass(frozen=True)
class MetricReport:
    gt_id: str
    test_id: str
    psnr_db: float
    ssim: float
    loe: float
    loe_grid: int = LOE_GRID_DEFAULT

    def csv(self):
        header = "gt,test,psnr_db,ssim,loe,loe_grid"
        row = (f"{self.gt_id},{self.test_id},{self.psnr_db!r},"
               f"{self.ssim!r},{self.loe!r},{self.loe_grid}")
        return header + "\n" + row + "\n"


def grid_csv(grid):
    """A 2-D array as CSV rows with full-precision floats."""
    (grid,) = _require_arrays(grid)
    if grid.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {grid.shape}")
    lines = [",".join(repr(float(v)) for v in row) for row in grid]
    return "\n".join(lines) + "\n"


def metric_report(gt, test, gt_id="gt", test_id="test", grid=LOE_GRID_DEFAULT):
    """One-stop comparison used by the command-line front end."""
    gt, test = _image_pair(gt, test)
    grid = _loe_grid(grid)  # refused before PSNR and SSIM are computed
    return MetricReport(gt_id=gt_id, test_id=test_id,
                        psnr_db=_psnr(gt, test),
                        ssim=_ssim(gt, test),
                        loe=_loe(test, gt, grid),
                        loe_grid=grid)
