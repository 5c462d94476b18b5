"""Image quality measures: PSNR, SSIM, lightness-order error, edge stats.

PSNR and SSIM follow the conventions of the usual Python measurement
stack (7x7 uniform SSIM window, K1=0.01/K2=0.03, border crop).  LOE
counts pairwise lightness-order flips over a strided subsample of
sites.  The edge report compares mean Sobel magnitudes over
non-overlapping patches.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .imagedata import as_image, check_same_shape

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


def _pair(a, b):
    a = as_image(a)
    b = as_image(b)
    check_same_shape(a, b)
    return a, b


def lightness(img):
    """Per-pixel lightness: the max over channels."""
    return as_image(img).max(axis=2)


def psnr(a, b, data_range=1.0):
    """10*log10(R^2 / MSE); +inf for identical images."""
    a, b = _pair(a, b)
    if not data_range > 0:
        raise ParameterError(f"data_range must be positive, got {data_range}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range ** 2 / mse))


def _ssim_plane(x, y, data_range):
    # imported here: scipy.ndimage is most of the package's import time
    from scipy.ndimage import uniform_filter
    np_win = SSIM_WINDOW * SSIM_WINDOW
    cov_norm = np_win / (np_win - 1.0)  # unbiased sample covariance
    filt = lambda im: uniform_filter(im, size=SSIM_WINDOW)
    ux, uy = filt(x), filt(y)
    vx = cov_norm * (filt(x * x) - ux * ux)
    vy = cov_norm * (filt(y * y) - uy * uy)
    vxy = cov_norm * (filt(x * y) - ux * uy)
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    s = ((2.0 * ux * uy + c1) * (2.0 * vxy + c2)) / \
        ((ux * ux + uy * uy + c1) * (vx + vy + c2))
    pad = (SSIM_WINDOW - 1) // 2
    return float(np.mean(s[pad:-pad, pad:-pad]))


def ssim(a, b, data_range=1.0):
    """Mean local structural similarity, per channel then averaged."""
    a, b = _pair(a, b)
    if min(a.shape[0], a.shape[1]) < SSIM_WINDOW:
        raise ParameterError(
            f"image {a.shape[:2]} is smaller than the {SSIM_WINDOW}x"
            f"{SSIM_WINDOW} window")
    if not data_range > 0:
        raise ParameterError(f"data_range must be positive, got {data_range}")
    vals = [_ssim_plane(a[:, :, c], b[:, :, c], data_range)
            for c in range(a.shape[2])]
    return float(np.mean(vals))


def _loe_sites(plane, grid):
    h, w = plane.shape
    rows = np.arange(0, h, -(-h // grid))  # ceil stride keeps <= grid sites
    cols = np.arange(0, w, -(-w // grid))
    return plane[np.ix_(rows, cols)].ravel()


def _strict_inversions(r):
    """Pairs i < j with r[i] > r[j], by a bottom-up merge count."""
    n = r.size
    pos = np.arange(n)
    key = n + 1  # exceeds every rank, so block * key + rank sorts by block first
    s = r.astype(np.int64)  # sorted within blocks of `width`
    count = 0
    width = 1
    while width < n:
        block = pos // width
        right = block % 2 == 1
        # a right block's element counts the ranks above it in the block before
        idx = np.searchsorted(block * key + s, (block[right] - 1) * key + s[right],
                              side="right")
        count += int((block[right] * width - idx).sum())
        width *= 2
        base = (pos // width) * key
        s = np.sort(base + s, kind="stable") - base
    return count


def _tied_pairs(*keys):
    """Pairs of sites equal in every key, given sites in lexicographic key order."""
    change = np.zeros(keys[0].size + 1, dtype=bool)
    change[0] = change[-1] = True
    for k in keys:
        change[1:-1] |= k[1:] != k[:-1]
    runs = np.diff(np.flatnonzero(change))
    return int((runs * (runs - 1) // 2).sum())


def loe(enhanced, original, grid=LOE_GRID_DEFAULT):
    """Mean pairwise lightness-order flips over strided sample sites.

    0 means the enhanced image preserves the original's lightness order
    everywhere (on the sampled sites); larger is worse.  Values are only
    comparable at a fixed grid setting.

    A site's flips are the other sites j where [u_i >= u_j] differs from
    [v_i >= v_j].  Over all sites that totals two per discordant pair and
    one per pair tied in exactly one of u, v, which is counted exactly in
    O(n log n) instead of from n x n order matrices.
    """
    enhanced, original = _pair(enhanced, original)
    if not 1 <= grid <= LOE_GRID_MAX:
        raise ParameterError(f"grid must be in 1..{LOE_GRID_MAX}, got {grid}")
    u = _loe_sites(lightness(enhanced), grid)
    v = _loe_sites(lightness(original), grid)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    v_sorted = np.sort(v)
    # in (u, v) order a discordant pair is a strict inversion of v's ranks
    discordant = _strict_inversions(np.searchsorted(v_sorted, v))
    tied_u = _tied_pairs(u)
    tied_v = _tied_pairs(v_sorted)
    tied_uv = _tied_pairs(u, v)
    flips = 2 * discordant + (tied_u - tied_uv) + (tied_v - tied_uv)
    return flips / u.size


def sobel_magnitude(img):
    """Gradient magnitude sqrt(Gx^2 + Gy^2) of the lightness plane."""
    # imported here: scipy.ndimage is most of the package's import time
    from scipy.ndimage import correlate
    plane = lightness(img)
    gx = correlate(plane, SOBEL_X, mode="nearest")
    gy = correlate(plane, SOBEL_Y, mode="nearest")
    return np.sqrt(gx * gx + gy * gy)


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
    a, b = _pair(a, b)
    if patch < 2:
        raise ParameterError(f"patch must be >= 2, got {patch}")
    if a.shape[0] < patch or a.shape[1] < patch:
        raise ParameterError(
            f"image {a.shape[:2]} is smaller than one {patch}x{patch} patch")
    mag_a = sobel_magnitude(a)
    mag_b = sobel_magnitude(b)
    pm_a = _patch_means(mag_a, patch)
    pm_b = _patch_means(mag_b, patch)
    return EdgeReport(magnitude_a=mag_a, magnitude_b=mag_b,
                      patch_means_a=pm_a, patch_means_b=pm_b,
                      diff=pm_a - pm_b, patch=patch)


def intensity_profile(img, row):
    """Lightness values along one row; length equals the image width."""
    plane = lightness(img)
    if not 0 <= row < plane.shape[0]:
        raise IndexError(f"row {row} outside 0..{plane.shape[0] - 1}")
    return plane[row].copy()


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
    lines = [",".join(repr(float(v)) for v in row) for row in np.asarray(grid)]
    return "\n".join(lines) + "\n"


def metric_report(gt, test, gt_id="gt", test_id="test", grid=LOE_GRID_DEFAULT,
                  data_range=1.0):
    """One-stop comparison used by the command-line front end."""
    gt, test = _pair(gt, test)
    return MetricReport(gt_id=gt_id, test_id=test_id,
                        psnr_db=psnr(gt, test, data_range),
                        ssim=ssim(gt, test, data_range),
                        loe=loe(test, gt, grid=grid),
                        loe_grid=grid)
