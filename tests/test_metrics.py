"""PSNR, SSIM, lightness-order error, and Sobel edge statistics."""

import numpy as np
import pytest
from scipy.ndimage import correlate, uniform_filter

from pixelboost import ParameterError, ShapeError, imagedata, metrics
from pixelboost.metrics import (EDGE_PATCH_DEFAULT, LOE_GRID_DEFAULT,
                                SOBEL_X, SOBEL_Y, SSIM_K1, SSIM_K2,
                                SSIM_WINDOW, MetricReport, _correlate3,
                                _inversions, _loe_sites, _moment_bands,
                                _patch_means, edge_report, grid_csv,
                                lightness, loe, metric_report, psnr,
                                sobel_magnitude, ssim)
from pixelboost.noise import RngStream


def _random_image(shape, seed=0):
    return RngStream(seed, 5).uniform(0.0, 1.0, shape)


def _ref_loe(enhanced, original, grid=LOE_GRID_DEFAULT):
    """LOE from the two n x n lightness-order matrices, as first written."""
    sites = lambda img: _loe_sites(lightness(img), grid)
    u, v = sites(enhanced), sites(original)
    order_u = u[:, None] >= u[None, :]
    order_v = v[:, None] >= v[None, :]
    flips = (order_u ^ order_v).sum(axis=1)
    return float(flips.mean())


def _ref_ssim(a, b):
    """SSIM with scipy's uniform_filter, as first written."""
    def plane(x, y):
        np_win = SSIM_WINDOW * SSIM_WINDOW
        cov_norm = np_win / (np_win - 1.0)
        filt = lambda im: uniform_filter(im, size=SSIM_WINDOW)
        ux, uy = filt(x), filt(y)
        vx = cov_norm * (filt(x * x) - ux * ux)
        vy = cov_norm * (filt(y * y) - uy * uy)
        vxy = cov_norm * (filt(x * y) - ux * uy)
        c1, c2 = SSIM_K1 ** 2, SSIM_K2 ** 2
        s = ((2.0 * ux * uy + c1) * (2.0 * vxy + c2)) / \
            ((ux * ux + uy * uy + c1) * (vx + vy + c2))
        pad = (SSIM_WINDOW - 1) // 2
        return float(np.mean(s[pad:-pad, pad:-pad]))

    a, b = np.atleast_3d(a), np.atleast_3d(b)
    return float(np.mean([plane(a[:, :, c], b[:, :, c])
                          for c in range(a.shape[2])]))


def _ref_sobel_magnitude(img):
    """The Sobel magnitude with scipy's correlate, as first written."""
    plane = lightness(img)
    gx = correlate(plane, SOBEL_X, mode="nearest")
    gy = correlate(plane, SOBEL_Y, mode="nearest")
    return np.sqrt(gx * gx + gy * gy)


def _planes(shape, seed):
    """Random, 8-bit, constant, negative and signed-zero planes."""
    rng = np.random.default_rng(seed)
    return [rng.random(shape),
            rng.integers(0, 256, shape) / 255.0,
            np.full(shape, 0.3),
            rng.standard_normal(shape) - 1.0,
            np.where(rng.random(shape) < 0.7, -0.0, 0.0)]


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def _assert_box_filter_matches(x, y):
    """The five SSIM moment means, from the filter's bands, against scipy's."""
    means = np.empty((5,) + x.shape)
    for row, band in _moment_bands(x, y):
        means[:, row:row + band.shape[1]] = band[..., SSIM_WINDOW - 1:]
    for m, plane in enumerate([x, y, x * x, y * y, x * y]):
        _assert_same_bits(means[m], uniform_filter(plane, size=SSIM_WINDOW))


def _quantised(shape, levels, seed):
    return np.floor(_random_image(shape, seed) * levels) / levels


class TestLightness:
    def test_max_over_channels(self):
        img = np.zeros((2, 2, 3))
        img[0, 0] = [0.1, 0.9, 0.3]
        img[1, 1] = [0.5, 0.2, 0.7]
        expected = np.array([[0.9, 0.0], [0.0, 0.7]])
        np.testing.assert_array_equal(lightness(img), expected)

    def test_grayscale_passthrough(self):
        plane = _random_image((5, 4))
        np.testing.assert_array_equal(lightness(plane), plane)


class TestPsnr:
    def test_identical_images_are_infinite(self):
        a = _random_image((8, 8))
        assert psnr(a, a) == float("inf")

    def test_tenth_step_is_twenty_db(self):
        a = np.full((8, 8), 0.5)
        b = np.full((8, 8), 0.6)
        np.testing.assert_allclose(psnr(a, b), 20.0, rtol=0, atol=1e-12)

    def test_symmetry(self):
        a = _random_image((8, 8), seed=1)
        b = _random_image((8, 8), seed=2)
        assert psnr(a, b) == psnr(b, a)

    def test_data_range_rescaling(self):
        # the peak is 1.0, the [0, 1] image contract: errors 255 times as
        # large read 20*log10(255) dB lower
        a = _random_image((8, 8), seed=3)
        b = _random_image((8, 8), seed=4)
        np.testing.assert_allclose(psnr(255 * a, 255 * b),
                                   psnr(a, b) - 20 * np.log10(255.0), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSsim:
    def test_identical_images_score_one(self):
        a = _random_image((12, 12), seed=5)
        assert ssim(a, a) == 1.0

    def test_constant_pair_closed_form(self):
        # Flat planes have zero variance, so only the luminance term acts.
        a = np.full((9, 9), 0.25)
        b = np.full((9, 9), 0.75)
        c1 = (SSIM_K1 * 1.0) ** 2
        want = (2 * 0.25 * 0.75 + c1) / (0.25 ** 2 + 0.75 ** 2 + c1)
        np.testing.assert_allclose(ssim(a, b), want, rtol=0, atol=1e-10)

    def test_symmetry(self):
        a = _random_image((10, 10), seed=6)
        b = _random_image((10, 10), seed=7)
        assert ssim(a, b) == ssim(b, a)

    def test_noise_lowers_score(self):
        a = _random_image((16, 16), seed=8)
        noisy = np.clip(a + 0.2 * RngStream(9, 5).standard_normal(a.shape),
                        0.0, 1.0)
        assert ssim(a, noisy) < ssim(a, a)

    def test_multichannel_identity(self):
        a = _random_image((8, 8, 3), seed=10)
        assert ssim(a, a) == 1.0

    def test_too_small_for_window(self):
        a = np.zeros((6, 8))
        with pytest.raises(ParameterError):
            ssim(a, a)


class TestLoe:
    def test_identity_is_zero(self):
        a = _random_image((16, 16), seed=11)
        assert loe(a, a) == 0.0

    def test_monotone_remap_is_invariant(self):
        # Any order-preserving tone curve leaves every comparison intact.
        a = _random_image((16, 16), seed=12)
        assert loe(a ** 2.2, a) == 0.0
        assert loe(0.1 + 0.5 * a, a) == 0.0

    def test_inversion_flips_every_pair(self):
        u = np.linspace(0.1, 0.9, 4).reshape(4, 1)
        # Sites [u0<u1<u2<u3] vs the reversed order disagree on all pairs
        # except self-comparisons: 3 flips per site.
        assert loe(1.0 - u, u, grid=4) == 3.0

    def test_single_site_never_flips(self):
        a = _random_image((8, 8), seed=13)
        assert loe(1.0 - a, a, grid=1) == 0.0

    def test_grid_bounds(self):
        a = np.zeros((8, 8))
        with pytest.raises(ParameterError):
            loe(a, a, grid=0)
        with pytest.raises(ParameterError):
            loe(a, a, grid=65)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loe(np.zeros((4, 4)), np.zeros((5, 4)))

    @pytest.mark.parametrize("levels", [2, 3, 256])
    @pytest.mark.parametrize("shape", [(64, 64), (37, 50, 3), (1, 1), (1, 29), (29, 1)])
    def test_tie_heavy_images_match_reference(self, shape, levels):
        a = _quantised(shape, levels, seed=20)
        b = _quantised(shape, levels, seed=21)
        for grid in (1, 7, 64):
            assert loe(a, b, grid) == _ref_loe(a, b, grid)
            assert loe(b, a, grid) == _ref_loe(b, a, grid)

    @pytest.mark.parametrize("shape", [(64, 64), (70, 45, 3), (1, 17)])
    def test_continuous_images_match_reference(self, shape):
        a = _random_image(shape, seed=22)
        for b in (_random_image(shape, seed=23), a ** 2.2, 1.0 - a, a):
            for grid in (1, 7, 64):
                assert loe(a, b, grid) == _ref_loe(a, b, grid)

    def test_signed_zeros_are_tied(self):
        # -0.0 >= +0.0 and +0.0 >= -0.0: sites of either sign compare equal
        zero = np.where(_random_image((32, 32), seed=24) < 0.5, -0.0, 0.0)
        assert np.signbit(zero).any() and not np.signbit(zero).all()
        other = _quantised((32, 32), 3, seed=25)
        for grid in (7, 32):
            assert loe(zero, other, grid) == _ref_loe(zero, other, grid)
            assert loe(other, zero, grid) == _ref_loe(other, zero, grid)
        mixed = np.where(other == 0.0, zero, other)
        assert loe(mixed, other) == _ref_loe(mixed, other) == 0.0

    @pytest.mark.parametrize("grid", [2.5, True, "8", None, 0, 65])
    def test_bad_grid_refused(self, grid):
        a = np.zeros((8, 8))
        with pytest.raises(ParameterError):
            loe(a, a, grid=grid)
        with pytest.raises(ParameterError):
            metric_report(a, a, grid=grid)

    def test_metric_report_refuses_grid_before_scoring(self, monkeypatch):
        monkeypatch.setattr(metrics, "ssim", lambda a, b: pytest.fail("scored"))
        with pytest.raises(ParameterError):
            metric_report(np.zeros((8, 8)), np.zeros((8, 8)), grid=65)


def _brute_inversions(r):
    return int(np.count_nonzero(np.triu(r[:, None] > r[None, :], 1)))


class TestInversions:
    # sizes around the 16-site blocks and the power-of-two padding
    @pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 31, 32, 33,
                                   255, 256, 257, 4095, 4096])
    def test_matches_quadratic_count(self, n):
        rng = np.random.default_rng(n)
        equal = np.zeros(n, dtype=np.intp)
        decreasing = np.arange(n, dtype=np.intp)[::-1]
        tied = rng.integers(0, max(1, n // 3), n)
        assert _inversions(equal) == 0
        assert _inversions(decreasing) == n * (n - 1) // 2
        assert _inversions(tied) == _brute_inversions(tied)
        assert _inversions(decreasing) == _brute_inversions(decreasing)


class TestSobelMagnitude:
    def test_constant_image_is_flat(self):
        # Summation order leaves cancellation residue of a few ulps.
        np.testing.assert_allclose(sobel_magnitude(np.full((6, 6), 0.4)),
                                   np.zeros((6, 6)), atol=1e-12)

    def test_vertical_step_edge(self):
        # A step of height d reads 4|d| on the two columns flanking it.
        img = np.zeros((8, 8))
        img[:, 4:] = 0.25
        mag = sobel_magnitude(img)
        np.testing.assert_allclose(mag[1:-1, 3], 4 * 0.25)
        np.testing.assert_allclose(mag[1:-1, 4], 4 * 0.25)
        np.testing.assert_array_equal(mag[:, :3], 0.0)
        np.testing.assert_array_equal(mag[:, 5:], 0.0)

    def test_horizontal_step_edge(self):
        img = np.zeros((8, 8))
        img[4:, :] = 0.5
        mag = sobel_magnitude(img)
        np.testing.assert_allclose(mag[3, 1:-1], 4 * 0.5)
        np.testing.assert_allclose(mag[4, 1:-1], 4 * 0.5)

    def test_shape_matches_plane(self):
        assert sobel_magnitude(_random_image((5, 9, 3), seed=14)).shape == (5, 9)


class TestEdgeReport:
    def test_swap_negates_diff(self):
        a = _random_image((14, 14), seed=15)
        b = _random_image((14, 14), seed=16)
        fwd = edge_report(a, b)
        rev = edge_report(b, a)
        np.testing.assert_array_equal(fwd.diff, -rev.diff)
        np.testing.assert_array_equal(fwd.magnitude_a, rev.magnitude_b)

    def test_partial_patches_are_dropped(self):
        rep = edge_report(_random_image((16, 23), seed=17),
                          _random_image((16, 23), seed=18))
        assert rep.patch == EDGE_PATCH_DEFAULT
        assert rep.patch_means_a.shape == (2, 3)
        assert rep.diff.shape == (2, 3)

    def test_diff_is_mean_difference(self):
        a = _random_image((14, 14), seed=19)
        b = _random_image((14, 14), seed=20)
        rep = edge_report(a, b, patch=7)
        np.testing.assert_array_equal(rep.diff,
                                      rep.patch_means_a - rep.patch_means_b)

    def test_patch_validation(self):
        a = np.zeros((8, 8))
        with pytest.raises(ParameterError):
            edge_report(a, a, patch=1)
        with pytest.raises(ParameterError):
            edge_report(np.zeros((4, 4)), np.zeros((4, 4)), patch=5)

    @pytest.mark.parametrize("patch", [2.5, True, 7.0])
    def test_non_integer_patch_refused(self, patch):
        a = np.zeros((8, 8))
        with pytest.raises(ParameterError):
            edge_report(a, a, patch=patch)


class TestMetricReport:
    def test_fields_match_direct_calls(self):
        gt = _random_image((16, 16), seed=23)
        test = np.clip(gt + 0.05, 0.0, 1.0)
        rep = metric_report(gt, test)
        assert rep.psnr_db == psnr(gt, test)
        assert rep.ssim == ssim(gt, test)
        assert rep.loe == loe(test, gt)
        assert rep.loe_grid == LOE_GRID_DEFAULT

    def test_each_image_is_converted_and_scanned_once(self, monkeypatch):
        # the pair is checked once, then PSNR, SSIM and LOE run unchecked
        converted, scanned = [], []
        as_image, isfinite = imagedata.as_image, np.isfinite

        def counting_as_image(arr):
            converted.append(arr)
            return as_image(arr)

        def counting_isfinite(arr):
            scanned.append(arr)
            return isfinite(arr)
        for module in (imagedata, metrics):
            monkeypatch.setattr(module, "as_image", counting_as_image)
        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        gt = _random_image((16, 16, 3), seed=29)
        metric_report(gt, gt[::-1])
        assert len(converted) == 2
        assert sum(np.shape(a) == gt.shape for a in scanned) == 2

    def test_csv_layout(self):
        rep = MetricReport(gt_id="a.ppm", test_id="b.ppm", psnr_db=20.0,
                           ssim=0.5, loe=1.25)
        lines = rep.csv().splitlines()
        assert lines[0] == "gt,test,psnr_db,ssim,loe,loe_grid"
        assert lines[1] == "a.ppm,b.ppm,20.0,0.5,1.25,64"


class TestGridCsv:
    def test_known_grid(self):
        assert grid_csv(np.array([[1.0, 2.0], [3.0, 4.0]])) == "1.0,2.0\n3.0,4.0\n"

    def test_full_precision(self):
        val = 0.1234567890123456789
        assert repr(val) in grid_csv(np.array([[val]]))


class TestScipyIdentity:
    """The numpy filters give scipy.ndimage's bits, signed zeros included."""

    SIDES = [7, 8, 9, 10, 13, 16, 31, 64, 65, 119]

    @pytest.mark.parametrize("h", SIDES)
    def test_box_filter_matches_uniform_filter(self, h):
        for w in self.SIDES:
            for k, x in enumerate(_planes((h, w), seed=h * 1000 + w)):
                _assert_box_filter_matches(x, _planes((h, w), seed=k)[k])

    @pytest.mark.parametrize("band_values", [1, 1200, 4000])
    def test_banded_box_filter_matches_uniform_filter(self, monkeypatch,
                                                      band_values):
        # bands from the 7-row minimum up, short last bands, and first
        # bands that complete a single row of windows
        monkeypatch.setattr(metrics, "_BAND_VALUES", band_values)
        for h, w in [(7, 7), (8, 20), (40, 9), (119, 64), (64, 119)]:
            for x in _planes((h, w), seed=h + w):
                _assert_box_filter_matches(x, _planes((h, w), seed=h)[0])

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 3), (17, 1),
                                       (1, 64), (31, 32), (119, 64)])
    def test_sobel_gradients_match_correlate(self, shape):
        for plane in _planes(shape, seed=shape[0] * shape[1]):
            padded = np.pad(plane, 1, mode="edge")
            for weights in (SOBEL_X, SOBEL_Y):
                _assert_same_bits(_correlate3(padded, weights),
                                  correlate(plane, weights, mode="nearest"))

    @pytest.mark.parametrize("band_values", [1, 200, 1 << 17])
    def test_sobel_magnitude_matches_reference(self, monkeypatch, band_values):
        monkeypatch.setattr(metrics, "_BAND_VALUES", band_values)
        for shape in [(1, 7), (7, 1), (3, 3), (33, 20), (20, 33, 3)]:
            for plane in _planes(shape, seed=sum(shape)):
                _assert_same_bits(sobel_magnitude(plane),
                                  _ref_sobel_magnitude(plane))

    @pytest.mark.parametrize("shape", [(7, 7), (7, 30), (30, 7), (16, 16),
                                       (16, 16, 3), (33, 47), (64, 64),
                                       (64, 64, 3), (119, 90, 3), (512, 512)])
    def test_ssim_matches_reference(self, shape):
        for k, a in enumerate(_planes(shape, seed=len(shape))):
            b = np.clip(a + 0.1 * _random_image(shape, seed=k), 0.0, 1.0)
            assert ssim(a, b) == _ref_ssim(a, b)
            assert ssim(b, a) == _ref_ssim(b, a)

    def test_edge_report_matches_reference(self):
        for shape in [(7, 7), (30, 45), (64, 64, 3)]:
            a = _random_image(shape, seed=1)
            b = np.clip(a + 0.1 * _random_image(shape, seed=2), 0.0, 1.0)
            rep = edge_report(a, b)
            mag_a, mag_b = _ref_sobel_magnitude(a), _ref_sobel_magnitude(b)
            _assert_same_bits(rep.magnitude_a, mag_a)
            _assert_same_bits(rep.magnitude_b, mag_b)
            _assert_same_bits(rep.diff, _patch_means(mag_a, rep.patch)
                              - _patch_means(mag_b, rep.patch))
