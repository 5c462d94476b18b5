"""PSNR, SSIM, lightness-order error, and Sobel edge statistics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pixelboost import ParameterError, ShapeError
from pixelboost.metrics import (EDGE_PATCH_DEFAULT, LOE_GRID_DEFAULT,
                                SSIM_K1, SSIM_K2, MetricReport, _loe_sites,
                                edge_report, grid_csv, lightness, loe,
                                metric_report, psnr, sobel_magnitude, ssim)
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


class TestMetricReport:
    def test_fields_match_direct_calls(self):
        gt = _random_image((16, 16), seed=23)
        test = np.clip(gt + 0.05, 0.0, 1.0)
        rep = metric_report(gt, test)
        assert rep.psnr_db == psnr(gt, test)
        assert rep.ssim == ssim(gt, test)
        assert rep.loe == loe(test, gt)
        assert rep.loe_grid == LOE_GRID_DEFAULT

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


def test_scipy_is_imported_only_by_ssim_and_sobel():
    # a fresh interpreter: the test run has already imported scipy.stats
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "import pixelboost as pb, pixelboost.cli\n"
        "code = pixelboost.cli.main(['schedule'])\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = scipy()\n"
        "pb.ssim(np.zeros((16, 16)), np.ones((16, 16)))\n"
        "print(json.dumps([code, loaded, 'scipy.ndimage' in sys.modules]))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0, [], True]
