"""Chi-square noise-family fitting over shared histogram bins."""

import numpy as np
import pytest

from pixelboost import DegenerateFitError, ParameterError
from pixelboost.analysis import (DEFAULT_BIN_COUNT, FIT_FAMILIES,
                                 MIN_SAMPLES_PER_BIN, REFERENCE_STATISTICS,
                                 FitReport, chi_square, noise_fit_report)
from pixelboost.noise import NoiseKind, RngStream, sample_noise


class TestHistogramSpec:
    """chi_square's binning: ``bins`` equal-width bins over the pooled samples."""

    def test_defaults(self):
        x = RngStream(21, 5).standard_normal(1000)
        y = RngStream(22, 5).standard_normal(1000)
        assert chi_square(x, y) == chi_square(x, y, DEFAULT_BIN_COUNT)
        assert chi_square(x, y) != chi_square(x, y, DEFAULT_BIN_COUNT // 2)

    def test_auto_range_pools_all_samples(self):
        # two bins over the pooled [-1, 3]: both observed values fall in
        # [-1, 1), and the expected sample puts one value in each bin
        got = chi_square(np.array([0.25, 0.5]), np.array([-1.0, 3.0]), 2)
        assert got == (1.0 - 0.5) ** 2 / 0.5 + (0.0 - 0.5) ** 2 / 0.5

    def test_too_few_bins(self):
        x = np.array([0.0, 1.0])
        for bins in (1, 0, 2.5, 8.0):
            with pytest.raises(ParameterError, match="bins must be an integer >= 2"):
                chi_square(x, x, bins)

    def test_constant_pooled_sample_has_no_bins(self):
        with pytest.raises(DegenerateFitError):
            chi_square(np.full(10, 0.3), np.full(4, 0.3), 4)


class TestHistogram:
    """chi_square's relative frequencies over the shared bins."""

    def test_frequencies_sum_to_one(self):
        # each sample's counts are divided by its own size, so a sample and
        # three copies of it have the same frequencies
        x = RngStream(0, 5).standard_normal(10_000)
        assert chi_square(x, np.concatenate([x, x, x])) == 0.0

    def test_known_counts(self):
        observed = np.array([0.1, 0.2, 0.3, 0.9])
        expected = np.array([0.1, 0.2, 0.8, 0.9])
        # bins [0.1, 0.5) and [0.5, 0.9]: O = (0.75, 0.25), E = (0.5, 0.5)
        got = chi_square(observed, expected, 2)
        np.testing.assert_allclose(got, 2 * 0.25 ** 2 / 0.5, rtol=0, atol=1e-15)

    def test_input_is_flattened(self):
        x = np.arange(12, dtype=np.float64)
        y = RngStream(23, 5).standard_normal(12) + 5.0
        assert chi_square(x.reshape(3, 4), y, 4) == chi_square(x, y, 4)
        assert chi_square(x, y.reshape(2, 6), 4) == chi_square(x, y, 4)

    def test_empty_sample(self):
        with pytest.raises(ParameterError, match="observed sample is empty"):
            chi_square(np.array([]), np.array([0.0, 1.0]))
        with pytest.raises(ParameterError, match="expected sample is empty"):
            chi_square(np.array([0.0, 1.0]), np.array([]))

    def test_non_finite_sample(self):
        with pytest.raises(ParameterError, match="non-finite"):
            noise_fit_report(np.array([0.0, np.nan] * 400), 1.5, RngStream(24, 5))


class TestChiSquare:
    def test_identical_samples_score_zero(self):
        x = RngStream(1, 5).standard_normal(5000)
        assert chi_square(x, x.copy()) == 0.0

    def test_returns_python_float(self):
        x = RngStream(2, 5).standard_normal(1000)
        y = RngStream(3, 5).standard_normal(1000)
        assert type(chi_square(x, y)) is float

    def test_permutation_invariance(self):
        # Binning forgets sample order entirely.
        x = RngStream(4, 5).standard_normal(3000)
        y = RngStream(5, 5).standard_normal(3000)
        shuffled = RngStream(6, 5).generator.permutation(x)
        assert chi_square(shuffled, y) == chi_square(x, y)

    def test_matched_samples_score_small(self):
        x = RngStream(7, 5).standard_normal(50_000)
        y = RngStream(8, 5).standard_normal(50_000)
        assert chi_square(x, y) < 0.05

    def test_mismatched_scale_scores_large(self):
        x = RngStream(9, 5).standard_normal(50_000)
        y = 3.0 * RngStream(10, 5).standard_normal(50_000)
        assert chi_square(x, y) > 1.0

    def test_zero_expectation_bins_are_skipped(self):
        observed = np.array([0.5, 1.5, 2.5, 3.5])
        expected = np.array([0.5, 0.5, 1.5, 1.5])
        # Four bins over [0.5, 3.5]; only the two populated expected bins
        # contribute.
        got = chi_square(observed, expected, 4)
        np.testing.assert_allclose(
            got, (0.25 - 0.5) ** 2 / 0.5 + (0.25 - 0.5) ** 2 / 0.5)

    def test_non_finite_inputs(self):
        good = np.array([0.0, 1.0])
        with pytest.raises(ParameterError):
            chi_square(np.array([np.inf, 0.0]), good)
        with pytest.raises(ParameterError):
            chi_square(good, np.array([np.nan, 0.0]))


class TestFitReport:
    def _report(self):
        return FitReport(sigma=1.5, sample_count=640, bin_count=64,
                         statistics={"gaussian": 0.3, "brownian": 0.1,
                                     "poisson": 2.0, "laplacian": 0.3})

    def test_ranking_sorts_by_statistic_then_name(self):
        rep = self._report()
        assert rep.ranking == ("brownian", "gaussian", "laplacian", "poisson")
        assert rep.best == "brownian"

    def test_lines_and_str(self):
        rep = self._report()
        lines = rep.lines()
        assert lines[0] == "noise fit: n=640 sigma=1.5 bins=64"
        assert lines[1].startswith("  1. brownian")
        assert "best fit: brownian" in lines
        assert str(rep) == "\n".join(lines)

    def test_csv_layout(self):
        rows = self._report().csv().splitlines()
        assert rows[0] == "family,chi_square"
        assert rows[1] == "brownian,0.1"
        assert len(rows) == 5

    def test_reference_table_covers_every_family(self):
        assert tuple(REFERENCE_STATISTICS) == FIT_FAMILIES


class TestNoiseFitReport:
    def test_recovers_generating_family(self):
        rng = RngStream(11, 5)
        for k, family in enumerate(FIT_FAMILIES):
            kind = NoiseKind(family, sigma=1.5)
            observed = sample_noise(kind, (100_000,), rng.substream(100 + k))
            rep = noise_fit_report(observed, 1.5, rng.substream(200 + k))
            assert rep.best == family

    def test_sigma_separates_brownian_from_gaussian(self):
        # At sigma=1 the two candidates coincide in law; at 1.5 they split.
        rng = RngStream(12, 5)
        observed = sample_noise(NoiseKind("brownian", sigma=1.5),
                                (100_000,), rng.substream(0))
        rep = noise_fit_report(observed, 1.5, rng.substream(1))
        assert rep.statistics["gaussian"] > 10 * rep.statistics["brownian"]

    def test_deterministic_under_seed(self):
        x = sample_noise(NoiseKind("gaussian"), (2000,), RngStream(13, 5))
        a = noise_fit_report(x, 1.5, RngStream(14, 5))
        b = noise_fit_report(x, 1.5, RngStream(14, 5))
        assert a.statistics == b.statistics

    def test_report_metadata(self):
        x = sample_noise(NoiseKind("gaussian"), (50, 40), RngStream(15, 5))
        rep = noise_fit_report(x, np.float64(2.0), RngStream(16, 5))
        assert rep.sample_count == 2000
        assert rep.bin_count == DEFAULT_BIN_COUNT
        assert type(rep.sigma) is float and rep.sigma == 2.0
        assert set(rep.statistics) == set(FIT_FAMILIES)

    def test_too_few_observations(self):
        need = MIN_SAMPLES_PER_BIN * DEFAULT_BIN_COUNT
        x = RngStream(17, 5).standard_normal(need - 1)
        with pytest.raises(ParameterError):
            noise_fit_report(x, 1.5, RngStream(18, 5))

    def test_threshold_scales_with_bin_count(self):
        x = RngStream(19, 5).standard_normal(MIN_SAMPLES_PER_BIN * 8)
        rep = noise_fit_report(x, 1.5, RngStream(20, 5), 8)
        assert rep.bin_count == 8
        with pytest.raises(ParameterError):
            noise_fit_report(x[:-1], 1.5, RngStream(20, 5), 8)
