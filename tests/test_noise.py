"""Seeded random streams and the standardized noise families."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from pixelboost import ParameterError
from pixelboost.noise import FAMILIES, NoiseKind, RngStream, sample_noise


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(7, 3).standard_normal(100)
        b = RngStream(7, 3).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_different_stream_ids_differ(self):
        a = RngStream(7, 3).standard_normal(100)
        b = RngStream(7, 4).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(7, 3).standard_normal(100)
        b = RngStream(8, 3).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_substream_is_deterministic(self):
        a = RngStream(7, 3).substream(11).standard_normal(50)
        b = RngStream(7, 3).substream(11).standard_normal(50)
        np.testing.assert_array_equal(a, b)

    def test_substream_differs_from_parent_and_siblings(self):
        parent = RngStream(7, 3)
        s1 = parent.substream(1).standard_normal(50)
        s2 = parent.substream(2).standard_normal(50)
        p = RngStream(7, 3).standard_normal(50)
        assert not np.array_equal(s1, s2)
        assert not np.array_equal(s1, p)

    def test_substream_ignores_parent_consumption(self):
        # substream identity depends only on (seed, stream_id, k)
        parent = RngStream(7, 3)
        parent.standard_normal(1000)
        after = parent.substream(5).standard_normal(10)
        fresh = RngStream(7, 3).substream(5).standard_normal(10)
        np.testing.assert_array_equal(after, fresh)

    def test_draw_shapes(self):
        rng = RngStream(0)
        assert rng.standard_normal((3, 4)).shape == (3, 4)
        assert rng.uniform(0.0, 1.0, (2, 2)).shape == (2, 2)
        assert rng.integers(0, 10, 5).shape == (5,)

    def test_is_a_numpy_generator(self):
        assert isinstance(RngStream(7, 3), np.random.Generator)

    # each draw the package makes, with the arguments it passes
    DRAWS = {
        "standard_normal": lambda g: g.standard_normal((3, 5)),
        "uniform": lambda g: g.uniform(-0.5, 1.5, (4, 2)),
        "integers": lambda g: g.integers(1, 16, 9),
        "poisson": lambda g: g.poisson(10.0, (2, 7)),
        "laplace": lambda g: g.laplace(0.0, 1.0 / np.sqrt(2.0), 11),
    }

    @pytest.mark.parametrize("draw", DRAWS)
    @pytest.mark.parametrize("seed,stream_id", [(0, 0), (7, 3), (2**64 + 5, -2**64 + 9)])
    def test_draws_match_a_plain_philox_generator(self, draw, seed, stream_id):
        # the key is masked to 64 bits; (2**64 + 5, -2**64 + 9) is (5, 9)
        key = [seed % 2**64, stream_id % 2**64]
        plain = np.random.Generator(np.random.Philox(key=key))
        stream = RngStream(seed, stream_id)
        assert [stream.seed, stream.stream_id] == key
        for _ in range(2):  # the second draw continues from the consumed state
            np.testing.assert_array_equal(self.DRAWS[draw](stream), self.DRAWS[draw](plain))

    @pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_keep_type_key_and_state(self, clone):
        rng = RngStream(7, 3)
        rng.standard_normal(10)
        twin = clone(rng)
        assert type(twin) is RngStream
        assert (twin.seed, twin.stream_id) == (7, 3)
        assert repr(twin) == "RngStream(seed=7, stream_id=3)"
        np.testing.assert_array_equal(twin.standard_normal(5), rng.standard_normal(5))


class TestNoiseKind:
    def test_family_tuple(self):
        # noise_fit_report draws family k from substream k, in this order
        assert FAMILIES == ("brownian", "gaussian", "laplacian", "poisson")

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            NoiseKind("cauchy")
        with pytest.raises(ParameterError):
            NoiseKind("uniform")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            NoiseKind("brownian", sigma=0.0)
        with pytest.raises(ParameterError):
            NoiseKind("brownian", sigma=-1.0)


class TestSampleNoise:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_standardized_moments(self, family):
        # mean within +-0.005 and variance within [0.99, 1.01] at 10^6
        # (3-sigma Monte-Carlo bounds); brownian at sigma=1 included
        rng = RngStream(123, 9)
        x = sample_noise(NoiseKind(family), (1_000_000,), rng)
        assert abs(x.mean()) < 0.005
        assert 0.99 < x.var() < 1.01

    def test_poisson_skewness(self):
        rng = RngStream(17, 9)
        x = sample_noise(NoiseKind("poisson"), (1_000_000,), rng)
        np.testing.assert_allclose(stats.skew(x), 1.0 / np.sqrt(10.0),
                                   rtol=0, atol=0.02)

    def test_poisson_lattice(self):
        # standardized counts live on the lattice (k - lam)/sqrt(lam), lam = 10
        rng = RngStream(17, 9)
        x = sample_noise(NoiseKind("poisson"), (1000,), rng)
        k = x * np.sqrt(10.0) + 10.0
        np.testing.assert_allclose(k, np.round(k), rtol=0, atol=1e-9)

    def test_scalar_shape_accepted(self):
        x = sample_noise(NoiseKind("gaussian"), 10, RngStream(0))
        assert x.shape == (10,)

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0), (2.5,), (3, 2.5),
                                       (True,), 2.5, "ab"])
    def test_degenerate_shapes_rejected(self, shape):
        with pytest.raises(ParameterError):
            sample_noise(NoiseKind("gaussian"), shape, RngStream(0))

    def test_reproducible_per_family(self):
        for family in FAMILIES:
            a = sample_noise(NoiseKind(family), (64,), RngStream(3, 2))
            b = sample_noise(NoiseKind(family), (64,), RngStream(3, 2))
            np.testing.assert_array_equal(a, b)


class TestBrownianField:
    def test_variance_scaling(self):
        # Var = sigma^2 within 1% at 10^6 samples
        rng = RngStream(31, 9)
        x = sample_noise(NoiseKind("brownian", sigma=0.75), (1_000_000,), rng)
        np.testing.assert_allclose(x.std(), 0.75, rtol=0.01)

    def test_invalid_parameters(self):
        for sigma in (0.0, -0.25, float("nan")):
            with pytest.raises(ParameterError):
                NoiseKind("brownian", sigma=sigma)

    def test_unit_parameters_match_gaussian_family(self):
        # same distribution by construction; check with a two-sample KS test
        a = sample_noise(NoiseKind("brownian", sigma=1.0), (100_000,),
                         RngStream(41, 9))
        b = sample_noise(NoiseKind("gaussian"), (100_000,), RngStream(42, 9))
        assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_field_is_sigma_times_standard_normal(self):
        x = sample_noise(NoiseKind("brownian", sigma=1.5), (64,), RngStream(44, 9))
        np.testing.assert_array_equal(x, 1.5 * RngStream(44, 9).standard_normal(64))

    @pytest.mark.parametrize("sigma", [Fraction(3, 2), np.float32(1.5)])
    def test_sigma_of_another_real_type_is_stored_as_a_float(self, sigma):
        # a Fraction sigma used to give an object-dtype field
        kind = NoiseKind("brownian", sigma=sigma)
        assert type(kind.sigma) is float
        x = sample_noise(kind, (64,), RngStream(44, 9))
        assert x.dtype == np.float64
        np.testing.assert_array_equal(x, 1.5 * RngStream(44, 9).standard_normal(64))

    def test_increment_independence(self):
        # lag-1 sample autocorrelation of an i.i.d. field stays near zero
        x = sample_noise(NoiseKind("brownian", sigma=1.5), (1_000_000,),
                         RngStream(43, 9))
        x = x - x.mean()
        rho = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(rho) < 0.01
