"""Forward transitions, closed-form marginals, the reverse posterior,
the sampler, and training losses."""

from dataclasses import fields

import numpy as np
import pytest

import pixelboost as pb
from pixelboost import ParameterError, ShapeError
from pixelboost.diffusion import CONVENTIONS, WEIGHTINGS
from pixelboost.noise import STREAM_FORWARD, STREAM_SAMPLER


def _rng(seed=0, stream=STREAM_FORWARD):
    return pb.RngStream(seed, stream)


class TestConfig:
    def test_defaults(self):
        cfg = pb.make_config()
        assert cfg.steps == 15
        assert cfg.sigma == 1.5
        assert cfg.schedule.mode == "normalized"
        # the forward convention is an argument of forward_step and
        # forward_chain, not a setting of the config
        assert [f.name for f in fields(cfg)] == ["sigma", "schedule", "seed"]

    def test_sigma_validation(self):
        with pytest.raises(ParameterError):
            pb.make_config(sigma=0.0)
        with pytest.raises(ParameterError):
            pb.make_config(sigma=np.inf)

    @pytest.mark.parametrize("name,value", [("steps", 15.7), ("steps", 15.0),
                                            ("seed", 2.9), ("seed", "2")])
    def test_fractional_integers_refused(self, name, value):
        # int() used to build 15 steps from 15.7 and seed 2 from 2.9
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            pb.make_config(**{name: value})

    def test_unknown_convention(self):
        # make_config's closed forms are eq5_variance; only forward_step and
        # forward_chain take another convention
        for convention in ("eq6", "eq4_literal"):
            with pytest.raises(ParameterError, match="eq5_variance"):
                pb.make_config(convention=convention)


class TestStepIncrement:
    def test_literal_single_step_value(self):
        # alpha * (sigma * w) with zero residual: 0.2 * (0.5 * -1.2) = -0.12
        inc = pb.step_increment(np.zeros((1, 1, 1)), 0.2, 0.5,
                                np.full((1, 1, 1), -1.2),
                                convention="eq4_literal")
        assert inc.ravel()[0] == -0.12

    def test_conventions_differ_in_noise_scale(self):
        delta0 = np.zeros((4, 4, 1))
        w = _rng(1).standard_normal((4, 4, 1))
        lit = pb.step_increment(delta0, 0.25, 2.0, w, convention="eq4_literal")
        var = pb.step_increment(delta0, 0.25, 2.0, w, convention="eq5_variance")
        # literal scales noise by alpha*sigma, variance form by sigma*sqrt(alpha)
        np.testing.assert_allclose(lit, 0.25 * 2.0 * w, rtol=0, atol=1e-15)
        np.testing.assert_allclose(var, 2.0 * 0.5 * w, rtol=0, atol=1e-15)

    def test_drift_part_is_shared(self):
        delta0 = np.full((2, 2, 1), 0.3)
        w = np.zeros((2, 2, 1))
        for convention in CONVENTIONS:
            inc = pb.step_increment(delta0, 0.1, 1.5, w, convention=convention)
            np.testing.assert_allclose(inc, 0.03, rtol=0, atol=1e-15)

    def test_validation(self):
        z = np.zeros((1, 1, 1))
        with pytest.raises(ParameterError):
            pb.step_increment(z, 0.0, 1.0, z)
        with pytest.raises(ParameterError):
            pb.step_increment(z, 0.1, -1.0, z)
        with pytest.raises(ParameterError):
            pb.step_increment(z, 0.1, 1.0, z, convention="bogus")


class TestForwardStep:
    def test_moments(self):
        # x_t | x_{t-1} ~ N(x_{t-1} + alpha_t delta0, sigma^2 alpha_t)
        cfg = pb.make_config(steps=15, sigma=1.5)
        n = 200_000
        x_prev = np.full((n, 1, 1), 0.4)
        delta0 = np.full((n, 1, 1), -0.25)
        x = pb.forward_step(x_prev, delta0, 8, cfg, _rng(2))
        a8 = cfg.schedule.alphas[7]
        np.testing.assert_allclose(x.mean(), 0.4 - 0.25 * a8,
                                   rtol=0, atol=4 * 1.5 * np.sqrt(a8 / n))
        np.testing.assert_allclose(x.var(), 1.5**2 * a8, rtol=0.02)

    def test_fixed_noise_is_deterministic(self):
        cfg = pb.make_config()
        x_prev = np.full((2, 2, 1), 0.1)
        delta0 = np.full((2, 2, 1), 0.2)
        w = np.full((2, 2, 1), 0.7)
        a = pb.forward_step(x_prev, delta0, 3, cfg, noise=w)
        b = pb.forward_step(x_prev, delta0, 3, cfg, noise=w)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_step_adds_its_increment(self, convention):
        cfg = pb.make_config(steps=15, sigma=1.5)
        x_prev = _rng(3).uniform(0.0, 1.0, (4, 4, 1))
        delta0 = _rng(4).uniform(-0.5, 0.5, (4, 4, 1))
        w = _rng(5).standard_normal((4, 4, 1))
        a3 = cfg.schedule.etas[3] - cfg.schedule.etas[2]
        x = pb.forward_step(x_prev, delta0, 3, cfg, noise=w, convention=convention)
        np.testing.assert_array_equal(
            x, x_prev + pb.step_increment(delta0, a3, 1.5, w, convention=convention))

    def test_t_bounds(self):
        cfg = pb.make_config(steps=5)
        z = np.zeros((1, 1, 1))
        for t in (0, 6):
            with pytest.raises(IndexError):
                pb.forward_step(z, z, t, cfg, _rng())
        with pytest.raises(ParameterError, match="t must be an integer"):
            pb.forward_step(z, z, 2.5, cfg, _rng())

    def test_needs_rng_or_noise(self):
        cfg = pb.make_config()
        z = np.zeros((1, 1, 1))
        with pytest.raises(ParameterError):
            pb.forward_step(z, z, 1, cfg)

    def test_shape_mismatch(self):
        cfg = pb.make_config()
        with pytest.raises(ShapeError):
            pb.forward_step(np.zeros((2, 2, 1)), np.zeros((3, 3, 1)), 1, cfg,
                            _rng())


class TestForwardMarginal:
    @pytest.mark.parametrize("mode", ["normalized", "raw"])
    def test_matches_composed_chain_moments(self, mode):
        # quick 2000-chain smoke check; the acceptance suite runs 10^4
        cfg = pb.make_config(steps=8, sigma=1.0, mode=mode, seed=3)
        n = 2000
        x0 = np.full((n, 1, 1), 0.8)
        delta0 = np.full((n, 1, 1), -0.5)
        x = x0.copy()
        rng = _rng(3)
        for t in range(1, 9):
            x = pb.forward_step(x, delta0, t, cfg, rng)
        m = pb.forward_marginal(x0, delta0, 8, cfg, _rng(4))
        assert abs(x.mean() - m.mean()) < 5e-2
        np.testing.assert_allclose(x.var(), m.var(), rtol=0.1)

    def test_injected_fraction_is_eta_minus_anchor(self):
        cfg = pb.make_config(steps=15, sigma=1.5)
        x0 = np.full((3, 3, 1), 0.2)
        delta0 = np.full((3, 3, 1), 1.0)
        w = np.zeros((3, 3, 1))
        x = pb.forward_marginal(x0, delta0, 8, cfg, noise=w)
        eta = cfg.schedule.etas[8] - cfg.schedule.etas[0]
        np.testing.assert_allclose(x, 0.2 + eta, rtol=0, atol=1e-15)

    def test_terminal_step_reaches_lr_plus_noise(self):
        # normalized schedules end at eta_T = 1: x_T = y0_up + sigma * w
        cfg = pb.make_config(steps=15, sigma=0.7)
        x0 = _rng(5).uniform(0.0, 1.0, (4, 4, 1))
        y = _rng(6).uniform(0.0, 1.0, (4, 4, 1))
        w = _rng(7).standard_normal((4, 4, 1))
        x = pb.forward_marginal(x0, y - x0, 15, cfg, noise=w)
        np.testing.assert_allclose(x, y + 0.7 * w, rtol=0, atol=1e-12)


class TestForwardChain:
    def test_trajectory_length_and_final_state(self):
        cfg = pb.make_config(steps=6, sigma=0.5, seed=1)
        x0 = np.full((4, 4, 1), 0.5)
        delta0 = np.full((4, 4, 1), -0.1)
        x_t, frames = pb.forward_chain(x0, delta0, cfg, _rng(1), keep_trajectory=True)
        assert len(frames) == 7
        np.testing.assert_array_equal(frames[0], x0)
        np.testing.assert_array_equal(frames[-1], x_t)

    def test_reproducible(self):
        cfg = pb.make_config(steps=6, sigma=0.5)
        x0 = np.full((4, 4, 1), 0.5)
        d = np.full((4, 4, 1), -0.1)
        a, frames = pb.forward_chain(x0, d, cfg, _rng(9))
        b, _ = pb.forward_chain(x0, d, cfg, _rng(9))
        np.testing.assert_array_equal(a, b)
        assert frames is None

    def test_eq4_literal_chain_composes_its_steps(self):
        cfg = pb.make_config(steps=6, sigma=0.5)
        x0 = _rng(2).uniform(0.0, 1.0, (4, 4, 1))
        d = np.full((4, 4, 1), -0.1)
        x_t, frames = pb.forward_chain(x0, d, cfg, _rng(9), keep_trajectory=True,
                                       convention="eq4_literal")
        rng = _rng(9)
        x = x0
        for t in range(1, 7):
            x = pb.forward_step(x, d, t, cfg, rng, convention="eq4_literal")
            np.testing.assert_array_equal(frames[t], x)
        np.testing.assert_array_equal(x_t, x)
        # the literal kernel scales the noise by alpha*sigma, not sigma*sqrt(alpha)
        assert not np.array_equal(x_t, pb.forward_chain(x0, d, cfg, _rng(9))[0])


class TestPosterior:
    def test_t1_collapses_to_prediction(self):
        cfg = pb.make_config(steps=15, sigma=1.5)
        x_t = _rng(8).standard_normal((4, 4, 1))
        x0_hat = _rng(9).uniform(0.0, 1.0, (4, 4, 1))
        mean, var = pb.posterior_params(x_t, x0_hat, 1, cfg)
        np.testing.assert_array_equal(mean, x0_hat)
        assert var == 0.0

    def test_mean_and_variance_formulas(self):
        cfg = pb.make_config(steps=15, sigma=1.5)
        etas = cfg.schedule.etas
        x_t = _rng(10).standard_normal((4, 4, 1))
        x0_hat = _rng(11).uniform(0.0, 1.0, (4, 4, 1))
        t = 8
        mean, var = pb.posterior_params(x_t, x0_hat, t, cfg)
        a_t = etas[t] - etas[t - 1]
        np.testing.assert_allclose(
            mean, (etas[t - 1] / etas[t]) * x_t + (a_t / etas[t]) * x0_hat,
            rtol=0, atol=1e-15)
        np.testing.assert_allclose(var, 1.5**2 * etas[t - 1] * a_t / etas[t],
                                   rtol=0, atol=1e-18)

    def test_mean_interpolates(self):
        # coefficients are convex: eta_{t-1}/eta_t + alpha_t/eta_t = 1
        cfg = pb.make_config(steps=15, sigma=1.5)
        etas = cfg.schedule.etas
        for t in range(1, 16):
            c1 = etas[t - 1] / etas[t]
            c2 = (etas[t] - etas[t - 1]) / etas[t]
            np.testing.assert_allclose(c1 + c2, 1.0, rtol=0, atol=1e-15)

    def test_two_step_law_moments(self):
        # marginal(t) then posterior(t) lands on marginal(t-1); smoke scale
        cfg = pb.make_config(steps=15, sigma=1.5, seed=7)
        n = 20_000
        x0 = np.full((n, 1, 1), 0.3)
        delta0 = np.full((n, 1, 1), 0.4)
        t = 8
        x_t = pb.forward_marginal(x0, delta0, t, cfg, _rng(12))
        mean, var = pb.posterior_params(x_t, x0, t, cfg)
        draw = mean + np.sqrt(var) * _rng(13).standard_normal(mean.shape)
        eta_prev = cfg.schedule.etas[t - 1]
        np.testing.assert_allclose(draw.mean(), 0.3 + eta_prev * 0.4,
                                   rtol=0, atol=4 * 1.5 / np.sqrt(n))
        np.testing.assert_allclose(draw.var(), 1.5**2 * eta_prev, rtol=0.05)


class TestReverseSample:
    def test_oracle_collapse_is_exact(self):
        cfg = pb.make_config(steps=15, sigma=1.5, seed=2)
        x0 = pb.synth_dataset("mixed", 1, 16, _rng(2))[0]
        y = pb.make_lr_pair(x0).lr_up
        out, _ = pb.reverse_sample(y, pb.OracleDenoiser(x0), cfg,
                                   _rng(2, STREAM_SAMPLER))
        assert np.max(np.abs(out - x0)) == 0.0

    def test_requires_normalized_schedule(self):
        cfg = pb.make_config(steps=15, mode="raw")
        y = np.full((4, 4, 1), 0.5)
        with pytest.raises(ParameterError):
            pb.reverse_sample(y, pb.OracleDenoiser(y), cfg,
                              _rng(0, STREAM_SAMPLER))

    def test_trajectory_has_all_states(self):
        cfg = pb.make_config(steps=5, sigma=1.0)
        y = np.full((4, 4, 1), 0.5)
        out, frames = pb.reverse_sample(y, pb.OracleDenoiser(y), cfg,
                                        _rng(4, STREAM_SAMPLER),
                                        keep_trajectory=True)
        assert len(frames) == 6  # x_T plus one state per reverse step

    def test_output_is_clamped(self):
        cfg = pb.make_config(steps=5, sigma=2.0)
        y = np.full((4, 4, 1), 0.5)
        hot = pb.OracleDenoiser(np.full((4, 4, 1), 3.0))
        out, _ = pb.reverse_sample(y, hot, cfg, _rng(5, STREAM_SAMPLER))
        assert out.max() <= 1.0 and out.min() >= 0.0

    def test_denoiser_shape_check(self):
        cfg = pb.make_config(steps=5)
        y = np.full((4, 4, 1), 0.5)
        bad = lambda x_t, y0_up, t: np.zeros((2, 2, 1))
        with pytest.raises(ShapeError):
            pb.reverse_sample(y, bad, cfg, _rng(6, STREAM_SAMPLER))

    def test_reproducible(self):
        cfg = pb.make_config(steps=15, sigma=1.5)
        x0 = pb.synth_dataset("mixed", 1, 16, _rng(3))[0]
        y = pb.make_lr_pair(x0).lr_up
        noisy = pb.OracleDenoiser(np.clip(y, 0.0, 1.0))
        a, _ = pb.reverse_sample(y, noisy, cfg, _rng(7, STREAM_SAMPLER))
        b, _ = pb.reverse_sample(y, noisy, cfg, _rng(7, STREAM_SAMPLER))
        np.testing.assert_array_equal(a, b)


class TestLosses:
    def test_uniform_mse_is_mean_square(self):
        cfg = pb.make_config()
        x0 = np.zeros((2, 2, 1))
        x0_hat = np.full((2, 2, 1), 0.5)
        assert pb.item_loss(x0, x0_hat, 8, cfg) == 0.25

    def test_exact_kl_weights_squared_error(self):
        cfg = pb.make_config(steps=15, sigma=1.5)
        x0 = np.zeros((2, 2, 1))
        x0_hat = np.full((2, 2, 1), 0.5)
        t = 8
        expect = pb.kl_weight(t, cfg) * 4 * 0.25
        np.testing.assert_allclose(
            pb.item_loss(x0, x0_hat, t, cfg, weighting="exact_kl"), expect,
            rtol=0, atol=1e-15)

    def test_exact_kl_terminal_step_is_plain_squared_error(self):
        # eta_0 = 0 makes the t=1 posterior deterministic; no KL weight
        cfg = pb.make_config(steps=15, sigma=1.5)
        x0 = np.zeros((2, 2, 1))
        x0_hat = np.full((2, 2, 1), 0.5)
        assert pb.item_loss(x0, x0_hat, 1, cfg, weighting="exact_kl") == 1.0

    def test_kl_weight_formula(self):
        cfg = pb.make_config(steps=15, sigma=1.5)
        etas = cfg.schedule.etas
        t = 5
        expect = (etas[t] - etas[t - 1]) / (2 * 1.5**2 * etas[t - 1] * etas[t])
        np.testing.assert_allclose(pb.kl_weight(t, cfg), expect, rtol=0,
                                   atol=1e-18)

    def test_kl_weight_rejects_anchored_start(self):
        cfg = pb.make_config(steps=15)
        with pytest.raises(ParameterError):
            pb.kl_weight(1, cfg)

    def test_loss_weight(self):
        cfg = pb.make_config(steps=15, sigma=1.5)
        assert pb.loss_weight(8, cfg, "uniform_mse", 4) == 0.25
        assert pb.loss_weight(1, cfg, "exact_kl", 4) == 1.0
        assert pb.loss_weight(8, cfg, "exact_kl", 4) == pb.kl_weight(8, cfg)
        with pytest.raises(ParameterError):
            pb.loss_weight(8, cfg, "l1", 4)

    def test_unknown_weighting(self):
        cfg = pb.make_config()
        with pytest.raises(ParameterError):
            pb.item_loss(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), 1, cfg,
                         weighting="l1")
        assert set(WEIGHTINGS) == {"uniform_mse", "exact_kl"}
