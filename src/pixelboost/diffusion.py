"""Forward Brownian residual-shifting kernel, reverse posterior and sampler.

The forward chain degrades a HR image x_0 toward its upsampled LR
counterpart by injecting a fraction alpha_t of the residual delta_0 plus
a Brownian increment at every step:

    q(x_t | x_{t-1}, y_0) = N(x_{t-1} + alpha_t * delta_0, sigma^2 alpha_t I)

Composing the steps gives the closed-form marginal
N(x_0 + (eta_t - eta_0) delta_0, sigma^2 (eta_t - eta_0) I); with a
normalized schedule (eta_0 = 0) this is the usual N(x_0 + eta_t delta_0,
sigma^2 eta_t I).  The reverse chain samples the Gaussian posterior of
x_{t-1} given x_t and a denoiser's x0 prediction.
"""

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import (NumericError, ParameterError, ShapeError, _require_arrays,
                     _require_int, _require_positive, _require_type)
from .imagedata import as_image
from .noise import RngStream
from .schedule import Schedule, build_schedule

CONVENTIONS = ("eq5_variance", "eq4_literal")
_AHEAD_VALUES = 1 << 16  # fewer are drawn faster on the calling thread (64x64)


@dataclass(frozen=True)
class DiffusionConfig:
    sigma: float
    schedule: Schedule
    seed: int = 0

    def __post_init__(self):
        # plain float and int, as checkpoints record them; sigma**2 stays finite
        object.__setattr__(self, "sigma", _require_positive("sigma", self.sigma, 1e154))
        object.__setattr__(self, "seed", _require_int("seed", self.seed))
        _require_type("schedule", self.schedule, Schedule)

    @property
    def steps(self):
        """T, as the schedule defines it."""
        return self.schedule.steps


def make_config(steps=15, sigma=1.5, t_mid=None, mode="normalized",
                convention="eq5_variance", seed=0):
    """Convenience constructor building the schedule alongside the config."""
    # the bench's sampling config still passes the checkpoint's convention;
    # this keyword goes when the bench rebuilds its config with ckpt.config()
    if not isinstance(convention, str) or convention != "eq5_variance":
        raise ParameterError(
            f"the config's closed forms are eq5_variance, got {convention!r}")
    sched = build_schedule(steps, t_mid=t_mid, mode=mode)
    return DiffusionConfig(sigma=sigma, schedule=sched, seed=seed)


def _check_cfg(cfg):
    return _require_type("cfg", cfg, DiffusionConfig)


def _check_t(t, steps):
    t = _require_int("t", t)
    if not 1 <= t <= steps:
        raise ParameterError(f"t={t} outside 1..{steps}")
    return t


def _check_convention(convention):
    if not isinstance(convention, str) or convention not in CONVENTIONS:
        raise ParameterError(
            f"convention must be one of {CONVENTIONS}, got {convention!r}")


def step_increment(delta0, alpha_t, sigma, noise, convention="eq5_variance"):
    """The x_{t-1} -> x_t increment for an explicitly given alpha_t.

    Useful for single transitions without a full schedule: with
    delta_0 = 0, alpha_t = 0.2, sigma = 0.5 and w = -1.2 the eq4_literal
    increment is exactly 0.2 * (0.5 * -1.2) = -0.12.
    """
    delta0, noise = _require_arrays(delta0, noise)
    alpha_t = _require_positive("alpha_t", alpha_t)
    sigma = _require_positive("sigma", sigma)
    _check_convention(convention)
    return _increment(delta0, alpha_t, sigma, noise, convention)


def _increment(delta0, alpha_t, sigma, noise, convention):
    """step_increment without its checks, which the caller has made."""
    if convention == "eq4_literal":
        return alpha_t * (delta0 + sigma * noise)
    return alpha_t * delta0 + sigma * np.sqrt(alpha_t) * noise


def _noise_for(rng):
    """``rng``'s standard-normal draw; refused unless it has one."""
    draw = getattr(rng, "standard_normal", None)
    if not callable(draw):
        raise ParameterError(f"need an rng with a standard_normal draw, got {rng!r}")
    return draw


def forward_step(x_prev, delta0, t, cfg, rng=None, convention="eq5_variance"):
    """One forward transition x_{t-1} -> x_t, its field w drawn from ``rng``.

    Under the normative eq5_variance convention the increment is
    alpha_t*delta_0 + sigma*sqrt(alpha_t)*w; under eq4_literal it is
    alpha_t*(delta_0 + sigma*w).  Every other function here is the
    eq5_variance closed form.
    """
    x_prev, delta0 = _require_arrays(x_prev, delta0)
    t = _check_t(t, _check_cfg(cfg).steps)
    _check_convention(convention)
    a_t = cfg.schedule.alphas[t - 1]
    noise = _noise_for(rng)(x_prev.shape)
    return x_prev + _increment(delta0, a_t, cfg.sigma, noise, convention)


def forward_marginal(x0, delta0, t, cfg, rng=None):
    """Single draw of x_t directly from the closed-form marginal.

    The injected-residual fraction is eta_t - eta_0, which equals eta_t
    for normalized schedules and keeps the marginal exactly equal to the
    composed per-step chain in raw mode too.
    """
    x0, delta0 = _require_arrays(x0, delta0)
    t = _check_t(t, _check_cfg(cfg).steps)
    return _marginal(x0, delta0, t, cfg, _noise_for(rng)(x0.shape))


def _marginal(x0, delta0, t, cfg, noise):
    """forward_marginal's draw, for float64 arrays of one shape and 1 <= t <= T."""
    eta = cfg.schedule.etas[t] - cfg.schedule.etas[0]
    return x0 + eta * delta0 + cfg.sigma * np.sqrt(eta) * noise


def forward_chain(x0, delta0, cfg, rng, keep_trajectory=False,
                  convention="eq5_variance"):
    """Compose forward_step, under ``convention``, from t=1..T.

    Returns ``(x_T, frames)``; ``frames`` lists x_0..x_T when
    ``keep_trajectory`` is set and is None otherwise.
    """
    x, delta0 = _require_arrays(x0, delta0)
    alphas = _check_cfg(cfg).schedule.alphas
    _check_convention(convention)
    draw = _noise_for(rng)
    frames = [x] if keep_trajectory else None
    for t, a_t in enumerate(alphas, start=1):
        x = x + _increment(delta0, a_t, cfg.sigma, draw(x.shape), convention)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite values at forward step {t}")
        if keep_trajectory:
            frames.append(x)
    return x, frames


def posterior_params(x_t, x0_hat, t, cfg):
    """Mean and scalar variance of the reverse Gaussian posterior.

    mean = (eta_{t-1}/eta_t) x_t + (alpha_t/eta_t) x0_hat
    var  = sigma^2 * eta_{t-1} * alpha_t / eta_t

    Exact for normalized schedules; at t=1 the posterior collapses to the
    prediction with zero variance.
    """
    x_t, x0_hat = _require_arrays(x_t, x0_hat)
    c_t, c_0, variance = _posterior_step(_check_t(t, _check_cfg(cfg).steps), cfg)
    return c_t * x_t + c_0 * x0_hat, variance


def _posterior_step(t, cfg):
    """Step t's posterior: the mean's coefficients of x_t and x0_hat, and the variance."""
    eta_prev, eta_t = cfg.schedule.etas[t - 1:t + 1]
    a_t = eta_t - eta_prev
    return eta_prev / eta_t, a_t / eta_t, float(cfg.sigma**2 * eta_prev * a_t / eta_t)


class _Fields:
    """The chain's standard-normal fields from ``rng``.  From an RngStream and
    at least _AHEAD_VALUES values, each is drawn ahead on a worker thread, into
    a buffer allocated in this thread's heap, while the steps before it run;
    Philox gives the same bits on any thread.  ``close`` ends the worker and
    gives back the field drawn but not added: the stream state goes back to
    where inline draws leave it."""

    def __init__(self, rng, shape):
        self.rng, self.shape, self.pool = rng, shape, None
        if isinstance(rng, RngStream) and np.prod(shape) >= _AHEAD_VALUES:
            from concurrent.futures import ThreadPoolExecutor
            self.pool, self.buf = ThreadPoolExecutor(1, "pixelboost"), np.empty(shape)
            self._draw()

    def _draw(self):
        self.state = self.rng.bit_generator.state
        self.drawn = self.pool.submit(self.rng.standard_normal, out=self.buf)

    def add_to(self, x, scale):
        """x += scale * the next field, the bits of x + scale * field."""
        if self.pool is None:
            x += scale * self.rng.standard_normal(self.shape)
        else:
            self.drawn.result()
            self.buf *= scale
            x += self.buf
            self._draw()

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()  # waits for the draw in flight
            self.rng.bit_generator.state = self.state


def reverse_sample(y0_up, denoiser, cfg, rng, keep_trajectory=False):
    """Run the full reverse chain from x_T = y0_up + noise down to x_0.

    ``denoiser`` is any callable (x_t, y0_up, t) -> x0_hat.  Requires a
    normalized schedule so the final step is deterministic.  The returned
    image is clamped to [0, 1]; intermediate states are not.
    """
    sched = _check_cfg(cfg).schedule
    if sched.mode != "normalized":
        raise ParameterError("reverse sampling requires a normalized schedule")
    if not callable(denoiser):
        raise ParameterError(f"denoiser must be callable, got {denoiser!r}")
    y0_up = as_image(y0_up)
    x = y0_up + cfg.sigma * np.sqrt(sched.etas[-1]) * _noise_for(rng)(y0_up.shape)
    frames = [x] if keep_trajectory else None
    with closing(_Fields(rng, x.shape)) as fields:
        for t in range(cfg.steps, 0, -1):
            (x0_hat,) = _require_arrays(denoiser(x, y0_up, t))
            if x0_hat.shape != x.shape:
                raise ShapeError(
                    f"denoiser returned shape {x0_hat.shape}, expected {x.shape}")
            c_t, c_0, var = _posterior_step(t, cfg)
            x = c_t * x + c_0 * x0_hat  # a new array: the last may be a frame
            if var > 0.0:
                fields.add_to(x, np.sqrt(var))
            if not np.all(np.isfinite(x)):
                raise NumericError(f"non-finite values at reverse step t={t}")
            if keep_trajectory:
                frames.append(x)
    return np.clip(x, 0.0, 1.0), frames
