"""Forward Brownian residual-shifting kernel, reverse posterior, sampler, loss.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, _require_int
from .imagedata import as_image, check_same_shape
from .schedule import Schedule, build_schedule

CONVENTIONS = ("eq5_variance", "eq4_literal")


@dataclass(frozen=True)
class DiffusionConfig:
    sigma: float
    schedule: Schedule
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ParameterError(f"sigma must be positive and finite, got {self.sigma}")

    @property
    def steps(self):
        """T, as the schedule defines it."""
        return self.schedule.steps


def make_config(steps=15, sigma=1.5, t_mid=None, mode="normalized",
                convention="eq5_variance", seed=0):
    """Convenience constructor building the schedule alongside the config."""
    # the bench's sampling config still passes the checkpoint's convention;
    # this keyword goes when the bench rebuilds its config with ckpt.config()
    if convention != "eq5_variance":
        raise ParameterError(
            f"the config's closed forms are eq5_variance, got {convention!r}")
    sched = build_schedule(steps, t_mid=t_mid, mode=mode)
    return DiffusionConfig(sigma=float(sigma), schedule=sched,
                           seed=_require_int("seed", seed))


def _check_t(t, steps):
    t = _require_int("t", t)
    if not 1 <= t <= steps:
        raise IndexError(f"t={t} outside 1..{steps}")
    return t


def step_increment(delta0, alpha_t, sigma, noise, convention="eq5_variance"):
    """The x_{t-1} -> x_t increment for an explicitly given alpha_t.

    Useful for single transitions without a full schedule: with
    delta_0 = 0, alpha_t = 0.2, sigma = 0.5 and w = -1.2 the eq4_literal
    increment is exactly 0.2 * (0.5 * -1.2) = -0.12.
    """
    delta0 = np.asarray(delta0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    check_same_shape(delta0, noise)
    if not alpha_t > 0:
        raise ParameterError(f"alpha_t must be positive, got {alpha_t}")
    if not sigma > 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if convention not in CONVENTIONS:
        raise ParameterError(
            f"convention must be one of {CONVENTIONS}, got {convention!r}")
    if convention == "eq4_literal":
        return alpha_t * (delta0 + sigma * noise)
    return alpha_t * delta0 + sigma * np.sqrt(alpha_t) * noise


def _noise_for(shape, rng, noise):
    """The given standard-normal field, else a fresh draw from ``rng``."""
    if noise is None:
        if rng is None:
            raise ParameterError("need an RngStream when noise is not supplied")
        return rng.standard_normal(shape)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != shape:
        raise ShapeError(f"noise shape {noise.shape} != state shape {shape}")
    return noise


def forward_step(x_prev, delta0, t, cfg, rng=None, noise=None,
                 convention="eq5_variance"):
    """One forward transition x_{t-1} -> x_t.

    ``noise`` optionally fixes the standard-normal field w; otherwise it
    is drawn from ``rng``.  Under the normative eq5_variance convention
    the increment is alpha_t*delta_0 + sigma*sqrt(alpha_t)*w; under
    eq4_literal it is alpha_t*(delta_0 + sigma*w).  Every other function
    here is the eq5_variance closed form.
    """
    x_prev = np.asarray(x_prev, dtype=np.float64)
    delta0 = np.asarray(delta0, dtype=np.float64)
    check_same_shape(x_prev, delta0)
    t = _check_t(t, cfg.steps)
    etas = cfg.schedule.etas
    a_t = etas[t] - etas[t - 1]
    noise = _noise_for(x_prev.shape, rng, noise)
    return x_prev + step_increment(delta0, a_t, cfg.sigma, noise, convention)


def forward_marginal(x0, delta0, t, cfg, rng=None, noise=None):
    """Single draw of x_t directly from the closed-form marginal.

    The injected-residual fraction is eta_t - eta_0, which equals eta_t
    for normalized schedules and keeps the marginal exactly equal to the
    composed per-step chain in raw mode too.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    delta0 = np.asarray(delta0, dtype=np.float64)
    check_same_shape(x0, delta0)
    t = _check_t(t, cfg.steps)
    eta = cfg.schedule.etas[t] - cfg.schedule.etas[0]
    noise = _noise_for(x0.shape, rng, noise)
    return x0 + eta * delta0 + cfg.sigma * np.sqrt(eta) * noise


def forward_chain(x0, delta0, cfg, rng, keep_trajectory=False,
                  convention="eq5_variance"):
    """Compose forward_step, under ``convention``, from t=1..T.

    Returns ``(x_T, frames)``; ``frames`` lists x_0..x_T when
    ``keep_trajectory`` is set and is None otherwise.
    """
    x = np.asarray(x0, dtype=np.float64)
    frames = [x] if keep_trajectory else None
    for t in range(1, cfg.steps + 1):
        x = forward_step(x, delta0, t, cfg, rng, convention=convention)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite values at forward step {t}")
        if keep_trajectory:
            frames.append(x)
    return x, frames


def posterior_params(x_t, x0_hat, t, cfg):
    """Mean and scalar variance of the reverse Gaussian posterior.

    mean = (eta_{t-1}/eta_t) x_t + (alpha_t/eta_t) x0_hat
    var  = sigma^2 * eta_{t-1} * alpha_t / eta_t

    Exact for schedules anchored at eta_0 = 0; at t=1 the posterior
    collapses to the prediction with zero variance.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    check_same_shape(x_t, x0_hat)
    t = _check_t(t, cfg.steps)
    etas = cfg.schedule.etas
    eta_t = etas[t]
    eta_prev = etas[t - 1]
    if eta_t == 0.0:
        raise ParameterError(f"degenerate schedule: eta_{t} = 0")
    a_t = eta_t - eta_prev
    mean = (eta_prev / eta_t) * x_t + (a_t / eta_t) * x0_hat
    variance = cfg.sigma**2 * eta_prev * a_t / eta_t
    return mean, float(variance)


def reverse_sample(y0_up, denoiser, cfg, rng, keep_trajectory=False):
    """Run the full reverse chain from x_T = y0_up + noise down to x_0.

    ``denoiser`` is any callable (x_t, y0_up, t) -> x0_hat.  Requires a
    normalized schedule so the final step is deterministic.  The returned
    image is clamped to [0, 1]; intermediate states are not.
    """
    sched = cfg.schedule
    if sched.etas[0] != 0.0 or sched.etas[-1] != 1.0:
        raise ParameterError("reverse sampling requires a normalized schedule")
    y0_up = as_image(y0_up)
    x = y0_up + cfg.sigma * np.sqrt(sched.etas[-1]) * rng.standard_normal(y0_up.shape)
    frames = [x] if keep_trajectory else None
    for t in range(cfg.steps, 0, -1):
        x0_hat = np.asarray(denoiser(x, y0_up, t), dtype=np.float64)
        if x0_hat.shape != x.shape:
            raise ShapeError(
                f"denoiser returned shape {x0_hat.shape}, expected {x.shape}")
        mean, var = posterior_params(x, x0_hat, t, cfg)
        if var > 0.0:
            x = mean + np.sqrt(var) * rng.standard_normal(x.shape)
        else:
            x = mean
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite values at reverse step t={t}")
        if keep_trajectory:
            frames.append(x)
    return np.clip(x, 0.0, 1.0), frames


WEIGHTINGS = ("uniform_mse", "exact_kl")


def kl_weight(t, cfg):
    """Closed-form KL weight alpha_t / (2 sigma^2 eta_{t-1} eta_t) for t >= 2."""
    t = _check_t(t, cfg.steps)
    etas = cfg.schedule.etas
    eta_t, eta_prev = etas[t], etas[t - 1]
    if eta_prev == 0.0:
        raise ParameterError("KL weight diverges at eta_{t-1} = 0; handled separately")
    return float((eta_t - eta_prev) / (2.0 * cfg.sigma**2 * eta_prev * eta_t))


def loss_weight(t, cfg, weighting, size):
    """The weight w of one item's loss w * sum((x0_hat - x0)^2) over ``size`` values.

    ``uniform_mse`` weighs every value by 1/size.  ``exact_kl`` uses the
    KL weight, except at the deterministic terminal step (eta_{t-1} = 0),
    where the loss is the plain squared error.
    """
    if weighting == "uniform_mse":
        return 1.0 / size
    if weighting == "exact_kl":
        if cfg.schedule.etas[t - 1] == 0.0:
            return 1.0
        return kl_weight(t, cfg)
    raise ParameterError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")


def item_loss(x0, x0_hat, t, cfg, weighting="uniform_mse"):
    """Per-item training loss given a prediction at sampled step t."""
    diff = x0_hat - x0
    sq = diff * diff
    if weighting == "uniform_mse":
        # mean(d^2) is not bit-equal to (1/n) * sum(d^2)
        return float(np.mean(sq))
    return loss_weight(t, cfg, weighting, sq.size) * float(np.sum(sq))
