"""Sigmoidal shifting sequence {eta_t} and its per-step drift alpha_t.

The sequence controls how much of the low-resolution residual has been
injected by step t.  eta follows a logistic curve centered at t_mid; in
``normalized`` mode it is rescaled so eta_0 = 0 and eta_T = 1 exactly,
which makes the reverse process terminate deterministically and the
forward marginal reach the residual-shifted endpoint at T.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _require_int

MODES = ("raw", "normalized")

# far past saturation: with the default t_mid no schedule over 76 steps is
# strictly increasing; the bound refuses a huge count before allocating
MAX_STEPS = 1000


@dataclass(frozen=True)
class Schedule:
    """Immutable shifting sequence.

    ``etas`` holds T+1 values eta_0..eta_T; eta_0 is the synthetic start
    anchor needed so that alpha_1 = eta_1 - eta_0 is well defined.
    """

    t_mid: float
    etas: np.ndarray
    mode: str

    def __post_init__(self):
        etas = np.asarray(self.etas, dtype=np.float64)
        etas.setflags(write=False)
        object.__setattr__(self, "etas", etas)
        if etas.ndim != 1 or etas.size < 2:
            raise ParameterError(
                f"need a 1-D sequence of at least 2 eta values, got shape {etas.shape}")
        if not np.all(np.diff(etas) > 0):
            raise ParameterError("eta sequence must be strictly increasing")
        if etas[0] < 0 or etas[-1] > 1:
            raise ParameterError("eta values must lie in [0, 1]")
        if self.mode == "normalized" and (etas[0] != 0.0 or etas[-1] != 1.0):
            raise ParameterError("normalized schedule must have eta_0 = 0, eta_T = 1")

    @property
    def steps(self):
        """T, the number of steps."""
        return self.etas.size - 1

    @property
    def alphas(self):
        """All T drifts alpha_1..alpha_T."""
        return np.diff(self.etas)


def default_t_mid(steps):
    """Curve midpoint placed halfway through the step range."""
    return steps / 2.0 + 0.5


def build_schedule(steps, t_mid=None, mode="normalized"):
    """Build the sigmoidal shifting sequence.

    raw mode:        eta_t = 1 / (1 + exp(-(t - t_mid)))
    normalized mode: the same curve shifted/scaled so eta_0 = 0, eta_T = 1.

    ``t_mid`` defaults to steps/2 + 0.5 so a 15-step schedule crosses 0.5
    at t = 8.
    """
    steps = _require_int("steps", steps)
    if not 2 <= steps <= MAX_STEPS:
        raise ParameterError(f"steps must lie in 2..{MAX_STEPS}, got {steps}")
    if t_mid is None:
        t_mid = default_t_mid(steps)
    t_mid = float(t_mid)
    if not 0.0 < t_mid < steps:
        raise ParameterError(f"t_mid must lie in (0, {steps}), got {t_mid}")
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")

    t = np.arange(steps + 1, dtype=np.float64)
    s = 1.0 / (1.0 + np.exp(-(t - t_mid)))
    if mode == "normalized":
        etas = (s - s[0]) / (s[-1] - s[0])
        etas[0] = 0.0   # exact boundaries (the formula already gives 0 and 1,
        etas[-1] = 1.0  # pinned here against any rounding in the subtraction)
    else:
        etas = s
    return Schedule(t_mid=t_mid, etas=etas, mode=mode)
