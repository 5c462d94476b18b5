"""Sigmoidal shifting sequence {eta_t} and its per-step drift alpha_t.

The sequence controls how much of the low-resolution residual has been
injected by step t.  eta follows a logistic curve centered at t_mid; in
``normalized`` mode it is rescaled so eta_0 = 0 and eta_T = 1 exactly,
which makes the reverse process terminate deterministically and the
forward marginal reach the residual-shifted endpoint at T.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, _require_int, _require_positive, _shown

MODES = ("raw", "normalized")

# far past saturation: with the default t_mid no schedule over 76 steps is
# strictly increasing; the bound refuses a huge count before allocating
MAX_STEPS = 1000


@dataclass(frozen=True)
class Schedule:
    """Immutable shifting sequence, fixed by its three numbers.

    raw mode:        eta_t = 1 / (1 + exp(-(t - t_mid)))
    normalized mode: the same curve shifted/scaled so eta_0 = 0, eta_T = 1.

    ``t_mid`` defaults to steps/2 + 0.5 so a 15-step schedule crosses 0.5
    at t = 8.  ``etas`` holds the T+1 values eta_0..eta_T, computed here
    and nowhere else; eta_0 is the synthetic start anchor needed so that
    alpha_1 = eta_1 - eta_0 is well defined.  Schedules compare and hash
    by (steps, t_mid, mode), the three values a checkpoint records.
    """

    steps: int
    t_mid: float = None
    mode: str = "normalized"
    etas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        steps = _steps(self.steps)
        t_mid = default_t_mid(steps) if self.t_mid is None else self.t_mid
        t_mid = _require_positive("t_mid", t_mid, below=steps)
        if not isinstance(self.mode, str) or self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {_shown(self.mode)}")
        t = np.arange(steps + 1, dtype=np.float64)
        # past t_mid = ln(DBL_MAX) the exp overflows at t = 0 to +inf, so s = 0.0
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-(t - t_mid)))
        # exactly 0 and 1 at the ends: 0/x and x/x
        etas = (s - s[0]) / (s[-1] - s[0]) if self.mode == "normalized" else s
        # a saturated midpoint gives a flat run of equal values
        if not np.all(np.diff(etas) > 0):
            raise ParameterError("eta sequence must be strictly increasing")
        etas.setflags(write=False)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "t_mid", t_mid)
        object.__setattr__(self, "etas", etas)

    @property
    def alphas(self):
        """All T drifts alpha_1..alpha_T."""
        return np.diff(self.etas)


def default_t_mid(steps):
    """Curve midpoint placed halfway through a schedule's step range."""
    return _steps(steps) / 2.0 + 0.5


def _steps(steps):
    steps = _require_int("steps", steps)
    if not 2 <= steps <= MAX_STEPS:
        raise ParameterError(f"steps must lie in 2..{MAX_STEPS}, got {_shown(steps)}")
    return steps


def build_schedule(steps, t_mid=None, mode="normalized"):
    """The sigmoidal shifting sequence of ``steps`` steps (see Schedule)."""
    return Schedule(steps, t_mid, mode)
