"""Which noise family does a residual sample look like?

A chi-square statistic over shared equal-width bins compares an observed
sample against candidate samples drawn from standardized noise families.
Smaller is a better fit; a report ranks the families.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateFitError, ParameterError, _require_arrays, _require_int,
                     _require_size, _require_type)
from .noise import FAMILIES, NoiseKind, RngStream, sample_noise

DEFAULT_BIN_COUNT = 64
MIN_SAMPLES_PER_BIN = 10


def _clean_sample(sample, name):
    arr = np.ravel(_require_arrays(sample)[0])
    if arr.size == 0:
        raise ParameterError(f"{name} sample is empty")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} sample contains non-finite values")
    return arr


def _bin_count(bins):
    return _require_size("bins", _require_int("bins", bins, 2))


def chi_square(observed, expected, bins=DEFAULT_BIN_COUNT):
    """sum (O_i - E_i)^2 / E_i over bins with expected mass.

    O and E are relative frequencies of the two samples over ``bins``
    equal-width bins spanning the pooled samples.  Bins where E_i == 0
    are skipped; pooled samples of a single value leave no bins and raise
    DegenerateFitError.
    """
    bins = _bin_count(bins)
    return _chi_square(_clean_sample(observed, "observed"),
                       _clean_sample(expected, "expected"), bins)


def _chi_square(obs, exp, bins):
    """chi_square of two nonempty, finite 1-D float64 samples and 2 <= bins <= _MAX_VALUES."""
    lo = float(min(obs.min(), exp.min()))
    hi = float(max(obs.max(), exp.max()))
    if not math.isfinite(hi - lo):
        raise ParameterError(f"pooled samples span [{lo!r}, {hi!r}], too wide to bin")
    if not hi > lo:
        raise DegenerateFitError("pooled samples span a single value; no usable bins")
    edges = np.linspace(lo, hi, bins + 1)
    o = np.histogram(obs, bins=edges)[0] / obs.size
    e = np.histogram(exp, bins=edges)[0] / exp.size
    mask = e > 0
    return float(np.sum((o[mask] - e[mask]) ** 2 / e[mask]))


@dataclass(frozen=True)
class FitReport:
    sigma: float
    sample_count: int
    bin_count: int
    statistics: dict  # family -> chi-square statistic

    @property
    def ranking(self):
        """Families from best fit (smallest statistic) to worst."""
        return tuple(sorted(self.statistics, key=lambda k: (self.statistics[k], k)))

    @property
    def best(self):
        return self.ranking[0]

    def lines(self):
        out = [f"noise fit: n={self.sample_count} sigma={self.sigma!r} "
               f"bins={self.bin_count}"]
        for rank, family in enumerate(self.ranking, start=1):
            out.append(f"  {rank}. {family:<10} chi2={self.statistics[family]!r}")
        out.append(f"best fit: {self.best}")
        return out

    def __str__(self):
        return "\n".join(self.lines())

    def csv(self):
        rows = ["family,chi_square"]
        for family in self.ranking:
            rows.append(f"{family},{self.statistics[family]!r}")
        return "\n".join(rows) + "\n"


def noise_fit_report(observed, sigma, rng, bins=DEFAULT_BIN_COUNT):
    """Rank standardized noise families by chi-square fit to ``observed``.

    Candidate samples are drawn from independent substreams of ``rng``,
    matched in count to the observed sample.  The brownian candidate is
    N(0, sigma^2); the others are variance-one references, so sigma is
    what separates brownian from gaussian.
    """
    bins = _bin_count(bins)
    _require_type("rng", rng, RngStream)
    obs = _clean_sample(observed, "observed")
    if obs.size < MIN_SAMPLES_PER_BIN * bins:
        raise ParameterError(
            f"need at least {MIN_SAMPLES_PER_BIN * bins} observations "
            f"for {bins} bins, got {obs.size}")
    statistics = {}
    for k, family in enumerate(FAMILIES):
        kind = NoiseKind(family, sigma=sigma)
        # scored as drawn, so no two candidates are alive at once; each is
        # finite, and obs was checked above
        statistics[family] = _chi_square(
            obs, sample_noise(kind, (obs.size,), rng.substream(k)), bins)
    return FitReport(sigma=float(sigma), sample_count=int(obs.size),
                     bin_count=bins, statistics=statistics)
