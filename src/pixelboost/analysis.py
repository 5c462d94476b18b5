"""Which noise family does a residual sample look like?

A chi-square statistic over shared equal-width bins compares an observed
sample against candidate samples drawn from standardized noise families.
Smaller is a better fit; a report ranks the families.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, ParameterError, _require_int
from .noise import FAMILIES as FIT_FAMILIES, NoiseKind, sample_noise

DEFAULT_BIN_COUNT = 64
MIN_SAMPLES_PER_BIN = 10

# Statistics from one fixed reference run at default settings (64 bins,
# matched sample counts).  Documented output only -- a live report
# recomputes its own statistics and may differ with seed and sigma.
REFERENCE_STATISTICS = {
    "brownian": 0.1541,
    "gaussian": 0.1763,
    "laplacian": 0.5372,
    "poisson": 0.8688,
}


def _clean_sample(sample, name):
    arr = np.ravel(np.asarray(sample, dtype=np.float64))
    if arr.size == 0:
        raise ParameterError(f"{name} sample is empty")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} sample contains non-finite values")
    return arr


def chi_square(observed, expected, bins=DEFAULT_BIN_COUNT):
    """sum (O_i - E_i)^2 / E_i over bins with expected mass.

    O and E are relative frequencies of the two samples over ``bins``
    equal-width bins spanning the pooled samples.  Bins where E_i == 0
    are skipped; pooled samples of a single value leave no bins and raise
    DegenerateFitError.
    """
    bins = _require_int("bins", bins, 2)
    obs = _clean_sample(observed, "observed")
    exp = _clean_sample(expected, "expected")
    lo = float(min(obs.min(), exp.min()))
    hi = float(max(obs.max(), exp.max()))
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
        ref = ", ".join(f"{k} {v}" for k, v in REFERENCE_STATISTICS.items())
        out.append(f"expected ordering for genuine residuals: "
                   f"{' < '.join(REFERENCE_STATISTICS)} (reference run: {ref})")
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
    bins = _require_int("bins", bins, 2)
    obs = _clean_sample(observed, "observed")
    if obs.size < MIN_SAMPLES_PER_BIN * bins:
        raise ParameterError(
            f"need at least {MIN_SAMPLES_PER_BIN * bins} observations "
            f"for {bins} bins, got {obs.size}")
    statistics = {}
    for k, family in enumerate(FIT_FAMILIES):
        kind = NoiseKind(family, sigma=sigma)
        candidate = sample_noise(kind, (obs.size,), rng.substream(k))
        statistics[family] = chi_square(obs, candidate, bins)
    return FitReport(sigma=float(sigma), sample_count=int(obs.size),
                     bin_count=bins, statistics=statistics)
