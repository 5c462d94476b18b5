"""Which noise family does a residual sample look like?

A chi-square statistic over shared equal-width bins compares an observed
sample against candidate samples drawn from standardized noise families.
Smaller is a better fit; a report ranks the families.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateFitError, ParameterError
from .noise import NoiseKind, sample_noise

DEFAULT_BIN_COUNT = 64
MIN_SAMPLES_PER_BIN = 10
FIT_FAMILIES = ("brownian", "gaussian", "laplacian", "poisson")

# Statistics from one fixed reference run at default settings (64 bins,
# matched sample counts).  Documented output only -- a live report
# recomputes its own statistics and may differ with seed and sigma.
REFERENCE_STATISTICS = {
    "brownian": 0.1541,
    "gaussian": 0.1763,
    "laplacian": 0.5372,
    "poisson": 0.8688,
}


@dataclass(frozen=True)
class HistogramSpec:
    """Equal-width binning; range defaults to the pooled sample extent."""

    bin_count: int = DEFAULT_BIN_COUNT
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self):
        if self.bin_count < 2:
            raise ParameterError(f"bin_count must be >= 2, got {self.bin_count}")
        if (self.lo is None) != (self.hi is None):
            raise ParameterError("lo and hi must be given together")
        if self.lo is not None and not self.hi > self.lo:
            raise ParameterError(f"need hi > lo, got [{self.lo}, {self.hi}]")

    def edges(self, *samples):
        if self.lo is not None:
            lo, hi = self.lo, self.hi
        else:
            pooled = np.concatenate([np.ravel(s) for s in samples])
            lo, hi = float(pooled.min()), float(pooled.max())
            if not hi > lo:
                raise DegenerateFitError(
                    "pooled samples span a single value; no usable bins")
        return np.linspace(lo, hi, self.bin_count + 1)


def _clean_sample(sample, name):
    arr = np.ravel(np.asarray(sample, dtype=np.float64))
    if arr.size == 0:
        raise ParameterError(f"{name} sample is empty")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} sample contains non-finite values")
    return arr


def histogram(sample, spec=None):
    """Relative frequencies over the spec's bins (divided by total n).

    Values outside an explicit [lo, hi] range are dropped from the
    counts but still contribute to the denominator, so the frequencies
    of a clipped sample sum to less than one.
    """
    spec = spec or HistogramSpec()
    arr = _clean_sample(sample, "input")
    edges = spec.edges(arr)
    counts, _ = np.histogram(arr, bins=edges)
    return counts / arr.size, edges


def chi_square(observed, expected, spec=None):
    """sum (O_i - E_i)^2 / E_i over bins with expected mass.

    O and E are relative frequencies of the two samples over shared
    bins.  Bins where E_i == 0 are skipped; if every bin is skipped the
    comparison is meaningless and a DegenerateFitError is raised.
    """
    spec = spec or HistogramSpec()
    obs = _clean_sample(observed, "observed")
    exp = _clean_sample(expected, "expected")
    edges = spec.edges(obs, exp)
    o_counts, _ = np.histogram(obs, bins=edges)
    e_counts, _ = np.histogram(exp, bins=edges)
    o = o_counts / obs.size
    e = e_counts / exp.size
    mask = e > 0
    if not mask.any():
        raise DegenerateFitError(
            "expected sample has no mass inside the binning range")
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


def noise_fit_report(observed, sigma, rng, spec=None):
    """Rank standardized noise families by chi-square fit to ``observed``.

    Candidate samples are drawn from independent substreams of ``rng``,
    matched in count to the observed sample.  The brownian candidate is
    N(0, sigma^2); the others are variance-one references, so sigma is
    what separates brownian from gaussian.
    """
    spec = spec or HistogramSpec()
    obs = _clean_sample(observed, "observed")
    if obs.size < MIN_SAMPLES_PER_BIN * spec.bin_count:
        raise ParameterError(
            f"need at least {MIN_SAMPLES_PER_BIN * spec.bin_count} observations "
            f"for {spec.bin_count} bins, got {obs.size}")
    statistics = {}
    for k, family in enumerate(FIT_FAMILIES):
        kind = NoiseKind(family, sigma=sigma)
        candidate = sample_noise(kind, (obs.size,), rng.substream(k))
        statistics[family] = chi_square(obs, candidate, spec)
    return FitReport(sigma=float(sigma), sample_count=int(obs.size),
                     bin_count=int(spec.bin_count), statistics=statistics)
