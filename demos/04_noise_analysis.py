"""Which noise family produced a residual?  Chi-square ranking.

Candidate families are standardized (variance one) except the Brownian
one, which keeps its sigma^2 scale -- that asymmetry is exactly what
lets the test tell "Brownian at sigma=1.5" apart from plain unit
Gaussian noise.  The statistic compares relative-frequency histograms
over shared bins: 0 means identical, larger means a worse fit.
"""

import pixelboost as pb
from pixelboost.noise import FAMILIES, STREAM_ANALYSIS, NoiseKind, RngStream, sample_noise

SIGMA = 1.5
rng = RngStream(0, STREAM_ANALYSIS)

# A full report for one Brownian-generated sample.
observed = sample_noise(NoiseKind("brownian", sigma=SIGMA), (50_000,),
                        rng.substream(0))
report = pb.noise_fit_report(observed, SIGMA, rng.substream(1))
print(report)

# The statistic is exactly zero against itself, by construction.
print(f"\nself-fit statistic: {pb.chi_square(observed, observed)!r}")

# Every family is recovered from its own draws.
print("\ngenerating family -> best fit")
for k, family in enumerate(FAMILIES):
    sample = sample_noise(NoiseKind(family, sigma=SIGMA), (50_000,),
                          rng.substream(10 + k))
    rep = pb.noise_fit_report(sample, SIGMA, rng.substream(20 + k))
    marker = "ok" if rep.best == family else "MISS"
    print(f"  {family:<10} -> {rep.best:<10} [{marker}]")

# At sigma = 1 the Brownian and Gaussian candidates coincide in law, so
# their statistics are both small and the ranking between them is noise.
even = sample_noise(NoiseKind("brownian", sigma=1.0), (50_000,),
                    rng.substream(30))
rep = pb.noise_fit_report(even, 1.0, rng.substream(31))
print(f"\nat sigma=1: brownian chi2={rep.statistics['brownian']:.4f}, "
      f"gaussian chi2={rep.statistics['gaussian']:.4f} (indistinguishable)")
