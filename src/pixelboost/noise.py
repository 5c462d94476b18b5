"""Seedable random streams and the standardized noise families.

Every sampling routine in the package draws from an :class:`RngStream`,
a counter-based generator keyed by ``(seed, stream_id)``.  The same key
always reproduces the same sample sequence, and distinct stream ids give
statistically independent substreams, so pipelines can hand out one
stream per purpose (dataset synthesis, weight init, training, sampling)
and stay bit-reproducible end to end.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1

# Conventional substream ids used by the pipeline entry points.
STREAM_DATASET = 1
STREAM_INIT = 2
STREAM_TRAIN = 3
STREAM_SAMPLER = 4
STREAM_ANALYSIS = 5
STREAM_FORWARD = 6

# in the order noise_fit_report draws their candidates, substream k for the kth
FAMILIES = ("brownian", "gaussian", "laplacian", "poisson")
# the rate of the Poisson count that the poisson family standardizes
_POISSON_RATE = 10.0


def _mix(a, b):
    # splitmix64 finalizer over a golden-ratio combine; decorrelates ids
    x = (a * 0x9E3779B97F4A7C15 + b + 1) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass
class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Wraps a Philox counter-based bit generator; the key is exactly the
    (seed, stream_id) pair, so construction is cheap and reproducible.
    A stream is single-owner mutable state: never share one instance
    across concurrent tasks, spawn substreams instead.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seed = int(self.seed) & _MASK64
        sid = int(self.stream_id) & _MASK64
        self.seed = seed
        self.stream_id = sid
        self._gen = np.random.Generator(np.random.Philox(key=[seed, sid]))

    @property
    def generator(self):
        return self._gen

    def substream(self, k):
        """Derive an independent stream; same (seed, stream_id, k) -> same stream."""
        return RngStream(self.seed, _mix(self.stream_id, int(k)))

    # Thin draws used throughout the package; all consume this stream's state.
    def standard_normal(self, shape=None):
        return self._gen.standard_normal(shape)

    def uniform(self, low, high, shape=None):
        return self._gen.uniform(low, high, shape)

    def integers(self, low, high, shape=None):
        return self._gen.integers(low, high, shape)

    def poisson(self, lam, shape=None):
        return self._gen.poisson(lam, shape)

    def laplace(self, scale, shape=None):
        return self._gen.laplace(0.0, scale, shape)


@dataclass(frozen=True)
class NoiseKind:
    """A noise family tag plus, for ``brownian``, its strength sigma.

    All families are standardized to mean 0 / unit variance before the
    optional rescale: ``brownian`` rescales by sigma (one unit-time
    increment of a Brownian path of strength sigma), ``poisson`` is the
    lattice (X - lam)/sqrt(lam) at lam = 10 and ``laplacian`` uses scale b
    with 2 b^2 = 1.
    """

    tag: str
    sigma: float = 1.0   # brownian only

    def __post_init__(self):
        if self.tag not in FAMILIES:
            raise ParameterError(f"unknown noise family {self.tag!r}")
        if self.tag == "brownian" and not self.sigma > 0:
            raise ParameterError(f"brownian strength must be positive, got {self.sigma}")


def sample_noise(kind, shape, rng):
    """Draw an i.i.d. field from the given standardized noise family.

    ``shape`` may be an int or a tuple of ints with at least one element.
    Returns a float64 array of that shape.
    """
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    else:
        shape = tuple(int(n) for n in shape)
    if len(shape) == 0 or any(n <= 0 for n in shape):
        raise ParameterError(f"shape must be nonempty with positive dims, got {shape}")

    tag = kind.tag
    if tag == "gaussian":
        return rng.standard_normal(shape)
    if tag == "brownian":
        return kind.sigma * rng.standard_normal(shape)
    if tag == "laplacian":
        # variance of Laplace(b) is 2 b^2; b = 1/sqrt(2) standardizes it
        return rng.laplace(1.0 / np.sqrt(2.0), shape)
    if tag == "poisson":
        lam = _POISSON_RATE
        return (rng.poisson(lam, shape).astype(np.float64) - lam) / np.sqrt(lam)
    raise ParameterError(f"unknown noise family {tag!r}")
