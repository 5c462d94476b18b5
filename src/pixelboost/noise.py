"""Seedable random streams and the standardized noise families.

Every sampling routine in the package draws from an :class:`RngStream`,
a numpy ``Generator`` on a counter-based bit generator keyed by
``(seed, stream_id)``.  The same key always reproduces the same sample
sequence, and distinct stream ids give statistically independent
substreams, so pipelines can hand out one stream per purpose (dataset
synthesis, weight init, training, sampling) and stay bit-reproducible
end to end.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ParameterError, _require_int, _require_positive, _require_size,
                     _require_type, _shown)

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


class RngStream(np.random.Generator):
    """A numpy Generator on a Philox counter-based bit generator keyed by
    (seed, stream_id), each masked to 64 bits.

    The same key always gives the same draws.  numpy casts a key value of
    2**63 or more through float64, so until the key is passed as one
    unsigned integer such seeds and ids alias others (ROADMAP item 10).
    A stream is single-owner mutable state: never share one instance
    across concurrent tasks, spawn substreams instead.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = _require_int("seed", seed) & _MASK64
        self.stream_id = _require_int("stream_id", stream_id) & _MASK64
        super().__init__(np.random.Philox(key=[self.seed, self.stream_id]))

    def __reduce__(self):
        # numpy's own reduce would rebuild a plain Generator
        return RngStream, (self.seed, self.stream_id), self.bit_generator.state

    def __setstate__(self, state):
        self.bit_generator.state = state

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    __str__ = __repr__

    def substream(self, k):
        """Derive an independent stream; same (seed, stream_id, k) -> same stream."""
        return RngStream(self.seed, _mix(self.stream_id, _require_int("k", k)))


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
        if not isinstance(self.tag, str) or self.tag not in FAMILIES:
            raise ParameterError(f"unknown noise family {_shown(self.tag)}")
        if self.tag == "brownian":
            # a plain float, whose product with a standard normal draw stays finite
            object.__setattr__(self, "sigma", _require_positive(
                "brownian strength sigma", self.sigma, 1e300))


def sample_noise(kind, shape, rng):
    """Draw an i.i.d. field from the given standardized noise family.

    ``shape`` may be an int or a tuple of ints with at least one element.
    Returns a float64 array of that shape.
    """
    _require_type("kind", kind, NoiseKind)
    _require_type("rng", rng, RngStream)
    if np.ndim(shape) == 0:
        shape = (shape,)
    shape = tuple(_require_int("each shape entry", n, 1) for n in shape)
    if len(shape) == 0:
        raise ParameterError("shape must have at least one entry")
    _require_size("shape", math.prod(shape))

    tag = kind.tag
    if tag == "gaussian":
        return rng.standard_normal(shape)
    if tag == "brownian":
        return kind.sigma * rng.standard_normal(shape)
    if tag == "laplacian":
        # variance of Laplace(b) is 2 b^2; b = 1/sqrt(2) standardizes it
        return rng.laplace(0.0, 1.0 / np.sqrt(2.0), shape)
    lam = _POISSON_RATE  # poisson, the last of NoiseKind's families
    v = rng.poisson(lam, shape).astype(np.float64)
    v -= lam
    v /= np.sqrt(lam)
    return v
