"""Gaussian posteriors over merge coefficients and Monte-Carlo risk estimation.

A randomized classifier draws fresh coefficients per prediction; following
the usual estimator, we instead draw ``k`` whole coefficient vectors and
average their 0-1 risks, which is identical in expectation.  Gaussian draws
use a counter-based seeding contract — draw ``j`` comes from the stream
``(seed, j)`` — so evaluation order can never change results.

The standard-normal noise of ``(seed, k, dim)`` is drawn once and kept,
read-only, in a small LRU cache.  With common random numbers every objective
evaluation of a search, the final train-risk recompute and every grid point
of a validity trial reuse it.

``mc_risk`` merges all ``k`` draws in one ``merged_values`` call, whose cost
does not depend on the set size and whose rows do not depend on their batch,
and scores them in one ``error_counts`` call, which owns the row budget
that keeps scoring cache-sized.  Stacked draws score with the bits of each
draw alone; how row tiles of large sets round is noted in ``error_counts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, StructureError
from .merging import MergeScheme, merged_values
from .seeding import rng_for
from .toyzoo import LabeledSet, MlpSpec, error_counts

@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Isotropic diagonal Gaussian over coefficients."""

    mean: np.ndarray
    variance: float

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64, copy=True).reshape(-1)
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        if not np.all(np.isfinite(mean)):
            raise DomainError("Gaussian mean must be finite")
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise DomainError(f"variance must be positive and finite, got {self.variance}")

    @property
    def dim(self) -> int:
        return int(self.mean.size)


@lru_cache(maxsize=64)
def _noise(seed: int, k: int, dim: int) -> np.ndarray:
    eps = np.stack([rng_for(seed, "gauss", j).standard_normal(dim) for j in range(k)])
    eps.flags.writeable = False
    return eps


def sample(spec: GaussianSpec, seed: int, k: int) -> np.ndarray:
    """k coefficient draws as rows; deterministic in seed."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    return spec.mean + np.sqrt(spec.variance) * _noise(seed, k, spec.dim)


def mc_risk(
    spec: GaussianSpec,
    scheme: MergeScheme,
    model_spec: MlpSpec,
    data: LabeledSet,
    k: int = 10,
    seed: int = 0,
) -> float:
    """Average 0-1 risk of ``k`` models realized from posterior draws."""
    if data.n == 0:
        raise DomainError("mc_risk needs a non-empty set")
    draws = sample(spec, seed, k)
    if draws.shape[1] != scheme.d_phi:
        raise StructureError(
            f"posterior dimension {draws.shape[1]} != scheme d_phi {scheme.d_phi}"
        )
    errors = error_counts(model_spec, merged_values(scheme, draws), data)
    return float(np.mean(errors / data.n))
