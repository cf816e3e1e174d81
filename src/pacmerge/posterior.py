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

``mc_risks`` estimates the risks of m posterior means that share one
variance, such as the candidates of a CMA-ES generation or the points of a
validity grid: it merges all m·k draws in one ``merged_values`` call, whose
rows do not depend on their batch, and scores them in one ``error_counts``
call.  A mean's risk does not depend on the other means of its call;
``error_counts`` says how its scoring keeps that so.  ``mc_risk`` is its
one-mean call.
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


def _checked(means, variance: float) -> np.ndarray:
    """A private float64 copy of ``means``, after the Gaussian domain checks."""
    means = np.array(means, dtype=np.float64, copy=True)
    if not np.all(np.isfinite(means)):
        raise DomainError("Gaussian mean must be finite")
    if not (variance > 0 and math.isfinite(variance)):
        raise DomainError(f"variance must be positive and finite, got {variance}")
    return means


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Isotropic diagonal Gaussian over coefficients."""

    mean: np.ndarray
    variance: float

    def __post_init__(self):
        mean = _checked(self.mean, self.variance).reshape(-1)
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return int(self.mean.size)


@lru_cache(maxsize=64)
def _noise(seed: int, k: int, dim: int) -> np.ndarray:
    eps = np.stack([rng_for(seed, "gauss", j).standard_normal(dim) for j in range(k)])
    eps.flags.writeable = False
    return eps


def mc_risks(
    means: np.ndarray,
    variance: float,
    scheme: MergeScheme,
    model_spec: MlpSpec,
    data: LabeledSet,
    k: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """Average 0-1 risk of ``k`` posterior draws around each row of ``means``.

    Row i of the result is ``mc_risk(GaussianSpec(means[i], variance), ...)``:
    every mean takes the same ``k`` noise rows of ``(seed, k, d)``.
    """
    means = _checked(means, variance)
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if data.n == 0:
        raise DomainError("mc_risk needs a non-empty set")
    if means.ndim != 2 or means.shape[1] != scheme.d_phi:
        raise StructureError(
            f"posterior means have shape {means.shape}, scheme needs (m, {scheme.d_phi})"
        )
    m, d = means.shape
    draws = means[:, None, :] + np.sqrt(variance) * _noise(seed, k, d)
    errors = error_counts(model_spec, merged_values(scheme, draws.reshape(m * k, d)), data)
    return np.mean((errors / data.n).reshape(m, k), axis=1)


def mc_risk(
    spec: GaussianSpec,
    scheme: MergeScheme,
    model_spec: MlpSpec,
    data: LabeledSet,
    k: int = 10,
    seed: int = 0,
) -> float:
    """Average 0-1 risk of ``k`` models realized from posterior draws."""
    return float(mc_risks(spec.mean[None], spec.variance, scheme, model_spec, data, k, seed)[0])
