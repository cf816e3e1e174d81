"""Gaussian posteriors over merge coefficients and Monte-Carlo risk estimation.

A randomized classifier draws fresh coefficients per prediction; following
the usual estimator, we instead draw ``k`` whole coefficient vectors and
average their 0-1 risks, which is identical in expectation.  Gaussian draws
use a counter-based seeding contract — draw ``j`` comes from the stream
``(seed, j)`` — so evaluation order can never change results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError
from .merging import MergeScheme, realize
from .seeding import rng_for
from .toyzoo import LabeledSet, MlpSpec, zero_one_risk


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
        if not self.variance > 0:
            raise DomainError(f"variance must be positive, got {self.variance}")

    @property
    def dim(self) -> int:
        return int(self.mean.size)


def sample(spec: GaussianSpec, seed: int, k: int) -> np.ndarray:
    """k coefficient draws as rows; deterministic in seed."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    std = np.sqrt(spec.variance)
    rows = [
        spec.mean + std * rng_for(seed, "gauss", j).standard_normal(spec.dim)
        for j in range(k)
    ]
    return np.stack(rows)


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
    risks = [zero_one_risk(model_spec, realize(scheme, phi), data) for phi in draws]
    return float(np.mean(risks))
