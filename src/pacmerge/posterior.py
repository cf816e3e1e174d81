"""Gaussian posteriors over merge coefficients and Monte-Carlo risk estimation.

A posterior is isotropic, given by a (d,) mean array and one variance.

A randomized classifier draws fresh coefficients per prediction; following
the usual estimator, we instead draw ``k`` whole coefficient vectors and
average their 0-1 risks, which is identical in expectation.  Gaussian draws
use a counter-based seeding contract — draw ``j`` comes from the stream
``(seed, j)`` — so evaluation order can never change results.  These
estimates steer the searches (every objective evaluation of a CMA-ES search
and every grid point of a validity trial's fit); no certificate reads one:
``certify.certify_gaussian`` certifies a single draw by its exact errors.

The standard-normal noise of ``(seed, k, dim)`` is drawn once and kept,
read-only, in a small LRU cache, so with common random numbers every
evaluation of one search, and every grid point of one fit, reuses it.

``posterior_rows`` merges the k draws around each of m posterior means that
share one variance in one ``merged_values`` call.  ``mc_risks`` estimates
the risks of such means, the candidates of a CMA-ES generation or the
points of a validity grid, by scoring those m·k rows in one
``error_counts`` call.  A mean's risk does not depend on the other means
of its call only as far as its merged float32 rows are those of a one-row
merge.  That rests on float32 rounding, not on construction: the float64
sums of ``merged_values`` depend on the batch, and its docstring gives the
evidence that the rounding hides this (none of 41.8M values differed).
One posterior's risk is a one-row call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, StructureError
from .merging import MergeScheme, merged_values
from .seeding import rng_for
from .toyzoo import LabeledSet, MlpSpec, error_counts


@lru_cache(maxsize=64)
def _noise(seed: int, k: int, dim: int) -> np.ndarray:
    eps = np.stack([rng_for(seed, "gauss", j).standard_normal(dim) for j in range(k)])
    eps.flags.writeable = False
    return eps


def posterior_rows(
    means: np.ndarray, variance: float, scheme: MergeScheme, k: int = 10, seed: int = 0
) -> np.ndarray:
    """Merged parameters (m·k, P) of ``k`` posterior draws around each row of
    ``means`` (m, d): row i·k + j is mean i plus draw j of the noise
    ``(seed, k, d)``, one ``merged_values`` call for all of them."""
    means = np.asarray(means, dtype=np.float64)
    if not np.isfinite(means).all():
        raise DomainError("Gaussian mean must be finite")
    if not (variance > 0 and math.isfinite(variance)):
        raise DomainError(f"variance must be positive and finite, got {variance}")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if means.ndim != 2 or means.shape[1] != scheme.d_phi:
        raise StructureError(
            f"posterior means have shape {means.shape}, scheme needs (m, {scheme.d_phi})"
        )
    m, d = means.shape
    draws = means[:, None, :] + np.sqrt(variance) * _noise(seed, k, d)
    return merged_values(scheme, draws.reshape(m * k, d))


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

    Every mean takes the same ``k`` noise rows of ``(seed, k, d)``, so row i
    of the result equals the one-row call on ``means[i:i + 1]`` whenever the
    merge rounds its batch-dependent float64 sums to the float32 rows of a
    one-row merge (see the module docstring and ``merged_values``).
    """
    if data.n == 0:
        raise DomainError("mc_risks needs a non-empty set")
    errors = error_counts(model_spec, posterior_rows(means, variance, scheme, k, seed), data)
    # np.mean's sum and division, without its wrapper
    return np.add.reduce((errors / data.n).reshape(-1, k), axis=1) / k

