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
points of a validity grid, from those m·k rows, scoring draw j on slice j
mod s of a set of n rows, s = min(k, n // ``_SLICE_ROWS``) contiguous
slices.  A mean then costs about max(n, k·``_SLICE_ROWS``) row evaluations
instead of k·n, and every row is still read.  Each draw's slice risk is an
unbiased estimate of that draw's risk, so their mean still estimates the
Gibbs risk; PAC-Bayes lets the posterior depend on the support in any way,
and no certificate reads the estimate.  At s = 1 (n < 2·``_SLICE_ROWS``)
the rows are one ``error_counts`` call on the whole set.  A mean's risk
does not depend on the other means of its call only as far as its merged
float32 rows are those of a one-row merge.  That rests on float32 rounding,
not on construction: the float64 sums of ``merged_values`` depend on the
batch, and its docstring gives the evidence that the rounding hides this
(none of 41.8M values differed).  So the rows are merged once and indexed
per slice, never re-merged.  One posterior's risk is a one-row call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, StructureError
from .merging import MergeScheme, merged_values
from .seeding import rng_for
from .toyzoo import LabeledSet, MlpSpec, error_counts

# Support rows per slice of ``mc_risks``'s estimate, at least: draw j scores
# slice j mod s of a set of n rows, s = min(k, n // _SLICE_ROWS).
_SLICE_ROWS = 400


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


def slice_count(n: int, k: int) -> int:
    """The number s of slices ``mc_risks`` scores k draws on for a set of n
    rows: min(k, n // ``_SLICE_ROWS``), at least 1."""
    return max(1, min(k, n // _SLICE_ROWS))


def mc_risks(
    means: np.ndarray,
    variance: float,
    scheme: MergeScheme,
    model_spec: MlpSpec,
    data: LabeledSet,
    k: int = 10,
    seed: int = 0,
) -> np.ndarray:
    """Average 0-1 risk of ``k`` posterior draws around each row of ``means``,
    draw j scored on slice j mod s of ``data`` (s = ``slice_count(data.n,
    k)``, the set's contiguous ``np.array_split`` parts, kept with it).

    Every mean takes the same ``k`` noise rows of ``(seed, k, d)``, and the
    m·k rows are merged in one call; at s = 1 they are scored in one
    ``error_counts`` call on the whole set, else in one call per slice.  So
    row i of the result equals the one-row call on ``means[i:i + 1]``
    whenever the merge rounds its batch-dependent float64 sums to the
    float32 rows of a one-row merge (see the module docstring and
    ``merged_values``).
    """
    if data.n == 0:
        raise DomainError("mc_risks needs a non-empty set")
    rows = posterior_rows(means, variance, scheme, k, seed)
    s = slice_count(data.n, k)
    if s == 1:
        errors = error_counts(model_spec, rows, data) / data.n
    else:
        errors = np.empty(len(rows))
        part_of_row = np.arange(len(rows)) % k % s
        for q, part in enumerate(data._slices(s)):
            mine = np.flatnonzero(part_of_row == q)
            errors[mine] = error_counts(model_spec, rows[mine], part) / part.n
    # np.mean's sum and division, without its wrapper
    return np.add.reduce(errors.reshape(-1, k), axis=1) / k
