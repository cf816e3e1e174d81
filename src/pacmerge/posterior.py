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

A ``RiskEstimator`` fixes one search's estimate: its k noise rows, scaled
by the standard deviation, its slices of the set and the scheme's
first-layer basis are built once, so with common random numbers every
evaluation of one search, and every grid point of one fit, reuses them.
Its ``risks`` estimates the risks of m posterior means, the candidates of a
CMA-ES generation or the points of a validity grid, from the m·k rows of
their k draws each, merged in one ``merged_values`` call, scoring draw j on
slice j mod s of a set of n rows, s = ``slice_count(n, k)`` = min(k, n //
``_SLICE_ROWS``) contiguous slices.  A mean then costs about max(n,
k·``_SLICE_ROWS``) row evaluations instead of k·n, and every row is still
read.  Each draw's slice risk is an unbiased estimate of that draw's risk,
so their mean still estimates the Gibbs risk; PAC-Bayes lets the posterior
depend on the support in any way, and no certificate reads the estimate.
At s = 1 (n < 2·``_SLICE_ROWS``) the rows are one error-count call on the
whole set.

Every scheme is affine in its coefficients, so a draw's first-layer
pre-activations combine the responses to the inputs of the scheme's L basis
rows with a nonzero first layer.  An error-count call of c draws forms them
so, C @ (F @ x), and merges only the later layers, when that costs fewer
multiply-adds, L·(in + 1) + c·L against c·(in + 1): a Table 1 generation or
a validity grid fit on 100 rows does, a 10-slice generation on 4,000 rows (8
draws a call) scores the merged rows.  The two paths' float32
pre-activations differ by a few units in the last place, so a margin that
close to zero can score differently; the certificate scores merged rows.

A mean's risk does not depend on the other means of its call only as far
as its merged float32 rows are those of a one-row merge and, where its
one-row call takes the other path, no margin of its draws lies within the
two paths' rounding of zero (on the coefficient path, also as far as a
one-draw block rounds as a larger one; see ``coefficient_counts``).  These
rest on float32 rounding, not on construction: the float64 sums of
``merged_values`` depend on the batch, and its docstring gives the evidence
that the rounding hides this (none of 41.8M values differed).  So the rows
are merged once and indexed per slice, never re-merged.  One posterior's
risk is a one-row call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, StructureError
from .merging import MergeScheme, merged_values, with_base
from .seeding import rng_for
from .toyzoo import (_F32_MAX, LabeledSet, MlpSpec, _float32_layers, coefficient_counts,
                     error_counts)

# Support rows per slice of a risk estimate, at least: draw j scores slice
# j mod s of a set of n rows, s = min(k, n // _SLICE_ROWS).
_SLICE_ROWS = 400


def slice_count(n: int, k: int) -> int:
    """The number s of slices a risk estimate scores k draws on for a set of
    n rows: min(k, n // ``_SLICE_ROWS``), at least 1."""
    return max(1, min(k, n // _SLICE_ROWS))


class RiskEstimator:
    """One search's risk estimate: ``risks(means)`` is the average 0-1 risk
    of ``k`` posterior draws of variance ``variance`` around each row of
    ``means`` (m, d_phi), draw j scored on slice j mod s of ``data`` (s =
    ``slice_count(data.n, k)``, the set's contiguous ``np.array_split``
    parts).

    ``data``, ``variance`` and ``k`` are checked here, and the k noise rows
    of the streams ``(seed, "gauss", j)``, the slices and the first-layer
    basis are built once; each call checks its means.  Every mean takes the
    same ``k`` noise rows, and the m·k rows are merged in one call, their
    later layers alone when the first layer is formed in coefficient space
    (see the module docstring); at s = 1 they are scored in one error-count
    call on the whole set, else in one call per slice, each call on the path
    the cost rule picks for the largest, m·ceil(k / s) draws.  So row i of
    the result equals the one-row call on ``means[i:i + 1]`` whenever the
    merge rounds its batch-dependent float64 sums to the float32 rows of a
    one-row merge and the two calls' paths score its draws alike (see the
    module docstring and ``merged_values``).  No certificate reads the
    result.
    """

    def __init__(self, scheme: MergeScheme, model_spec: MlpSpec, data: LabeledSet,
                 variance: float, k: int = 10, seed: int = 0):
        if data.n == 0:
            raise DomainError("a risk estimate needs a non-empty set")
        if not (variance > 0 and math.isfinite(variance)):
            raise DomainError(f"variance must be positive and finite, got {variance}")
        if k < 1:
            raise DomainError(f"need k >= 1, got {k}")
        self.scheme, self.spec, self.k = scheme, model_spec, k
        self.noise = np.sqrt(variance) * np.stack(
            [rng_for(seed, "gauss", j).standard_normal(scheme.d_phi) for j in range(k)])
        s = slice_count(data.n, k)
        self.parts = [data] if s == 1 else [LabeledSet(x, y) for x, y in zip(
            np.array_split(data.inputs, s), np.array_split(data.labels, s))]
        self.first = _first_layer(scheme, model_spec)

    def risks(self, means: np.ndarray) -> np.ndarray:
        d, k, s = self.scheme.d_phi, self.k, len(self.parts)
        means = np.asarray(means, dtype=np.float64)
        if not np.isfinite(means).all():
            raise DomainError("Gaussian mean must be finite")
        if means.ndim != 2 or means.shape[1] != d:
            raise StructureError(f"posterior means have shape {means.shape}, scheme needs (m, {d})")
        # row i·k + j is mean i plus draw j
        draws = (means[:, None, :] + self.noise).reshape(-1, d)
        # draws per error-count call: at most ceil(k / s) of each mean's k
        score = _scorer(self.scheme, self.spec, self.first, draws, len(means) * -(-k // s))
        errors = np.empty(len(draws))
        part_of_row = np.arange(len(draws)) % k % s
        for q, part in enumerate(self.parts):
            mine = slice(None) if s == 1 else np.flatnonzero(part_of_row == q)
            errors[mine] = score(mine, part) / part.n
        # np.mean's sum and division, without its wrapper
        return np.add.reduce(errors.reshape(-1, k), axis=1) / k


def _first_layer(scheme: MergeScheme, spec: MlpSpec) -> tuple:
    """(rows, first_basis, scale) of a ``spec`` network: the L basis rows of
    ``scheme`` with a nonzero first layer, those first layers in float32 as
    (L·hidden, in + 1) in the ``[W^T | b]`` layout of
    ``toyzoo._float32_layers``, and each one's largest absolute value, so
    that ``|[1, phi][rows]| @ scale`` bounds a merge's first layer.  A basis
    of another width than ``spec.d_model`` raises ``StructureError``."""
    if scheme.basis.shape[1] != spec.d_model:
        raise StructureError(
            f"scheme has {scheme.basis.shape[1]} parameters, spec needs {spec.d_model}")
    block = scheme.basis[:, : (spec.widths[0] + 1) * spec.widths[1]]
    rows = np.flatnonzero(block.any(axis=1))
    first, _ = _float32_layers(spec, scheme.basis[rows].astype(np.float32))
    return rows, first.reshape(-1, spec.widths[0] + 1), np.abs(block[rows]).max(axis=1, initial=0.0)


def _scorer(scheme: MergeScheme, spec: MlpSpec, first: tuple, draws: np.ndarray, calls: int):
    """``count(rows, data)``: the error counts on ``data`` of those rows of
    ``draws``, on the cheaper first-layer path for calls of ``calls`` draws
    (see the module docstring), merged once for every call.

    The coefficient path is taken only when ``|[1, phi][rows]| @ scale``
    shows that no merged first-layer value leaves the float32 range, so a
    merge that overflows raises as ``merged_values`` does on either path.
    """
    rows, first_basis, scale = first
    width, size = spec.widths[0] + 1, len(rows)
    if size * width + calls * size < calls * width:
        coeff = with_base(draws)[:, rows]
        if (np.abs(coeff) @ scale <= _F32_MAX).all():
            later = merged_values(scheme, draws, width * spec.widths[1])
            coeff = coeff.astype(np.float32)
            return lambda i, data: coefficient_counts(spec, coeff[i], first_basis, later[i], data)
    thetas = merged_values(scheme, draws)
    return lambda i, data: error_counts(spec, thetas[i], data)
