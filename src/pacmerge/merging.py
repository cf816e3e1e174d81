"""Merge parameterizations: coefficient vector -> merged model.

Four schemes are supported.  ``task_arith`` and ``ties`` expose a single
scalar multiplying the (respectively plain or sign-resolved) average of task
vectors; ``task_wise`` learns one coefficient per source model; ``layer_wise``
learns one coefficient per (model, layer-block) pair.  Realization is affine
in the coefficients, which the bound optimizer relies on only implicitly
(smoothness is irrelevant to 0-1 loss) but the tests verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StructureError
from .params import ModelPool

KINDS = ("task_arith", "ties", "task_wise", "layer_wise")
_SCALAR_KINDS = ("task_arith", "ties")


def ties_preprocess(pool: ModelPool, trim_fraction: float) -> np.ndarray:
    """The coefficient-independent TIES merge of ``pool``: a read-only (P,)
    float64 vector, computed once per scheme.

    Each member keeps its ceil(trim_fraction * P) largest-magnitude entries
    (ties at the threshold broken toward the lower index), the rest zeroed.
    Each coordinate elects the sign of its summed trimmed deltas, an exact
    zero sum electing +1, and averages the trimmed entries that agree with
    it; it is zero where no entry survives.
    """
    if not 0.0 < trim_fraction <= 1.0:
        raise DomainError(f"trim_fraction {trim_fraction} outside (0, 1]")
    deltas = pool.deltas.astype(np.float64)
    m, p = deltas.shape
    keep = math.ceil(trim_fraction * p)
    trimmed = np.zeros_like(deltas)
    for row in range(m):
        order = np.argsort(-np.abs(deltas[row]), kind="stable")
        kept = order[:keep]
        trimmed[row, kept] = deltas[row, kept]
    totals = trimmed.sum(axis=0)
    elected = np.where(totals < 0, -1, 1).astype(np.int8)
    agree = (trimmed * elected) > 0
    survivors = agree.sum(axis=0)
    sums = (trimmed * agree).sum(axis=0)
    merged = np.where(survivors > 0, sums / np.maximum(survivors, 1), 0.0)
    merged.flags.writeable = False
    return merged


@dataclass(frozen=True, eq=False)
class MergeScheme:
    """A pool plus a merge kind; maps coefficients phi to a merged model."""

    kind: str
    pool: ModelPool
    trim_fraction: float = 0.2
    # derived from the pool once, in __post_init__: the float64 (P,) task
    # vector a scalar kind scales (None for the per-model kinds)
    direction: np.ndarray | None = field(init=False, default=None)
    _deltas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown merge kind {self.kind!r}")
        deltas = self.pool.deltas.astype(np.float64)
        object.__setattr__(self, "_deltas", deltas)
        if self.kind == "task_arith":
            direction = deltas.mean(axis=0)
            direction.flags.writeable = False
            object.__setattr__(self, "direction", direction)
        elif self.kind == "ties":
            object.__setattr__(self, "direction", ties_preprocess(self.pool, self.trim_fraction))

    @property
    def d_phi(self) -> int:
        if self.kind in _SCALAR_KINDS:
            return 1
        if self.kind == "task_wise":
            return self.pool.M
        return self.pool.M * len(self.pool.layer_offsets)


def default_phi(scheme: MergeScheme) -> np.ndarray:
    """The uniform-merge coefficients, used as prior mean and search start.

    Per-model schemes get 1/M in every coordinate.  The scalar schemes get
    1.0, which realizes the same uniform average of task vectors.
    """
    if scheme.kind in _SCALAR_KINDS:
        return np.array([1.0])
    return np.full(scheme.d_phi, 1.0 / scheme.pool.M)


def merged_values(scheme: MergeScheme, phis: np.ndarray) -> np.ndarray:
    """Merged float32 parameters, one row per row of ``phis``: (k, P).

    Affine in each row.  The contractions of ``task_wise`` and ``layer_wise``
    are stacked vector-matrix products, (k, 1, M) @ (M, P), which run the
    same per-row product for every row of the stack: a (k, M) @ (M, P)
    matrix product rounds differently, so a row's merge would depend on its
    batch.
    """
    phis = np.asarray(phis, dtype=np.float64)
    if phis.ndim != 2 or phis.shape[1] != scheme.d_phi:
        raise StructureError(
            f"phis has shape {phis.shape}, scheme needs (k, {scheme.d_phi})"
        )
    pool = scheme.pool
    out = pool.base.astype(np.float64)
    deltas = scheme._deltas
    if scheme.kind in _SCALAR_KINDS:
        out = out + phis[:, :1] * scheme.direction
    elif scheme.kind == "task_wise":
        out = out + (phis[:, None, :] @ deltas)[:, 0]
    else:  # layer_wise
        coeff = phis.reshape(len(phis), pool.M, len(pool.layer_offsets))
        out = np.tile(out, (len(phis), 1))
        for layer, (start, length) in enumerate(pool.layer_offsets):
            block = slice(start, start + length)
            out[:, block] += (coeff[:, None, :, layer] @ deltas[:, block])[:, 0]
    if not np.all(np.isfinite(out)):
        raise DomainError("merge produced NaN/Inf")
    with np.errstate(over="ignore"):
        out32 = out.astype(np.float32)
    if not np.all(np.isfinite(out32)):
        raise DomainError("merge overflowed the 32-bit float range")
    return out32

