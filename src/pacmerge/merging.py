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
from .params import ModelPool, ParamVector

KINDS = ("task_arith", "ties", "task_wise", "layer_wise")
_SCALAR_KINDS = ("task_arith", "ties")


@dataclass(frozen=True, eq=False)
class TiesPreprocessed:
    """Coefficient-independent part of TIES merging, cached per pool.

    ``trimmed`` keeps, per member, the ceil(trim_fraction * P) largest-magnitude
    entries (ties at the threshold broken toward the lower index) and zeroes
    the rest.  ``elected_sign`` is the sign of the summed trimmed deltas per
    coordinate, with an exact zero sum electing +1.  ``merged`` averages the
    trimmed entries agreeing with the elected sign, and is zero where no entry
    survives.
    """

    trimmed: np.ndarray       # (M, P) float64
    elected_sign: np.ndarray  # (P,) int8
    merged: np.ndarray        # (P,) float64

    def __post_init__(self):
        for name in ("trimmed", "elected_sign", "merged"):
            arr = getattr(self, name)
            arr.flags.writeable = False


def ties_preprocess(pool: ModelPool, trim_fraction: float) -> TiesPreprocessed:
    """Trim by magnitude, elect signs, and average sign-consistent entries."""
    if not 0.0 < trim_fraction <= 1.0:
        raise DomainError(f"trim_fraction {trim_fraction} outside (0, 1]")
    deltas = pool.deltas_matrix().astype(np.float64)
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
    return TiesPreprocessed(trimmed=trimmed, elected_sign=elected, merged=merged)


@dataclass(frozen=True, eq=False)
class MergeScheme:
    """A pool plus a merge kind; maps coefficients phi to a merged model."""

    kind: str
    pool: ModelPool
    trim_fraction: float = 0.2
    # derived from the pool once, in __post_init__
    ties: TiesPreprocessed | None = field(init=False, default=None)
    _deltas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown merge kind {self.kind!r}")
        if self.kind == "ties":
            object.__setattr__(self, "ties", ties_preprocess(self.pool, self.trim_fraction))
        object.__setattr__(self, "_deltas", self.pool.deltas_matrix().astype(np.float64))

    @property
    def d_phi(self) -> int:
        if self.kind in _SCALAR_KINDS:
            return 1
        if self.kind == "task_wise":
            return self.pool.M
        return self.pool.M * self.pool.base.layer_count


def make_scheme(kind: str, pool: ModelPool, trim_fraction: float = 0.2) -> MergeScheme:
    return MergeScheme(kind=kind, pool=pool, trim_fraction=trim_fraction)


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
    base = scheme.pool.base
    out = base.values.astype(np.float64)
    deltas = scheme._deltas
    if scheme.kind == "task_arith":
        out = out + phis[:, :1] * deltas.mean(axis=0)
    elif scheme.kind == "ties":
        out = out + phis[:, :1] * scheme.ties.merged
    elif scheme.kind == "task_wise":
        out = out + (phis[:, None, :] @ deltas)[:, 0]
    else:  # layer_wise
        coeff = phis.reshape(len(phis), scheme.pool.M, base.layer_count)
        out = np.tile(out, (len(phis), 1))
        for layer, (start, length) in enumerate(base.layer_offsets):
            block = slice(start, start + length)
            out[:, block] += (coeff[:, None, :, layer] @ deltas[:, block])[:, 0]
    if not np.all(np.isfinite(out)):
        raise DomainError("merge produced NaN/Inf")
    with np.errstate(over="ignore"):
        out32 = out.astype(np.float32)
    if not np.all(np.isfinite(out32)):
        raise DomainError("merge overflowed the 32-bit float range")
    return out32


def realize(scheme: MergeScheme, phi: np.ndarray) -> ParamVector:
    """Merged model for coefficients ``phi``; one row of ``merged_values``."""
    phi = np.asarray(phi, dtype=np.float64).reshape(1, -1)
    return ParamVector(merged_values(scheme, phi)[0], scheme.pool.base.layer_offsets)
