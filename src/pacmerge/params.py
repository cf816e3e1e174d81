"""The source-model pool.

A pool is a base parameter row of P values and the (M, P) matrix of its
members' task vectors (fine-tuned parameters minus the base), the one
matrix that every merge scheme weights.  Both are float32 (matching typical
fine-tuned checkpoint precision) and read-only, so a pool is safe to share.
``layer_offsets`` cuts the P columns into the blocks that layer-wise merging
gives one coefficient per member each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError


@dataclass(frozen=True, eq=False)
class ModelPool:
    """A base row (P,) plus one task-vector row per member, ``deltas`` (M, P).

    ``layer_offsets`` is a sequence of (start, length) pairs that must tile
    ``[0, P)`` exactly, in order, with no gaps or overlaps.  Even
    single-layer toy models carry one block spanning everything, so layer-wise
    merging has a uniform code path.  Row i of ``deltas`` belongs to
    ``task_ids[i]``; ids are unique and there is at least one member.
    """

    base: np.ndarray
    deltas: np.ndarray
    task_ids: tuple[str, ...]
    layer_offsets: tuple[tuple[int, int], ...]

    def __post_init__(self):
        base, deltas = np.array(self.base, np.float32), np.array(self.deltas, np.float32)
        base.flags.writeable = deltas.flags.writeable = False
        ids = tuple(str(tid) for tid in self.task_ids)
        offsets = tuple((int(s), int(l)) for s, l in self.layer_offsets)
        for name, value in (("base", base), ("deltas", deltas), ("task_ids", ids),
                            ("layer_offsets", offsets)):
            object.__setattr__(self, name, value)
        if base.ndim != 1:
            raise StructureError(f"base must be one row, got shape {base.shape}")
        cursor = 0
        for start, length in offsets:
            if start != cursor or length <= 0:
                raise StructureError(
                    f"layer offsets must tile [0, {base.size}) in order; "
                    f"got block ({start}, {length}) at position {cursor}"
                )
            cursor += length
        if cursor != base.size:
            raise StructureError(f"layer offsets cover {cursor} values, base has {base.size}")
        if not ids:
            raise StructureError("pool needs at least one member")
        if len(set(ids)) != len(ids):
            raise StructureError(f"duplicate task ids in pool: {list(ids)}")
        if deltas.shape != (len(ids), base.size):
            raise StructureError(
                f"deltas have shape {deltas.shape}, pool needs ({len(ids)}, {base.size})")
        if not (np.isfinite(base).all() and np.isfinite(deltas).all()):
            raise DomainError("pool parameters contain NaN/Inf")

    @property
    def M(self) -> int:
        return len(self.task_ids)

    def without(self, task_id: str) -> "ModelPool":
        """Hold-one-out view: the pool minus the named member."""
        if task_id not in self.task_ids:
            raise KeyError(f"no member {task_id!r} in pool")
        kept = [i for i, tid in enumerate(self.task_ids) if tid != task_id]
        return ModelPool(self.base, self.deltas[kept],
                         [self.task_ids[i] for i in kept], self.layer_offsets)
