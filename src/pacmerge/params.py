"""The source-model pool and its file format.

A pool is a base parameter row of P values and the (M, P) matrix of its
members' task vectors (fine-tuned parameters minus the base), the one
matrix that every merge scheme weights.  Both are float32 (matching typical
fine-tuned checkpoint precision) and read-only, so a pool is safe to share.
``layer_offsets`` cuts the P columns into the blocks that layer-wise merging
gives one coefficient per member each.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError, StructureError

_U64 = struct.Struct("<Q")


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

    def __eq__(self, other):
        if not isinstance(other, ModelPool):
            return NotImplemented
        return (
            (self.task_ids, self.layer_offsets) == (other.task_ids, other.layer_offsets)
            and np.array_equal(self.base, other.base)
            and np.array_equal(self.deltas, other.deltas)
        )


# ---------------------------------------------------------------------------
# Pool file format: <dir>/manifest.json + <dir>/payload.bin.  The payload is
# the base block followed by one block per member, each prefixed with an
# unsigned 64-bit little-endian element count and stored as raw f32le bytes.
# The manifest records layout, task ids, and a sha256 checksum per block.
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.bin"


def _checksum(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def pool_save(pool: ModelPool, path) -> None:
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    blocks = [pool.base, *pool.deltas]
    raws = [np.asarray(block, dtype="<f4").tobytes() for block in blocks]
    manifest = {
        "base_len": pool.base.size,
        "layer_offsets": [list(pair) for pair in pool.layer_offsets],
        "M": pool.M,
        "task_ids": list(pool.task_ids),
        "dtype": "f32le",
        "checksums": [_checksum(r) for r in raws],
    }
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(directory / PAYLOAD_NAME, "wb") as fh:
        for block, raw in zip(blocks, raws):
            fh.write(_U64.pack(block.size))
            fh.write(raw)


def pool_load(path) -> ModelPool:
    directory = Path(path)
    try:
        with open(directory / MANIFEST_NAME, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read pool manifest: {exc}") from exc
    try:
        base_len = int(manifest["base_len"])
        offsets = tuple((int(s), int(l)) for s, l in manifest["layer_offsets"])
        m = int(manifest["M"])
        task_ids = [str(t) for t in manifest["task_ids"]]
        dtype = manifest["dtype"]
        checksums = list(manifest["checksums"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"pool manifest missing or malformed field: {exc}") from exc
    if dtype != "f32le":
        raise FormatError(f"unsupported dtype {dtype!r}")
    if len(task_ids) != m:
        raise FormatError(f"manifest M={m} but {len(task_ids)} task ids")
    if len(checksums) != m + 1:
        raise FormatError(f"expected {m + 1} checksums, got {len(checksums)}")

    try:
        payload = (directory / PAYLOAD_NAME).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read pool payload: {exc}") from exc

    blocks: list[np.ndarray] = []
    cursor = 0
    for index in range(m + 1):
        if cursor + _U64.size > len(payload):
            raise FormatError(f"payload truncated before block {index} header")
        (count,) = _U64.unpack_from(payload, cursor)
        cursor += _U64.size
        if count != base_len:
            raise FormatError(
                f"block {index} declares {count} elements, manifest base_len={base_len}")
        nbytes = count * 4
        if cursor + nbytes > len(payload):
            raise FormatError(f"payload truncated inside block {index}")
        raw = payload[cursor : cursor + nbytes]
        cursor += nbytes
        if _checksum(raw) != checksums[index]:
            raise FormatError(f"checksum mismatch on block {index}")
        blocks.append(np.frombuffer(raw, dtype="<f4"))
    if cursor != len(payload):
        raise FormatError(f"{len(payload) - cursor} trailing bytes after last block")

    try:
        deltas = np.array(blocks[1:], dtype=np.float32).reshape(m, base_len)
        return ModelPool(blocks[0], deltas, task_ids, offsets)
    except (StructureError, DomainError) as exc:
        raise FormatError(f"pool contents invalid: {exc}") from exc
