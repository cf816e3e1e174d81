"""Flat parameter vectors, layer views, and the source-model pool.

All merging arithmetic lives in this space.  Values are stored as 32-bit
floats (matching typical fine-tuned checkpoint precision); arithmetic
accumulates in 64-bit and rounds back, so sums stay stable.  Vectors are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError, StructureError

_U64 = struct.Struct("<Q")


def _frozen_f32(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float32, copy=True).reshape(-1)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ParamVector:
    """A flat float32 parameter vector partitioned into layer blocks.

    ``layer_offsets`` is a sequence of (start, length) pairs that must tile
    ``[0, len(values))`` exactly, in order, with no gaps or overlaps.  Even
    single-layer toy models carry one block spanning everything, so layer-wise
    merging has a uniform code path.
    """

    values: np.ndarray
    layer_offsets: tuple[tuple[int, int], ...]

    def __post_init__(self):
        arr = _frozen_f32(self.values)
        object.__setattr__(self, "values", arr)
        offsets = tuple((int(s), int(l)) for s, l in self.layer_offsets)
        object.__setattr__(self, "layer_offsets", offsets)
        cursor = 0
        for start, length in offsets:
            if start != cursor or length <= 0:
                raise StructureError(
                    f"layer offsets must tile [0, {arr.size}) in order; "
                    f"got block ({start}, {length}) at position {cursor}"
                )
            cursor += length
        if cursor != arr.size:
            raise StructureError(
                f"layer offsets cover {cursor} values, vector has {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("parameter vector contains NaN/Inf")

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def layer_count(self) -> int:
        return len(self.layer_offsets)

    def layer(self, index: int) -> np.ndarray:
        """Read-only view of one layer block."""
        if not 0 <= index < self.layer_count:
            raise IndexError(f"layer {index} out of range [0, {self.layer_count})")
        start, length = self.layer_offsets[index]
        return self.values[start : start + length]

    def same_structure(self, other: "ParamVector") -> bool:
        return self.layer_offsets == other.layer_offsets

    def __eq__(self, other):
        if not isinstance(other, ParamVector):
            return NotImplemented
        return (
            self.layer_offsets == other.layer_offsets
            and np.array_equal(self.values, other.values)
        )


def axpy(dst: ParamVector, scale: float, src: ParamVector) -> ParamVector:
    """``dst + scale * src`` element-wise, preserving layer structure."""
    if not dst.same_structure(src) or dst.size != src.size:
        raise StructureError(
            f"structure mismatch: {dst.layer_offsets} vs {src.layer_offsets}"
        )
    out = dst.values.astype(np.float64) + float(scale) * src.values.astype(np.float64)
    if not np.all(np.isfinite(out)):
        raise DomainError("operation produced NaN/Inf")
    with np.errstate(over="ignore"):
        out32 = out.astype(np.float32)
    if not np.all(np.isfinite(out32)):
        raise DomainError("operation overflowed the 32-bit float range")
    return ParamVector(out32, dst.layer_offsets)


@dataclass(frozen=True, eq=False)
class ModelPool:
    """A base model plus per-task task vectors, all structurally identical.

    Each member's task vector is its fine-tuned parameters minus ``base``.
    """

    base: ParamVector
    members: tuple[tuple[str, ParamVector], ...] = field(default_factory=tuple)

    def __post_init__(self):
        members = tuple((str(tid), delta) for tid, delta in self.members)
        object.__setattr__(self, "members", members)
        if len(members) < 1:
            raise StructureError("pool needs at least one member")
        ids = [tid for tid, _ in members]
        if len(set(ids)) != len(ids):
            raise StructureError(f"duplicate task ids in pool: {ids}")
        for tid, delta in members:
            if not delta.same_structure(self.base):
                raise StructureError(f"member {tid!r} does not share base layer structure")

    @property
    def M(self) -> int:
        return len(self.members)

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(tid for tid, _ in self.members)

    def without(self, task_id: str) -> "ModelPool":
        """Hold-one-out view: the pool minus the named member."""
        kept = tuple((tid, delta) for tid, delta in self.members if tid != task_id)
        if len(kept) == len(self.members):
            raise KeyError(f"no member {task_id!r} in pool")
        return ModelPool(self.base, kept)

    def deltas_matrix(self) -> np.ndarray:
        """Stacked float32 deltas, one row per member (M, P)."""
        return np.stack([delta.values for _, delta in self.members])

    def __eq__(self, other):
        if not isinstance(other, ModelPool):
            return NotImplemented
        return self.base == other.base and self.members == other.members


# ---------------------------------------------------------------------------
# Pool file format: <dir>/manifest.json + <dir>/payload.bin.  The payload is
# the base block followed by one block per member, each prefixed with an
# unsigned 64-bit little-endian element count and stored as raw f32le bytes.
# The manifest records layout, task ids, and a sha256 checksum per block.
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.bin"


def _block_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _checksum(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def pool_save(pool: ModelPool, path) -> None:
    from pathlib import Path

    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    blocks = [pool.base.values] + [delta.values for _, delta in pool.members]
    raws = [_block_bytes(b) for b in blocks]
    manifest = {
        "base_len": pool.base.size,
        "layer_offsets": [list(pair) for pair in pool.base.layer_offsets],
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
    from pathlib import Path

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
                f"block {index} declares {count} elements, manifest base_len={base_len}"
            )
        nbytes = count * 4
        if cursor + nbytes > len(payload):
            raise FormatError(f"payload truncated inside block {index}")
        raw = payload[cursor : cursor + nbytes]
        cursor += nbytes
        if _checksum(raw) != checksums[index]:
            raise FormatError(f"checksum mismatch on block {index}")
        blocks.append(np.frombuffer(raw, dtype="<f4").astype(np.float32))
    if cursor != len(payload):
        raise FormatError(f"{len(payload) - cursor} trailing bytes after last block")

    try:
        base = ParamVector(blocks[0], offsets)
        members = tuple(
            (tid, ParamVector(block, offsets))
            for tid, block in zip(task_ids, blocks[1:])
        )
        return ModelPool(base, members)
    except (StructureError, DomainError) as exc:
        raise FormatError(f"pool contents invalid: {exc}") from exc
