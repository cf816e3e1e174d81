import numpy as np
import pytest

from pacmerge import DomainError, ModelPool, StructureError

OFFSETS = ((0, 2), (2, 2))
BASE = [0.5, -1.0, 2.0, 0.25]
DELTAS = [[1.0, 0.0, -1.0, 0.5], [0.1, 0.2, 0.3, 0.4]]


def two_member_pool():
    return ModelPool(np.array(BASE), np.array(DELTAS), ["a", "b"], OFFSETS)


class TestModelPool:
    def test_validation(self):
        pool = two_member_pool()
        assert pool.M == 2
        assert pool.task_ids == ("a", "b")
        assert pool.layer_offsets == OFFSETS
        assert pool.base.dtype == pool.deltas.dtype == np.float32
        assert pool.base.shape == (4,) and pool.deltas.shape == (2, 4)
        np.testing.assert_array_equal(pool.deltas, np.float32(DELTAS))
        with pytest.raises(StructureError, match="at least one member"):
            ModelPool(BASE, np.zeros((0, 4)), [], OFFSETS)
        with pytest.raises(StructureError, match="duplicate"):
            ModelPool(BASE, DELTAS, ["a", "a"], OFFSETS)

    def test_layer_offsets_must_partition(self):
        for offsets in [((0, 2),), ((0, 2), (1, 2)), ((0, 4), (4, 0)), ((2, 2), (0, 2)),
                        ((0, 2), (2, 3))]:
            with pytest.raises(StructureError, match="layer offsets"):
                ModelPool(BASE, DELTAS, ["a", "b"], offsets)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            base, deltas = np.array(BASE), np.array(DELTAS)
            base[1] = bad
            with pytest.raises(DomainError):
                ModelPool(base, DELTAS, ["a", "b"], OFFSETS)
            deltas[1, 3] = bad
            with pytest.raises(DomainError):
                ModelPool(BASE, deltas, ["a", "b"], OFFSETS)

    def test_delta_overflowing_float32_rejected(self):
        # the float64 difference fits, its float32 rounding is inf
        tuned, base = np.float32([[3e38, 0.0]]), np.float32([-3e38, 0.0])
        with np.errstate(over="ignore"):
            deltas = (tuned.astype(np.float64) - base.astype(np.float64)).astype(np.float32)
        with pytest.raises(DomainError):
            ModelPool(base, deltas, ["a"], ((0, 2),))

    def test_arrays_read_only(self):
        base, deltas = np.array(BASE, dtype=np.float32), np.array(DELTAS, dtype=np.float32)
        pool = ModelPool(base, deltas, ["a", "b"], OFFSETS)
        with pytest.raises(ValueError):
            pool.base[0] = 5.0
        with pytest.raises(ValueError):
            pool.deltas[0, 0] = 5.0
        base[0] = deltas[0, 0] = 9.0  # the caller's arrays stay writeable, the pool's copies
        assert pool.base[0] == 0.5 and pool.deltas[0, 0] == 1.0

    @pytest.mark.parametrize("deltas,ids", [
        (np.zeros((2, 3)), ["a", "b"]),
        (np.zeros((2, 5)), ["a", "b"]),
        (np.zeros((3, 4)), ["a", "b"]),
        (np.zeros(4), ["a"]),
        (np.zeros((1, 2, 2)), ["a"]),
    ])
    def test_delta_shape_mismatch_rejected(self, deltas, ids):
        with pytest.raises(StructureError, match="deltas have shape"):
            ModelPool(BASE, deltas, ids, OFFSETS)

    def test_base_must_be_one_row(self):
        with pytest.raises(StructureError, match="base must be one row"):
            ModelPool([BASE], DELTAS, ["a", "b"], OFFSETS)

    def test_without(self):
        pool = two_member_pool()
        dropped = pool.without("a")
        assert dropped.task_ids == ("b",)
        np.testing.assert_array_equal(dropped.deltas, pool.deltas[1:])
        assert dropped.base.tobytes() == pool.base.tobytes()
        assert dropped.layer_offsets == pool.layer_offsets
        with pytest.raises(KeyError):
            pool.without("zzz")
        with pytest.raises(StructureError):
            dropped.without("b")
