import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacmerge import (
    DomainError,
    FormatError,
    ModelPool,
    ParamVector,
    StructureError,
    axpy,
    pool_load,
    pool_save,
)


def vec(values, offsets=None):
    values = np.asarray(values, dtype=np.float32)
    if offsets is None:
        offsets = ((0, values.size),)
    return ParamVector(values, offsets)


class TestParamVector:
    def test_layer_offsets_must_partition(self):
        with pytest.raises(StructureError):
            ParamVector([1.0, 2.0, 3.0], ((0, 2),))
        with pytest.raises(StructureError):
            ParamVector([1.0, 2.0, 3.0], ((0, 2), (1, 2)))
        with pytest.raises(StructureError):
            ParamVector([1.0, 2.0], ((0, 2), (2, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            vec([1.0, np.nan])
        with pytest.raises(DomainError):
            vec([np.inf, 0.0])

    def test_values_frozen(self):
        v = vec([1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_layer_view(self):
        v = vec([1.0, 2.0, 3.0], ((0, 1), (1, 2)))
        assert v.layer_count == 2
        np.testing.assert_array_equal(v.layer(1), [2.0, 3.0])
        with pytest.raises(IndexError):
            v.layer(2)


class TestAxpy:
    def test_zero_scale_is_identity(self):
        d = vec([1.0, 2.0])
        assert axpy(d, 0.0, vec([9.0, 9.0])) == d

    def test_zero_base(self):
        out = axpy(vec([0.0, 0.0]), 1.0, vec([3.0, 4.0]))
        np.testing.assert_array_equal(out.values, [3.0, 4.0])

    def test_hand_arithmetic(self):
        out = axpy(vec([1.0, 2.0]), 0.5, vec([2.0, 2.0]))
        np.testing.assert_array_equal(out.values, [2.0, 3.0])

    def test_structure_mismatch(self):
        with pytest.raises(StructureError):
            axpy(vec([1.0, 2.0]), 1.0, vec([1.0, 2.0, 3.0]))
        with pytest.raises(StructureError):
            axpy(vec([1.0, 2.0]), 1.0, vec([1.0, 2.0], ((0, 1), (1, 1))))

    def test_non_finite_result_raises(self):
        big = vec([3e38, 0.0])
        with pytest.raises(DomainError):
            axpy(big, 1e30, big)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_linearity(self, values, a, b):
        d = vec(np.zeros(len(values)))
        s = vec(values)
        combined = axpy(d, a + b, s)
        split = axpy(axpy(d, a, s), b, s)
        np.testing.assert_allclose(combined.values, split.values, rtol=1e-6, atol=1e-6)


def two_member_pool():
    offsets = ((0, 2), (2, 2))
    base = vec([0.5, -1.0, 2.0, 0.25], offsets)
    d1 = vec([1.0, 0.0, -1.0, 0.5], offsets)
    d2 = vec([0.1, 0.2, 0.3, 0.4], offsets)
    return ModelPool(base, (("a", d1), ("b", d2)))


class TestModelPool:
    def test_validation(self):
        pool = two_member_pool()
        assert pool.M == 2
        assert pool.task_ids == ("a", "b")
        with pytest.raises(StructureError):
            ModelPool(pool.base, ())
        with pytest.raises(StructureError):
            ModelPool(pool.base, (("a", pool.members[0][1]), ("a", pool.members[1][1])))

    def test_without(self):
        pool = two_member_pool()
        dropped = pool.without("a")
        assert dropped.task_ids == ("b",)
        with pytest.raises(KeyError):
            pool.without("zzz")


class TestPoolSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        pool = two_member_pool()
        pool_save(pool, tmp_path / "pool")
        loaded = pool_load(tmp_path / "pool")
        assert loaded == pool
        assert loaded.base.values.tobytes() == pool.base.values.tobytes()

    def test_truncated_payload(self, tmp_path):
        pool = two_member_pool()
        pool_save(pool, tmp_path / "pool")
        payload = tmp_path / "pool" / "payload.bin"
        payload.write_bytes(payload.read_bytes()[:-5])
        with pytest.raises(FormatError):
            pool_load(tmp_path / "pool")

    def test_member_count_mismatch(self, tmp_path):
        import json

        pool = two_member_pool()
        pool_save(pool, tmp_path / "pool")
        manifest_path = tmp_path / "pool" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["M"] = 3
        manifest["task_ids"].append("ghost")
        manifest["checksums"].append(manifest["checksums"][-1])
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            pool_load(tmp_path / "pool")

    def test_checksum_mismatch(self, tmp_path):
        pool = two_member_pool()
        pool_save(pool, tmp_path / "pool")
        payload = tmp_path / "pool" / "payload.bin"
        raw = bytearray(payload.read_bytes())
        raw[10] ^= 0xFF
        payload.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            pool_load(tmp_path / "pool")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            pool_load(tmp_path / "nothing")

    def test_manifest_not_utf8(self, tmp_path):
        pool_save(two_member_pool(), tmp_path / "pool")
        manifest_path = tmp_path / "pool" / "manifest.json"
        manifest_path.write_bytes(b"\xff" + manifest_path.read_bytes())
        with pytest.raises(FormatError, match="cannot read pool manifest"):
            pool_load(tmp_path / "pool")
