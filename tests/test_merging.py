import numpy as np
import pytest

from pacmerge import (
    DomainError,
    ModelPool,
    ParamVector,
    StructureError,
    default_phi,
    make_scheme,
    realize,
    ties_preprocess,
)


def build_pool(base_values, deltas, offsets=None):
    base_values = np.asarray(base_values, dtype=np.float32)
    if offsets is None:
        offsets = ((0, base_values.size),)
    base = ParamVector(base_values, offsets)
    members = tuple(
        (f"t{i}", ParamVector(np.asarray(d, dtype=np.float32), offsets))
        for i, d in enumerate(deltas)
    )
    return ModelPool(base, members)


@pytest.fixture
def pool4():
    offsets = ((0, 2), (2, 2))
    rng = np.random.default_rng(0)
    base = rng.standard_normal(4)
    deltas = rng.standard_normal((3, 4))
    return build_pool(base, deltas, offsets)


class TestRealize:
    @pytest.mark.parametrize("kind", ["task_arith", "ties", "task_wise", "layer_wise"])
    def test_zero_phi_returns_base(self, pool4, kind):
        scheme = make_scheme(kind, pool4)
        out = realize(scheme, np.zeros(scheme.d_phi))
        assert out == pool4.base

    def test_task_wise_uniform_equals_task_arith(self, pool4):
        c = 0.7
        tw = make_scheme("task_wise", pool4)
        ta = make_scheme("task_arith", pool4)
        a = realize(tw, np.full(pool4.M, c / pool4.M))
        b = realize(ta, np.array([c]))
        np.testing.assert_allclose(a.values, b.values, rtol=1e-6, atol=1e-6)

    def test_ties_hand_enumeration(self):
        # two members, trim keeps everything: coordinate sums are +3 and 0;
        # coordinate 0 keeps mean(+1, +2) = 1.5; coordinate 1 ties, elects +1,
        # keeps mean(+3) = 3.
        pool = build_pool([0.0, 0.0], [[1.0, -3.0], [2.0, 3.0]])
        scheme = make_scheme("ties", pool, trim_fraction=1.0)
        out = realize(scheme, np.array([1.0]))
        np.testing.assert_allclose(out.values, [1.5, 3.0], atol=1e-6)

    def test_dimension_mismatch(self, pool4):
        scheme = make_scheme("task_wise", pool4)
        with pytest.raises(StructureError):
            realize(scheme, np.zeros(scheme.d_phi + 1))

    def test_affine_in_phi(self, pool4):
        rng = np.random.default_rng(1)
        for kind in ("task_arith", "task_wise", "layer_wise"):
            scheme = make_scheme(kind, pool4)
            phi1 = rng.standard_normal(scheme.d_phi)
            phi2 = rng.standard_normal(scheme.d_phi)
            a, b = 0.3, -1.2
            lhs = realize(scheme, a * phi1 + b * phi2).values.astype(np.float64)
            base = pool4.base.values.astype(np.float64)
            rhs = (
                a * (realize(scheme, phi1).values.astype(np.float64) - base)
                + b * (realize(scheme, phi2).values.astype(np.float64) - base)
                + base
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_ties_affine_given_preprocessing(self, pool4):
        scheme = make_scheme("ties", pool4, trim_fraction=0.5)
        base = pool4.base.values.astype(np.float64)
        one = realize(scheme, np.array([1.0])).values.astype(np.float64)
        three = realize(scheme, np.array([3.0])).values.astype(np.float64)
        np.testing.assert_allclose(three - base, 3 * (one - base), rtol=1e-5, atol=1e-5)

    def test_layer_wise_constant_rows_match_task_wise(self, pool4):
        tw = make_scheme("task_wise", pool4)
        lw = make_scheme("layer_wise", pool4)
        phi_tw = np.array([0.2, -0.4, 0.9])
        phi_lw = np.repeat(phi_tw, pool4.base.layer_count)
        a = realize(tw, phi_tw)
        b = realize(lw, phi_lw)
        assert a == b


class TestTiesPreprocess:
    def test_single_member_full_trim(self):
        pool = build_pool([0.0, 0.0, 0.0], [[1.0, -2.0, 3.0]])
        prep = ties_preprocess(pool, 1.0)
        np.testing.assert_array_equal(prep.trimmed[0], [1.0, -2.0, 3.0])
        np.testing.assert_array_equal(prep.elected_sign, [1, -1, 1])
        np.testing.assert_array_equal(prep.merged, [1.0, -2.0, 3.0])

    def test_trim_keeps_top_magnitudes(self):
        # sort oracle: keep ceil(0.5 * 4) = 2 entries, magnitudes {4, 3}
        pool = build_pool([0.0] * 4, [[4.0, -1.0, 3.0, 2.0]])
        prep = ties_preprocess(pool, 0.5)
        np.testing.assert_array_equal(prep.trimmed[0], [4.0, 0.0, 3.0, 0.0])

    def test_trim_tie_breaks_toward_lower_index(self):
        pool = build_pool([0.0] * 4, [[2.0, -2.0, 1.0, 3.0]])
        prep = ties_preprocess(pool, 0.5)
        # |2| ties with |-2|; the lower index (0) wins alongside |3|
        np.testing.assert_array_equal(prep.trimmed[0], [2.0, 0.0, 0.0, 3.0])

    def test_sign_flip_flips_elected_signs(self):
        # full trim keeps continuous values everywhere, so every coordinate
        # sum is nonzero and the tie rule never engages
        rng = np.random.default_rng(2)
        deltas = rng.standard_normal((3, 10))
        pool = build_pool(np.zeros(10), deltas)
        flipped = build_pool(np.zeros(10), -deltas)
        a = ties_preprocess(pool, 1.0)
        b = ties_preprocess(flipped, 1.0)
        np.testing.assert_array_equal(a.elected_sign, -b.elected_sign)

    def test_idempotent_and_deterministic(self, pool4):
        a = ties_preprocess(pool4, 0.4)
        b = ties_preprocess(pool4, 0.4)
        np.testing.assert_array_equal(a.merged, b.merged)
        np.testing.assert_array_equal(a.trimmed, b.trimmed)

    def test_trim_fraction_validation(self, pool4):
        with pytest.raises(DomainError):
            ties_preprocess(pool4, 0.0)
        with pytest.raises(DomainError):
            ties_preprocess(pool4, 1.5)


class TestDefaultPhi:
    def test_task_wise_uniform(self):
        pool = build_pool(np.zeros(3), np.eye(7, 3))
        scheme = make_scheme("task_wise", pool)
        np.testing.assert_allclose(default_phi(scheme), np.full(7, 1 / 7))

    def test_layer_wise_uniform(self):
        offsets = ((0, 2), (2, 2), (4, 1), (5, 1))
        rng = np.random.default_rng(3)
        pool = build_pool(rng.standard_normal(6), rng.standard_normal((7, 6)), offsets)
        scheme = make_scheme("layer_wise", pool)
        phi = default_phi(scheme)
        assert phi.shape == (28,)
        np.testing.assert_allclose(phi, np.full(28, 1 / 7))

    def test_task_arith_is_mean_of_deltas(self, pool4):
        scheme = make_scheme("task_arith", pool4)
        phi = default_phi(scheme)
        np.testing.assert_array_equal(phi, [1.0])
        merged = realize(scheme, phi)
        expected = pool4.base.values.astype(np.float64) + pool4.deltas_matrix().mean(axis=0)
        np.testing.assert_allclose(merged.values, expected, rtol=1e-6, atol=1e-6)
