import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacmerge import (
    DomainError,
    MergeScheme,
    ModelPool,
    StructureError,
    default_phi,
    merged_values,
    ties_preprocess,
)
from pacmerge.merging import KINDS


def build_pool(base_values, deltas, offsets=None):
    base_values = np.asarray(base_values, dtype=np.float32)
    if offsets is None:
        offsets = ((0, base_values.size),)
    deltas = np.asarray(deltas, dtype=np.float32)
    return ModelPool(base_values, deltas, [f"t{i}" for i in range(len(deltas))], offsets)


def realize(scheme, phi):
    """The merged model of one coefficient vector: a one-row ``merged_values``."""
    return merged_values(scheme, np.asarray(phi)[None])[0]


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
        scheme = MergeScheme(kind, pool4)
        out = realize(scheme, np.zeros(scheme.d_phi))
        assert np.array_equal(out, pool4.base)

    def test_task_wise_uniform_equals_task_arith(self, pool4):
        c = 0.7
        tw = MergeScheme("task_wise", pool4)
        ta = MergeScheme("task_arith", pool4)
        a = realize(tw, np.full(pool4.M, c / pool4.M))
        b = realize(ta, np.array([c]))
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-6)

    def test_ties_hand_enumeration(self):
        # two members, trim keeps everything: coordinate sums are +3 and 0;
        # coordinate 0 keeps mean(+1, +2) = 1.5; coordinate 1 ties, elects +1,
        # keeps mean(+3) = 3.
        pool = build_pool([0.0, 0.0], [[1.0, -3.0], [2.0, 3.0]])
        scheme = MergeScheme("ties", pool, trim_fraction=1.0)
        out = realize(scheme, np.array([1.0]))
        np.testing.assert_allclose(out, [1.5, 3.0], atol=1e-6)

    def test_dimension_mismatch(self, pool4):
        scheme = MergeScheme("task_wise", pool4)
        with pytest.raises(StructureError):
            merged_values(scheme, np.zeros((1, scheme.d_phi + 1)))

    def test_affine_in_phi(self, pool4):
        rng = np.random.default_rng(1)
        for kind in ("task_arith", "task_wise", "layer_wise"):
            scheme = MergeScheme(kind, pool4)
            phi1 = rng.standard_normal(scheme.d_phi)
            phi2 = rng.standard_normal(scheme.d_phi)
            a, b = 0.3, -1.2
            lhs = realize(scheme, a * phi1 + b * phi2).astype(np.float64)
            base = pool4.base.astype(np.float64)
            rhs = (
                a * (realize(scheme, phi1).astype(np.float64) - base)
                + b * (realize(scheme, phi2).astype(np.float64) - base)
                + base
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-6, atol=1e-6)

    def test_ties_affine_given_preprocessing(self, pool4):
        scheme = MergeScheme("ties", pool4, trim_fraction=0.5)
        base = pool4.base.astype(np.float64)
        one = realize(scheme, np.array([1.0])).astype(np.float64)
        three = realize(scheme, np.array([3.0])).astype(np.float64)
        np.testing.assert_allclose(three - base, 3 * (one - base), rtol=1e-5, atol=1e-5)

    def test_layer_wise_constant_rows_match_task_wise(self, pool4):
        tw = MergeScheme("task_wise", pool4)
        lw = MergeScheme("layer_wise", pool4)
        phi_tw = np.array([0.2, -0.4, 0.9])
        phi_lw = np.repeat(phi_tw, len(pool4.layer_offsets))
        a = realize(tw, phi_tw)
        b = realize(lw, phi_lw)
        assert np.array_equal(a, b)


class TestTiesPreprocess:
    """With a single member every kept entry elects its own sign, so the merged
    vector is that member's trimmed row."""

    def test_single_member_full_trim(self):
        pool = build_pool([0.0, 0.0, 0.0], [[1.0, -2.0, 3.0]])
        merged = ties_preprocess(pool, 1.0)
        assert merged.shape == (3,) and merged.dtype == np.float64
        assert not merged.flags.writeable
        np.testing.assert_array_equal(merged, [1.0, -2.0, 3.0])

    def test_trim_keeps_top_magnitudes(self):
        # sort oracle: keep ceil(0.5 * 4) = 2 entries, magnitudes {4, 3}
        pool = build_pool([0.0] * 4, [[4.0, -1.0, 3.0, 2.0]])
        np.testing.assert_array_equal(ties_preprocess(pool, 0.5), [4.0, 0.0, 3.0, 0.0])

    def test_trim_tie_breaks_toward_lower_index(self):
        pool = build_pool([0.0] * 4, [[2.0, -2.0, 1.0, 3.0]])
        # |2| ties with |-2|; the lower index (0) wins alongside |3|
        np.testing.assert_array_equal(ties_preprocess(pool, 0.5), [2.0, 0.0, 0.0, 3.0])

    def test_sign_flip_flips_elected_signs(self):
        # full trim keeps continuous values everywhere, so every coordinate
        # sum is nonzero and the tie rule never engages: negating the deltas
        # flips every elected sign, keeps every survivor, and negates the merge
        rng = np.random.default_rng(2)
        deltas = rng.standard_normal((3, 10))
        pool = build_pool(np.zeros(10), deltas)
        flipped = build_pool(np.zeros(10), -deltas)
        np.testing.assert_array_equal(ties_preprocess(pool, 1.0), -ties_preprocess(flipped, 1.0))

    def test_idempotent_and_deterministic(self, pool4):
        a = ties_preprocess(pool4, 0.4)
        b = ties_preprocess(pool4, 0.4)
        np.testing.assert_array_equal(a, b)

    def test_trim_fraction_validation(self, pool4):
        with pytest.raises(DomainError):
            ties_preprocess(pool4, 0.0)
        with pytest.raises(DomainError):
            ties_preprocess(pool4, 1.5)


class TestDefaultPhi:
    def test_task_wise_uniform(self):
        pool = build_pool(np.zeros(3), np.eye(7, 3))
        scheme = MergeScheme("task_wise", pool)
        np.testing.assert_allclose(default_phi(scheme), np.full(7, 1 / 7))

    def test_layer_wise_uniform(self):
        offsets = ((0, 2), (2, 2), (4, 1), (5, 1))
        rng = np.random.default_rng(3)
        pool = build_pool(rng.standard_normal(6), rng.standard_normal((7, 6)), offsets)
        scheme = MergeScheme("layer_wise", pool)
        phi = default_phi(scheme)
        assert phi.shape == (28,)
        np.testing.assert_allclose(phi, np.full(28, 1 / 7))

    def test_task_arith_is_mean_of_deltas(self, pool4):
        scheme = MergeScheme("task_arith", pool4)
        phi = default_phi(scheme)
        np.testing.assert_array_equal(phi, [1.0])
        merged = realize(scheme, phi)
        expected = pool4.base.astype(np.float64) + pool4.deltas.mean(axis=0)
        np.testing.assert_allclose(merged, expected, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("kind", ["task_arith", "ties"])
    def test_scalar_direction_computed_once(self, pool4, kind):
        scheme = MergeScheme(kind, pool4, trim_fraction=0.5)
        deltas = pool4.deltas.astype(np.float64)
        direction = {"task_arith": deltas.mean(axis=0),
                     "ties": ties_preprocess(pool4, 0.5)}[kind]
        assert np.array_equal(scheme.basis[1], direction)
        assert not scheme.basis[1].flags.writeable
        # the bits of scaling the per-call direction
        phis = np.array([[1.0], [-0.3], [2.5]])
        expected = (pool4.base.astype(np.float64) + phis * direction).astype(np.float32)
        assert merged_values(scheme, phis).tobytes() == expected.tobytes()


def per_kind_merge(scheme, phis):
    """The per-kind merge formula as float32 rows (k, P): base + phi *
    direction for the scalar kinds, one vector-matrix product per row for
    ``task_wise`` and per row and layer block for ``layer_wise``, in float64
    and rounded once."""
    pool = scheme.pool
    phis = np.asarray(phis, dtype=np.float64)
    out = pool.base.astype(np.float64)
    deltas = pool.deltas.astype(np.float64)
    if scheme.kind == "task_arith":
        out = out + phis[:, :1] * deltas.mean(axis=0)
    elif scheme.kind == "ties":
        out = out + phis[:, :1] * ties_preprocess(pool, scheme.trim_fraction)
    elif scheme.kind == "task_wise":
        out = out + (phis[:, None, :] @ deltas)[:, 0]
    else:
        coeff = phis.reshape(len(phis), pool.M, len(pool.layer_offsets))
        out = np.tile(out, (len(phis), 1))
        for layer, (start, length) in enumerate(pool.layer_offsets):
            block = slice(start, start + length)
            out[:, block] += (coeff[:, None, :, layer] @ deltas[:, block])[:, 0]
    return out.astype(np.float32)


@st.composite
def schemes_and_phis(draw):
    """A scheme of any kind over a random pool of 1-6 members and 3-6 layer
    blocks, and 1-40 coefficient rows around its uniform merge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 64), min_size=3, max_size=6))
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    members = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 0.05, 1.0, 40.0]))
    pool = build_pool(rng.standard_normal(sum(lengths)),
                      scale * rng.standard_normal((members, sum(lengths))),
                      tuple(zip(starts, lengths)))
    scheme = MergeScheme(draw(st.sampled_from(KINDS)), pool,
                         trim_fraction=draw(st.floats(0.05, 1.0)))
    spread = draw(st.sampled_from([0.01, 0.5, 3.0]))
    k = draw(st.integers(1, 40))
    return scheme, default_phi(scheme) + spread * rng.standard_normal((k, scheme.d_phi))


class TestOneProduct:
    """``merged_values`` is one product over the scheme's basis; the float32
    rows are those of the per-kind formula and do not depend on the batch."""

    @settings(max_examples=200, deadline=None)
    @given(schemes_and_phis())
    def test_rows_equal_the_per_kind_formula(self, case):
        scheme, phis = case
        merged = merged_values(scheme, phis)
        assert merged.tobytes() == per_kind_merge(scheme, phis).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(schemes_and_phis())
    def test_rows_do_not_depend_on_the_batch(self, case):
        scheme, phis = case
        whole = merged_values(scheme, phis).tobytes()
        alone = [merged_values(scheme, phis[i : i + 1]) for i in range(len(phis))]
        sevens = [merged_values(scheme, phis[i : i + 7]) for i in range(0, len(phis), 7)]
        assert np.concatenate(alone).tobytes() == whole
        assert np.concatenate(sevens).tobytes() == whole

    @pytest.mark.parametrize("kind", KINDS)
    def test_basis_rows(self, kind):
        offsets = ((0, 3), (3, 2), (5, 4))
        rng = np.random.default_rng(5)
        pool = build_pool(rng.standard_normal(9), rng.standard_normal((4, 9)), offsets)
        scheme = MergeScheme(kind, pool, trim_fraction=0.5)
        basis = scheme.basis
        assert basis.shape == (1 + scheme.d_phi, 9) and basis.dtype == np.float64
        assert not basis.flags.writeable
        assert np.array_equal(basis[0], pool.base.astype(np.float64))
        deltas = pool.deltas.astype(np.float64)
        if kind == "task_wise":
            assert np.array_equal(basis[1:], deltas)
        elif kind == "layer_wise":
            # row 1 + m * L + l: member m's delta on block l, zero elsewhere
            for m in range(pool.M):
                for layer, (start, length) in enumerate(offsets):
                    expected = np.zeros(9)
                    expected[start : start + length] = deltas[m, start : start + length]
                    assert np.array_equal(basis[1 + m * len(offsets) + layer], expected)
        else:
            direction = deltas.mean(axis=0) if kind == "task_arith" else ties_preprocess(pool, 0.5)
            assert basis.shape[0] == 2 and np.array_equal(basis[1], direction)
