import numpy as np
import pytest

import pacmerge.posterior as posterior
from pacmerge import (
    DomainError,
    GaussianSpec,
    MlpSpec,
    ModelPool,
    ParamVector,
    gen_tasks,
    init_params,
    make_scheme,
    mc_risk,
    mc_risks,
    merged_values,
    realize,
    sample,
    sample_set,
    train,
    StructureError,
    zero_one_risk,
    TrainConfig,
)
from pacmerge.merging import KINDS
from pacmerge.seeding import rng_for
from pacmerge.toyzoo import _ROW_BUDGET


class TestSpecs:
    def test_gaussian_validation(self):
        with pytest.raises(DomainError):
            GaussianSpec(np.array([0.0]), 0.0)
        with pytest.raises(DomainError):
            GaussianSpec(np.array([np.nan]), 0.1)
        with pytest.raises(DomainError):
            GaussianSpec(np.array([0.0]), np.inf)


class TestSample:
    def test_gaussian_tiny_variance_concentrates(self):
        spec = GaussianSpec(np.array([2.0, -3.0]), 1e-12)
        draws = sample(spec, 4, 200)
        assert np.max(np.abs(draws - spec.mean)) < 1e-4  # 6 sigma = 6e-6

    def test_gaussian_deterministic_and_counter_based(self):
        spec = GaussianSpec(np.zeros(3), 1.0)
        a = sample(spec, 9, 5)
        b = sample(spec, 9, 5)
        np.testing.assert_array_equal(a, b)
        # prefix property of the counter contract: draw j is a pure function
        # of (seed, j), so asking for fewer draws yields a prefix
        c = sample(spec, 9, 3)
        np.testing.assert_array_equal(a[:3], c)

    def test_gaussian_mean_converges(self):
        spec = GaussianSpec(np.array([1.5]), 0.25)
        draws = sample(spec, 3, 4000)
        assert abs(draws.mean() - 1.5) < 3 * 0.5 / np.sqrt(4000)

    def test_k_validation(self):
        with pytest.raises(DomainError):
            sample(GaussianSpec(np.array([0.0]), 1.0), 0, 0)


@pytest.fixture(scope="module")
def toy_pool():
    task = gen_tasks(21, 3, 6, 3, 0.8)[0]
    spec = MlpSpec((6, 8, 3))
    base = train(
        spec,
        init_params(spec, 0),
        sample_set(task, 150, 5),
        TrainConfig(lr=0.1, epochs=15, batch=16, seed=2),
    )
    rng = np.random.default_rng(1)
    offsets = spec.layer_offsets()
    members = tuple(
        (f"m{i}", ParamVector(0.05 * rng.standard_normal(spec.d_model), offsets))
        for i in range(3)
    )
    return ModelPool(base, members), spec, task


@pytest.fixture(scope="module")
def toy_world(toy_pool):
    pool, spec, task = toy_pool
    return make_scheme("task_wise", pool), spec, sample_set(task, 120, 9)


class TestMcRisk:
    def test_reproducible(self, toy_world):
        scheme, spec, data = toy_world
        q = GaussianSpec(np.full(3, 1 / 3), 0.05)
        a = mc_risk(q, scheme, spec, data, 1, seed=5)
        b = mc_risk(q, scheme, spec, data, 1, seed=5)
        assert a == b

    def test_tiny_variance_matches_point(self, toy_world):
        scheme, spec, data = toy_world
        phi = np.full(3, 1 / 3)
        near_point = GaussianSpec(phi, 1e-10)
        direct = zero_one_risk(spec, realize(scheme, phi), data)
        assert mc_risk(near_point, scheme, spec, data, 10, seed=3) == direct

    def test_within_unit_interval(self, toy_world):
        scheme, spec, data = toy_world
        q = GaussianSpec(np.full(3, 1 / 3), 0.5)
        for seed in range(5):
            value = mc_risk(q, scheme, spec, data, 5, seed=seed)
            assert 0.0 <= value <= 1.0

    def test_standard_error_scales_inverse_sqrt_k(self, toy_world):
        # CLT oracle: std over seeds of the k-sample estimator ~ k^{-1/2};
        # check the log-log slope across k in {10, 40, 160}
        scheme, spec, data = toy_world
        q = GaussianSpec(np.full(3, 1 / 3), 0.3)
        ks = [10, 40, 160]
        stds = []
        for k in ks:
            values = [mc_risk(q, scheme, spec, data, k, seed=200 + r) for r in range(60)]
            stds.append(np.std(values))
        slope = np.polyfit(np.log(ks), np.log(stds), 1)[0]
        assert -0.65 < slope < -0.35


class TestBatchedKernel:
    """The blocked estimator against the one-draw-at-a-time reference."""

    # (n, k) for a budget of 4,096 rows: one block of 10 stacked draws;
    # blocks of 3 and 1 draws; one block of 7 draws; and, whatever the
    # budget, one draw per block in row tiles with a remainder tile
    @pytest.mark.parametrize("n,k", [(120, 10), (1100, 4), (300, 7), (2 * _ROW_BUDGET + 3, 4)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_mc_risk_equals_per_draw_mean(self, toy_pool, kind, n, k):
        pool, spec, task = toy_pool
        scheme = make_scheme(kind, pool)
        data = sample_set(task, n, 4)
        q = GaussianSpec(np.full(scheme.d_phi, 1 / 3), 0.5)
        reference = float(np.mean(
            [zero_one_risk(spec, realize(scheme, phi), data) for phi in sample(q, 17, k)]
        ))
        assert mc_risk(q, scheme, spec, data, k, seed=17) == reference

    @pytest.mark.parametrize("n,k", [(10, 1), (10, 50), (_ROW_BUDGET + 1, 7)])
    def test_one_merge_per_estimate(self, toy_pool, monkeypatch, n, k):
        pool, spec, task = toy_pool
        scheme = make_scheme("task_wise", pool)
        calls = []

        def counting(*args):
            calls.append(args)
            return merged_values(*args)

        monkeypatch.setattr(posterior, "merged_values", counting)
        q = GaussianSpec(np.full(3, 1 / 3), 0.5)
        mc_risk(q, scheme, spec, sample_set(task, n, 4), k, seed=17)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_merged_rows_equal_realize(self, toy_pool, kind):
        pool, _, _ = toy_pool
        scheme = make_scheme(kind, pool)
        phis = np.random.default_rng(3).standard_normal((9, scheme.d_phi))
        merged = merged_values(scheme, phis)
        assert merged.dtype == np.float32 and merged.shape == (9, pool.base.size)
        for j, phi in enumerate(phis):
            assert np.array_equal(merged[j], realize(scheme, phi).values)

    def test_merged_values_shape_checked(self, toy_pool):
        scheme = make_scheme("task_wise", toy_pool[0])
        with pytest.raises(StructureError):
            merged_values(scheme, np.zeros(scheme.d_phi))
        with pytest.raises(StructureError):
            merged_values(scheme, np.zeros((2, scheme.d_phi + 1)))


class TestBatchedMeans:
    """``mc_risks`` over m means against one ``mc_risk`` call per mean."""

    # below the row budget the m * k draws stack into blocks; above it each
    # draw takes row tiles; k = 150 sums each mean's risks past one
    # 128-element block of numpy's pairwise summation
    @pytest.mark.parametrize("n,k", [(120, 5), (_ROW_BUDGET + 5, 2), (40, 150)])
    @pytest.mark.parametrize("m", [1, 7, 41])
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_equal_one_mean_calls(self, toy_pool, kind, m, n, k):
        pool, spec, task = toy_pool
        scheme = make_scheme(kind, pool)
        data = sample_set(task, n, 4)
        means = 1 / 3 + 0.4 * np.random.default_rng(m).standard_normal((m, scheme.d_phi))
        risks = mc_risks(means, 0.2, scheme, spec, data, k, seed=23)
        assert risks.shape == (m,)
        for i in range(m):
            assert risks[i] == mc_risk(GaussianSpec(means[i], 0.2), scheme, spec, data, k, seed=23)
        for i in (0, m - 1):
            draws = sample(GaussianSpec(means[i], 0.2), 23, k)
            reference = np.mean([zero_one_risk(spec, realize(scheme, phi), data) for phi in draws])
            assert risks[i] == reference

    def test_one_merge_per_call(self, toy_world, monkeypatch):
        scheme, spec, data = toy_world
        calls = []

        def counting(*args):
            calls.append(args)
            return merged_values(*args)

        monkeypatch.setattr(posterior, "merged_values", counting)
        mc_risks(np.full((12, 3), 1 / 3), 0.3, scheme, spec, data, 6, seed=2)
        assert len(calls) == 1 and calls[0][1].shape == (72, 3)

    def test_arguments_checked(self, toy_world):
        scheme, spec, data = toy_world
        means = np.full((4, 3), 1 / 3)
        with pytest.raises(DomainError, match="finite"):
            mc_risks(np.array([[0.1, np.inf, 0.2]]), 0.1, scheme, spec, data, 3)
        for variance in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError, match="variance"):
                mc_risks(means, variance, scheme, spec, data, 3)
        with pytest.raises(DomainError, match="k >= 1"):
            mc_risks(means, 0.1, scheme, spec, data, 0)
        with pytest.raises(DomainError, match="non-empty"):
            mc_risks(means, 0.1, scheme, spec, data.subset(np.array([], dtype=int)), 3)
        with pytest.raises(StructureError):
            mc_risks(np.full((4, 2), 0.5), 0.1, scheme, spec, data, 3)
        with pytest.raises(StructureError):
            mc_risks(np.full(3, 0.5), 0.1, scheme, spec, data, 3)

    def test_means_not_written(self, toy_world):
        scheme, spec, data = toy_world
        means = np.full((3, 3), 1 / 3)
        mc_risks(means, 0.3, scheme, spec, data, 4, seed=5)
        assert np.array_equal(means, np.full((3, 3), 1 / 3))


class TestNonFinite:
    def test_nan_phi(self, toy_world):
        scheme, spec, data = toy_world
        phi = np.array([0.1, np.nan, 0.2])
        with pytest.raises(DomainError):
            realize(scheme, phi)
        with pytest.raises(DomainError):
            mc_risk(GaussianSpec(phi, 0.1), scheme, spec, data, 3, seed=1)

    def test_infinite_draws(self):
        # an infinite variance is refused when the spec is built
        with pytest.raises(DomainError, match="finite"):
            GaussianSpec(np.full(3, 1 / 3), np.inf)

    def test_float32_overflow(self, toy_world):
        # finite in float64, beyond the float32 range once multiplied out
        scheme, spec, data = toy_world
        phi = np.full(3, 1e40)
        with pytest.raises(DomainError, match="32-bit"):
            realize(scheme, phi)
        with pytest.raises(DomainError, match="32-bit"):
            mc_risk(GaussianSpec(phi, 1e-12), scheme, spec, data, 3, seed=1)


class TestNoiseCache:
    def test_returned_draws_are_private(self):
        spec = GaussianSpec(np.array([0.5, -1.0]), 0.2)
        first = sample(spec, 41, 6)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(sample(spec, 41, 6), expected)

    def test_repeat_call_draws_no_noise(self, toy_world, monkeypatch):
        scheme, spec, data = toy_world
        calls = []

        def counting(*args):
            calls.append(args)
            return rng_for(*args)

        monkeypatch.setattr(posterior, "rng_for", counting)
        q = GaussianSpec(np.full(3, 1 / 3), 0.3)
        first = mc_risk(q, scheme, spec, data, 5, seed=918273)
        assert len(calls) == 5
        moved = GaussianSpec(np.full(3, 0.2), 0.3)
        mc_risk(moved, scheme, spec, data, 5, seed=918273)
        assert mc_risk(q, scheme, spec, data, 5, seed=918273) == first
        assert len(calls) == 5
