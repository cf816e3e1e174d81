import numpy as np
import pytest

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
    realize,
    sample,
    sample_set,
    train,
    zero_one_risk,
    TrainConfig,
)


class TestSpecs:
    def test_gaussian_validation(self):
        with pytest.raises(DomainError):
            GaussianSpec(np.array([0.0]), 0.0)
        with pytest.raises(DomainError):
            GaussianSpec(np.array([np.nan]), 0.1)


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
def toy_world():
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
    pool = ModelPool(base, members)
    scheme = make_scheme("task_wise", pool)
    data = sample_set(task, 120, 9)
    return scheme, spec, data


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
