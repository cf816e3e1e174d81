import math

import numpy as np
import pytest

from pacmerge import (
    CertifyConfig,
    CmaConfig,
    DdpConfig,
    DomainError,
    GaussianSpec,
    MlpSpec,
    ModelPool,
    Objective,
    ParamVector,
    TrainConfig,
    axpy,
    certify,
    certify_ddp,
    certify_discrete,
    default_phi,
    gen_tasks,
    init_params,
    make_scheme,
    mc_risk,
    optimize,
    sample_set,
    seeger_certificate,
    train,
)
from pacmerge.certify import split_support
from pacmerge.seeding import derive_seed


@pytest.fixture(scope="module")
def world():
    """Small trained pool over three related tasks."""
    tasks = gen_tasks(31, 3, 8, 3, 0.85, noise_scale=1.5)
    spec = MlpSpec((8, 8, 3))
    mixture_parts = [sample_set(t, 80, 50 + i) for i, t in enumerate(tasks)]
    mixture_inputs = np.concatenate([p.inputs for p in mixture_parts])
    mixture_labels = np.concatenate([p.labels for p in mixture_parts])
    from pacmerge import LabeledSet

    base = train(
        spec,
        init_params(spec, 0),
        LabeledSet(mixture_inputs, mixture_labels),
        TrainConfig(lr=0.08, epochs=12, batch=16, seed=1),
    )
    members = []
    for i, task in enumerate(tasks):
        tuned = train(
            spec, base, sample_set(task, 80, 90 + i),
            TrainConfig(lr=0.04, epochs=10, batch=16, seed=10 + i),
        )
        members.append((task.task_id, axpy(tuned, -1.0, base)))
    pool = ModelPool(base, tuple(members))
    support = sample_set(tasks[0], 100, 7)
    query = sample_set(tasks[0], 400, 8)
    return tasks, pool, spec, support, query


def quick_config(seed=0, max_evals=150):
    return CertifyConfig(cma=CmaConfig(max_evals=max_evals, seed=seed), eval_seed=seed + 1)


class TestOptimize:
    def test_kl_dominated_objective_stays_at_prior(self, world):
        _, pool, spec, support, _ = world
        scheme = make_scheme("task_wise", pool)
        prior = GaussianSpec(default_phi(scheme), 1e-8)  # enormous KL weight
        objective = Objective(
            kind="pac_bayes_upper", prior=prior, n=support.n, delta=0.05,
            posterior_variance=1e-8,
        )
        mu, _ = optimize(scheme, objective, support, spec, CmaConfig(max_evals=200, seed=2))
        assert np.max(np.abs(mu - default_phi(scheme))) < 0.05

    def test_deterministic_trace(self, world):
        _, pool, spec, support, _ = world
        scheme = make_scheme("task_arith", pool)
        objective = Objective(kind="train_risk", mc_samples=5)

        def run():
            _, trace = optimize(scheme, objective, support, spec, CmaConfig(max_evals=60, seed=11))
            return [(t.eval_index, t.objective, t.kl_qp) for t in trace]

        assert run() == run()

    def test_best_not_worse_than_trace_minimum(self, world):
        _, pool, spec, support, _ = world
        scheme = make_scheme("task_arith", pool)
        objective = Objective(kind="train_risk", mc_samples=5)
        mu, trace = optimize(scheme, objective, support, spec, CmaConfig(max_evals=80, seed=3))
        best_traced = min(t.objective for t in trace)
        value = mc_risk(
            GaussianSpec(mu, objective.posterior_variance), scheme, spec, support,
            objective.mc_samples, derive_seed(3, "mc-common"),
        )
        assert value <= best_traced + 1e-12


class TestCertify:
    def test_record_arithmetic_identity(self, world):
        _, pool, spec, support, query = world
        scheme = make_scheme("task_arith", pool)
        record = certify(scheme, "train_risk", support, query, spec, quick_config(5), task_id="t")
        lhs = (record.upper_bound - record.train_error) ** 2 * 2 * (record.n - 1)
        assert abs(lhs - math.log(record.n / record.delta) - record.kl_qp) < 1e-6

    def test_invariants(self, world):
        _, pool, spec, support, query = world
        scheme = make_scheme("task_wise", pool)
        record = certify(scheme, "pac_bayes_upper", support, query, spec, quick_config(6))
        record.validate()
        if not record.vacuous:
            assert record.train_error <= record.pb_bound <= record.upper_bound + 1e-9
        assert record.certified_gap == record.pb_bound - record.train_error
        assert record.test_error is not None

    def test_cannot_lose_to_initialization(self, world):
        _, pool, spec, support, query = world
        scheme = make_scheme("layer_wise", pool)
        config = quick_config(7, max_evals=120)
        record = certify(scheme, "pac_bayes_upper", support, None, spec, config)
        phi0 = default_phi(scheme)
        train0 = mc_risk(
            GaussianSpec(phi0, config.posterior_variance), scheme, spec, support,
            config.mc_samples, derive_seed(config.cma.seed, "mc-common"),
        )
        upper0 = seeger_certificate(train0, 0.0, support.n, config.delta).upper_bound
        assert record.upper_bound <= upper0 + 1e-6

    @pytest.mark.parametrize("field", ["posterior_variance", "prior_variance"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_config_rejects_bad_variance(self, field, value):
        with pytest.raises(DomainError):
            CertifyConfig(**{field: value})

    def test_needs_two_points(self, world):
        _, pool, spec, support, _ = world
        scheme = make_scheme("task_arith", pool)
        tiny = support.subset([0])
        with pytest.raises(DomainError):
            certify(scheme, "train_risk", tiny, None, spec, quick_config())


class TestDdp:
    def test_split_sizes_and_disjoint(self, world):
        _, _, _, support, _ = world
        half_a, half_b = split_support(support, DdpConfig(split_fraction=0.5, split_seed=3))
        assert half_a.n == 50 and half_b.n == 50
        joined = np.concatenate([half_a.inputs, half_b.inputs])
        assert np.unique(joined, axis=0).shape[0] == support.n  # disjoint rows

    def test_certificate_n_is_second_half(self, world):
        _, pool, spec, support, query = world
        scheme = make_scheme("task_wise", pool)
        record = certify_ddp(
            scheme, support, DdpConfig(split_seed=1), spec, quick_config(8), query=query
        )
        assert record.n == 50
        assert record.objective == "ddp"
        record.validate()

    def test_prior_pure_function_of_first_half(self, world):
        _, pool, spec, support, _ = world
        scheme = make_scheme("task_arith", pool)
        ddp = DdpConfig(split_seed=4)
        half_a, half_b = split_support(support, ddp)
        cma = CmaConfig(max_evals=50, seed=derive_seed(9, "ddp-prior"))
        objective = Objective(kind="train_risk", mc_samples=5)
        mu_1, _ = optimize(scheme, objective, half_a, spec, cma)
        # permuting the second half cannot touch the prior fit
        permuted_b = half_b.subset(np.random.default_rng(0).permutation(half_b.n))
        assert permuted_b.n == half_b.n
        mu_2, _ = optimize(scheme, objective, half_a, spec, cma)
        np.testing.assert_array_equal(mu_1, mu_2)

    def test_too_small_support_rejected(self, world):
        _, pool, spec, support, _ = world
        scheme = make_scheme("task_arith", pool)
        with pytest.raises(DomainError):
            certify_ddp(scheme, support.subset([0, 1, 2]), DdpConfig(), spec, quick_config())


class TestDiscrete:
    def test_kl_is_log_grid_size(self, world):
        _, pool, spec, support, _ = world
        for m in (2, 20, 100):
            record = certify_discrete(pool, m, support, spec, quick_config())
            assert record.kl_qp == math.log(m)
            record.validate()

    def test_degenerate_pair_selects_better(self, world):
        tasks, pool, spec, support, _ = world
        record = certify_discrete(pool, 2, support, spec, quick_config())
        from pacmerge import realize, zero_one_risk

        scheme = make_scheme("task_arith", pool)
        risk0 = zero_one_risk(spec, realize(scheme, np.array([0.0])), support)
        risk1 = zero_one_risk(spec, realize(scheme, np.array([1.0])), support)
        assert record.train_error == min(risk0, risk1)

    def test_tie_breaks_to_smaller_phi(self, world):
        _, pool, spec, support, _ = world
        offsets = pool.base.layer_offsets
        zero = ParamVector(np.zeros(pool.base.size), offsets)
        flat_pool = ModelPool(pool.base, (("z", zero),))
        record = certify_discrete(flat_pool, 5, support, spec, quick_config())
        assert record.provenance["phi_star"] == 0.0

    def test_grid_size_validation(self, world):
        _, pool, spec, support, _ = world
        with pytest.raises(DomainError):
            certify_discrete(pool, 1, support, spec, quick_config())
