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
    ParamVector,
    StructureError,
    TrainConfig,
    axpy,
    certify,
    certify_ddp,
    certify_discrete,
    default_phi,
    error_counts,
    gen_tasks,
    init_params,
    make_scheme,
    mc_risk,
    merged_values,
    minimize,
    optimize,
    realize,
    sample_set,
    seeger_certificate,
    train,
    train_stack,
    zero_one_risk,
)
import pacmerge.cma as cma
import pacmerge.posterior as posterior
from pacmerge.bounds import gaussian_kl
from pacmerge.certify import split_support
from pacmerge.merging import KINDS
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
    tuned = train_stack(
        spec, base, [sample_set(task, 80, 90 + i) for i, task in enumerate(tasks)],
        [TrainConfig(lr=0.04, epochs=10, batch=16, seed=10 + i) for i in range(len(tasks))],
        [task.task_id for task in tasks],
    )
    members = [(task.task_id, axpy(model, -1.0, base)) for task, model in zip(tasks, tuned)]
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
        config = CertifyConfig(  # prior variance 1e-8: enormous KL weight
            posterior_variance=1e-8, prior_variance=1e-8, cma=CmaConfig(max_evals=200, seed=2)
        )
        mu, _ = optimize(scheme, "pac_bayes_upper", support, spec, config)
        assert np.max(np.abs(mu - default_phi(scheme))) < 0.05

    def test_deterministic_trace(self, world):
        _, pool, spec, support, _ = world
        scheme = make_scheme("task_arith", pool)
        config = CertifyConfig(mc_samples=5, cma=CmaConfig(max_evals=60, seed=11))

        def run():
            _, trace = optimize(scheme, "train_risk", support, spec, config)
            return [(t.eval_index, t.objective, t.kl_qp) for t in trace]

        assert run() == run()

    def test_best_not_worse_than_trace_minimum(self, world):
        _, pool, spec, support, _ = world
        scheme = make_scheme("task_arith", pool)
        config = CertifyConfig(mc_samples=5, cma=CmaConfig(max_evals=80, seed=3))
        mu, trace = optimize(scheme, "train_risk", support, spec, config)
        best_traced = min(t.objective for t in trace)
        value = mc_risk(
            GaussianSpec(mu, config.posterior_variance), scheme, spec, support,
            config.mc_samples, derive_seed(3, "mc-common"),
        )
        assert value <= best_traced + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_bound_search_minimum_is_certified_upper_bound(self, world, kind, seed):
        _, pool, spec, support, _ = world
        scheme = make_scheme(kind, pool)
        config = quick_config(seed, max_evals=40)
        prior = GaussianSpec(default_phi(scheme) + 0.1, config.prior_variance)
        _, trace = optimize(scheme, "pac_bayes_upper", support, spec, config, prior)
        record = certify(scheme, "pac_bayes_upper", support, None, spec, config, prior=prior)
        assert min(t.objective for t in trace) == record.upper_bound

    def test_rejects_unknown_kind_and_wrong_prior_dimension(self, world):
        _, pool, spec, support, _ = world
        scheme = make_scheme("task_wise", pool)
        with pytest.raises(DomainError):
            optimize(scheme, "test_risk", support, spec, quick_config())
        wrong = GaussianSpec(np.ones(scheme.d_phi + 1), 0.05)
        with pytest.raises(StructureError):
            optimize(scheme, "pac_bayes_upper", support, spec, quick_config(), wrong)


def one_row_trace(scheme, objective_kind, support, spec, config):
    """(value, kl) per evaluation from an objective that scores one row at a time."""
    mc_seed = derive_seed(config.cma.seed, "mc-common")
    prior = GaussianSpec(default_phi(scheme), config.prior_variance)
    n, delta = support.n, config.delta
    trace = []

    def score(phi):
        q = GaussianSpec(phi, config.posterior_variance)
        value = mc_risk(q, scheme, spec, support, config.mc_samples, mc_seed)
        kl = 0.0
        if objective_kind == "pac_bayes_upper":
            kl = gaussian_kl(q, prior)
            value += math.sqrt((kl + math.log(n / delta)) / (2.0 * (n - 1)))
        trace.append((value, kl))
        return value

    minimize(lambda phis: [score(phi) for phi in phis], default_phi(scheme), config.cma)
    return trace


class TestBatchedSearch:
    @pytest.mark.parametrize("objective_kind", ["train_risk", "pac_bayes_upper"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_trace_equals_one_row_reference(self, world, kind, objective_kind):
        _, pool, spec, support, _ = world
        scheme = make_scheme(kind, pool)
        config = CertifyConfig(mc_samples=5, cma=CmaConfig(max_evals=45, seed=6))
        _, trace = optimize(scheme, objective_kind, support, spec, config)
        assert [t.eval_index for t in trace] == list(range(45))
        assert [(t.objective, t.kl_qp) for t in trace] == one_row_trace(
            scheme, objective_kind, support, spec, config
        )

    def test_one_merge_per_generation(self, world, monkeypatch):
        _, pool, spec, support, _ = world
        merges, asks = [], []
        merge, ask = posterior.merged_values, cma.CmaEs.ask

        def counting_merge(*args):
            merges.append(args)
            return merge(*args)

        def counting_ask(self):
            asks.append(self.gen)
            return ask(self)

        monkeypatch.setattr(posterior, "merged_values", counting_merge)
        monkeypatch.setattr(cma.CmaEs, "ask", counting_ask)
        config = CertifyConfig(mc_samples=4, cma=CmaConfig(max_evals=60, seed=1))
        _, trace = optimize(make_scheme("layer_wise", pool), "train_risk", support, spec, config)
        assert len(trace) == 60
        assert len(merges) == 1 + len(asks) < len(trace)


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
        config = CertifyConfig(
            mc_samples=5, cma=CmaConfig(max_evals=50, seed=derive_seed(9, "ddp-prior"))
        )
        mu_1, _ = optimize(scheme, "train_risk", half_a, spec, config)
        # permuting the second half cannot touch the prior fit
        permuted_b = half_b.subset(np.random.default_rng(0).permutation(half_b.n))
        assert permuted_b.n == half_b.n
        mu_2, _ = optimize(scheme, "train_risk", half_a, spec, config)
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
        scheme = make_scheme("task_arith", pool)
        risk0 = zero_one_risk(spec, realize(scheme, np.array([0.0])), support)
        risk1 = zero_one_risk(spec, realize(scheme, np.array([1.0])), support)
        assert record.train_error == min(risk0, risk1)

    @pytest.mark.parametrize("grid_size", [2, 41, 100])
    def test_grid_scored_in_one_call_equals_per_point(self, world, grid_size):
        _, pool, spec, support, query = world
        # the target's own fine-tune alone, whose best grid point is not the first
        pool = ModelPool(pool.base, pool.members[:1])
        scheme = make_scheme("task_arith", pool)
        grid = np.linspace(0.0, 1.0, grid_size)
        per_point = [zero_one_risk(spec, realize(scheme, np.array([g])), support) for g in grid]
        batched = error_counts(spec, merged_values(scheme, grid[:, None]), support) / support.n
        assert batched.tolist() == per_point
        best = int(np.argmin(per_point))
        assert best > 0
        record = certify_discrete(pool, grid_size, support, spec, quick_config(), query=query)
        assert record.train_error == per_point[best]
        assert record.provenance["phi_star"] == grid[best]
        assert record.test_error == zero_one_risk(
            spec, realize(scheme, np.array([grid[best]])), query
        )

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
