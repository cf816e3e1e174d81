import functools
import importlib
import math

import numpy as np
import pytest

from pacmerge import (
    CertifyConfig,
    CmaConfig,
    DdpConfig,
    DomainError,
    LabeledSet,
    MergeScheme,
    MlpSpec,
    ModelPool,
    RiskEstimator,
    StructureError,
    TrainConfig,
    certify,
    certify_ddp,
    certify_gaussian,
    certify_point,
    default_phi,
    error_counts,
    gen_tasks,
    init_params,
    merged_values,
    minimize,
    optimize,
    sample_set,
    seeger_certificate,
    train_stack,
)
import pacmerge.cma as cma
import pacmerge.posterior as posterior
import pacmerge.toyzoo as toyzoo
from pacmerge.bounds import gaussian_kl, gaussian_log_ratio
from pacmerge.certify import OBJECTIVE_KINDS, split_support
from pacmerge.merging import KINDS
from pacmerge.posterior import MC_SAMPLES
from pacmerge.seeding import derive_seed, rng_for
from pacmerge.toyzoo import _ROW_BUDGET


@pytest.fixture(scope="module")
def world():
    """Small trained pool over three related tasks."""
    tasks = gen_tasks(31, 3, 8, 3, 0.85, noise_scale=1.5)
    spec = MlpSpec((8, 8, 3))
    mixture_parts = [sample_set(t, 80, 50 + i) for i, t in enumerate(tasks)]
    mixture_inputs = np.concatenate([p.inputs for p in mixture_parts])
    mixture_labels = np.concatenate([p.labels for p in mixture_parts])
    from pacmerge import LabeledSet

    (base,) = train_stack(
        spec,
        init_params(spec, 0),
        [LabeledSet(mixture_inputs, mixture_labels)],
        TrainConfig(lr=0.08, epochs=12, batch=16),
        [1],
        ["base"],
    )
    tuned = train_stack(
        spec, base, [sample_set(task, 80, 90 + i) for i, task in enumerate(tasks)],
        TrainConfig(lr=0.04, epochs=10, batch=16),
        [10 + i for i in range(len(tasks))],
        [task.task_id for task in tasks],
    )
    deltas = (tuned.astype(np.float64) - base.astype(np.float64)).astype(np.float32)
    pool = ModelPool(base, deltas, [task.task_id for task in tasks], spec.layer_offsets())
    support = sample_set(tasks[0], 100, 7)
    query = sample_set(tasks[0], 400, 8)
    return tasks, pool, spec, support, query


def point_risk(scheme, spec, phi, data):
    """0-1 risk of the merge at the coefficients ``phi``."""
    return error_counts(spec, merged_values(scheme, np.array([phi])), data)[0] / data.n


def quick_config(seed=0, max_evals=150):
    return CertifyConfig(cma=CmaConfig(max_evals=max_evals, seed=seed), eval_seed=seed + 1)


def traced_optimize(monkeypatch, *args):
    """``optimize(*args)`` and its (eval index, value) pairs in the order the
    search observed them."""
    trace = []

    def observed(objective, x0, config):
        return cma.minimize(objective, x0, config, lambda i, x, f: trace.append((i, f)))

    monkeypatch.setattr(importlib.import_module("pacmerge.certify"), "minimize", observed)
    return optimize(*args), trace


class TestOptimize:
    def test_kl_dominated_objective_stays_at_prior(self, world):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_wise", pool)
        config = CertifyConfig(  # prior variance 1e-8: enormous KL weight
            posterior_variance=1e-8, prior_variance=1e-8, cma=CmaConfig(max_evals=200, seed=2)
        )
        mu = optimize(scheme, "pac_bayes_upper", support, spec, config).x_best
        assert np.max(np.abs(mu - default_phi(scheme))) < 0.05

    def test_deterministic_trace(self, world, monkeypatch):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        config = CertifyConfig(cma=CmaConfig(max_evals=60, seed=11))

        def run():
            result, trace = traced_optimize(monkeypatch, scheme, "train_risk", support, spec,
                                            config)
            return result.x_best.tobytes(), result.f_best, result.evals, trace

        first = run()
        assert first == run()
        assert first[2] == len(first[3]) == 60

    def test_best_not_worse_than_trace_minimum(self, world):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        config = CertifyConfig(cma=CmaConfig(max_evals=80, seed=3))
        result = optimize(scheme, "train_risk", support, spec, config)
        estimate = RiskEstimator(scheme, spec, support, config.posterior_variance, MC_SAMPLES,
                                 derive_seed(3, "mc-common"))
        value = estimate.risks(result.x_best[None])[0]
        # f_best is the least value of every evaluation, the one at x_best
        assert value == result.f_best

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_bound_search_minimum_is_certified_upper_bound(self, world, monkeypatch, kind,
                                                           seed):
        # The record certifies one draw around the search's mean, so its
        # upper_bound is not the search minimum; its provenance states that
        # minimum, the evaluation that found it, and the mean.
        _, pool, spec, support, _ = world
        scheme = MergeScheme(kind, pool)
        config = quick_config(seed, max_evals=40)
        prior_mean = default_phi(scheme) + 0.1
        record = certify(scheme, "pac_bayes_upper", support, None, spec, config,
                         prior_mean=prior_mean)
        result, trace = traced_optimize(monkeypatch, scheme, "pac_bayes_upper", support, spec,
                                        config, prior_mean)
        values = [f for _, f in trace]
        assert record.provenance["search_objective"] == result.f_best == min(values)
        assert record.provenance["best_eval"] == result.best_eval == values.index(min(values))
        assert record.provenance["mu"] == result.x_best.tolist()
        assert record.provenance["evals"] == result.evals == 40

    def test_rejects_unknown_kind_and_wrong_prior_dimension(self, world):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_wise", pool)
        with pytest.raises(DomainError):
            optimize(scheme, "test_risk", support, spec, quick_config())
        wrong = np.ones(scheme.d_phi + 1)
        for objective_kind in OBJECTIVE_KINDS:
            with pytest.raises(StructureError):
                optimize(scheme, objective_kind, support, spec, quick_config(), wrong)


def one_row_trace(scheme, objective_kind, support, spec, config):
    """The search result and the value of every evaluation, in index order,
    from an objective that scores one row at a time."""
    mc_seed = derive_seed(config.cma.seed, "mc-common")
    n, delta = support.n, config.delta
    trace = []

    def score(phi):
        # a fresh estimator per evaluation, so no state carries between them
        value = RiskEstimator(scheme, spec, support, config.posterior_variance, MC_SAMPLES,
                              mc_seed).risks(phi[None])[0]
        if objective_kind == "pac_bayes_upper":
            kl = gaussian_kl(phi[None], default_phi(scheme), config.posterior_variance,
                             config.prior_variance)[0]
            value += math.sqrt((kl + math.log(n / delta)) / (2.0 * (n - 1)))
        trace.append(value)
        return value

    result = minimize(lambda phis: [score(phi) for phi in phis], default_phi(scheme), config.cma)
    return result, trace


class TestBatchedSearch:
    @pytest.mark.parametrize("objective_kind", ["train_risk", "pac_bayes_upper"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_trace_equals_one_row_reference(self, world, monkeypatch, kind, objective_kind):
        _, pool, spec, support, _ = world
        scheme = MergeScheme(kind, pool)
        config = CertifyConfig(cma=CmaConfig(max_evals=45, seed=6))
        result, trace = traced_optimize(monkeypatch, scheme, objective_kind, support, spec,
                                        config)
        reference, values = one_row_trace(scheme, objective_kind, support, spec, config)
        assert [i for i, _ in trace] == list(range(45))
        assert [f for _, f in trace] == values
        assert result.x_best.tobytes() == reference.x_best.tobytes()
        assert result.f_best == reference.f_best == min(values)
        assert result.evals == reference.evals == 45

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
        config = CertifyConfig(cma=CmaConfig(max_evals=59, seed=1))
        scheme = MergeScheme("layer_wise", pool)
        result = optimize(scheme, "train_risk", support, spec, config)
        assert result.evals == 59
        assert len(merges) == 1 + len(asks) < result.evals
        # 58 candidates after the start point: full generations of popsize
        # 11, then the 3 left; c = 10 m draws of L = 7 first-layer basis rows
        # (the base, each member's first weight and bias block) on 8 + 1
        # input columns merge only their later layers, after the first
        # layer's 9 * 8 values, when 7 * 9 + 7c < 9c, else whole rows
        popsize = cma.default_popsize(scheme.d_phi)
        sizes = [1] + [popsize] * (58 // popsize) + [58 % popsize]
        assert MC_SAMPLES == 10 and sizes[-1] == 3
        assert [args[1].shape for args in merges] == [(10 * m, scheme.d_phi) for m in sizes]
        assert [args[2:] for args in merges] == [
            (9 * 8,) if 7 * 9 + 7 * 10 * m < 9 * 10 * m else () for m in sizes]
        assert merges[1][2:] == (9 * 8,) and merges[0][2:] == merges[-1][2:] == ()


    @pytest.mark.parametrize("bad", [-1e-3, math.nan])
    def test_invalid_kl_in_a_generation_raises(self, world, monkeypatch, bad):
        # the generation's bounds are one array call, which still checks every KL
        _, pool, spec, support, _ = world
        seen = []

        def kl_with_bad(means, *args):
            kls = gaussian_kl(means, *args)
            if len(means) > 1:
                kls[2] = bad
            seen.append(len(means))
            return kls

        monkeypatch.setattr(importlib.import_module("pacmerge.certify"), "gaussian_kl",
                            kl_with_bad)
        with pytest.raises(DomainError, match=f"KL must be >= 0, got {bad}$"):
            optimize(MergeScheme("task_wise", pool), "pac_bayes_upper", support, spec,
                     quick_config(max_evals=30))
        assert seen == [1, cma.default_popsize(len(pool.task_ids))]

    @pytest.mark.parametrize("n", [100, _ROW_BUDGET + 1])
    def test_support_tiles_built_once(self, world, monkeypatch, n):
        # every generation scores the same support, from constants built once:
        # per slice of the support (the support itself below two slices) its
        # float32 input tiles, its label index and its largest label
        tasks, pool, spec, _, _ = world
        support = sample_set(tasks[0], n, 7)
        built, indexed, maxima = [], [], []

        def counting(x, _original=toyzoo._float32_inputs):
            built.append(len(x))
            return _original(x)

        def counting_index(labels, classes, draws, _original=toyzoo._tile_label_index):
            indexed.append((len(labels), classes, draws))
            return _original(labels, classes, draws)

        def counting_max(data, _original=LabeledSet._label_max.func):
            maxima.append(data.n)
            return _original(data)

        label_max = functools.cached_property(counting_max)
        label_max.__set_name__(LabeledSet, "_label_max")
        monkeypatch.setattr(toyzoo, "_float32_inputs", counting)
        monkeypatch.setattr(toyzoo, "_tile_label_index", counting_index)
        monkeypatch.setattr(LabeledSet, "_label_max", label_max)
        config = CertifyConfig(cma=CmaConfig(max_evals=25, seed=1))
        result = optimize(MergeScheme("task_wise", pool), "pac_bayes_upper", support, spec, config)
        assert result.evals == 25
        # n = 100: the whole support; n = 4,097: 10 slices, 7 of 410 rows and
        # 3 of 409, one row tile each
        rows = [100] if n == 100 else [410] * 7 + [409] * 3
        assert built == rows
        assert indexed == [(r, spec.widths[-1], _ROW_BUDGET // r) for r in rows]
        assert maxima == rows


class TestCertify:
    def test_record_arithmetic_identity(self, world):
        _, pool, spec, support, query = world
        scheme = MergeScheme("task_arith", pool)
        record = certify(scheme, "train_risk", support, query, spec, quick_config(5), task_id="t")
        lhs = (record.upper_bound - record.train_error) ** 2 * 2 * (record.n - 1)
        assert abs(lhs - math.log(record.n / record.delta) - record.kl_qp) < 1e-6

    def test_invariants(self, world):
        _, pool, spec, support, query = world
        scheme = MergeScheme("task_wise", pool)
        record = certify(scheme, "pac_bayes_upper", support, query, spec, quick_config(6))
        record.validate()
        if not record.vacuous:
            assert record.train_error <= record.pb_bound <= record.upper_bound + 1e-9
        assert record.certified_gap == record.pb_bound - record.train_error
        assert record.test_error is not None

    @pytest.mark.parametrize("max_evals,stop", [(40, "budget"), (500, "stalled")])
    def test_record_states_why_the_search_stopped(self, world, max_evals, stop):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        config = quick_config(2, max_evals)
        result = optimize(scheme, "train_risk", support, spec, config)
        record = certify(scheme, "train_risk", support, None, spec, config)
        assert result.stop == stop and (result.evals < max_evals) == (stop == "stalled")
        assert (record.provenance["evals"], record.provenance["search_stop"],
                record.provenance["search_sigma"]) == (result.evals, stop, result.sigma)

    def test_cannot_lose_to_initialization(self, world):
        # the search, which the record's provenance states, not the draw
        _, pool, spec, support, query = world
        scheme = MergeScheme("layer_wise", pool)
        config = quick_config(7, max_evals=120)
        record = certify(scheme, "pac_bayes_upper", support, None, spec, config)
        phi0 = default_phi(scheme)
        train0 = RiskEstimator(scheme, spec, support, config.posterior_variance, MC_SAMPLES,
                               derive_seed(config.cma.seed, "mc-common")).risks(phi0[None])[0]
        upper0 = seeger_certificate(train0, 0.0, support.n, config.delta).upper_bound
        assert record.provenance["search_objective"] <= upper0 + 1e-6

    @pytest.mark.parametrize("field", ["posterior_variance", "prior_variance"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_config_rejects_bad_variance(self, field, value):
        with pytest.raises(DomainError):
            CertifyConfig(**{field: value})

    def test_needs_two_points(self, world):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        tiny = support.subset([0])
        with pytest.raises(DomainError):
            certify(scheme, "train_risk", tiny, None, spec, quick_config())


def reference_draw(mu, variance, draw_seed):
    """The draw mu + sqrt(variance) eps, eps the first standard-normal vector
    of the stream (draw_seed, "gauss", 0)."""
    return mu + math.sqrt(variance) * rng_for(draw_seed, "gauss", 0).standard_normal(len(mu))


class TestCertifyGaussian:
    @pytest.mark.parametrize("kind", KINDS)
    def test_errors_are_one_row_risks_on_their_streams(self, world, kind):
        # one draw h on the stream 123; its exact errors, and KL max(ln dQ/dP(h), 0)
        _, pool, spec, support, query = world
        scheme = MergeScheme(kind, pool)
        config = quick_config(3)
        mu = default_phi(scheme) + 0.05
        record = certify_gaussian(scheme, mu, support, query, spec, config, 123, "t", "fit",
                                  {"note": 1})
        h = reference_draw(mu, config.posterior_variance, 123)
        ln_ratio = record.provenance["ln_ratio"]
        assert record.train_error == point_risk(scheme, spec, h, support)
        assert record.test_error == point_risk(scheme, spec, h, query)
        # tests/test_bounds.py checks gaussian_log_ratio against the densities
        assert ln_ratio == gaussian_log_ratio(h, mu, default_phi(scheme),
                                              config.posterior_variance, config.prior_variance)
        assert record.kl_qp == max(ln_ratio, 0.0)
        assert (record.task_id, record.scheme, record.objective, record.n) == (
            "t", kind, "fit", support.n)
        assert record.provenance == {
            "note": 1, "mu": mu.tolist(), "draw": h.tolist(), "draw_seed": 123,
            "ln_ratio": ln_ratio,
            "gibbs_kl": gaussian_kl(mu[None], default_phi(scheme), config.posterior_variance,
                                    config.prior_variance)[0]}
        record.validate()
        no_query = certify_gaussian(scheme, mu, support, None, spec, config, 123, "t", "fit",
                                    {"note": 1})
        assert no_query.to_dict() == dict(record.to_dict(), test_error=None)

    def test_needs_two_points_before_scoring(self, world, monkeypatch):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        calls = []
        for name in ("error_counts", "merged_values"):
            monkeypatch.setattr(importlib.import_module("pacmerge.certify"), name,
                                lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="need support size >= 2, got 1"):
            certify_gaussian(scheme, np.array([1.0]), support.subset([0]), None, spec,
                             quick_config(), 5, "t", "validity", {})
        assert calls == []

    @pytest.mark.parametrize("objective_kind", OBJECTIVE_KINDS)
    def test_certify_is_the_search_then_certify_gaussian(self, world, objective_kind):
        _, pool, spec, support, query = world
        scheme = MergeScheme("task_wise", pool)
        config = quick_config(4)
        prior = default_phi(scheme) * 0.5
        record = certify(scheme, objective_kind, support, query, spec, config, task_id="t",
                         prior_mean=prior)
        result = optimize(scheme, objective_kind, support, spec, config, prior)
        provenance = {"cma_seed": config.cma.seed, "eval_seed": config.eval_seed,
                      "evals": result.evals, "best_eval": result.best_eval,
                      "search_objective": result.f_best, "search_stop": result.stop,
                      "search_sigma": result.sigma,
                      "posterior_variance": config.posterior_variance,
                      "prior_variance": config.prior_variance, "mc_samples": 10,
                      "search_slices": 1}
        expected = certify_gaussian(scheme, result.x_best, support, query, spec, config,
                                    derive_seed(config.eval_seed, "certify-draw"), "t",
                                    objective_kind, provenance, prior_mean=prior)
        assert record.to_dict() == expected.to_dict()


class TestSingleDraw:
    """What makes a single-draw record sound."""

    def test_draw_does_not_depend_on_the_support(self, world):
        tasks, pool, spec, support, _ = world
        scheme = MergeScheme("task_wise", pool)
        config = quick_config(2)
        other = sample_set(tasks[0], 60, 99)
        mu = default_phi(scheme) + 0.1
        a, b = (certify_gaussian(scheme, mu, data, None, spec, config, 77, "t", "fit", {})
                for data in (support, other))
        assert a.provenance["draw"] == b.provenance["draw"]
        assert a.train_error != b.train_error  # the supports do differ
        # a searched record draws on its config's stream, whatever the support
        searched = [certify(scheme, "train_risk", data, None, spec, config)
                    for data in (support, other)]
        assert {r.provenance["draw_seed"] for r in searched} == {
            derive_seed(config.eval_seed, "certify-draw")}
        noise = [(np.array(r.provenance["draw"]) - r.provenance["mu"]) for r in searched]
        assert np.allclose(noise[0], noise[1], rtol=0, atol=1e-12)

    def test_one_draw_scored_once_per_set(self, world, monkeypatch):
        # each posterior gets one record, from one merged row, never the
        # best of several draws
        _, pool, spec, support, query = world
        scheme = MergeScheme("layer_wise", pool)
        module = importlib.import_module("pacmerge.certify")
        calls = []

        def spy(spec_, thetas, data):
            calls.append((len(thetas), data.n))
            return error_counts(spec_, thetas, data)

        monkeypatch.setattr(module, "error_counts", spy)
        record = certify_gaussian(scheme, default_phi(scheme), support, query, spec,
                                  quick_config(), 8, "t", "fit", {})
        assert calls == [(1, support.n), (1, query.n)]
        assert record.train_error == point_risk(scheme, spec, record.provenance["draw"], support)

    def test_two_points_suffice(self, world):
        # the (n - 1) budget covers one draw from n = 2 on
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        record = certify_gaussian(scheme, default_phi(scheme), support.subset([0, 1]), None,
                                  spec, quick_config(), 3, "t", "fit", {})
        assert record.n == 2 and record.train_error in (0.0, 0.5, 1.0)
        record.validate()

    def test_kl_is_the_log_ratio_clipped_at_zero(self, world):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        config = quick_config()
        records = [certify_gaussian(scheme, default_phi(scheme) + 0.02, support, None, spec,
                                    config, seed, "t", "fit", {}) for seed in range(12)]
        ratios = [r.provenance["ln_ratio"] for r in records]
        assert min(ratios) < 0 < max(ratios)
        for record in records:
            assert record.kl_qp == max(record.provenance["ln_ratio"], 0.0)
            record.validate()


class TestDdp:
    def test_split_sizes_and_disjoint(self, world):
        _, _, _, support, _ = world
        half_a, half_b = split_support(support, DdpConfig(split_fraction=0.5, split_seed=3))
        assert half_a.n == 50 and half_b.n == 50
        joined = np.concatenate([half_a.inputs, half_b.inputs])
        assert np.unique(joined, axis=0).shape[0] == support.n  # disjoint rows

    def test_certificate_n_is_second_half(self, world):
        _, pool, spec, support, query = world
        scheme = MergeScheme("task_wise", pool)
        record = certify_ddp(
            scheme, support, DdpConfig(split_seed=1), spec, quick_config(8), query=query
        )
        assert record.n == 50
        assert record.objective == "ddp"
        record.validate()

    def test_prior_pure_function_of_first_half(self, world):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        ddp = DdpConfig(split_seed=4)
        half_a, half_b = split_support(support, ddp)
        config = CertifyConfig(cma=CmaConfig(max_evals=50, seed=derive_seed(9, "ddp-prior")))
        mu_1 = optimize(scheme, "train_risk", half_a, spec, config).x_best
        # permuting the second half cannot touch the prior fit
        permuted_b = half_b.subset(np.random.default_rng(0).permutation(half_b.n))
        assert permuted_b.n == half_b.n
        mu_2 = optimize(scheme, "train_risk", half_a, spec, config).x_best
        np.testing.assert_array_equal(mu_1, mu_2)

    def test_records_state_their_search_slices(self, world):
        # 2,700 rows split 0.3: the prior searches 810 rows in 2 slices, the
        # posterior 1,890 rows in 4; the whole support takes 6 slices
        tasks, pool, spec, _, _ = world
        scheme = MergeScheme("task_arith", pool)
        support = sample_set(tasks[0], 2700, 3)
        config = quick_config(2, max_evals=8)
        record = certify_ddp(scheme, support, DdpConfig(split_fraction=0.3), spec, config)
        assert (record.provenance["ddp_prior_n"], record.n) == (810, 1890)
        assert record.provenance["ddp_prior_slices"] == 2
        assert record.provenance["search_slices"] == 4
        record = certify(scheme, "train_risk", support, None, spec, config)
        assert record.provenance["search_slices"] == 6

    def test_records_state_how_both_searches_stopped(self, world):
        # task_arith (d = 1) stalls within 500 evaluations on either half
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        ddp, config = DdpConfig(split_seed=4), quick_config(3, max_evals=500)
        half_a, half_b = split_support(support, ddp)
        prior_config = CertifyConfig(
            cma=CmaConfig(max_evals=500, seed=derive_seed(3, "ddp-prior")), eval_seed=4)
        prior = optimize(scheme, ddp.prior_objective, half_a, spec, prior_config)
        search = optimize(scheme, "pac_bayes_upper", half_b, spec, config, prior.x_best)
        record = certify_ddp(scheme, support, ddp, spec, config)
        assert {key: record.provenance[key] for key in (
            "ddp_prior_evals", "ddp_prior_stop", "ddp_prior_sigma",
            "evals", "search_stop", "search_sigma")} == {
            "ddp_prior_evals": prior.evals, "ddp_prior_stop": prior.stop,
            "ddp_prior_sigma": prior.sigma, "evals": search.evals,
            "search_stop": search.stop, "search_sigma": search.sigma}
        assert "stalled" in (prior.stop, search.stop)

    def test_too_small_support_rejected(self, world):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        with pytest.raises(DomainError):
            certify_ddp(scheme, support.subset([0, 1, 2]), DdpConfig(), spec, quick_config())


def grid_record(scheme, grid_size, support, spec, query=None):
    """The ``paper-discrete`` certificate of a grid of ``grid_size`` points."""
    return certify_point(scheme, np.linspace(0.0, 1.0, grid_size)[:, None], support, query,
                         spec, 0.05, "t", "discrete", {"grid_size": grid_size})


class TestDiscrete:
    def test_kl_is_log_grid_size(self, world):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        for m in (2, 20, 100):
            record = grid_record(scheme, m, support, spec)
            assert record.kl_qp == math.log(m)
            assert record.provenance["grid_size"] == m
            record.validate()

    def test_degenerate_pair_selects_better(self, world):
        tasks, pool, spec, support, _ = world
        scheme = MergeScheme("task_arith", pool)
        record = grid_record(scheme, 2, support, spec)
        risk0 = point_risk(scheme, spec, [0.0], support)
        risk1 = point_risk(scheme, spec, [1.0], support)
        assert record.train_error == min(risk0, risk1)

    @pytest.mark.parametrize("grid_size", [2, 41, 100])
    def test_grid_scored_in_one_call_equals_per_point(self, world, grid_size):
        _, pool, spec, support, query = world
        # the target's own fine-tune alone, whose best grid point is not the first
        pool = ModelPool(pool.base, pool.deltas[:1], pool.task_ids[:1], pool.layer_offsets)
        scheme = MergeScheme("task_arith", pool)
        grid = np.linspace(0.0, 1.0, grid_size)
        per_point = [point_risk(scheme, spec, [g], support) for g in grid]
        batched = error_counts(spec, merged_values(scheme, grid[:, None]), support) / support.n
        assert batched.tolist() == per_point
        best = int(np.argmin(per_point))
        assert best > 0
        record = grid_record(scheme, grid_size, support, spec, query)
        assert record.train_error == per_point[best]
        assert record.provenance["phi_star"] == [grid[best]]
        assert record.test_error == point_risk(scheme, spec, [grid[best]], query)

    def test_tie_breaks_to_smaller_phi(self, world):
        _, pool, spec, support, _ = world
        flat_pool = ModelPool(pool.base, np.zeros((1, pool.base.size)), ["z"],
                              pool.layer_offsets)
        record = grid_record(MergeScheme("task_arith", flat_pool), 5, support, spec)
        assert record.provenance["phi_star"] == [0.0]


class TestCertifyPoint:
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_row_is_a_test_set_bound(self, world, kind):
        # the half-validation certificate: KL = 0, the row's exact errors on
        # the held-out half and on the query
        _, pool, spec, support, query = world
        scheme = MergeScheme(kind, pool)
        mu = default_phi(scheme) + 0.05
        held_out = support.subset(np.arange(50, 100))
        record = certify_point(scheme, mu[None], held_out, query, spec, 0.05, "t", "half_val",
                               {"train_half_n": 50})
        assert record.kl_qp == 0.0
        assert record.n == 50 and (record.scheme, record.objective) == (kind, "half_val")
        assert record.train_error == point_risk(scheme, spec, mu, held_out)
        assert record.test_error == point_risk(scheme, spec, mu, query)
        assert record.provenance == {"train_half_n": 50, "phi_star": mu.tolist()}
        record.validate()

    def test_rejects_no_rows_and_a_tiny_support(self, world):
        _, pool, spec, support, _ = world
        scheme = MergeScheme("task_wise", pool)
        for phis in (np.zeros((0, 3)), np.zeros(3)):
            with pytest.raises(StructureError):
                certify_point(scheme, phis, support, None, spec, 0.05, "t", "discrete", {})
        with pytest.raises(DomainError):
            certify_point(scheme, np.zeros((1, 3)), support.subset([0]), None, spec, 0.05, "t",
                          "half_val", {})
