import math

import numpy as np
import pytest

from pacmerge import (
    CmaConfig,
    DomainError,
    OptError,
    StructureError,
    default_popsize,
    minimize,
)
import pacmerge.cma as cma
from pacmerge.cma import CmaEs


class TestConfig:
    def test_popsize_rule(self):
        assert default_popsize(1) == 4
        assert default_popsize(5) == 4 + int(np.floor(3 * np.log(5)))
        assert default_popsize(196) == 4 + int(np.floor(3 * np.log(196)))

    def test_validation(self):
        with pytest.raises(DomainError):
            CmaConfig(max_evals=0)


class TestMinimize:
    def test_quadratic_1d(self):
        result = minimize(
            lambda xs: (xs[:, 0] - 3.0) ** 2,
            np.array([1.0]),
            CmaConfig(max_evals=500, seed=3),
        )
        assert abs(result.x_best[0] - 3.0) < 1e-3
        assert result.evals <= 500

    def test_sphere_5d(self):
        target = np.array([0.5, -1.0, 2.0, 0.0, -0.25])
        result = minimize(
            lambda xs: np.sum((xs - target) ** 2, axis=1),
            np.zeros(5),
            CmaConfig(max_evals=1500, seed=1),
        )
        assert np.max(np.abs(result.x_best - target)) < 1e-2

    def test_rosenbrock_improves(self):
        def rosen(xs):
            return 100 * (xs[:, 1] - xs[:, 0] ** 2) ** 2 + (1 - xs[:, 0]) ** 2

        start = np.array([-1.2, 1.0])
        result = minimize(rosen, start, CmaConfig(max_evals=2000, seed=0))
        assert result.f_best < 1e-2 * rosen(start[None])[0]

    def test_deterministic_trace(self):
        def run():
            seen = []
            minimize(
                lambda xs: np.sum(xs**2, axis=1),
                np.ones(3),
                CmaConfig(max_evals=200, seed=9),
                callback=lambda i, x, f: seen.append((i, f)),
            )
            return seen

        assert run() == run()

    def test_start_point_counts(self):
        # a budget of one evaluation returns exactly the start point
        result = minimize(
            lambda xs: np.sum(xs**2, axis=1), np.array([2.0]), CmaConfig(max_evals=1, seed=0)
        )
        assert result.evals == 1
        assert result.x_best[0] == 2.0

    def test_best_never_worse_than_history(self):
        history = []
        result = minimize(
            lambda xs: np.sum((xs - 1.5) ** 2, axis=1),
            np.zeros(2),
            CmaConfig(max_evals=300, seed=5),
            callback=lambda i, x, f: history.append(f),
        )
        assert result.f_best == min(history)

    def test_best_eval_is_the_first_evaluation_of_the_best_value(self):
        history = []
        result = minimize(
            lambda xs: np.round(np.sum((xs - 1.5) ** 2, axis=1), 1),  # ties are common
            np.zeros(2),
            CmaConfig(max_evals=120, seed=4),
            callback=lambda i, x, f: history.append((i, x.copy(), f)),
        )
        values = [f for _, _, f in history]
        assert result.best_eval == values.index(min(values)) > 0
        index, x, _ = history[result.best_eval]
        assert index == result.best_eval and np.array_equal(x, result.x_best)

    def test_best_eval_of_an_unbeaten_start_point_is_zero(self):
        result = minimize(lambda xs: np.zeros(len(xs)), np.ones(3), CmaConfig(max_evals=30))
        assert (result.best_eval, result.f_best, result.evals) == (0, 0.0, 30)
        assert result.x_best.tolist() == [1.0, 1.0, 1.0]

    def test_non_finite_objective_raises(self):
        with pytest.raises(OptError):
            minimize(
                lambda xs: np.full(len(xs), np.nan), np.zeros(2), CmaConfig(max_evals=10, seed=0)
            )


class TestBatchedObjective:
    """The objective scores the start point, then one generation per call."""

    def test_one_call_per_generation(self, monkeypatch):
        asks = []
        ask = CmaEs.ask

        def counting_ask(self):
            asks.append(self.gen)
            return ask(self)

        monkeypatch.setattr(cma.CmaEs, "ask", counting_ask)
        sizes = []

        def sphere(xs):
            sizes.append(len(xs))
            return np.sum(xs**2, axis=1)

        # d = 2, so popsize 6: 1 + 6 * 8 + 3 evaluations leave a partial final generation
        minimize(sphere, np.ones(2), CmaConfig(max_evals=52, seed=4))
        assert len(sizes) == 1 + len(asks) == 10
        assert sizes == [1] + [6] * 8 + [3]

    def test_callback_indices_in_order(self):
        seen = []
        result = minimize(
            lambda xs: np.sum(xs**2, axis=1), np.ones(3), CmaConfig(max_evals=50, seed=7),
            callback=lambda i, x, f: seen.append(i),
        )
        assert seen == list(range(50)) and result.evals == 50

    def test_nan_names_its_evaluation(self):
        # candidate 3 of the first generation is evaluation 1 + 3
        seen = []

        def objective(xs):
            values = np.sum(xs**2, axis=1)
            if len(xs) > 1:
                values[3] = np.nan
            return values

        with pytest.raises(OptError, match="at evaluation 4$"):
            minimize(objective, np.zeros(2), CmaConfig(max_evals=20, seed=0),
                     callback=lambda i, x, f: seen.append(i))
        assert seen == [0, 1, 2, 3]

    def test_wrong_value_count(self):
        with pytest.raises(StructureError):
            minimize(lambda xs: np.zeros(len(xs) + 1), np.zeros(2), CmaConfig(max_evals=5))


def reference_minimize(objective, x0, config, callback):
    """``minimize``'s loop as first written: a whole generation is always
    told, one the budget cuts short only if at least ``mu`` candidates are
    left, the last generation included."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    es = CmaEs(x0, config.seed)
    best_x, best_f = x0.copy(), float(objective(x0[None])[0])
    callback(0, x0, best_f)
    evals = 1
    while evals < config.max_evals:
        xs = es.ask()
        take = min(len(xs), config.max_evals - evals)
        fs = objective(xs[:take])
        for i in range(take):
            callback(evals + i, xs[i], float(fs[i]))
        evals += take
        if take < len(xs):
            if take >= es.mu:
                es.tell(xs[:take], fs)
        else:
            es.tell(xs, fs)
        gen_best = int(np.argmin(fs))
        if fs[gen_best] < best_f:
            best_f, best_x = float(fs[gen_best]), xs[gen_best].copy()
    return best_x, best_f, evals


class TestOneSearchPath:
    """Every generation but the last is told; the last is only evaluated."""

    # d = 2, so popsize 6: 1 + 6k evaluations end on a whole generation, 1 +
    # 6k + 3 on one cut to mu = 3 candidates, which the first-written loop
    # still told
    @pytest.mark.parametrize("max_evals", [1 + 6 * 5, 1 + 6 * 5 + 3, 1 + 6 * 9, 1 + 6 * 9 + 3])
    def test_tell_once_per_generation_that_another_follows(self, monkeypatch, max_evals):
        asks, tells = [], []
        ask, tell = CmaEs.ask, CmaEs.tell

        def counting_ask(self):
            asks.append(self.gen)
            return ask(self)

        def counting_tell(self, xs, fs):
            tells.append(len(xs))
            return tell(self, xs, fs)

        monkeypatch.setattr(cma.CmaEs, "ask", counting_ask)
        monkeypatch.setattr(cma.CmaEs, "tell", counting_tell)
        result = minimize(lambda xs: np.sum(xs**2, axis=1), np.ones(2),
                          CmaConfig(max_evals=max_evals, seed=5))
        assert result.evals == max_evals
        assert len(asks) == -(-(max_evals - 1) // 6) and len(tells) == len(asks) - 1
        assert tells == [6] * len(tells) and asks == list(range(len(asks)))

    # d = 1 stalls after 85 evaluations (popsize 4, W = 18) and d = 3 after
    # 1,114 (popsize 7, W = 23); d = 20 (popsize 12, W = 60) spends every
    # budget here.  2 to 58 evaluations end on a cut generation at every d,
    # of at least mu candidates (31 at d = 1, 34 at d = 3) or of fewer (58);
    # 120 and 1,100 end on a whole generation at d = 3
    @pytest.mark.parametrize("max_evals", [1, 2, 31, 34, 58, 115, 120, 1100])
    @pytest.mark.parametrize("d,seed", [(1, 0), (3, 5), (20, 11)])
    def test_equals_the_first_written_loop(self, max_evals, d, seed):
        def objective(xs):
            return np.sum((xs - 0.4) ** 2, axis=1) + np.sin(5 * xs).sum(axis=1)

        config = CmaConfig(max_evals=max_evals, seed=seed)
        x0 = np.linspace(-1.0, 1.0, d)
        seen, expected_seen = [], []
        result = minimize(objective, x0, config,
                          callback=lambda i, x, f: seen.append((i, x.tobytes(), f)))
        best_x, best_f, evals = reference_minimize(
            objective, x0, config, lambda i, x, f: expected_seen.append((i, x.tobytes(), f)))
        stalled_at = first_stall(expected_seen, default_popsize(d), cma.stall_window(d))
        if stalled_at is None:
            assert result.x_best.tobytes() == best_x.tobytes()
            assert (result.f_best, result.evals) == (best_f, evals)
            assert seen == expected_seen and len(seen) == max_evals
            assert result.stop == "budget"
        else:
            # a stalled run is the first-written run cut after the stalling generation
            prefix = expected_seen[:stalled_at]
            values = [f for _, _, f in prefix]
            best = values.index(min(values))
            assert seen == prefix and result.evals == stalled_at <= max_evals
            assert result.x_best.tobytes() == prefix[best][1]
            assert (result.f_best, result.best_eval, result.stop) == (min(values), best, "stalled")
        assert (stalled_at is not None) == (max_evals >= {1: 85, 3: 1114, 20: 10**9}[d])


def first_stall(history, popsize, window):
    """The evaluation count after the first generation of ``history`` (start
    point first) that ends ``window`` generations in a row without a value
    below the best-ever one, or None."""
    best, stall = history[0][2], 0
    for first in range(1, len(history), popsize):
        values = [f for _, _, f in history[first : first + popsize]]
        stall = 0 if min(values) < best else stall + 1
        best = min(best, *values)
        if stall == window:
            return first + len(values)
    return None


class TestStallStop:
    """A search ends once it goes ``stall_window(d)`` generations
    without a new best-ever value."""

    @pytest.mark.parametrize("d,popsize,window", [(1, 4, 18), (5, 8, 29), (20, 12, 60)])
    def test_window(self, d, popsize, window):
        assert default_popsize(d) == popsize
        assert cma.stall_window(d) == window

    @pytest.mark.parametrize("d", [1, 5, 20])
    def test_constant_objective_stops_after_the_window(self, monkeypatch, d):
        tells = []
        tell = CmaEs.tell

        def counting_tell(self, xs, fs):
            tells.append(self.gen)
            return tell(self, xs, fs)

        monkeypatch.setattr(cma.CmaEs, "tell", counting_tell)
        lam, window = default_popsize(d), cma.stall_window(d)
        result = minimize(lambda xs: np.ones(len(xs)), np.zeros(d),
                          CmaConfig(max_evals=10_000, seed=3))
        assert (result.evals, result.stop, result.best_eval) == (1 + window * lam, "stalled", 0)
        # every generation but the stalling one is told
        assert tells == list(range(window - 1))
        assert result.sigma > 0 and math.isfinite(result.sigma)

    def test_improving_objective_spends_the_budget(self):
        calls = []

        def improving(xs):
            # every value is below every value before it
            first = sum(calls)
            calls.append(len(xs))
            return -np.arange(first, first + len(xs), dtype=np.float64)

        result = minimize(improving, np.zeros(2), CmaConfig(max_evals=400, seed=1))
        assert (result.evals, result.stop, result.best_eval) == (400, "budget", 399)

    def test_budget_of_one_keeps_the_initial_step_size(self):
        result = minimize(lambda xs: np.zeros(len(xs)), np.zeros(2), CmaConfig(max_evals=1))
        assert (result.stop, result.sigma) == ("budget", 1.0)


class TestAskTell:
    def test_shapes_and_progress(self):
        es = CmaEs(np.zeros(4), seed=2)
        assert (es.lam, es.sigma) == (8, 1.0)
        for _ in range(30):
            xs = es.ask()
            assert xs.shape == (8, 4)
            fs = np.array([float(np.sum((x - 0.7) ** 2)) for x in xs])
            es.tell(xs, fs)
        assert np.max(np.abs(es.mean - 0.7)) < 0.2


def reference_tell(es, xs, fs):
    """``CmaEs.tell`` as first written: every factor recomputed per
    generation, ``np.linalg.norm`` and ``np.outer``."""
    order = np.argsort(fs, kind="stable")[: es.mu]
    y_sel = (np.asarray(xs)[order] - es.mean) / es.sigma
    y_w = es.weights @ y_sel
    es.mean = es.mean + es.sigma * y_w

    inv_sqrt = (es.eig_b * (1.0 / es.eig_d)) @ es.eig_b.T
    es.p_sigma = (1.0 - es.c_sigma) * es.p_sigma + math.sqrt(
        es.c_sigma * (2.0 - es.c_sigma) * es.mu_eff
    ) * (inv_sqrt @ y_w)
    es.gen += 1
    norm = float(np.linalg.norm(es.p_sigma))
    h_sigma = norm / math.sqrt(
        1.0 - (1.0 - es.c_sigma) ** (2.0 * es.gen)
    ) / es.chi_n < 1.4 + 2.0 / (es.dim + 1.0)

    es.p_c = (1.0 - es.c_c) * es.p_c
    if h_sigma:
        es.p_c = es.p_c + math.sqrt(es.c_c * (2.0 - es.c_c) * es.mu_eff) * y_w

    rank_mu = (y_sel.T * es.weights) @ y_sel
    correction = (1.0 - float(h_sigma)) * es.c_c * (2.0 - es.c_c)
    es.cov = (
        (1.0 - es.c_1 - es.c_mu) * es.cov
        + es.c_1 * (np.outer(es.p_c, es.p_c) + correction * es.cov)
        + es.c_mu * rank_mu
    )
    es.sigma = es.sigma * math.exp((es.c_sigma / es.d_sigma) * (norm / es.chi_n - 1.0))
    es._decompose()


class TestTellReference:
    # d = 1, 5, 20 at the default population; on a linear slope the step
    # path grows long enough to switch h_sigma off, so both branches of the
    # p_c update run
    @pytest.mark.parametrize("d", [1, 5, 20])
    @pytest.mark.parametrize("objective", ["sphere", "linear"])
    def test_state_equals_the_first_written_update(self, d, objective):
        def values(xs):
            if objective == "sphere":
                return np.sum((xs - 0.3) ** 2, axis=1)
            return xs.sum(axis=1)

        x0 = np.linspace(-1.0, 1.0, d)
        es, ref = (CmaEs(x0, seed=13) for _ in range(2))
        h_sigma = set()
        for _ in range(40):
            xs = es.ask()
            assert np.array_equal(xs, ref.ask())
            fs = values(xs)
            before = ref.p_c.copy()
            es.tell(xs, fs)
            reference_tell(ref, xs, fs)
            h_sigma.add(not np.array_equal(ref.p_c, (1.0 - ref.c_c) * before))
            for name in ("mean", "cov", "p_sigma", "p_c", "eig_b", "eig_d"):
                assert getattr(es, name).tobytes() == getattr(ref, name).tobytes(), name
            assert es.sigma == ref.sigma and es.gen == ref.gen
        assert True in h_sigma and (objective != "linear" or False in h_sigma)
