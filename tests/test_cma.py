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
            CmaConfig(popsize=3)
        with pytest.raises(DomainError):
            CmaConfig(sigma0=0.0)
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

        # popsize 6: 1 + 6 * 8 + 3 evaluations leave a partial final generation
        minimize(sphere, np.ones(2), CmaConfig(popsize=6, max_evals=52, seed=4))
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
            minimize(objective, np.zeros(2), CmaConfig(popsize=8, max_evals=20, seed=0),
                     callback=lambda i, x, f: seen.append(i))
        assert seen == [0, 1, 2, 3]

    def test_wrong_value_count(self):
        with pytest.raises(StructureError):
            minimize(lambda xs: np.zeros(len(xs) + 1), np.zeros(2), CmaConfig(max_evals=5))


class TestAskTell:
    def test_shapes_and_progress(self):
        es = CmaEs(np.zeros(4), 1.0, 8, seed=2)
        for _ in range(30):
            xs = es.ask()
            assert xs.shape == (8, 4)
            fs = np.array([float(np.sum((x - 0.7) ** 2)) for x in xs])
            es.tell(xs, fs)
        assert np.max(np.abs(es.mean - 0.7)) < 0.2
