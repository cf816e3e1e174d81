import numpy as np
import pytest

from pacmerge import (
    DomainError,
    LabeledSet,
    MlpSpec,
    ParamVector,
    StructureError,
    TrainConfig,
    error_counts,
    forward,
    gen_tasks,
    init_params,
    loss_and_grad,
    predict,
    sample_set,
    train,
    zero_one_risk,
)


class TestGenTasks:
    def test_deterministic(self):
        a = gen_tasks(11, 3, 5, 3, 0.5)
        b = gen_tasks(11, 3, 5, 3, 0.5)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.class_means, tb.class_means)
            assert ta.label_seed == tb.label_seed

    def test_relatedness_one_shares_means(self):
        tasks = gen_tasks(3, 4, 6, 3, 1.0)
        for task in tasks[1:]:
            np.testing.assert_allclose(task.class_means, tasks[0].class_means)

    def test_relatedness_zero_means_decorrelated(self):
        # Monte-Carlo oracle: mean cosine similarity between the class-mean
        # matrices of independent tasks should sit near 0 within 3 sigma.
        sims = []
        for draw in range(100):
            t0, t1 = gen_tasks(1000 + draw, 2, 12, 3, 0.0)
            a = t0.class_means.ravel()
            b = t1.class_means.ravel()
            sims.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        sims = np.asarray(sims)
        # each cosine of two random 36-dim vectors has std ~ 1/6
        assert abs(sims.mean()) < 3 * (1 / 6) / np.sqrt(len(sims))

    def test_validation(self):
        with pytest.raises(DomainError):
            gen_tasks(0, 3, 4, 3, 1.5)
        with pytest.raises(DomainError):
            gen_tasks(0, 1, 4, 3, 0.5)


class TestSampleSet:
    def test_rejects_empty(self):
        task = gen_tasks(0, 2, 4, 3, 0.5)[0]
        with pytest.raises(DomainError):
            sample_set(task, 0, 1)

    def test_reproducible_bytes(self):
        task = gen_tasks(0, 2, 4, 3, 0.5)[0]
        a = sample_set(task, 100, 9)
        b = sample_set(task, 100, 9)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seeds_differ(self):
        task = gen_tasks(0, 2, 4, 3, 0.5)[0]
        a = sample_set(task, 100, 1)
        b = sample_set(task, 100, 2)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_class_frequencies_uniform(self):
        # binomial oracle: each class frequency within 3 sigma of 1/C
        task = gen_tasks(0, 2, 4, 4, 0.5)[0]
        data = sample_set(task, 10000, 3)
        p = 1 / 4
        sigma = np.sqrt(p * (1 - p) / 10000)
        for cls in range(4):
            freq = np.mean(data.labels == cls)
            assert abs(freq - p) < 3 * sigma


class TestForward:
    def test_zero_theta_ties_to_class_zero(self):
        spec = MlpSpec((4, 8, 3))
        theta = ParamVector(np.zeros(spec.d_model), spec.layer_offsets())
        x = np.ones((5, 4))
        scores = forward(spec, theta, x)
        np.testing.assert_array_equal(scores, np.zeros((5, 3)))
        np.testing.assert_array_equal(predict(spec, theta, x), np.zeros(5, dtype=int))

    def test_hand_computed_linear(self):
        # single affine layer, identity weights: scores == inputs + bias
        spec = MlpSpec((3, 3), activation="identity")
        weights = np.eye(3).ravel()
        bias = np.array([0.5, -0.5, 0.0])
        theta = ParamVector(np.concatenate([weights, bias]), spec.layer_offsets())
        x = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 4.0]])
        expected = x + bias  # hand matrix multiply with identity weights
        np.testing.assert_allclose(forward(spec, theta, x), expected, atol=1e-6)

    def test_class_permutation_equivariance(self):
        spec = MlpSpec((4, 6, 3))
        theta = init_params(spec, 5)
        x = np.random.default_rng(0).standard_normal((7, 4))
        scores = forward(spec, theta, x)

        perm = np.array([2, 0, 1])
        flat = theta.values.astype(np.float64).copy()
        offs = spec.layer_offsets()
        w2_start, w2_len = offs[2]
        b2_start, b2_len = offs[3]
        w2 = flat[w2_start : w2_start + w2_len].reshape(6, 3)
        b2 = flat[b2_start : b2_start + b2_len]
        flat[w2_start : w2_start + w2_len] = w2[:, perm].ravel()
        flat[b2_start : b2_start + b2_len] = b2[perm]
        permuted = ParamVector(flat, offs)
        np.testing.assert_allclose(forward(spec, permuted, x), scores[:, perm], rtol=1e-5)

    def test_length_mismatch(self):
        spec = MlpSpec((4, 8, 3))
        with pytest.raises(StructureError):
            forward(spec, ParamVector(np.zeros(3), ((0, 3),)), np.ones((1, 4)))


class TestZeroOneRisk:
    def test_memorized_single_point(self):
        spec = MlpSpec((2, 4, 2))
        task_set = LabeledSet(np.array([[1.0, 0.0]]), np.array([1]))
        theta = init_params(spec, 1)
        fitted = train(spec, theta, task_set, TrainConfig(lr=0.5, epochs=100, batch=1, seed=0))
        assert zero_one_risk(spec, fitted, task_set) == 0.0

    def test_labels_equal_predictions(self):
        spec = MlpSpec((3, 5, 3))
        theta = init_params(spec, 2)
        x = np.random.default_rng(1).standard_normal((20, 3))
        consistent = LabeledSet(x, predict(spec, theta, x))
        assert zero_one_risk(spec, theta, consistent) == 0.0

    def test_hand_built_quarter(self):
        # identity-map classifier; scores = x, so argmax is the larger coord.
        spec = MlpSpec((2, 2), activation="identity")
        theta = ParamVector(
            np.concatenate([np.eye(2).ravel(), np.zeros(2)]), spec.layer_offsets()
        )
        x = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, 0.0], [0.0, 3.0]])
        labels = np.array([0, 1, 0, 0])  # last point misclassified by construction
        data = LabeledSet(x, labels)
        assert zero_one_risk(spec, theta, data) == 0.25

    def test_empty_set_rejected(self):
        spec = MlpSpec((2, 2))
        theta = init_params(spec, 0)
        with pytest.raises(DomainError):
            zero_one_risk(spec, theta, LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=int)))

    def test_error_counts_rows_match_single_theta(self):
        spec = MlpSpec((6, 8, 4))
        task = gen_tasks(5, 2, 6, 4, 0.5)[0]
        data = sample_set(task, 50, 2)
        thetas = [init_params(spec, seed) for seed in range(5)]
        counts = error_counts(spec, np.stack([t.values for t in thetas]), data)
        assert counts.shape == (5,)
        for theta, count in zip(thetas, counts):
            assert count == np.count_nonzero(predict(spec, theta, data.inputs) != data.labels)
            assert zero_one_risk(spec, theta, data) == count / data.n

    def test_error_counts_shape_checked(self):
        spec = MlpSpec((2, 2))
        data = LabeledSet(np.zeros((1, 2)), np.zeros(1, dtype=int))
        with pytest.raises(StructureError):
            error_counts(spec, np.zeros(spec.d_model), data)
        with pytest.raises(StructureError):
            error_counts(spec, np.zeros((2, spec.d_model + 1)), data)

    def test_untrained_risk_near_chance(self):
        # random labels vs an untrained net: risk ~ 1 - 1/C within 3 sigma
        spec = MlpSpec((6, 8, 4))
        theta = init_params(spec, 3)
        task = gen_tasks(5, 2, 6, 4, 0.5)[0]
        rng = np.random.default_rng(7)
        n = 4000
        data = sample_set(task, n, 11)
        shuffled = LabeledSet(data.inputs, rng.integers(0, 4, n))
        risk = zero_one_risk(spec, theta, shuffled)
        p = 1 - 1 / 4
        assert abs(risk - p) < 3 * np.sqrt(p * (1 - p) / n)


def central_difference_grad(spec, theta, data, coords, h=1e-3):
    flat = theta.values.astype(np.float64)
    grads = {}
    for coord in coords:
        bumped = flat.copy()
        bumped[coord] += h
        up, _ = loss_and_grad(spec, ParamVector(bumped, spec.layer_offsets()), data)
        bumped[coord] -= 2 * h
        down, _ = loss_and_grad(spec, ParamVector(bumped, spec.layer_offsets()), data)
        grads[coord] = (up - down) / (2 * h)
    return grads


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_gradient_matches_finite_differences(activation):
    # independent oracle: central differences at h=1e-3, 20 random coordinates
    spec = MlpSpec((5, 7, 3), activation=activation)
    task = gen_tasks(9, 2, 5, 3, 0.5)[0]
    data = sample_set(task, 40, 4)
    theta = init_params(spec, 6)
    _, grad = loss_and_grad(spec, theta, data)
    rng = np.random.default_rng(0)
    coords = rng.choice(spec.d_model, size=20, replace=False)
    numeric = central_difference_grad(spec, theta, data, coords)
    for coord, num in numeric.items():
        denom = max(abs(num), 1e-6)
        assert abs(grad[coord] - num) / denom < 1e-4, (
            f"{activation} coord {coord}: analytic {grad[coord]} vs numeric {num}"
        )


class TestTrain:
    def test_zero_epochs_returns_init(self):
        spec = MlpSpec((3, 4, 2))
        theta = init_params(spec, 0)
        task = gen_tasks(2, 2, 3, 2, 0.5)[0]
        data = sample_set(task, 10, 0)
        out = train(spec, theta, data, TrainConfig(lr=0.1, epochs=0, batch=4, seed=0))
        assert out == theta

    def test_deterministic_in_seed(self):
        spec = MlpSpec((3, 4, 2))
        theta = init_params(spec, 0)
        task = gen_tasks(2, 2, 3, 2, 0.5)[0]
        data = sample_set(task, 30, 0)
        cfg = TrainConfig(lr=0.1, epochs=5, batch=8, seed=12)
        assert train(spec, theta, data, cfg) == train(spec, theta, data, cfg)

    def test_linearly_separable_reaches_zero(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(-3, 0.3, (30, 2)), rng.normal(3, 0.3, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        data = LabeledSet(x, y)
        spec = MlpSpec((2, 4, 2))
        theta = init_params(spec, 1)
        fitted = train(spec, theta, data, TrainConfig(lr=0.2, epochs=200, batch=16, seed=0))
        assert zero_one_risk(spec, fitted, data) == 0.0

    def test_hyper_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(lr=0.0)
        with pytest.raises(DomainError):
            TrainConfig(epochs=-1)
        with pytest.raises(DomainError):
            TrainConfig(batch=0)
