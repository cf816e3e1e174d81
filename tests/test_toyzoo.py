import collections

import numpy as np
import pytest

from pacmerge import (
    DomainError,
    LabeledSet,
    MlpSpec,
    ParamVector,
    StructureError,
    TrainConfig,
    TrainingDiverged,
    error_counts,
    forward,
    gen_tasks,
    init_params,
    loss_and_grad,
    sample_set,
    train,
    train_stack,
    zero_one_risk,
)
import pacmerge.toyzoo as toyzoo
from pacmerge.seeding import rng_for
from pacmerge.toyzoo import _ROW_BUDGET as R

_ACT = {"tanh": np.tanh, "relu": lambda z: np.maximum(z, 0.0), "identity": lambda z: z}


def reference_scores(spec, flat, x):
    """Out-of-place float64 forward of one flat parameter row, as written."""
    flat = np.asarray(flat, dtype=np.float64)
    offsets = spec.layer_offsets()
    h = x
    for i in range(0, len(offsets), 2):
        (w_start, w_len), (b_start, b_len) = offsets[i], offsets[i + 1]
        z = h @ flat[w_start : w_start + w_len].reshape(-1, b_len) + flat[b_start : b_start + b_len]
        h = z if i == len(offsets) - 2 else _ACT[spec.activation](z)
    return h


def reference_counts(spec, thetas, data):
    """Float64 error counts: ``forward`` for float32 rows, and the out-of-place
    float64 forward for rows that float32 cannot hold."""
    counts = []
    for row in thetas:
        if row.dtype == np.float32:
            theta = ParamVector(row, spec.layer_offsets())
            predicted = np.argmax(forward(spec, theta, data.inputs), axis=1)
        else:
            predicted = np.argmax(reference_scores(spec, row, data.inputs), axis=1)
        counts.append(np.count_nonzero(predicted != data.labels))
    return counts


def reference_loss_and_grad(spec, flat, x, y):
    """Out-of-place float64 mean softmax cross-entropy and flat gradient of one
    parameter row on one batch, as written."""
    offsets = spec.layer_offsets()
    layers = [(flat[ws : ws + wl].reshape(-1, bl), flat[bs : bs + bl])
              for (ws, wl), (bs, bl) in zip(offsets[::2], offsets[1::2])]
    acts, pre = [x], []
    for w, b in layers[:-1]:
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(_ACT[spec.activation](z))
    w, b = layers[-1]
    scores = acts[-1] @ w + b
    expo = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = expo / expo.sum(axis=1, keepdims=True)
    rows = np.arange(len(y))
    loss = -np.mean(np.log(probs[rows, y] + 1e-300))
    delta = probs.copy()
    delta[rows, y] -= 1.0
    delta = delta / len(y)
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        grads[:0] = [(acts[li].T @ delta).ravel(), delta.sum(axis=0)]
        if li > 0:
            delta = delta @ layers[li][0].T
            if spec.activation == "tanh":
                delta = delta * (1.0 - acts[li] ** 2)
            elif spec.activation == "relu":
                delta = delta * (pre[li - 1] > 0)
    return loss, np.concatenate(grads)


def reference_train(spec, init, data, hyper):
    """Out-of-place float64 mini-batch SGD of one model, as written."""
    rng = rng_for(hyper.seed, "train")
    flat = init.values.astype(np.float64)
    for _ in range(hyper.epochs):
        order = rng.permutation(data.n)
        for lo in range(0, data.n, hyper.batch):
            idx = order[lo : lo + hyper.batch]
            _, grad = reference_loss_and_grad(spec, flat, data.inputs[idx], data.labels[idx])
            flat = flat - hyper.lr * grad
    return flat


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


class TestLabeledSet:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs(self, bad):
        inputs = np.zeros((3, 2))
        inputs[1, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            LabeledSet(inputs, np.zeros(3, dtype=int))


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
        labels = np.array([0, 0, 1, 2, 0])
        assert error_counts(spec, theta.values[None], LabeledSet(x, labels)).tolist() == [2]

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

    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    def test_bits_of_out_of_place_reference(self, activation):
        spec = MlpSpec((6, 8, 5, 3), activation=activation)
        rng = np.random.default_rng(4)
        theta = ParamVector(rng.standard_normal(spec.d_model), spec.layer_offsets())
        x = rng.standard_normal((300, 6))
        assert np.array_equal(forward(spec, theta, x), reference_scores(spec, theta.values, x))

    def test_length_mismatch(self):
        spec = MlpSpec((4, 8, 3))
        with pytest.raises(StructureError):
            forward(spec, ParamVector(np.zeros(3), ((0, 3),)), np.ones((1, 4)))


class TestBlockedKernel:
    """``error_counts`` in row blocks against the per-row reference."""

    # one full tile; a one-row remainder tile; two tiles and a 3-row
    # remainder; 3 stacked draws per block, so k=5 leaves a block of 2
    @pytest.mark.parametrize("n,k", [(R, 3), (R + 1, 3), (2 * R + 3, 2), (R // 3, 5)])
    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    def test_equals_per_row_reference(self, activation, n, k):
        spec = MlpSpec((6, 8, 4), activation=activation)
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        # random biases, so the in-place bias update is exercised
        rows = np.random.default_rng(k).standard_normal((k, spec.d_model)).astype(np.float32)
        counts = error_counts(spec, rows, data)
        assert counts.dtype == np.int64
        assert counts.tolist() == reference_counts(spec, rows, data)

    @pytest.mark.parametrize("n", [50, 2 * R + 3])
    def test_arguments_unchanged(self, n):
        spec = MlpSpec((6, 8, 4), activation="relu")
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        inputs, labels = data.inputs.copy(), data.labels.copy()
        thetas = np.random.default_rng(2).standard_normal((4, spec.d_model))
        assert thetas.dtype == np.float64 and thetas.flags.writeable
        before = thetas.copy()
        error_counts(spec, thetas, data)
        assert np.array_equal(thetas, before)
        assert np.array_equal(data.inputs, inputs) and np.array_equal(data.labels, labels)


def tied_rows(spec, k, seed, dtype, gap):
    """k random rows whose last layer makes classes 0 and 1 the top two on
    every input, with class 1's weights ``gap`` away from class 0's: float32
    steps for float32 rows (0 is an exact tie), a relative size for float64."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((k, spec.d_model)).astype(dtype)
    (w_start, w_len), (b_start, b_len) = spec.layer_offsets()[-2:]
    w = rows[:, w_start : w_start + w_len].reshape(k, -1, b_len)
    b = rows[:, b_start : b_start + b_len]
    w[..., 1] = w[..., 0]
    if dtype == np.float32:
        for _ in range(gap):
            w[..., 1] = np.nextafter(w[..., 1], np.float32(np.inf))
    else:
        w[..., 1] *= 1.0 + gap * rng.choice([-1.0, 1.0], size=w[..., 1].shape)
    b[:, 1] = b[:, 0]
    w[..., 2:] = 0.0
    b[:, 2:] = -1e6
    return rows


@pytest.fixture
def tiers(monkeypatch):
    """Counts the calls of each scoring tier of ``error_counts``; ``stacks``
    holds (pairs, padded rows) of each stacked float64 call of tier 2."""
    calls = collections.Counter()
    calls.stacks = []
    for name in ("_scores32", "_recheck_rows", "_exact_errors", "_float64_counts"):
        def counted(*args, _name=name, _original=getattr(toyzoo, name)):
            calls[_name] += 1
            if _name == "_recheck_rows":
                _, per_draw = np.unique(args[4], return_counts=True)
                calls.stacks.append((len(args[4]), len(per_draw) * int(per_draw.max())))
            return _original(*args)

        monkeypatch.setattr(toyzoo, name, counted)
    return calls


def unchanged_counts(spec, thetas, data):
    """``error_counts``, checking that it leaves its arguments as they were."""
    before = thetas.copy(), data.inputs.copy(), data.labels.copy()
    counts = error_counts(spec, thetas, data)
    assert np.array_equal(thetas, before[0])
    assert np.array_equal(data.inputs, before[1]) and np.array_equal(data.labels, before[2])
    return counts


class TestFloat32Scoring:
    """Float32 scoring with float64 rechecks equals the float64 counts."""

    ACTIVATIONS = ["tanh", "relu", "identity"]

    # 100 draws in blocks of 81 and 19 stacked draws; one draw on a one-row
    # remainder tile, and on two tiles and a 3-row remainder.  Labels 0 and
    # 1 are near ties, half the inputs, so every call's undecided pairs fit
    # one stack of at most R padded rows
    @pytest.mark.parametrize("n", [50, R + 1, 2 * R + 3])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_near_ties_rechecked_in_float64(self, tiers, activation, n):
        k = 100 if n < R else 1
        spec = MlpSpec((6, 8, 4), activation=activation)
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        rows = tied_rows(spec, k, n, np.float32, gap=2)
        assert unchanged_counts(spec, rows, data).tolist() == reference_counts(spec, rows, data)
        assert tiers["_scores32"] == -(-k // max(1, R // n)) * -(-n // R)
        assert tiers["_recheck_rows"] == 1
        assert tiers.stacks[0][0] > n * k // 3 and tiers.stacks[0][1] <= R

    # 3 draws of about R/2 near ties each on R + 1 inputs, of about R on
    # 2R + 3: one stack cannot hold them all, one per draw can
    @pytest.mark.parametrize("n", [R + 1, 2 * R + 3])
    def test_near_ties_beyond_one_stack(self, tiers, n):
        spec = MlpSpec((6, 8, 4), activation="tanh")
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        rows = tied_rows(spec, 3, n, np.float32, gap=2)
        assert unchanged_counts(spec, rows, data).tolist() == reference_counts(spec, rows, data)
        assert 1 < tiers["_recheck_rows"] <= 3
        assert all(padded <= R for _, padded in tiers.stacks)

    # a draw of all-zero weights ties every class on every input, among
    # random draws with few undecided pairs: 4 stacked draws per block on
    # 1,000 inputs, and 2R + 3 inputs, more undecided pairs than one stack
    # holds for the tied draw alone
    @pytest.mark.parametrize("n", [1000, 2 * R + 3])
    def test_one_tied_draw_among_random_draws(self, tiers, n):
        spec = MlpSpec((6, 8, 4), activation="relu")
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        rows = np.random.default_rng(n).standard_normal((40, spec.d_model)).astype(np.float32)
        rows[13] = 0.0
        counts = unchanged_counts(spec, rows, data)
        assert counts.tolist() == reference_counts(spec, rows, data)
        # ties break toward class 0
        assert counts[13] == np.count_nonzero(data.labels != 0)
        assert sum(pairs for pairs, _ in tiers.stacks) >= n
        assert all(padded <= R for _, padded in tiers.stacks)
        assert tiers["_exact_errors"] >= -(-n // R)

    def test_exact_ties_in_a_later_tile_of_a_later_draw(self, tiers):
        # draw 2 of a linear model ties classes 0 and 1 exactly where the
        # first input is 0, which holds on the second row tile only
        spec = MlpSpec((6, 4), activation="identity")
        rng = np.random.default_rng(9)
        n = 2 * R + 3
        inputs = rng.standard_normal((n, 6))
        inputs[:, 0] = rng.choice([-1.0, 1.0], n)
        inputs[R : 2 * R, 0] = 0.0
        data = LabeledSet(inputs, rng.integers(0, 4, n))
        rows = rng.standard_normal((4, spec.d_model)).astype(np.float32)
        (w_start, w_len), (b_start, b_len) = spec.layer_offsets()
        w = rows[2, w_start : w_start + w_len].reshape(6, 4)
        b = rows[2, b_start : b_start + b_len]
        w[:, 1] = w[:, 0]
        w[0, 1] += 1.0
        b[1] = b[0]
        w[:, 2:] = 0.0
        b[2:] = -1e6
        counts = unchanged_counts(spec, rows, data)
        assert counts.tolist() == reference_counts(spec, rows, data)
        assert tiers["_exact_errors"] == 1
        # off the second tile the first input decides; on it class 0 wins
        y, x0 = data.labels, inputs[:, 0]
        assert counts[2] == (np.count_nonzero(y >= 2)
                             + np.count_nonzero((x0 > 0) & (y == 0))
                             + np.count_nonzero((x0 < 0) & (y == 1))
                             + np.count_nonzero((x0 == 0) & (y == 1)))

    @pytest.mark.parametrize("n", [50, R + 1, 2 * R + 3])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_exact_ties_read_from_float64_tiles(self, tiers, activation, n):
        spec = MlpSpec((6, 8, 4), activation=activation)
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        rows = tied_rows(spec, 3, n, np.float32, gap=0)
        counts = unchanged_counts(spec, rows, data)
        assert counts.tolist() == reference_counts(spec, rows, data)
        assert tiers["_exact_errors"] >= 1
        # ties break toward class 0, so every input labelled 1 is an error
        assert counts.tolist() == [np.count_nonzero(data.labels >= 1)] * 3

    @pytest.mark.parametrize("n", [50, 2 * R + 3])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_float64_thetas_float32_cannot_hold(self, tiers, activation, n):
        spec = MlpSpec((6, 8, 4), activation=activation)
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        rows = tied_rows(spec, 3, n, np.float64, gap=1e-9)
        assert not np.array_equal(rows.astype(np.float32), rows)
        assert unchanged_counts(spec, rows, data).tolist() == reference_counts(spec, rows, data)
        assert tiers["_recheck_rows"] >= 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_overflow_scale_weights_take_the_float64_path(self, tiers, activation, dtype):
        spec = MlpSpec((6, 8, 4), activation=activation)
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], 200, 3)
        rows = (1e30 * np.random.default_rng(1).standard_normal((3, spec.d_model))).astype(dtype)
        assert unchanged_counts(spec, rows, data).tolist() == reference_counts(spec, rows, data)
        assert tiers["_float64_counts"] == 1 and tiers["_scores32"] == 0

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_large_set(self, tiers, activation):
        spec = MlpSpec((6, 8, 4), activation=activation)
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], 100_000, 8)
        rows = np.random.default_rng(6).standard_normal((2, spec.d_model)).astype(np.float32)
        assert unchanged_counts(spec, rows, data).tolist() == reference_counts(spec, rows, data)
        assert tiers["_scores32"] == 2 * 25

    def test_labels_beyond_the_classes_are_rejected(self, tiers):
        spec = MlpSpec((6, 8, 3))
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], 300, 3)
        assert data.labels.max() == 3
        rows = np.random.default_rng(2).standard_normal((2, spec.d_model)).astype(np.float32)
        with pytest.raises(DomainError, match="not a class"):
            error_counts(spec, rows, data)
        with pytest.raises(DomainError, match="not a class"):
            zero_one_risk(spec, ParamVector(rows[0], spec.layer_offsets()), data)
        assert not tiers

    @pytest.mark.parametrize("seed", range(12))
    def test_random_models_equal_the_float64_path(self, seed):
        # depths 1-3, one to five classes, scales from 1e-6 to 1e12, coarse
        # values with exact ties, float32 and float64 rows
        rng = np.random.default_rng(seed)
        widths = [int(w) for w in rng.integers(1, 12, size=rng.integers(2, 5))]
        spec = MlpSpec(tuple(widths), activation=self.ACTIVATIONS[seed % 3])
        n = int(rng.choice([1, 7, 100, R + 1]))
        data = LabeledSet(rng.standard_normal((n, widths[0])) * 10.0 ** rng.uniform(-3, 3),
                          rng.integers(0, widths[-1], n))
        rows = rng.standard_normal((int(rng.integers(1, 12)), spec.d_model))
        rows *= 10.0 ** rng.uniform(-6, 12)
        if seed % 4 == 1:
            rows = np.round(rows * 4) / 4
        if seed % 2:
            rows = rows.astype(np.float32)
        expected = toyzoo._float64_counts(spec, rows.astype(np.float64), data)
        assert np.array_equal(unchanged_counts(spec, rows, data), expected)

    @pytest.mark.parametrize("scale", [1.0, 20.0])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_float32_scores_within_the_bound(self, activation, scale):
        # two hidden layers; B is at most half the float32 threshold
        spec = MlpSpec((6, 8, 5, 4), activation=activation)
        x = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], 500, 3).inputs
        rng = np.random.default_rng(int(scale))
        thetas = (scale * rng.standard_normal((4, spec.d_model))).astype(np.float32)
        threshold, _ = toyzoo._thresholds(spec, thetas, np.abs(x).max())
        first, rest = toyzoo._float32_layers(spec, thetas)
        scores32 = toyzoo._scores32(spec, first, rest, toyzoo._float32_inputs(x))
        scores64 = toyzoo._scores(spec, thetas.astype(np.float64), x)
        assert np.abs(scores32.transpose(0, 2, 1) - scores64).max() <= threshold / 2

    def test_bound_covers_a_sum_that_drops_its_small_terms(self):
        # 1 plus 63 terms under half a float32 step: float32 sums lose many
        # of them (47 steps with OpenBLAS on x86-64), more than the rounding
        # of inputs and weights covers; the gamma_n term covers it
        spec = MlpSpec((64, 2), activation="identity")
        w = np.zeros((64, 2), dtype=np.float32)
        w[0] = 1.0
        w[1:] = np.float32(0.75 * 2.0**-24), np.float32(0.6 * 2.0**-24)
        thetas = np.concatenate([w.ravel(), np.zeros(2, dtype=np.float32)])[None]
        x = np.ones((50, 64))
        threshold, _ = toyzoo._thresholds(spec, thetas, 1.0)
        first, rest = toyzoo._float32_layers(spec, thetas)
        scores32 = toyzoo._scores32(spec, first, rest, toyzoo._float32_inputs(x))
        scores64 = toyzoo._scores(spec, thetas.astype(np.float64), x)
        error = np.abs(scores32.transpose(0, 2, 1) - scores64).max()
        assert 4 * 2.0**-24 < error <= threshold / 2


def test_tanh_error_within_the_bound_constants():
    """np.tanh on this machine keeps to the constants the float32 bound uses."""
    # every 256th float32 in [0, 10], and beyond 10 where tanh rounds to 1
    bits = np.arange(0, np.float32(10.0).view(np.uint32) + 1, 256, dtype=np.uint32)
    x = np.concatenate([bits.view(np.float32), np.geomspace(10, 3e38, 500, dtype=np.float32)])
    t32, t64 = np.tanh(x), np.tanh(x.astype(np.float64))
    ulps = np.abs(t32 - t64) / np.spacing(np.abs(t64).astype(np.float32))
    assert ulps.max() <= toyzoo._TANH32_ULPS
    assert np.array_equal(np.tanh(-x), -t32)  # so the sample covers [-10, 0] too
    if np.finfo(np.longdouble).precision > np.finfo(np.float64).precision:
        x64 = np.random.default_rng(0).uniform(0.0, 25.0, 200_000)
        exact = np.tanh(x64.astype(np.longdouble))
        ulps64 = np.abs(np.tanh(x64) - exact) / np.spacing(np.tanh(x64))
        assert ulps64.max() <= toyzoo._TANH64_ULPS


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
        consistent = LabeledSet(x, np.argmax(forward(spec, theta, x), axis=1))
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
            predicted = np.argmax(forward(spec, theta, data.inputs), axis=1)
            assert count == np.count_nonzero(predicted != data.labels)
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

    @pytest.mark.parametrize("lr", [np.inf, np.nan])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(DomainError, match="finite"):
            TrainConfig(lr=lr)


NAMES = [f"m{i}" for i in range(5)]


def stack_of(count, n=23, activation="tanh"):
    """A (5, 7, 3) spec, its init, and ``count`` sets of n rows from different tasks."""
    spec = MlpSpec((5, 7, 3), activation=activation)
    tasks = gen_tasks(17, max(count, 2), 5, 3, 0.6)
    sets = [sample_set(task, n, 40 + i) for i, task in enumerate(tasks[:count])]
    return spec, init_params(spec, 4), sets


@pytest.fixture
def float64_results(monkeypatch):
    """The float64 parameter rows that ``toyzoo`` rounds into ParamVectors."""
    rows = []

    def keep(values, offsets):
        rows.append(np.array(values))
        return ParamVector(values, offsets)

    monkeypatch.setattr(toyzoo, "ParamVector", keep)
    return rows


class TestTrainStack:
    # (batch, epochs) on 23 rows: a ragged last batch, one batch larger than
    # the set, single-row batches, and no epoch at all
    SCHEDULES = [(8, 3), (40, 4), (1, 2), (8, 0)]

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    @pytest.mark.parametrize("batch,epochs", SCHEDULES)
    def test_equals_reference_sgd_bit_for_bit(self, float64_results, count, activation,
                                              batch, epochs):
        spec, init, sets = stack_of(count, activation=activation)
        hypers = [TrainConfig(lr=0.3, epochs=epochs, batch=batch, seed=60 + i)
                  for i in range(count)]
        stacked = train_stack(spec, init, sets, hypers, NAMES[:count])
        assert len(stacked) == count
        if epochs > 0:  # float64 bits as well as the float32 result
            for row, data, hyper in zip(float64_results[-count:], sets, hypers, strict=True):
                assert row.tobytes() == reference_train(spec, init, data, hyper).tobytes()
        for model, data, hyper in zip(stacked, sets, hypers):
            expected = reference_train(spec, init, data, hyper).astype(np.float32)
            assert model.values.tobytes() == expected.tobytes()
            assert train(spec, init, data, hyper) == model
        if epochs > 0:  # the models really moved, and apart
            assert not np.array_equal(stacked[0].values, init.values)
            assert len({m.values.tobytes() for m in stacked}) == count

    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    def test_stacked_gradients_equal_reference_bits(self, activation):
        spec, _, sets = stack_of(5, activation=activation)
        flat = np.stack([init_params(spec, seed).values for seed in range(5)]).astype(np.float64)
        x = np.stack([data.inputs for data in sets])
        onehot = np.stack([np.eye(3)[data.labels] for data in sets])
        _, grads = toyzoo._backprop(spec, toyzoo._layers(spec, flat.copy()), x, onehot)
        for m, data in enumerate(sets):
            got = np.concatenate([g[m].ravel() for layer in grads for g in layer])
            _, expected = reference_loss_and_grad(spec, flat[m], data.inputs, data.labels)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    def test_loss_and_grad_equal_reference_bits(self, activation):
        spec, init, (data,) = stack_of(1, activation=activation)
        loss, grad = loss_and_grad(spec, init, data)
        expected_loss, expected = reference_loss_and_grad(
            spec, init.values.astype(np.float64), data.inputs, data.labels)
        assert loss == expected_loss
        assert grad.tobytes() == expected.tobytes()

    def test_zero_epochs_returns_init_for_every_model(self):
        spec, init, sets = stack_of(3)
        hypers = [TrainConfig(epochs=0, seed=i) for i in range(3)]
        assert all(model is init for model in train_stack(spec, init, sets, hypers, NAMES[:3]))

    def test_divergent_member_is_named(self):
        spec, init, sets = stack_of(3, activation="identity")
        sets[1] = LabeledSet(1e150 * sets[1].inputs, sets[1].labels)
        hypers = [TrainConfig(lr=0.1, epochs=3, batch=8, seed=i) for i in range(3)]
        # no numpy warning escapes: tier-1 turns RuntimeWarning into an error
        with pytest.raises(TrainingDiverged, match=r"^task1, epoch 1: "):
            train_stack(spec, init, sets, hypers, ["task0", "task1", "task2"])

    def test_divergent_single_model_is_named(self):
        spec, init, (data,) = stack_of(1, activation="identity")
        data = LabeledSet(1e150 * data.inputs, data.labels)
        with pytest.raises(TrainingDiverged, match=r"^base, epoch 1: "):
            train(spec, init, data, TrainConfig(lr=0.1, epochs=3, batch=8), name="base")

    def test_sets_of_unequal_size_rejected(self):
        spec, init, sets = stack_of(3)
        sets[2] = sets[2].subset(np.arange(20))
        hypers = [TrainConfig(seed=i) for i in range(3)]
        with pytest.raises(StructureError, match="differ in size"):
            train_stack(spec, init, sets, hypers, NAMES[:3])

    @pytest.mark.parametrize("field,value", [("lr", 0.01), ("epochs", 2), ("batch", 4)])
    def test_configs_differing_beyond_the_seed_rejected(self, field, value):
        spec, init, sets = stack_of(2)
        hypers = [TrainConfig(seed=0), TrainConfig(seed=1, **{field: value})]
        with pytest.raises(StructureError, match="only in seed"):
            train_stack(spec, init, sets, hypers, NAMES[:2])

    def test_one_set_config_and_name_per_model(self):
        spec, init, sets = stack_of(2)
        with pytest.raises(StructureError):
            train_stack(spec, init, sets, [TrainConfig()], NAMES[:2])
        with pytest.raises(StructureError):
            train_stack(spec, init, sets, [TrainConfig(), TrainConfig()], NAMES[:1])
        with pytest.raises(StructureError):
            train_stack(spec, init, [], [], [])


class TestInputChecks:
    def test_input_width_rejected(self):
        spec, init, (data,) = stack_of(1)
        narrow = LabeledSet(data.inputs[:, :4], data.labels)
        with pytest.raises(StructureError, match="width 4"):
            train(spec, init, narrow, TrainConfig())
        with pytest.raises(StructureError, match="width 4"):
            train_stack(spec, init, [data, narrow], [TrainConfig(), TrainConfig()], NAMES[:2])
        with pytest.raises(StructureError, match="width 4"):
            loss_and_grad(spec, init, narrow)
        with pytest.raises(StructureError, match="width 4"):
            forward(spec, init, narrow.inputs)
        with pytest.raises(StructureError, match="width 4"):
            error_counts(spec, init.values[None], narrow)

    def test_labels_beyond_the_classes_rejected(self):
        spec, init, (data,) = stack_of(1)
        labels = data.labels.copy()
        labels[5] = 3
        beyond = LabeledSet(data.inputs, labels)
        with pytest.raises(DomainError, match="label 3 is not a class"):
            train(spec, init, beyond, TrainConfig())
        with pytest.raises(DomainError, match="label 3 is not a class"):
            loss_and_grad(spec, init, beyond)

    def test_loss_and_grad_rejects_an_empty_set(self):
        spec, init, _ = stack_of(1)
        with pytest.raises(DomainError, match="non-empty"):
            loss_and_grad(spec, init, LabeledSet(np.zeros((0, 5)), np.zeros(0, dtype=int)))
