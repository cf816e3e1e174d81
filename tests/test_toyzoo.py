import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pacmerge import (
    DomainError,
    LabeledSet,
    MlpSpec,
    StructureError,
    TrainConfig,
    TrainingDiverged,
    error_counts,
    gen_tasks,
    init_params,
    sample_set,
    train_stack,
)
import pacmerge.toyzoo as toyzoo
from pacmerge.seeding import rng_for
from pacmerge.toyzoo import _ROW_BUDGET as R
from pacmerge.toyzoo import SyntheticTask


def tanh_mlp(*widths):
    """Parametrize a test's ``spec`` by the MLP of these widths, whose
    hidden layers are tanh; the test id names them."""
    return pytest.mark.parametrize("spec", [MlpSpec(widths)], ids=["tanh"])


def reference_scores(spec, flat, x):
    """Out-of-place float32 class scores (n, classes) of one flat parameter row,
    as written: each layer is W^T h + b on float32 columns h (in, n), the
    first with its bias folded in as a last input row of ones."""
    flat = np.asarray(flat, dtype=np.float32)
    offsets = spec.layer_offsets()
    layers = [(flat[ws : ws + wl].reshape(-1, bl), flat[bs : bs + bl])
              for (ws, wl), (bs, bl) in zip(offsets[::2], offsets[1::2])]
    (w, b), rest = layers[0], layers[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.hstack([w.T, b[:, None]]) @ np.vstack([x.T, np.ones(len(x))]).astype(np.float32)
        for w, b in rest:
            h = w.T @ np.tanh(h) + b[:, None]
    return h.T


def reference_correct(spec, row, data):
    """Which inputs the float32 network of one flat parameter row gets right,
    by the rule as written: an input is correct only when its label score is
    strictly above the largest other class score (-inf when there is none),
    so a tie or a NaN score is an error."""
    rows = np.arange(data.n)
    s = reference_scores(spec, row, data.inputs)
    label = s[rows, data.labels]
    s[rows, data.labels] = -np.inf
    return label > s.max(axis=1, initial=-np.inf)


def reference_counts(spec, thetas, data):
    """Errors of each row of the float32 network, by ``reference_correct``."""
    return [data.n - np.count_nonzero(reference_correct(spec, row, data)) for row in thetas]


def float64_verdicts(spec, row, data):
    """(correct, decided) of each input when the float32 weights and inputs
    of one row are scored in float64.  ``correct`` follows the same strict
    rule.  ``decided`` holds where the float64 margin exceeds 1e-4 of the
    largest class score of the absolute forward |W|^T a + |b| (a = |x| on
    the first layer), which bounds every score and, times about 3e-6, its
    float32 rounding in nets of up to 3 layers of width 12; and where no
    layer of that forward comes near the float32 range.  Float32 rounding
    cannot flip a decided verdict."""
    flat = np.asarray(row, dtype=np.float32).astype(np.float64)
    h = data.inputs.astype(np.float32).astype(np.float64)
    a = np.abs(h)
    peak = a.max(axis=1, initial=0.0)
    offsets = spec.layer_offsets()
    for i, ((ws, wl), (bs, bl)) in enumerate(zip(offsets[::2], offsets[1::2])):
        w, b = flat[ws : ws + wl].reshape(-1, bl), flat[bs : bs + bl]
        h = (np.tanh(h) if i else h) @ w + b
        a = a @ np.abs(w) + np.abs(b)
        peak = np.maximum(peak, a.max(axis=1))
    rows = np.arange(data.n)
    label = h[rows, data.labels]
    h[rows, data.labels] = -np.inf
    margin = label - h.max(axis=1, initial=-np.inf)
    decided = (np.abs(margin) > 1e-4 * a.max(axis=1) + 1e-30) & (peak < 1e37)
    return margin > 0, decided


def float64_recheck(spec, thetas, data):
    """Checks each row's ``error_counts`` on the inputs ``float64_verdicts``
    decides against the float64 verdicts; returns the (draw, input) pairs
    left undecided."""
    undecided = 0
    for row in thetas:
        correct, decided = float64_verdicts(spec, row, data)
        subset = LabeledSet(data.inputs[decided], data.labels[decided])
        counts = error_counts(spec, row[None], subset)
        assert counts.tolist() == [np.count_nonzero(~correct[decided])]
        undecided += np.count_nonzero(~decided)
    return undecided


def scores(spec, theta, x):
    """Float32 class scores (n, classes) of one parameter row, as
    ``error_counts`` forms them."""
    first, rest = toyzoo._float32_layers(spec, theta[None].astype(np.float32))
    return toyzoo._scores32(spec, first, rest, toyzoo._float32_inputs(x))[0].T


def risk(spec, theta, data):
    """0-1 risk of one parameter row: its one-row ``error_counts`` over n."""
    return error_counts(spec, theta[None], data)[0] / data.n


def train(spec, init, data, hyper, seed=0, name="model"):
    """One model trained as a stack of one."""
    return train_stack(spec, init, [data], hyper, [seed], [name])[0]


def reference_loss_and_grad(spec, flat, x, y):
    """Out-of-place float64 mean softmax cross-entropy and flat gradient of one
    parameter row on one batch, as written."""
    offsets = spec.layer_offsets()
    layers = [(flat[ws : ws + wl].reshape(-1, bl), flat[bs : bs + bl])
              for (ws, wl), (bs, bl) in zip(offsets[::2], offsets[1::2])]
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ w + b))
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
            delta = delta * (1.0 - acts[li] ** 2)
    return loss, np.concatenate(grads)


def reference_train(spec, init, data, hyper, seed):
    """Out-of-place float64 mini-batch SGD of one model, as written."""
    rng = rng_for(seed, "train")
    flat = init.astype(np.float64)
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

    @pytest.mark.parametrize("input_dim, class_count", [(1, 2), (5, 3), (16, 4)])
    def test_shape_read_from_means(self, input_dim, class_count):
        for task in gen_tasks(2, 3, input_dim, class_count, 0.5):
            assert task.class_means.shape == (class_count, input_dim)
            assert (task.class_count, task.input_dim) == task.class_means.shape


class TestSyntheticTask:
    @pytest.mark.parametrize("means", [np.zeros(4), np.ones((1, 4)), np.zeros((2, 2, 2)),
                                       np.float64(1.0)])
    def test_means_not_two_or_more_rows_rejected(self, means):
        with pytest.raises(DomainError, match="class_means"):
            SyntheticTask("t", means, 1.0, 0)

    def test_coinciding_means_rejected(self):
        with pytest.raises(DomainError, match="coincide"):
            SyntheticTask("t", [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], 1.0, 0)

    def test_shape_cannot_be_set(self):
        task = SyntheticTask("t", np.eye(3, 5), 1.0, 0)
        assert (task.class_count, task.input_dim) == (3, 5)
        with pytest.raises(AttributeError):
            task.class_count = 4


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


def reference_sample(task, n, seed):
    """(inputs, labels) of one full-size noise draw, as written."""
    rng = rng_for(task.label_seed, "sample", seed)
    labels = rng.integers(0, task.class_count, size=n)
    noise = rng.standard_normal((n, task.input_dim))
    return task.class_means[labels] + task.noise_scale * noise, labels


class TestSampleTiles:
    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
    @pytest.mark.parametrize("n", [1, R - 1, R, R + 1, 2 * R + 3])
    def test_tiles_join_to_the_one_draw_set(self, n, seed):
        task = gen_tasks(seed, 2, 5, 3, 0.5)[1]
        tiles = list(toyzoo.sample_tiles(task, n, seed))
        # tile t holds rows t R onward: R rows each, the last one the rest
        assert [t.n for t in tiles] == [R] * (n // R) + ([n % R] if n % R else [])
        whole = sample_set(task, n, seed)
        inputs, labels = reference_sample(task, n, seed)
        for data in (whole, LabeledSet(np.concatenate([t.inputs for t in tiles]),
                                       np.concatenate([t.labels for t in tiles]))):
            assert data.inputs.tobytes() == inputs.tobytes()
            assert data.labels.tobytes() == labels.tobytes()

    def test_tiles_own_their_arrays(self):
        task = gen_tasks(0, 2, 4, 3, 0.5)[0]
        first, second = toyzoo.sample_tiles(task, R + 1, 2)
        for tile in (first, second):
            assert tile.inputs.base is None and tile.labels.base is None
            assert not tile.inputs.flags.writeable

    def test_rejects_empty(self):
        task = gen_tasks(0, 2, 4, 3, 0.5)[0]
        with pytest.raises(DomainError, match="n >= 1"):
            next(toyzoo.sample_tiles(task, 0, 1))

    # two full tiles and a 3-row remainder; k=5 random draws, then near ties
    # two float32 steps apart, then exact ties
    @pytest.mark.parametrize("rows", ["random", "near", "exact"])
    def test_tile_counts_sum_to_the_whole_set_counts(self, rows):
        spec = MlpSpec((6, 8, 4))
        task = gen_tasks(5, 2, 6, 4, 0.5)[0]
        n = 2 * R + 3
        if rows == "random":
            thetas = np.random.default_rng(4).standard_normal((5, spec.d_model))
            thetas = thetas.astype(np.float32)
        else:
            thetas = tied_rows(spec, 3, n, np.float32, gap=2 if rows == "near" else 0)
        whole = error_counts(spec, thetas, sample_set(task, n, 3))
        summed = np.zeros(len(thetas), dtype=np.int64)
        for tile in toyzoo.sample_tiles(task, n, 3):
            summed += error_counts(spec, thetas, tile)
        assert summed.tolist() == whole.tolist()


class TestForward:
    def test_zero_theta_counts_every_row_as_an_error(self):
        # every class scores 0, and a tie is an error whatever the label
        spec = MlpSpec((4, 8, 3))
        theta = np.zeros(spec.d_model, dtype=np.float32)
        x = np.ones((5, 4))
        np.testing.assert_array_equal(scores(spec, theta, x), np.zeros((5, 3)))
        labels = np.array([0, 0, 1, 2, 0])
        assert error_counts(spec, theta[None], LabeledSet(x, labels)).tolist() == [5]

    def test_hand_computed_linear(self):
        # single affine layer, identity weights: scores == inputs + bias
        spec = MlpSpec((3, 3))
        weights = np.eye(3).ravel()
        bias = np.array([0.5, -0.5, 0.0])
        theta = np.concatenate([weights, bias]).astype(np.float32)
        x = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 4.0]])
        expected = x + bias  # hand matrix multiply with identity weights
        np.testing.assert_allclose(scores(spec, theta, x), expected, atol=1e-6)

    def test_class_permutation_equivariance(self):
        spec = MlpSpec((4, 6, 3))
        theta = init_params(spec, 5)
        x = np.random.default_rng(0).standard_normal((7, 4))
        original = scores(spec, theta, x)

        perm = np.array([2, 0, 1])
        flat = theta.astype(np.float64)
        offs = spec.layer_offsets()
        w2_start, w2_len = offs[2]
        b2_start, b2_len = offs[3]
        w2 = flat[w2_start : w2_start + w2_len].reshape(6, 3)
        b2 = flat[b2_start : b2_start + b2_len]
        flat[w2_start : w2_start + w2_len] = w2[:, perm].ravel()
        flat[b2_start : b2_start + b2_len] = b2[perm]
        np.testing.assert_allclose(scores(spec, flat, x), original[:, perm], rtol=1e-5)

    @tanh_mlp(6, 8, 5, 3)
    def test_bits_of_out_of_place_reference(self, spec):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(spec.d_model).astype(np.float32)
        x = rng.standard_normal((300, 6))
        assert np.array_equal(scores(spec, theta, x), reference_scores(spec, theta, x))

    def test_length_mismatch(self):
        spec = MlpSpec((4, 8, 3))
        short = np.zeros(3, dtype=np.float32)
        data = LabeledSet(np.ones((1, 4)), np.zeros(1, dtype=int))
        with pytest.raises(StructureError, match="thetas has shape"):
            error_counts(spec, short[None], data)
        with pytest.raises(StructureError, match=r"init has shape \(3,\), spec needs \(67,\)"):
            train(spec, short, data, TrainConfig())


class TestBlockedKernel:
    """``error_counts`` in row blocks against the per-row float32 reference."""

    # one full tile; a one-row remainder tile; two tiles and a 3-row
    # remainder; every k crosses a block boundary: one draw per block on one
    # input and from R // 2 + 1 inputs on, and 3 on R // 3, so k=5 leaves a
    # block of 2
    @pytest.mark.parametrize("n,k", [(1, R + 1), (R - 1, 2), (R, 3), (R + 1, 3), (2 * R + 3, 2),
                                     (R // 3, 5)])
    @tanh_mlp(6, 8, 4)
    def test_equals_per_row_reference(self, spec, n, k):
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        # random biases, so the in-place bias update is exercised; then rows
        # whose classes 0 and 1 are two float32 steps apart, and exact ties
        random = np.random.default_rng(k).standard_normal((k, spec.d_model)).astype(np.float32)
        near, exact = (tied_rows(spec, k, n, np.float32, gap=gap) for gap in (2, 0))
        for rows in (random, near, exact):
            counts = error_counts(spec, rows, data)
            assert counts.dtype == np.int64
            assert counts.tolist() == reference_counts(spec, rows, data)
        # classes 0 and 1 tie above the rest, so every input is an error
        assert counts.tolist() == [n] * k

    @pytest.mark.parametrize("n", [50, 2 * R + 3])
    def test_arguments_unchanged(self, n):
        spec = MlpSpec((6, 8, 4))
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
def blocks(monkeypatch):
    """The number of draws in each block ``error_counts`` scores."""
    sizes = []

    def recorded(*args, _original=toyzoo._scores32):
        scores = _original(*args)
        sizes.append(len(scores))
        return scores

    monkeypatch.setattr(toyzoo, "_scores32", recorded)
    return sizes


def unchanged_counts(spec, thetas, data):
    """``error_counts``, checking that it leaves its arguments as they were."""
    before = thetas.copy(), data.inputs.copy(), data.labels.copy()
    counts = error_counts(spec, thetas, data)
    assert np.array_equal(thetas, before[0])
    assert np.array_equal(data.inputs, before[1]) and np.array_equal(data.labels, before[2])
    return counts


class TestFloat32Scoring:
    """The counts of the float32 network, where ties, NaN scores and overflow
    count as errors."""

    # a draw of all-zero weights ties every class on every input, among
    # random draws: 4 stacked draws per block on 1,000 inputs, and one draw
    # on each of 3 row tiles of 2R + 3 inputs
    @pytest.mark.parametrize("n", [1000, 2 * R + 3])
    def test_one_tied_draw_among_random_draws(self, n):
        spec = MlpSpec((6, 8, 4))
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        rows = np.random.default_rng(n).standard_normal((40, spec.d_model)).astype(np.float32)
        rows[13] = 0.0
        counts = unchanged_counts(spec, rows, data)
        assert counts.tolist() == reference_counts(spec, rows, data)
        assert counts[13] == n
        assert 0 < counts[12] < n and 0 < counts[14] < n

    def test_exact_ties_in_a_later_tile_of_a_later_draw(self):
        # draw 2 of a linear model ties classes 0 and 1 exactly where the
        # first input is 0, which holds on the second row tile only
        spec = MlpSpec((6, 4))
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
        # off the second tile the first input decides; on it classes 0 and 1
        # tie, so both labels are errors
        y, x0 = data.labels, inputs[:, 0]
        assert counts[2] == (np.count_nonzero(y >= 2)
                             + np.count_nonzero((x0 > 0) & (y == 0))
                             + np.count_nonzero((x0 < 0) & (y == 1))
                             + np.count_nonzero((x0 == 0) & (y <= 1)))

    # 100 draws in blocks of 81 and 19 stacked draws; one draw on a one-row
    # remainder tile, and on two tiles and a 3-row remainder.  Labels 0 and
    # 1 are near ties, half the inputs or more, which the float32 margin
    # decides; rechecked in float64 wherever float32 rounding cannot flip them
    @pytest.mark.parametrize("n", [50, R + 1, 2 * R + 3])
    @tanh_mlp(6, 8, 4)
    def test_near_ties_rechecked_in_float64(self, blocks, spec, n):
        k = 100 if n < R else 1
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        rows = tied_rows(spec, k, n, np.float32, gap=2)
        assert unchanged_counts(spec, rows, data).tolist() == reference_counts(spec, rows, data)
        assert len(blocks) == -(-k // max(1, R // n)) * -(-n // R)
        assert float64_recheck(spec, rows, data) > n * k // 3

    # 3 draws of near ties on R + 1 and 2R + 3 inputs: more pairs than one
    # block of stacked draws holds, so each draw is its own block on every
    # row tile, and counts each draw as it would alone
    @pytest.mark.parametrize("n", [R + 1, 2 * R + 3])
    def test_near_ties_beyond_one_stack(self, blocks, n):
        spec = MlpSpec((6, 8, 4))
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        rows = tied_rows(spec, 3, n, np.float32, gap=2)
        counts = unchanged_counts(spec, rows, data)
        assert counts.tolist() == reference_counts(spec, rows, data)
        assert blocks == [1] * (3 * -(-n // R))
        assert counts.tolist() == [error_counts(spec, row[None], data)[0] for row in rows]

    # exact ties scored on the float64 input tiles of ``sample_tiles``: one
    # tile of 50 inputs, a full tile and a one-row remainder, and two full
    # tiles and a 3-row remainder; every input is an error on every tile
    @pytest.mark.parametrize("n", [50, R + 1, 2 * R + 3])
    @tanh_mlp(6, 8, 4)
    def test_exact_ties_read_from_float64_tiles(self, spec, n):
        task = gen_tasks(5, 2, 6, 4, 0.5)[0]
        data = sample_set(task, n, 3)
        rows = tied_rows(spec, 3, n, np.float32, gap=0)
        counts = unchanged_counts(spec, rows, data)
        assert counts.tolist() == reference_counts(spec, rows, data)
        # classes 0 and 1 tie above the rest, so every input is an error
        assert counts.tolist() == [n] * 3
        tiles = list(toyzoo.sample_tiles(task, n, 3))
        assert len(tiles) == -(-n // R)
        for tile in tiles:
            assert tile.inputs.dtype == np.float64
            assert error_counts(spec, rows, tile).tolist() == [tile.n] * 3

    @pytest.mark.parametrize("n", [50, 2 * R + 3])
    @tanh_mlp(6, 8, 4)
    def test_float64_thetas_float32_cannot_hold(self, blocks, spec, n):
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], n, 3)
        rows = tied_rows(spec, 3, n, np.float64, gap=1e-9)
        assert not np.array_equal(rows.astype(np.float32), rows)
        # rounded to float32 once: the counts of the rounded rows
        counts = unchanged_counts(spec, rows, data)
        assert counts.tolist() == error_counts(spec, rows.astype(np.float32), data).tolist()
        assert counts.tolist() == reference_counts(spec, rows, data)
        blocks.clear()
        rows[1, 5] = 4e38
        with pytest.raises(DomainError, match="32-bit float range"):
            error_counts(spec, rows, data)
        assert not blocks

    # weights of 1e30 and a last layer at the edge of the float32 range: its
    # sums overflow to infinities, which tie or lose; no RuntimeWarning
    # escapes, which tier-1 would turn into an error
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @tanh_mlp(6, 8, 4)
    def test_overflow_scale_weights_count_as_errors(self, spec, dtype):
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], 200, 3)
        rows = 1e30 * np.random.default_rng(1).standard_normal((3, spec.d_model))
        last = spec.layer_offsets()[-2][0]
        rows[:, last:] = np.clip(1e8 * rows[:, last:], -3e38, 3e38)
        rows = rows.astype(dtype)
        counts = unchanged_counts(spec, rows, data)
        assert counts.tolist() == reference_counts(spec, rows, data)
        for row in rows:
            assert not np.isfinite(reference_scores(spec, row, data.inputs)).all()

    @tanh_mlp(6, 8, 4)
    def test_large_set(self, blocks, spec):
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], 100_000, 8)
        rows = np.random.default_rng(6).standard_normal((2, spec.d_model)).astype(np.float32)
        assert unchanged_counts(spec, rows, data).tolist() == reference_counts(spec, rows, data)
        assert blocks == [1] * (2 * 25)

    def test_labels_beyond_the_classes_are_rejected(self, blocks):
        spec = MlpSpec((6, 8, 3))
        data = sample_set(gen_tasks(5, 2, 6, 4, 0.5)[0], 300, 3)
        assert data.labels.max() == 3
        rows = np.random.default_rng(2).standard_normal((2, spec.d_model)).astype(np.float32)
        with pytest.raises(DomainError, match="not a class"):
            error_counts(spec, rows, data)
        assert not blocks

    @pytest.mark.parametrize("seed", range(12))
    def test_random_models_equal_the_float64_path(self, seed):
        # depths 1-3, one to five classes, scales from 1e-6 to 1e12 (so some
        # scores overflow), coarse values with exact ties, float32 and
        # float64 rows: the counts follow the float32 rule, and on every
        # input float32 rounding cannot flip they equal the float64 counts
        rng = np.random.default_rng(seed)
        widths = [int(w) for w in rng.integers(1, 12, size=rng.integers(2, 5))]
        spec = MlpSpec(tuple(widths))
        n = int(rng.choice([1, 7, 100, R + 1]))
        data = LabeledSet(rng.standard_normal((n, widths[0])) * 10.0 ** rng.uniform(-3, 3),
                          rng.integers(0, widths[-1], n))
        rows = rng.standard_normal((int(rng.integers(1, 12)), spec.d_model))
        rows *= 10.0 ** rng.uniform(-6, 12)
        if seed % 4 == 1:
            rows = np.round(rows * 4) / 4
        if seed % 2:
            rows = rows.astype(np.float32)
        expected = reference_counts(spec, rows, data)
        assert unchanged_counts(spec, rows, data).tolist() == expected
        float64_recheck(spec, rows, data)


_SCORE_VALUES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]),
                          st.floats(-1e3, 1e3, width=32))


@st.composite
def margin_blocks(draw):
    """(scores (k, classes, rows), labels, index): ``index`` is built for a
    full block of ``draws >= k`` draws and cut to the k of this block."""
    k, classes, rows = draw(st.integers(1, 5)), draw(st.integers(2, 5)), draw(st.integers(1, 6))
    draws = k + draw(st.integers(0, 3))
    scores = draw(arrays(np.float32, (k, classes, rows), elements=_SCORE_VALUES))
    labels = draw(arrays(np.int64, rows, elements=st.integers(0, classes - 1)))
    index = (np.arange(draws)[:, None] * (classes * rows)
             + labels * rows + np.arange(rows)).ravel()
    return scores, labels, index[: k * rows]


@settings(max_examples=300, deadline=None)
@given(margin_blocks())
def test_margins_equal_the_direct_reference(block):
    scores, labels, index = block
    k, _, rows = scores.shape
    expected = np.empty((k, rows), dtype=np.float32)
    after = scores.copy()
    with np.errstate(invalid="ignore"):  # inf - inf
        for d in range(k):
            for r, y in enumerate(labels):
                others = np.delete(scores[d, :, r], y)
                expected[d, r] = scores[d, y, r] - others.max()
                after[d, y, r] = -np.inf
        margin = toyzoo._margins(scores, index)
    np.testing.assert_array_equal(margin, expected)
    np.testing.assert_array_equal(scores, after)


def decided_rows(k, n, seed):
    """k float32 rows of a (6, 4) linear model and n inputs on which every
    margin is at least about 1: rows 0..k-2 predict class 0 by 10, and row
    k-1 scores class 1 above class 0 by the first input, +-1 on every input,
    and classes 2 and 3 at -100."""
    spec = MlpSpec((6, 4))
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((n, 6))
    inputs[:, 0] = rng.choice([-1.0, 1.0], n)
    rows = np.zeros((k, spec.d_model), dtype=np.float32)
    rows[:, -4:] = [0.0, -10.0, -20.0, -30.0]
    w = rng.standard_normal((6, 4)).astype(np.float32)
    w[:, 1] = w[:, 0]
    w[0, 1] += 1.0
    w[:, 2:] = 0.0
    rows[-1] = np.concatenate([w.ravel(), [0.5, 0.5, -100.0, -100.0]])
    return spec, rows, inputs, rng.integers(0, 4, n)


class TestNoUndecidedPairSkipped:
    """A pair whose float32 margin is NaN or a near tie, in a block whose
    other pairs are all decided by about 1 or more, is counted like any
    other: its draw's count moves by that pair's verdict alone, which each
    test rechecks.  5 draws make a last block of 2 draws on R // 3 inputs
    and of 1 on R // 2; on R // 2 + 1 each block holds one draw."""

    # a NaN score in the first block of the call is one more error, of its
    # draw alone
    @pytest.mark.parametrize("n", [R // 3, R // 2, R // 2 + 1])
    def test_a_nan_margin_is_rechecked(self, monkeypatch, blocks, n):
        spec, rows, inputs, labels = decided_rows(5, n, n)
        labels[7] = 0  # draw 0 predicts class 0 on every input
        data = LabeledSet(inputs, labels)
        expected = error_counts(spec, rows, data)
        assert expected.tolist() == reference_counts(spec, rows, data)
        assert blocks[0] == max(1, R // n) and sum(blocks) == 5
        blocks.clear()

        def with_nan(*args, _original=toyzoo._scores32):
            scores = _original(*args)
            if len(blocks) == 1:  # the first block of the call
                scores[0, 0, 7] = np.nan
            return scores

        monkeypatch.setattr(toyzoo, "_scores32", with_nan)
        expected[0] += 1
        assert error_counts(spec, rows, data).tolist() == expected.tolist()

    # the last draw, in the last block, scores class 1 above class 0 by
    # about 1e-6 on input n - 2: a few float32 steps, which decide it as
    # float64 does
    @pytest.mark.parametrize("n", [R // 3, R // 2, R // 2 + 1])
    def test_one_near_tie_in_the_last_block_is_rechecked(self, blocks, n):
        spec, rows, inputs, labels = decided_rows(5, n, n)
        inputs[n - 2, 0] = 1e-6  # the last draw's class 0 and 1 scores differ by this
        labels[n - 2] = 1
        data = LabeledSet(inputs, labels)
        s = reference_scores(spec, rows[4], inputs)
        assert 0 < s[n - 2, 1] - s[n - 2, 0] < 1e-5
        counts = error_counts(spec, rows, data)
        assert counts.tolist() == reference_counts(spec, rows, data)
        assert blocks[-1] == (5 - 1) % max(1, R // n) + 1
        assert counts[4] == np.count_nonzero((labels >= 2)
                                             | ((inputs[:, 0] > 0) & (labels == 0))
                                             | ((inputs[:, 0] < 0) & (labels == 1)))
        # labelled 0, the pair is an error of the last draw and correct for
        # the others, which predict class 0 by 10
        labels[n - 2] = 0
        flipped = error_counts(spec, rows, LabeledSet(inputs, labels))
        assert flipped.tolist() == (counts + [-1, -1, -1, -1, 1]).tolist()


class TestZeroOneRisk:
    def test_memorized_single_point(self):
        spec = MlpSpec((2, 4, 2))
        task_set = LabeledSet(np.array([[1.0, 0.0]]), np.array([1]))
        theta = init_params(spec, 1)
        fitted = train(spec, theta, task_set, TrainConfig(lr=0.5, epochs=100, batch=1))
        assert risk(spec, fitted, task_set) == 0.0

    def test_labels_equal_predictions(self):
        spec = MlpSpec((3, 5, 3))
        theta = init_params(spec, 2)
        x = np.random.default_rng(1).standard_normal((20, 3))
        consistent = LabeledSet(x, np.argmax(scores(spec, theta, x), axis=1))
        assert risk(spec, theta, consistent) == 0.0

    def test_hand_built_quarter(self):
        # identity-map classifier; scores = x, so argmax is the larger coord.
        spec = MlpSpec((2, 2))
        theta = np.concatenate([np.eye(2).ravel(), np.zeros(2)]).astype(np.float32)
        x = np.array([[2.0, 1.0], [1.0, 2.0], [3.0, 0.0], [0.0, 3.0]])
        labels = np.array([0, 1, 0, 0])  # last point misclassified by construction
        data = LabeledSet(x, labels)
        assert risk(spec, theta, data) == 0.25

    def test_empty_set_counts_no_errors(self):
        # a risk needs n > 0, which mc_risks checks; the counts are just zero
        spec = MlpSpec((2, 2))
        thetas = np.stack([init_params(spec, seed) for seed in range(3)])
        empty = LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=int))
        assert error_counts(spec, thetas, empty).tolist() == [0, 0, 0]

    def test_error_counts_rows_match_single_theta(self):
        spec = MlpSpec((6, 8, 4))
        task = gen_tasks(5, 2, 6, 4, 0.5)[0]
        data = sample_set(task, 50, 2)
        thetas = [init_params(spec, seed) for seed in range(5)]
        counts = error_counts(spec, np.stack(thetas), data)
        assert counts.shape == (5,)
        for theta, count in zip(thetas, counts):
            predicted = np.argmax(scores(spec, theta, data.inputs), axis=1)
            assert count == np.count_nonzero(predicted != data.labels)
            assert risk(spec, theta, data) == count / data.n

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
        value = risk(spec, theta, shuffled)
        p = 1 - 1 / 4
        assert abs(value - p) < 3 * np.sqrt(p * (1 - p) / n)


def central_difference_grad(spec, flat, data, coords, h=1e-3):
    grads = {}
    for coord in coords:
        bumped = flat.copy()
        bumped[coord] += h
        up, _ = reference_loss_and_grad(spec, bumped, data.inputs, data.labels)
        bumped[coord] -= 2 * h
        down, _ = reference_loss_and_grad(spec, bumped, data.inputs, data.labels)
        grads[coord] = (up - down) / (2 * h)
    return grads


@tanh_mlp(5, 7, 3)
def test_gradient_matches_finite_differences(spec):
    # independent oracle: central differences at h=1e-3, 20 random coordinates
    task = gen_tasks(9, 2, 5, 3, 0.5)[0]
    data = sample_set(task, 40, 4)
    flat = init_params(spec, 6).astype(np.float64)
    _, grad = reference_loss_and_grad(spec, flat, data.inputs, data.labels)
    rng = np.random.default_rng(0)
    coords = rng.choice(spec.d_model, size=20, replace=False)
    numeric = central_difference_grad(spec, flat, data, coords)
    for coord, num in numeric.items():
        denom = max(abs(num), 1e-6)
        assert abs(grad[coord] - num) / denom < 1e-4, (
            f"coord {coord}: analytic {grad[coord]} vs numeric {num}"
        )


class TestTrain:
    def test_zero_epochs_returns_init(self):
        spec = MlpSpec((3, 4, 2))
        theta = init_params(spec, 0)
        task = gen_tasks(2, 2, 3, 2, 0.5)[0]
        data = sample_set(task, 10, 0)
        out = train(spec, theta, data, TrainConfig(lr=0.1, epochs=0, batch=4))
        assert out.tobytes() == theta.tobytes()

    def test_deterministic_in_seed(self):
        spec = MlpSpec((3, 4, 2))
        theta = init_params(spec, 0)
        task = gen_tasks(2, 2, 3, 2, 0.5)[0]
        data = sample_set(task, 30, 0)
        cfg = TrainConfig(lr=0.1, epochs=5, batch=8)
        once = train(spec, theta, data, cfg, seed=12).tobytes()
        assert train(spec, theta, data, cfg, seed=12).tobytes() == once
        assert train(spec, theta, data, cfg, seed=13).tobytes() != once

    def test_linearly_separable_reaches_zero(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(-3, 0.3, (30, 2)), rng.normal(3, 0.3, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        data = LabeledSet(x, y)
        spec = MlpSpec((2, 4, 2))
        theta = init_params(spec, 1)
        fitted = train(spec, theta, data, TrainConfig(lr=0.2, epochs=200, batch=16))
        assert risk(spec, fitted, data) == 0.0

    def test_hyper_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(lr=0.0)
        with pytest.raises(DomainError):
            TrainConfig(epochs=-1)
        with pytest.raises(DomainError):
            TrainConfig(batch=0)

    @pytest.mark.parametrize("field,value", [("epochs", 2.0), ("epochs", True), ("epochs", "3"),
                                             ("batch", 1.5), ("batch", False), ("batch", None)])
    def test_non_integer_epochs_and_batch_rejected(self, field, value):
        spec = MlpSpec((3, 4, 2))
        data = sample_set(gen_tasks(2, 2, 3, 2, 0.5)[0], 10, 0)
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            train(spec, init_params(spec, 0), data, TrainConfig(**{field: value}))

    def test_numpy_integer_epochs_and_batch_accepted(self):
        spec = MlpSpec((3, 4, 2))
        theta = init_params(spec, 0)
        data = sample_set(gen_tasks(2, 2, 3, 2, 0.5)[0], 10, 0)
        plain = TrainConfig(lr=0.1, epochs=2, batch=4)
        numpy = TrainConfig(lr=0.1, epochs=np.int64(2), batch=np.int32(4))
        numpy_bytes = train(spec, theta, data, numpy, seed=1).tobytes()
        assert numpy_bytes == train(spec, theta, data, plain, seed=1).tobytes()

    def test_seed_goes_with_the_set_not_the_config(self):
        with pytest.raises(TypeError):
            TrainConfig(seed=0)

    @pytest.mark.parametrize("lr", [np.inf, np.nan])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(DomainError, match="finite"):
            TrainConfig(lr=lr)


NAMES = [f"m{i}" for i in range(5)]


def stack_of(count, n=23, spec=MlpSpec((5, 7, 3))):
    """A spec of 5 inputs and 3 classes, its init, and ``count`` sets of n rows
    from different tasks."""
    tasks = gen_tasks(17, max(count, 2), 5, 3, 0.6)
    sets = [sample_set(task, n, 40 + i) for i, task in enumerate(tasks[:count])]
    return spec, init_params(spec, 4), sets


@pytest.fixture
def float64_results(monkeypatch):
    """The (M, d_model) float64 matrices that ``train_stack`` makes layer
    views of: per call that trains, the parameters it trains in place, then
    its gradient buffer."""
    stacks = []
    layers = toyzoo._layers

    def keep(spec, flat):
        stacks.append(flat)
        return layers(spec, flat)

    monkeypatch.setattr(toyzoo, "_layers", keep)
    return stacks


class TestTrainStack:
    # (batch, epochs) on 23 rows: a ragged last batch, one batch larger than
    # the set, single-row batches, and no epoch at all
    SCHEDULES = [(8, 3), (40, 4), (1, 2), (8, 0)]

    @pytest.mark.parametrize("count", [1, 5])
    @tanh_mlp(5, 7, 3)
    @pytest.mark.parametrize("batch,epochs", SCHEDULES)
    def test_equals_reference_sgd_bit_for_bit(self, float64_results, count, spec, batch,
                                              epochs):
        _, init, sets = stack_of(count, spec=spec)
        hyper = TrainConfig(lr=0.3, epochs=epochs, batch=batch)
        seeds = [60 + i for i in range(count)]
        stacked = train_stack(spec, init, sets, hyper, seeds, NAMES[:count])
        assert stacked.shape == (count, spec.d_model) and stacked.dtype == np.float32
        if epochs > 0:  # float64 bits as well as the float32 result
            flat, _ = float64_results
            for row, data, seed in zip(flat, sets, seeds, strict=True):
                assert row.tobytes() == reference_train(spec, init, data, hyper, seed).tobytes()
        for model, data, seed in zip(stacked, sets, seeds):
            expected = reference_train(spec, init, data, hyper, seed).astype(np.float32)
            assert model.tobytes() == expected.tobytes()
            assert train(spec, init, data, hyper, seed).tobytes() == model.tobytes()
        if epochs > 0:  # the models really moved, and apart
            assert not np.array_equal(stacked[0], init)
            assert len({m.tobytes() for m in stacked}) == count

    @tanh_mlp(5, 7, 3)
    def test_stacked_gradients_equal_reference_bits(self, spec):
        _, _, sets = stack_of(5, spec=spec)
        flat = np.stack([init_params(spec, seed) for seed in range(5)]).astype(np.float64)
        x = np.stack([data.inputs for data in sets])
        onehot = np.stack([np.eye(3)[data.labels] for data in sets])
        grads = toyzoo._layers(spec, np.empty_like(flat))
        layers = toyzoo._layers(spec, flat.copy())
        toyzoo._backprop(layers, [w.swapaxes(1, 2) for w, _ in layers], x, onehot, grads)
        for m, data in enumerate(sets):
            got = np.concatenate([g[m].ravel() for layer in grads for g in layer])
            _, expected = reference_loss_and_grad(spec, flat[m], data.inputs, data.labels)
            assert got.tobytes() == expected.tobytes()

    def test_zero_epochs_returns_init_for_every_model(self):
        spec, init, sets = stack_of(3)
        stacked = train_stack(spec, init, sets, TrainConfig(epochs=0), [0, 1, 2], NAMES[:3])
        assert stacked.shape == (3, spec.d_model) and stacked.dtype == np.float32
        assert all(model.tobytes() == init.tobytes() for model in stacked)

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_empty_sets_rejected_naming_the_model(self, epochs):
        spec, init, sets = stack_of(2)
        empty = [data.subset(np.arange(0)) for data in sets]
        with pytest.raises(DomainError, match="^task0: empty training set"):
            train_stack(spec, init, empty, TrainConfig(epochs=epochs), [0, 1], ["task0", "task1"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_non_finite_init_rejected(self, bad):
        spec, init, sets = stack_of(1)
        init = init.astype(np.float64)
        init[3] = bad
        with pytest.raises(DomainError, match="init contains NaN/Inf"):
            train_stack(spec, init, sets, TrainConfig(epochs=0), [0], NAMES[:1])

    def test_divergent_member_is_named(self):
        # input 0 starts with zero weights, so its 1e150 values first move
        # those weights past the float32 range, while tanh keeps the loss finite
        spec, init, sets = stack_of(3)
        init[: spec.widths[1]] = 0.0
        inputs = sets[1].inputs.copy()
        inputs[:, 0] = 1e150
        sets[1] = LabeledSet(inputs, sets[1].labels)
        hyper = TrainConfig(lr=0.1, epochs=3, batch=8)
        # no numpy warning escapes: tier-1 turns RuntimeWarning into an error
        with pytest.raises(TrainingDiverged,
                           match=r"^task1, epoch 1: parameters left the float32 range$"):
            train_stack(spec, init, sets, hyper, [0, 1, 2], ["task0", "task1", "task2"])

    def test_divergent_single_model_is_named(self):
        # a step of 1e308 times the gradient overflows the weights, so the
        # next batch's loss is nan
        spec, init, (data,) = stack_of(1)
        with pytest.raises(TrainingDiverged, match=r"^base, epoch 1: loss became nan$"):
            train(spec, init, data, TrainConfig(lr=1e308, epochs=3, batch=8), name="base")

    def test_sets_of_unequal_size_rejected(self):
        spec, init, sets = stack_of(3)
        sets[2] = sets[2].subset(np.arange(20))
        with pytest.raises(StructureError, match="differ in size"):
            train_stack(spec, init, sets, TrainConfig(), [0, 1, 2], NAMES[:3])

    def test_one_set_config_and_name_per_model(self):
        spec, init, sets = stack_of(2)
        match = "one set, seed and name per model"
        with pytest.raises(StructureError, match=match):
            train_stack(spec, init, sets, TrainConfig(), [0], NAMES[:2])
        with pytest.raises(StructureError, match=match):
            train_stack(spec, init, sets, TrainConfig(), [0, 1], NAMES[:1])
        with pytest.raises(StructureError, match=match):
            train_stack(spec, init, sets[:1], TrainConfig(), [0, 1], NAMES[:2])
        with pytest.raises(StructureError, match=match):
            train_stack(spec, init, [], TrainConfig(), [], [])


class TestInputChecks:
    def test_input_width_rejected(self):
        spec, init, (data,) = stack_of(1)
        narrow = LabeledSet(data.inputs[:, :4], data.labels)
        with pytest.raises(StructureError, match="width 4"):
            train(spec, init, narrow, TrainConfig())
        with pytest.raises(StructureError, match="width 4"):
            train_stack(spec, init, [data, narrow], TrainConfig(), [0, 1], NAMES[:2])
        with pytest.raises(StructureError, match="width 4"):
            error_counts(spec, init[None], narrow)

    def test_labels_beyond_the_classes_rejected(self):
        spec, init, (data,) = stack_of(1)
        labels = data.labels.copy()
        labels[5] = 3
        beyond = LabeledSet(data.inputs, labels)
        with pytest.raises(DomainError, match="label 3 is not a class"):
            train(spec, init, beyond, TrainConfig())
        with pytest.raises(DomainError, match="label 3 is not a class"):
            train_stack(spec, init, [data, beyond], TrainConfig(), [0, 1], NAMES[:2])
        with pytest.raises(DomainError, match="label 3 is not a class"):
            error_counts(spec, init[None], beyond)
