import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pacmerge.posterior as posterior
import pacmerge.toyzoo as toyzoo
from pacmerge import (
    DomainError,
    MergeScheme,
    MlpSpec,
    ModelPool,
    gen_tasks,
    init_params,
    error_counts,
    LabeledSet,
    merged_values,
    RiskEstimator,
    sample_set,
    train_stack,
    StructureError,
    TrainConfig,
)
from pacmerge.bounds import gaussian_kl
from pacmerge.merging import KINDS, with_base
from pacmerge.posterior import _SLICE_ROWS, slice_count
from pacmerge.seeding import rng_for
from pacmerge.toyzoo import _ROW_BUDGET, coefficient_counts


class TestSpecs:
    def test_gaussian_validation(self, toy_world):
        # a zero variance, a NaN mean and an infinite variance, wherever a
        # Gaussian is given by its mean and variance
        scheme, spec, data = toy_world
        for mean, variance in [([0.0], 0.0), ([np.nan], 0.1), ([0.0], np.inf)]:
            with pytest.raises(DomainError):
                gaussian_kl(np.array([mean]), np.zeros(1), variance, 0.1)
            with pytest.raises(DomainError):
                fresh_risks(np.full((1, 3), mean[0]), variance, scheme, spec, data, 3)


def fresh_risks(means, variance, scheme, model_spec, data, k=10, seed=0):
    """The risks of ``means`` from one call of a fresh estimator."""
    return RiskEstimator(scheme, model_spec, data, variance, k, seed).risks(means)


def draws_of(mean, variance, seed, k):
    """The k coefficient draws an estimate scores for the posterior
    N(mean, variance I): draw j from the stream (seed, "gauss", j)."""
    noise = np.stack([rng_for(seed, "gauss", j).standard_normal(len(mean)) for j in range(k)])
    return mean + np.sqrt(variance) * noise


def posterior_draws(means, variance, k, seed):
    """The coefficients (m·k, d) an estimate scores for the means (m, d): row
    i·k + j is mean i plus draw j."""
    return np.concatenate([draws_of(mean, variance, seed, k) for mean in means])


def posterior_rows(means, variance, scheme, k, seed):
    """The merged rows (m·k, P) an estimate scores for the means (m, d),
    merged in one call."""
    return merged_values(scheme, posterior_draws(means, variance, k, seed))


def posterior_risk(mean, variance, scheme, model_spec, data, k, seed):
    """The Monte-Carlo risk of one posterior: a one-row estimate."""
    return float(fresh_risks(mean[None], variance, scheme, model_spec, data, k, seed)[0])


def point_risk(scheme, model_spec, phi, data):
    """0-1 risk of the merge at ``phi``: one row of ``merged_values``, scored
    by one ``error_counts`` call."""
    return error_counts(model_spec, merged_values(scheme, phi[None]), data)[0] / data.n


def reference_slices(data, s):
    """s contiguous slices of ``data`` as fresh sets, the first n mod s one
    row longer than the rest."""
    size, extra = divmod(data.n, s)
    ends = np.cumsum([0] + [size + (q < extra) for q in range(s)])
    return [LabeledSet(data.inputs[a:b], data.labels[a:b]) for a, b in zip(ends[:-1], ends[1:])]


def sliced_risk(mean, variance, scheme, model_spec, data, k, seed):
    """The sliced estimator by its definition: the mean over draws j of the
    ``point_risk`` of draw j on slice j mod s, s = min(k, n // 400), at
    least 1."""
    parts = reference_slices(data, max(1, min(k, data.n // _SLICE_ROWS)))
    return float(np.mean([point_risk(scheme, model_spec, phi, parts[j % len(parts)])
                          for j, phi in enumerate(draws_of(mean, variance, seed, k))]))


class TestSample:
    """The Gaussian draws that an estimate merges and scores."""

    @pytest.fixture
    def merged_phis(self, monkeypatch):
        calls = []

        def capturing(scheme, phis, *start):
            calls.append(phis.copy())
            return merged_values(scheme, phis, *start)

        monkeypatch.setattr(posterior, "merged_values", capturing)
        return calls

    def test_gaussian_tiny_variance_concentrates(self, toy_world, merged_phis):
        scheme, spec, data = toy_world
        mean = np.array([0.2, 0.5, -0.3])
        fresh_risks(mean[None], 1e-12, scheme, spec, data, 200, seed=4)
        assert np.max(np.abs(merged_phis[0] - mean)) < 1e-4  # 6 sigma = 6e-6

    def test_gaussian_deterministic_and_counter_based(self, toy_world, merged_phis):
        scheme, spec, data = toy_world
        mean = np.array([[0.2, 0.5, -0.3]])
        for k in (5, 5, 3):
            fresh_risks(mean, 0.4, scheme, spec, data, k, seed=9)
        a = merged_phis[0]
        np.testing.assert_array_equal(a, merged_phis[1])
        # prefix property of the counter contract: draw j is a pure function
        # of (seed, j), so asking for fewer draws yields a prefix
        np.testing.assert_array_equal(a[:3], merged_phis[2])

    def test_gaussian_mean_converges(self, toy_pool, merged_phis):
        pool, spec, task = toy_pool
        scheme = MergeScheme("task_arith", pool)
        fresh_risks(np.array([[1.5]]), 0.25, scheme, spec, sample_set(task, 5, 1), 4000, seed=3)
        draws = merged_phis[0]
        assert draws.shape == (4000, 1)
        assert abs(draws.mean() - 1.5) < 3 * 0.5 / np.sqrt(4000)
        assert np.array_equal(draws, draws_of(np.array([1.5]), 0.25, 3, 4000))

    def test_k_validation(self, toy_world):
        scheme, spec, data = toy_world
        with pytest.raises(DomainError, match="k >= 1"):
            posterior_risk(np.full(3, 1 / 3), 1.0, scheme, spec, data, 0, seed=0)


@pytest.fixture(scope="module")
def toy_pool():
    task = gen_tasks(21, 3, 6, 3, 0.8)[0]
    spec = MlpSpec((6, 8, 3))
    (base,) = train_stack(
        spec,
        init_params(spec, 0),
        [sample_set(task, 150, 5)],
        TrainConfig(lr=0.1, epochs=15, batch=16),
        [2],
        ["base"],
    )
    rng = np.random.default_rng(1)
    deltas = [0.05 * rng.standard_normal(spec.d_model) for _ in range(3)]
    pool = ModelPool(base, deltas, ["m0", "m1", "m2"], spec.layer_offsets())
    return pool, spec, task


@pytest.fixture(scope="module")
def toy_world(toy_pool):
    pool, spec, task = toy_pool
    return MergeScheme("task_wise", pool), spec, sample_set(task, 120, 9)


class TestMcRisk:
    def test_reproducible(self, toy_world):
        scheme, spec, data = toy_world
        mean, variance = np.full(3, 1 / 3), 0.05
        a = posterior_risk(mean, variance, scheme, spec, data, 1, seed=5)
        b = posterior_risk(mean, variance, scheme, spec, data, 1, seed=5)
        assert a == b

    def test_tiny_variance_matches_point(self, toy_world):
        scheme, spec, data = toy_world
        phi = np.full(3, 1 / 3)
        direct = point_risk(scheme, spec, phi, data)
        assert posterior_risk(phi, 1e-10, scheme, spec, data, 10, seed=3) == direct

    def test_within_unit_interval(self, toy_world):
        scheme, spec, data = toy_world
        mean, variance = np.full(3, 1 / 3), 0.5
        for seed in range(5):
            value = posterior_risk(mean, variance, scheme, spec, data, 5, seed=seed)
            assert 0.0 <= value <= 1.0

    def test_standard_error_scales_inverse_sqrt_k(self, toy_world):
        # CLT oracle: std over seeds of the k-sample estimator ~ k^{-1/2};
        # check the log-log slope across k in {10, 40, 160}
        scheme, spec, data = toy_world
        mean, variance = np.full(3, 1 / 3), 0.3
        ks = [10, 40, 160]
        stds = []
        for k in ks:
            values = [posterior_risk(mean, variance, scheme, spec, data, k, seed=200 + r)
                      for r in range(60)]
            stds.append(np.std(values))
        slope = np.polyfit(np.log(ks), np.log(stds), 1)[0]
        assert -0.65 < slope < -0.35


class TestBatchedKernel:
    """The blocked estimator against the one-draw-at-a-time reference."""

    # (n, k) for a budget of 4,096 rows and slices of at least 400: one
    # block of 10 stacked draws on the whole set; 2 slices of 550 rows, whose
    # 2 draws each share a block; one block of 7 draws; 4 slices of about
    # 2,049 rows, one draw each
    @pytest.mark.parametrize("n,k", [(120, 10), (1100, 4), (300, 7), (2 * _ROW_BUDGET + 3, 4)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_mc_risk_equals_per_draw_mean(self, toy_pool, kind, n, k):
        pool, spec, task = toy_pool
        scheme = MergeScheme(kind, pool)
        data = sample_set(task, n, 4)
        mean, variance = np.full(scheme.d_phi, 1 / 3), 0.5
        reference = sliced_risk(mean, variance, scheme, spec, data, k, 17)
        assert posterior_risk(mean, variance, scheme, spec, data, k, seed=17) == reference

    # a call of c draws of L = 4 first-layer basis rows on 6 + 1 input
    # columns merges only the later layers, after the first layer's 7 * 8
    # values, when 4 * 7 + 4c < 7c (50 draws on one set), else whole rows
    # (one draw, and one draw on each of 7 slices)
    @pytest.mark.parametrize("n,k", [(10, 1), (10, 50), (_ROW_BUDGET + 1, 7)])
    def test_one_merge_per_estimate(self, toy_pool, monkeypatch, n, k):
        pool, spec, task = toy_pool
        scheme = MergeScheme("task_wise", pool)
        calls = []

        def counting(*args):
            calls.append(args)
            return merged_values(*args)

        monkeypatch.setattr(posterior, "merged_values", counting)
        mean, variance = np.full(3, 1 / 3), 0.5
        posterior_risk(mean, variance, scheme, spec, sample_set(task, n, 4), k, seed=17)
        c = -(-k // slice_count(n, k))
        assert len(calls) == 1 and calls[0][1].shape == (k, 3)
        assert calls[0][2:] == ((7 * 8,) if 4 * 7 + 4 * c < 7 * c else ())
        assert (calls[0][2:] == (7 * 8,)) == (k == 50)

    @pytest.mark.parametrize("kind", KINDS)
    def test_merged_rows_equal_realize(self, toy_pool, kind):
        pool, _, _ = toy_pool
        scheme = MergeScheme(kind, pool)
        phis = np.random.default_rng(3).standard_normal((9, scheme.d_phi))
        merged = merged_values(scheme, phis)
        assert merged.dtype == np.float32 and merged.shape == (9, pool.base.size)
        for j, phi in enumerate(phis):
            assert np.array_equal(merged[j], merged_values(scheme, phi[None])[0])

    def test_merged_values_shape_checked(self, toy_pool):
        scheme = MergeScheme("task_wise", toy_pool[0])
        with pytest.raises(StructureError):
            merged_values(scheme, np.zeros(scheme.d_phi))
        with pytest.raises(StructureError):
            merged_values(scheme, np.zeros((2, scheme.d_phi + 1)))


def block_margins(spec, thetas, x, y):
    """Float32 label margins (k, rows) of ``thetas`` scored as one block on
    the row tile ``x``, ``y``, as ``error_counts`` forms them."""
    first, rest = toyzoo._float32_layers(spec, thetas)
    xa = toyzoo._float32_inputs(x)
    index = (np.arange(len(thetas))[:, None] * (spec.widths[-1] * len(y))
             + y * len(y) + np.arange(len(y))).ravel()
    return toyzoo._margins(toyzoo._scores32(spec, first, rest, xa), index)


@pytest.fixture(scope="module")
def shipped_shape_pool():
    """A pool of 6 members of the shipped scenarios' (16, 32, 4) network."""
    spec = MlpSpec((16, 32, 4))
    rng = np.random.default_rng(8)
    deltas = [0.05 * rng.standard_normal(spec.d_model) for _ in range(6)]
    pool = ModelPool(init_params(spec, 3), deltas, [f"m{i}" for i in range(6)],
                     spec.layer_offsets())
    return pool, spec, gen_tasks(4, 2, 16, 4, 0.8)[0]


# The rows of an estimate depend on no other row of their call because a
# draw's float32 margins on a row tile do not depend on the block it is
# scored in: alone, in blocks of 10, or in one block of every draw.  Blocks
# stay within about 2^17 (draw, input) rows, 16 MB of hidden units.  A
# one-row tile is left out: its first layer is a matrix-vector product whose
# bits change with the number of stacked draws, and ``error_counts`` scores
# one draw per block there.
@pytest.mark.parametrize("n,draws", [(100, 300), (2000, 60), (4000, 30), (_ROW_BUDGET + 1, 30)])
@pytest.mark.parametrize("kind", ["task_wise", "layer_wise"])
def test_float32_margins_do_not_depend_on_the_block(shipped_shape_pool, kind, n, draws):
    pool, spec, task = shipped_shape_pool
    scheme = MergeScheme(kind, pool)
    data = sample_set(task, n, 5)
    phis = 1 / 6 + 0.5 * np.random.default_rng(n).standard_normal((draws, scheme.d_phi))
    thetas = merged_values(scheme, phis)
    x, y = data.inputs[:_ROW_BUDGET], data.labels[:_ROW_BUDGET]
    alone = np.concatenate([block_margins(spec, thetas[i : i + 1], x, y) for i in range(draws)])
    in_tens = np.concatenate([block_margins(spec, thetas[i : i + 10], x, y)
                              for i in range(0, draws, 10)])
    assert alone.tobytes() == in_tens.tobytes()
    assert alone.tobytes() == block_margins(spec, thetas, x, y).tobytes()


# on a one-input set each draw is a block of its own, so each mean's risk is
# that of its one-row call there too
def test_one_input_set_scores_one_draw_per_block(toy_pool, monkeypatch):
    pool, spec, task = toy_pool
    scheme = MergeScheme("layer_wise", pool)
    data = sample_set(task, 1, 4)
    blocks = []

    def recorded(*args, _original=toyzoo._scores32):
        scores = _original(*args)
        blocks.append(len(scores))
        return scores

    monkeypatch.setattr(toyzoo, "_scores32", recorded)
    means = 1 / 3 + 0.4 * np.random.default_rng(6).standard_normal((7, scheme.d_phi))
    risks = fresh_risks(means, 0.2, scheme, spec, data, 10, seed=23)
    assert blocks == [1] * 70
    for i in range(7):
        assert risks[i] == fresh_risks(means[i : i + 1], 0.2, scheme, spec, data, 10, seed=23)[0]


def fresh_label_index(labels, classes, n):
    """The positions of the label scores of a tile of ``labels`` in the
    flattened (draws, classes, rows) scores of a full block of the draws
    ``error_counts`` stacks on a set of n inputs, by ``ravel_multi_index``."""
    draws, rows = 1 if n == 1 else max(1, _ROW_BUDGET // n), len(labels)
    draw, row = np.divmod(np.arange(draws * rows), rows)
    return np.ravel_multi_index((draw, labels[row], row), (draws, classes, rows))


class TestScoringConstants:
    """Each set's float32 input tiles, largest label and per-class-count
    label index are built once and kept with the set."""

    @pytest.mark.parametrize("n", [1, _ROW_BUDGET - 1, _ROW_BUDGET + 1, 2 * _ROW_BUDGET + 3])
    def test_cached_tiles_equal_fresh_ones(self, toy_pool, n):
        _, spec, task = toy_pool
        whole = sample_set(task, n, 6)
        # ``subset`` results: every other row, and the set reversed
        for data in (whole, whole.subset(np.arange(0, n, 2)), whole.subset(np.arange(n)[::-1])):
            error_counts(spec, np.zeros((2, spec.d_model)), data)
            tiles = data._scoring_tiles
            assert data._scoring_tiles is tiles
            starts = range(0, data.n, _ROW_BUDGET)
            assert len(tiles) == len(starts)
            assert data._label_max == data.labels.max()
            for classes in (spec.widths[-1], spec.widths[-1] + 2):
                index = data._label_index(classes)
                assert data._label_index(classes) is index and len(index) == len(starts)
                for xa, tile, start in zip(tiles, index, starts):
                    x = data.inputs[start : start + _ROW_BUDGET]
                    y = data.labels[start : start + _ROW_BUDGET]
                    assert xa.tobytes() == toyzoo._float32_inputs(x).tobytes()
                    assert tile.tobytes() == fresh_label_index(y, classes, data.n).tobytes()
                    assert not (xa.flags.writeable or tile.flags.writeable)

    # one-row sets, sets one row past the budget (in 4 slices) and
    # ``subset`` results, scored twice by one estimator (the second time from
    # the kept constants and the estimator's slices), against the one-row
    # calls on fresh copies of each draw's slice
    @pytest.mark.parametrize("n,rows", [(1, None), (_ROW_BUDGET + 1, None),
                                        (300, slice(150, 300)), (_ROW_BUDGET + 3, slice(1, None))])
    @pytest.mark.parametrize("kind", ["task_arith", "layer_wise"])
    def test_kept_constants_score_as_one_row_calls(self, toy_pool, kind, n, rows):
        pool, spec, task = toy_pool
        scheme = MergeScheme(kind, pool)
        data = sample_set(task, n, 4)
        if rows is not None:
            data = data.subset(np.arange(n)[rows])
        mean, variance, k = np.full(scheme.d_phi, 1 / 3), 0.5, 4
        reference = sliced_risk(mean, variance, scheme, spec, data, k, 17)
        estimate = RiskEstimator(scheme, spec, data, variance, k, 17)
        for _ in range(2):
            assert float(estimate.risks(mean[None])[0]) == reference


class TestBatchedMeans:
    """An estimate over m means against one one-row call per mean."""

    # on 120 rows the m * k draws stack into blocks; on 4,101 rows each of
    # the 2 draws scores its own slice; k = 150 sums each mean's risks past
    # one 128-element block of numpy's pairwise summation
    @pytest.mark.parametrize("n,k", [(120, 5), (_ROW_BUDGET + 5, 2), (40, 150)])
    @pytest.mark.parametrize("m", [1, 7, 41])
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_equal_one_mean_calls(self, toy_pool, kind, m, n, k):
        pool, spec, task = toy_pool
        scheme = MergeScheme(kind, pool)
        data = sample_set(task, n, 4)
        means = 1 / 3 + 0.4 * np.random.default_rng(m).standard_normal((m, scheme.d_phi))
        risks = fresh_risks(means, 0.2, scheme, spec, data, k, seed=23)
        assert risks.shape == (m,)
        for i in range(m):
            assert risks[i] == fresh_risks(means[i : i + 1], 0.2, scheme, spec, data, k, seed=23)[0]
        for i in (0, m - 1):
            assert risks[i] == sliced_risk(means[i], 0.2, scheme, spec, data, k, 23)

    def test_one_merge_per_call(self, toy_world, monkeypatch):
        scheme, spec, data = toy_world
        calls = []

        def counting(*args):
            calls.append(args)
            return merged_values(*args)

        monkeypatch.setattr(posterior, "merged_values", counting)
        fresh_risks(np.full((12, 3), 1 / 3), 0.3, scheme, spec, data, 6, seed=2)
        # the 72 draws' later layers, from the first layer's 7 * 8 values on
        assert len(calls) == 1 and calls[0][1].shape == (72, 3) and calls[0][2:] == (7 * 8,)

    def test_arguments_checked(self, toy_world):
        scheme, spec, data = toy_world
        means = np.full((4, 3), 1 / 3)
        with pytest.raises(DomainError, match="finite"):
            fresh_risks(np.array([[0.1, np.inf, 0.2]]), 0.1, scheme, spec, data, 3)
        for variance in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError, match="variance"):
                fresh_risks(means, variance, scheme, spec, data, 3)
        with pytest.raises(DomainError, match="k >= 1"):
            fresh_risks(means, 0.1, scheme, spec, data, 0)
        with pytest.raises(DomainError, match="non-empty"):
            fresh_risks(means, 0.1, scheme, spec, data.subset(np.array([], dtype=int)), 3)
        with pytest.raises(StructureError):
            fresh_risks(np.full((4, 2), 0.5), 0.1, scheme, spec, data, 3)
        with pytest.raises(StructureError):
            fresh_risks(np.full(3, 0.5), 0.1, scheme, spec, data, 3)

    def test_posterior_rows_are_the_merged_draws(self, toy_world):
        scheme, spec, _ = toy_world
        means = 1 / 3 + 0.2 * np.random.default_rng(3).standard_normal((4, 3))
        rows = posterior_rows(means, 0.2, scheme, 5, seed=8)
        assert rows.shape == (20, spec.d_model) and rows.dtype == np.float32
        for i, mean in enumerate(means):
            for j, phi in enumerate(draws_of(mean, 0.2, 8, 5)):
                assert np.array_equal(rows[i * 5 + j], merged_values(scheme, phi[None])[0])

    def test_means_not_written(self, toy_world):
        scheme, spec, data = toy_world
        means = np.full((3, 3), 1 / 3)
        fresh_risks(means, 0.3, scheme, spec, data, 4, seed=5)
        assert np.array_equal(means, np.full((3, 3), 1 / 3))


class TestSlices:
    """Where an estimate slices a set, and what each draw scores."""

    @pytest.fixture
    def scored(self, monkeypatch):
        # the (rows, set size) of every error-count call of an estimate, on
        # either first-layer path
        calls = []

        def recorded(spec, thetas, data, _original=posterior.error_counts):
            calls.append((len(thetas), data.n))
            return _original(spec, thetas, data)

        def recorded_coefficients(spec, coeffs, first_basis, later, data,
                                  _original=posterior.coefficient_counts):
            calls.append((len(coeffs), data.n))
            return _original(spec, coeffs, first_basis, later, data)

        monkeypatch.setattr(posterior, "error_counts", recorded)
        monkeypatch.setattr(posterior, "coefficient_counts", recorded_coefficients)
        return calls

    @pytest.mark.parametrize("kind", KINDS)
    def test_below_two_slices_is_the_whole_set_formula(self, toy_pool, scored, kind):
        pool, spec, task = toy_pool
        scheme = MergeScheme(kind, pool)
        n, k = 2 * _SLICE_ROWS - 1, 10
        data = sample_set(task, n, 4)
        means = 1 / 3 + 0.4 * np.random.default_rng(2).standard_normal((5, scheme.d_phi))
        risks = fresh_risks(means, 0.3, scheme, spec, data, k, seed=9)
        rows = posterior_rows(means, 0.3, scheme, k, seed=9)
        whole = np.add.reduce((error_counts(spec, rows, data) / n).reshape(-1, k), axis=1) / k
        assert slice_count(n, k) == 1 and scored == [(5 * k, n)]
        assert risks.tobytes() == whole.tobytes()

    def test_two_slices_from_twice_the_slice_rows(self, toy_pool, scored):
        pool, spec, task = toy_pool
        scheme = MergeScheme("task_wise", pool)
        data = sample_set(task, 2 * _SLICE_ROWS, 4)
        mean = np.full(3, 1 / 3)
        risk = posterior_risk(mean, 0.3, scheme, spec, data, 10, seed=9)
        assert slice_count(data.n, 10) == 2
        assert scored == [(5, _SLICE_ROWS), (5, _SLICE_ROWS)]
        assert risk == sliced_risk(mean, 0.3, scheme, spec, data, 10, 9)

    def test_slice_count_is_capped_at_k(self, toy_pool, scored):
        pool, spec, task = toy_pool
        scheme = MergeScheme("ties", pool)
        data = sample_set(task, 8000, 4)
        mean = np.array([0.8])
        risk = posterior_risk(mean, 0.3, scheme, spec, data, 3, seed=9)
        assert slice_count(8000, 3) == 3 and slice_count(8000, 30) == 8000 // _SLICE_ROWS
        assert scored == [(1, 2667), (1, 2667), (1, 2666)]
        assert risk == sliced_risk(mean, 0.3, scheme, spec, data, 3, 9)

    # k = 1: the one draw scores the whole set, at any size
    @pytest.mark.parametrize("n", [120, 4000])
    def test_one_draw_scores_the_whole_set(self, toy_pool, scored, n):
        pool, spec, task = toy_pool
        scheme = MergeScheme("task_wise", pool)
        data = sample_set(task, n, 6)
        mean = np.full(3, 1 / 3)
        risk = posterior_risk(mean, 0.3, scheme, spec, data, 1, seed=9)
        (draw,) = draws_of(mean, 0.3, 9, 1)
        assert slice_count(n, 1) == 1 and scored == [(1, n)]
        assert risk == point_risk(scheme, spec, draw, data)

    # k = count draws, one on each slice: the first n mod count slices one
    # row longer than the rest
    @pytest.mark.parametrize("n,count", [(800, 2), (801, 2), (4000, 10), (4099, 7)])
    def test_estimate_scores_one_draw_per_reference_slice(self, toy_pool, scored, n, count):
        pool, spec, task = toy_pool
        scheme = MergeScheme("task_wise", pool)
        data = sample_set(task, n, 6)
        mean = np.full(3, 1 / 3)
        estimate = RiskEstimator(scheme, spec, data, 0.3, count, seed=9)
        assert slice_count(n, count) == len(estimate.parts) == count
        start = 0
        for part, fresh in zip(estimate.parts, reference_slices(data, count)):
            # each part is the next run of rows
            assert part.n == fresh.n > 0
            assert np.array_equal(part.inputs, data.inputs[start : start + part.n])
            assert np.array_equal(part.labels, data.labels[start : start + part.n])
            start += part.n
        assert start == n
        risk = float(estimate.risks(mean[None])[0])
        assert scored == [(1, part.n) for part in reference_slices(data, count)]
        assert risk == sliced_risk(mean, 0.3, scheme, spec, data, count, 9)

    # each row of a call against its one-mean call, for any size, draw count
    # and mean count, sliced or not; the examples sit on both sides of two
    # slices and at the largest size, with 3 slices
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3 * _SLICE_ROWS + 7), st.integers(1, 12), st.integers(1, 6),
           st.sampled_from(KINDS))
    @example(2 * _SLICE_ROWS - 1, 10, 3, "ties")
    @example(2 * _SLICE_ROWS, 3, 4, "layer_wise")
    @example(3 * _SLICE_ROWS + 7, 12, 6, "task_wise")
    def test_rows_equal_one_mean_calls(self, toy_pool, n, k, m, kind):
        pool, spec, task = toy_pool
        scheme = MergeScheme(kind, pool)
        data = sample_set(task, n, 3)
        means = 1 / 3 + 0.4 * np.random.default_rng(n).standard_normal((m, scheme.d_phi))
        risks = fresh_risks(means, 0.2, scheme, spec, data, k, seed=5)
        for i in range(m):
            assert risks[i] == fresh_risks(means[i : i + 1], 0.2, scheme, spec, data, k, seed=5)[0]
        assert risks[0] == sliced_risk(means[0], 0.2, scheme, spec, data, k, 5)


def coefficient_path_counts(scheme, spec, phis, data):
    """The error counts of the merges at ``phis`` with their first layer
    formed in coefficient space, whatever the cost rule would pick."""
    rows, first_basis, _ = posterior._first_layer(scheme, spec)
    start = (spec.widths[0] + 1) * spec.widths[1]
    return coefficient_counts(spec, with_base(phis)[:, rows].astype(np.float32), first_basis,
                              merged_values(scheme, phis, start), data)


@pytest.fixture(scope="module")
def five_member_pool():
    """A pool of 5 members of the shipped (16, 32, 4) network, the shape of
    the ``paper-table1-toy``, ``paper-gap-sweep`` and ``validity-trial``
    worlds."""
    spec = MlpSpec((16, 32, 4))
    rng = np.random.default_rng(12)
    deltas = [0.05 * rng.standard_normal(spec.d_model) for _ in range(5)]
    pool = ModelPool(init_params(spec, 5), deltas, [f"m{i}" for i in range(5)],
                     spec.layer_offsets())
    return pool, spec, gen_tasks(6, 2, 16, 4, 0.8)[0]


class TestCoefficientPath:
    """The first layer formed as C @ (F @ x), against the merged rows'."""

    @pytest.fixture
    def paths(self, monkeypatch):
        # (path, draws, set size) of every error-count call of an estimate
        calls = []

        def merged(spec, thetas, data, _original=posterior.error_counts):
            calls.append(("merged", len(thetas), data.n))
            return _original(spec, thetas, data)

        def coefficients(spec, coeffs, first_basis, later, data,
                         _original=posterior.coefficient_counts):
            calls.append(("coefficients", len(coeffs), data.n))
            return _original(spec, coeffs, first_basis, later, data)

        monkeypatch.setattr(posterior, "error_counts", merged)
        monkeypatch.setattr(posterior, "coefficient_counts", coefficients)
        return calls

    # Both paths sum the same exact products in float32.  The merged rows
    # round each merged weight once (u = 2^-24) and sum in + 1 products
    # (gamma_{in+1}); the coefficient path rounds the basis and the
    # coefficients (2u) and sums in + 1 products, then L.  With M = sum_l
    # |c_l| sum_i |F_li| |x_i| (Higham, gamma_n = n u / (1 - n u)) the two
    # differ by at most about (2 (in + 1) + L + 3) u M, 1.001 times that here.
    # The pre-activations are read where each path activates them: 4 means x
    # 10 draws in one estimate, and their merged rows scored by
    # ``error_counts``.
    @pytest.mark.parametrize("kind", KINDS)
    def test_pre_activations_within_float32_rounding(self, five_member_pool, monkeypatch,
                                                     paths, kind):
        pool, spec, task = five_member_pool
        scheme = MergeScheme(kind, pool)
        data = sample_set(task, 300, 2)
        means = 1 / 5 + np.random.default_rng(4).standard_normal((4, scheme.d_phi))
        activated = []

        def recorded(z, out=None, _original=np.tanh):
            activated.append(z.copy())
            return _original(z, out=out)

        monkeypatch.setattr(np, "tanh", recorded)
        fresh_risks(means, 0.5, scheme, spec, data, 10, seed=4)
        combined = np.concatenate(activated)
        activated.clear()
        phis = posterior_draws(means, 0.5, 10, 4)
        error_counts(spec, merged_values(scheme, phis), data)
        merged = np.concatenate(activated)
        assert paths == [("coefficients", 40, 300)]
        rows, _, _ = posterior._first_layer(scheme, spec)
        width = spec.widths[0] + 1
        first, _ = toyzoo._float32_layers(spec, scheme.basis[rows])
        responses = np.abs(first.reshape(-1, width)) @ np.abs(toyzoo._float32_inputs(data.inputs))
        size = (np.abs(with_base(phis)[:, rows]) @ responses.reshape(len(rows), -1)).reshape(
            merged.shape)
        bound = 1.001 * (2 * width + len(rows) + 3) * 2.0**-24 * size
        assert combined.dtype == merged.dtype == np.float32
        assert (np.abs(combined.astype(np.float64) - merged) <= bound).all()
        assert not np.array_equal(combined, merged)  # the paths really differ

    # the shapes and draws of the ``TestBatchedKernel`` and ``TestSlices``
    # fixtures, each slice's draws counted both ways: (n, k, means, variance,
    # seed)
    @pytest.mark.parametrize("n,k,m,variance,seed", [
        (120, 10, 1, 0.5, 17), (1100, 4, 1, 0.5, 17), (300, 7, 1, 0.5, 17),
        (2 * _ROW_BUDGET + 3, 4, 1, 0.5, 17), (2 * _SLICE_ROWS - 1, 10, 5, 0.3, 9),
        (2 * _SLICE_ROWS, 10, 1, 0.3, 9), (8000, 3, 1, 0.3, 9)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_counts_equal_the_merged_rows(self, toy_pool, kind, n, k, m, variance, seed):
        pool, spec, task = toy_pool
        scheme = MergeScheme(kind, pool)
        data = sample_set(task, n, 4)
        means = np.full((1, scheme.d_phi), 1 / 3) if m == 1 else (
            1 / 3 + 0.4 * np.random.default_rng(2).standard_normal((m, scheme.d_phi)))
        draws = posterior_draws(means, variance, k, seed)
        s = slice_count(n, k)
        for q, part in enumerate(reference_slices(data, s)):
            mine = draws[np.arange(len(draws)) % k % s == q]
            expected = error_counts(spec, merged_values(scheme, mine), part)
            assert coefficient_path_counts(scheme, spec, mine, part).tolist() == expected.tolist()

    def test_the_cheaper_path_is_taken(self, five_member_pool, paths):
        pool, spec, task = five_member_pool
        scheme = MergeScheme("task_wise", pool)  # L = 6 first-layer basis rows
        means = 0.2 + 0.1 * np.random.default_rng(3).standard_normal((8, 5))
        # a gap-sweep generation at n = 4,000: 8 candidates x 10 draws on 10
        # slices, 8 draws a call; 6 * 17 + 8 * 6 >= 8 * 17
        fresh_risks(means, 0.01, scheme, spec, sample_set(task, 4000, 1), 10, seed=3)
        assert paths == [("merged", 8, 400)] * 10
        paths.clear()
        # a Table 1 generation at n = 100: 80 draws in one call
        fresh_risks(means, 0.01, scheme, spec, sample_set(task, 100, 1), 10, seed=3)
        assert paths == [("coefficients", 80, 100)]
        paths.clear()
        # a validity grid fit: 41 points x 10 draws of task arithmetic, L = 2
        grid = np.linspace(0.0, 2.0, 41)[:, None]
        fresh_risks(grid, 0.01, MergeScheme("task_arith", pool), spec, sample_set(task, 100, 1), 10,
                 seed=3)
        assert paths == [("coefficients", 410, 100)]

    # a layer-wise coefficient scaled to 1e40 overflows float32 on member 0's
    # first weight block (coefficient 0) or on its second (coefficient 2):
    # the first is caught by the bound, which sends the call to the merged
    # rows, the second by the later-layer merge; 80 draws take the
    # coefficient path, one draw the merged rows
    @pytest.mark.parametrize("coefficient,start", [(0, ()), (2, (17 * 32,))])
    def test_overflow_raises_as_the_merged_rows_do(self, five_member_pool, paths, monkeypatch,
                                                   coefficient, start):
        pool, spec, task = five_member_pool
        scheme = MergeScheme("layer_wise", pool)
        data = sample_set(task, 100, 1)
        merges = []

        def counting(*args):
            merges.append(args[2:])
            return merged_values(*args)

        monkeypatch.setattr(posterior, "merged_values", counting)
        means = np.full((8, scheme.d_phi), 0.2)
        means[3, coefficient] = 1e40
        errors = []
        for rows, k in ((means, 10), (means[3:4], 1)):
            with pytest.raises(DomainError, match="32-bit") as raised:
                fresh_risks(rows, 1e-12, scheme, spec, data, k, seed=3)
            errors.append(str(raised.value))
        assert errors[0] == errors[1] == "merge overflowed the 32-bit float range"
        assert merges == [start, ()] and paths == []


class TestNonFinite:
    def test_nan_phi(self, toy_world):
        scheme, spec, data = toy_world
        phi = np.array([0.1, np.nan, 0.2])
        with pytest.raises(DomainError):
            merged_values(scheme, phi[None])
        with pytest.raises(DomainError):
            posterior_risk(phi, 0.1, scheme, spec, data, 3, seed=1)

    def test_infinite_draws(self, toy_world):
        # an infinite variance is refused before any draw is made
        scheme, spec, data = toy_world
        with pytest.raises(DomainError, match="finite"):
            posterior_risk(np.full(3, 1 / 3), np.inf, scheme, spec, data, 3, seed=1)

    def test_float32_overflow(self, toy_world):
        # finite in float64, beyond the float32 range once multiplied out
        scheme, spec, data = toy_world
        phi = np.full(3, 1e40)
        with pytest.raises(DomainError, match="32-bit"):
            merged_values(scheme, phi[None])
        with pytest.raises(DomainError, match="32-bit"):
            posterior_risk(phi, 1e-12, scheme, spec, data, 3, seed=1)


class TestNoiseCache:
    """An estimator draws its noise rows once, when it is built."""

    def test_repeat_call_draws_no_noise(self, toy_world, monkeypatch):
        scheme, spec, data = toy_world
        calls = []

        def counting(*args):
            calls.append(args)
            return rng_for(*args)

        means = [np.full((1, 3), 1 / 3), np.full((2, 3), 0.2), np.full((1, 3), 1 / 3)]
        fresh = [fresh_risks(mean, 0.3, scheme, spec, data, 5, seed=918273) for mean in means]
        monkeypatch.setattr(posterior, "rng_for", counting)
        estimate = RiskEstimator(scheme, spec, data, 0.3, 5, seed=918273)
        assert calls == [(918273, "gauss", j) for j in range(5)]
        for mean, expected in zip(means, fresh):
            assert estimate.risks(mean).tobytes() == expected.tobytes()
        assert len(calls) == 5

    def test_interleaved_estimators_keep_their_own_noise(self, toy_world):
        scheme, spec, data = toy_world
        seeds, means = (3, 4), [np.full((1, 3), 1 / 3), np.full((3, 3), 0.2)]
        estimates = [RiskEstimator(scheme, spec, data, 0.3, 6, seed) for seed in seeds]
        for mean in means:
            for seed, estimate in zip(seeds, estimates):
                expected = fresh_risks(mean, 0.3, scheme, spec, data, 6, seed)
                assert estimate.risks(mean).tobytes() == expected.tobytes()
