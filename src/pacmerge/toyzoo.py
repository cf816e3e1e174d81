"""Synthetic multi-task data and a small feed-forward classifier.

Tasks are Gaussian class-mean mixtures whose means share a controllable
amount of structure across tasks, so that models fine-tuned on related tasks
genuinely help a held-out task when merged.  Sets come from one tiled
sampler, ``sample_tiles``: its tiles hold ``_ROW_BUDGET`` rows and start at
multiples of it, the row tiles ``error_counts`` scores a large set in, so a
set too large to hold can be scored tile by tile with the whole set's
counts.  ``sample_set`` joins the tiles.  The classifier is a plain MLP
trained with mini-batch SGD on softmax cross-entropy; certification only ever
sees its 0-1 loss.

There is one SGD loop, ``train_stack``: it trains M models of one
architecture at once on a leading model axis, each on its own set with its
own shuffling seed, and every stacked product is one 2-D product per model,
so each model gets the bits of training it alone; one model is a stack of
one.  A model that diverges raises ``TrainingDiverged`` naming it and the
epoch, without numpy overflow warnings.

Every risk a certificate uses comes from ``error_counts``, which counts the
0-1 errors of many parameter rows at once.  It scores in float32 and returns
the float64 counts by construction.  Once per call it bounds the float32
score error a priori: Higham's dot-product bound gamma_n, the rounding of
inputs and weights to float32, and np.tanh's measured error, carried through
the layers by the column 1-norms of |W|.  Float32 then decides every input
whose label margin clears twice that bound: it reads the label scores
through one flat index per row tile, and looks for a block's undecided pairs
only when its decided margins do not add up to the block.  The few undecided
pairs of the whole call are re-scored in float64 once, after the float32
pass: first stacked, then, for ties, with the float64 path's own shapes.
Training runs in float64.  ``error_counts`` and ``train_stack`` reject inputs
of another width than the spec's (``StructureError``) and labels that are
not its classes (``DomainError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError, TrainingDiverged
from .seeding import rng_for

_ACTIVATIONS = ("tanh", "relu", "identity")

# (draw, input) rows per scored block in ``error_counts``, and rows per
# ``sample_tiles`` tile.  On 100,000-row sets 4,096 was the fastest budget
# tried: smaller blocks pay more per-block overhead, larger ones leave the
# cache.
_ROW_BUDGET = 4096

# Constants of the float32 error bound in ``error_counts``.  Unit roundoffs,
# and the absolute error one operation may add by underflow, taken as the
# smallest normal number so that flush-to-zero is covered too.
_U32, _TINY32 = 2.0**-24, 2.0**-126
_U64, _TINY64 = 2.0**-53, 2.0**-1022
_F32_MAX = float(np.finfo(np.float32).max)
# Largest error of np.tanh in units in the last place of its result: float32
# against float64 (1.37 at most over every float32 in [0, 10] with numpy 2.4
# on x86-64), and float64 against the exact value (1.19 at most against long
# double on 2e6 inputs in [0, 25]).  tests/test_toyzoo.py guards both.
_TANH32_ULPS = 2.0
_TANH64_ULPS = 2.0
# Widens the thresholds for the rounding of the threshold to float32 and of
# each float32 margin (2^-24 each), and of the bound's own float64
# arithmetic: its n operations add and multiply nonnegative numbers, so
# they err by n 2^-53 at most, far below 2^-20 for any model that fits in
# memory.
_SLACK = 1.0 + 2.0**-20


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """A Gaussian mixture classification task: x = mean[y] + noise."""

    task_id: str
    input_dim: int
    class_count: int
    class_means: np.ndarray  # (class_count, input_dim)
    noise_scale: float
    label_seed: int

    def __post_init__(self):
        means = np.array(self.class_means, dtype=np.float64, copy=True)
        means.flags.writeable = False
        object.__setattr__(self, "class_means", means)
        if self.class_count < 2:
            raise DomainError("need at least 2 classes")
        if means.shape != (self.class_count, self.input_dim):
            raise DomainError(
                f"class_means shape {means.shape} != ({self.class_count}, {self.input_dim})"
            )
        if not self.noise_scale > 0:
            raise DomainError("noise_scale must be positive")
        for i in range(self.class_count):
            for j in range(i + 1, self.class_count):
                if np.array_equal(means[i], means[j]):
                    raise DomainError(f"class means {i} and {j} coincide")


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Inputs with integer class labels."""

    inputs: np.ndarray  # (n, input_dim) float64
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        inputs.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        if inputs.ndim != 2 or labels.ndim != 1 or inputs.shape[0] != labels.shape[0]:
            raise DomainError(
                f"inputs {inputs.shape} and labels {labels.shape} do not align"
            )
        if labels.size and labels.min() < 0:
            raise DomainError("labels must be non-negative class indices")
        if not np.all(np.isfinite(inputs)):
            raise DomainError("inputs must be finite")

    @property
    def n(self) -> int:
        return int(self.labels.size)

    def subset(self, indices) -> "LabeledSet":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledSet(self.inputs[idx], self.labels[idx])


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of the toy classifier.

    ``widths`` runs input -> hidden... -> classes.  Each affine layer
    contributes two parameter blocks (weight, bias), so a one-hidden-layer
    network exposes four blocks to layer-wise merging.
    """

    widths: tuple[int, ...]
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2 or any(w <= 0 for w in self.widths):
            raise DomainError(f"invalid widths {self.widths}")
        if self.activation not in _ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")

    @property
    def d_model(self) -> int:
        return sum(a * b + b for a, b in zip(self.widths[:-1], self.widths[1:]))

    def layer_offsets(self) -> tuple[tuple[int, int], ...]:
        blocks = []
        cursor = 0
        for fan_in, fan_out in zip(self.widths[:-1], self.widths[1:]):
            blocks.append((cursor, fan_in * fan_out))
            cursor += fan_in * fan_out
            blocks.append((cursor, fan_out))
            cursor += fan_out
        return tuple(blocks)


def gen_tasks(
    seed: int,
    count: int,
    input_dim: int,
    class_count: int,
    relatedness: float,
    noise_scale: float = 2.0,
) -> list[SyntheticTask]:
    """Draw ``count`` tasks whose class means share structure.

    Each task's means are sqrt(relatedness) * shared + sqrt(1-relatedness) *
    private, with shared and private components drawn i.i.d. standard normal.
    relatedness=1 makes all tasks identical; relatedness=0 makes them
    independent.
    """
    if not 0.0 <= relatedness <= 1.0:
        raise DomainError(f"relatedness {relatedness} outside [0, 1]")
    if count < 2:
        raise DomainError("need at least 2 tasks")
    rng = rng_for(seed, "gen-tasks")
    shared = rng.standard_normal((class_count, input_dim))
    tasks = []
    for t in range(count):
        private = rng.standard_normal((class_count, input_dim))
        means = np.sqrt(relatedness) * shared + np.sqrt(1.0 - relatedness) * private
        tasks.append(
            SyntheticTask(
                task_id=f"task{t}",
                input_dim=input_dim,
                class_count=class_count,
                class_means=means,
                noise_scale=noise_scale,
                label_seed=int(rng.integers(0, 2**63 - 1)),
            )
        )
    return tasks


def sample_tiles(task: SyntheticTask, n: int, seed: int):
    """``sample_set(task, n, seed)`` as consecutive ``LabeledSet`` tiles: tile
    t holds rows t ``_ROW_BUDGET`` onward, ``_ROW_BUDGET`` of them or the
    rest, the row tiles of ``error_counts`` on a set that large.

    All labels are drawn first, then the noise tile by tile, scaled and
    shifted in place; consecutive ``standard_normal`` draws continue one
    stream, so the tiles hold the bits of one full-size draw.  ``n < 1``
    raises ``DomainError`` on the first step.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    rng = rng_for(task.label_seed, "sample", seed)
    labels = rng.integers(0, task.class_count, size=n)
    for start in range(0, n, _ROW_BUDGET):
        tile = labels[start : start + _ROW_BUDGET]
        inputs = rng.standard_normal((len(tile), task.input_dim))
        inputs *= task.noise_scale
        inputs += task.class_means[tile]
        yield LabeledSet(inputs, tile)


def sample_set(task: SyntheticTask, n: int, seed: int) -> LabeledSet:
    """n i.i.d. draws from the task, deterministic in (task, n, seed): the
    tiles of ``sample_tiles`` joined."""
    tiles = list(sample_tiles(task, n, seed))
    return LabeledSet(np.concatenate([t.inputs for t in tiles]),
                      np.concatenate([t.labels for t in tiles]))


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


def init_params(spec: MlpSpec, seed: int) -> np.ndarray:
    """Gaussian fan-in-scaled weights, zero biases: the float32 (d_model,) row."""
    rng = rng_for(seed, "init")
    chunks = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        chunks.append(rng.standard_normal(fan_in * fan_out) / np.sqrt(fan_in))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks).astype(np.float32)


def _unpack(spec: MlpSpec, flat: np.ndarray):
    """(weight, bias) per affine layer of ``flat``, shaped (..., d_model)."""
    lead = flat.shape[:-1]
    layers = []
    cursor = 0
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        w = flat[..., cursor : cursor + fan_in * fan_out].reshape(lead + (fan_in, fan_out))
        cursor += fan_in * fan_out
        b = flat[..., cursor : cursor + fan_out]
        cursor += fan_out
        layers.append((w, b))
    return layers


def _check_data(spec: MlpSpec, data: LabeledSet) -> None:
    """Reject inputs of another width than ``spec``'s, and labels that are not
    classes of ``spec``."""
    if data.inputs.shape[1] != spec.widths[0]:
        raise StructureError(
            f"inputs have width {data.inputs.shape[1]}, spec needs {spec.widths[0]}")
    if data.n and data.labels.max() >= spec.widths[-1]:
        raise DomainError(
            f"label {data.labels.max()} is not a class of a {spec.widths[-1]}-class model"
        )


def _activate(spec: MlpSpec, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if spec.activation == "tanh":
        return np.tanh(z, out=out)
    if spec.activation == "relu":
        return np.maximum(z, 0.0, out=out)
    return z


def _scores(spec: MlpSpec, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class scores (k, n, classes) under each row of the float64 ``thetas``
    for float64 inputs ``x`` (n, in), or (k, n, in) with one set per row.

    One row runs plain 2-D products.  k rows run stacked products, each slice
    the same 2-D product, so a row's scores do not depend on its batch.  Bias
    and activation update each fresh product in place, with the bits of the
    out-of-place ``act(h @ w + b)``; ``thetas`` and ``x`` are only read.
    """
    h = x
    layers = _unpack(spec, thetas[0] if len(thetas) == 1 else thetas)
    for w, b in layers[:-1]:
        h = h @ w
        h += b[..., None, :]
        _activate(spec, h, out=h)
    w, b = layers[-1]
    scores = h @ w
    scores += b[..., None, :]
    return scores if scores.ndim == 3 else scores[None]


def _float64_counts(spec: MlpSpec, thetas: np.ndarray, data: LabeledSet) -> np.ndarray:
    """Misclassified inputs per row of the float64 ``thetas``, scored in float64.

    Blocks of at most ``_ROW_BUDGET`` (draw, input) rows: sets of up to
    ``_ROW_BUDGET`` inputs stack ``_ROW_BUDGET // n`` draws per block, larger
    sets take one draw and row tiles of ``_ROW_BUDGET`` inputs.
    """
    x, y = data.inputs, data.labels
    counts = np.zeros(len(thetas), dtype=np.int64)
    draws = max(1, _ROW_BUDGET // data.n)
    for lo in range(0, len(thetas), draws):
        for start in range(0, data.n, _ROW_BUDGET):
            tile = slice(start, start + _ROW_BUDGET)
            predicted = np.argmax(_scores(spec, thetas[lo : lo + draws], x[tile]), axis=-1)
            counts[lo : lo + draws] += np.count_nonzero(predicted != y[tile], axis=-1)
    return counts


def _score_error(spec, norms, x_max: float, u: float, tiny: float, act_err: float,
                 rounded: bool) -> tuple[float, float]:
    """(error, peak): a bound on |computed score - exact score| and on the
    magnitude of every value the computation forms, at unit roundoff ``u``.

    ``norms`` holds (largest column 1-norm of |W|, largest |b|) per layer over
    every draw; ``rounded`` says that inputs and weights are first rounded to
    the working precision.  A layer's error is the dot-product error
    gamma_{fan_in+1} (|h| |W| + |b|), gamma_n = n u / (1 - n u) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1), which
    holds for any summation order and with fused multiply-adds, plus the
    error it inherits through |W|, the rounding of W and b, and ``tiny`` per
    operation for underflow.  The activations are 1-Lipschitz; ``relu`` is
    exact and ``tanh`` adds ``act_err``.
    """
    rho, tiny_r = (u, tiny) if rounded else (0.0, 0.0)
    m = x_max  # largest |h| of the exact computation
    e = rho * x_max + tiny_r  # largest |computed h - exact h|
    peak = m + e
    last = len(norms) - 1
    for layer, ((col, bias), fan_in) in enumerate(zip(norms, spec.widths[:-1])):
        w_hat = (1.0 + rho) * col + fan_in * tiny_r
        b_hat = (1.0 + rho) * bias + tiny_r
        gamma = (fan_in + 1) * u / (1.0 - (fan_in + 1) * u)
        dot = (m + e) * w_hat + b_hat
        e = (gamma * dot + 2 * (fan_in + 1) * tiny + e * w_hat
             + m * (rho * col + fan_in * tiny_r) + rho * bias + tiny_r)
        peak = max(peak, w_hat, b_hat, (1.0 + gamma) * dot + 2 * (fan_in + 1) * tiny)
        m = m * col + bias
        if layer < last and spec.activation == "tanh":
            m = min(m, 1.0)
            e += act_err
    return e, peak


def _thresholds(spec: MlpSpec, thetas: np.ndarray, x_max: float):
    """(float32 margin threshold, float64 margin slack), or None when float32
    scoring could overflow.

    B bounds |float32 score - float64 score| for every draw and input of the
    call: the float32 pass's error and the float64 path's, each against exact
    arithmetic.  A label margin that differs from the float64 margin by at
    most 2B and exceeds 2B in size therefore has the float64 margin's sign.
    Two float64 computations of a score differ by at most twice the float64
    error, so their margins by at most the slack.  Both are widened by
    ``_SLACK``.
    """
    norms = [(float((np.ones(w.shape[-2]) @ np.abs(w)).max()), float(np.abs(b).max()))
             for w, b in _unpack(spec, thetas)]
    if not np.all(np.isfinite(norms)):
        return None
    tanh32 = _TANH32_ULPS * 2.0**-23 + _TANH64_ULPS * 2.0**-52
    err32, peak = _score_error(spec, norms, x_max, _U32, _TINY32, tanh32, rounded=True)
    err64, _ = _score_error(spec, norms, x_max, _U64, _TINY64, _TANH64_ULPS * 2.0**-52,
                            rounded=False)
    if not 4.0 * peak < _F32_MAX:
        return None
    return np.float32(2.0 * (err32 + err64) * _SLACK), 4.0 * err64 * _SLACK


def _float32_layers(spec: MlpSpec, thetas: np.ndarray):
    """(first, rest): the float32 layers of ``thetas`` for ``_scores32``.

    ``first`` is the first layer as (k, out, in + 1), its bias the last
    column; ``rest`` holds each later layer as (W^T (k, out, in), b (k, out, 1)).
    """
    layers = _unpack(spec, thetas.astype(np.float32, copy=False))
    (w, b), rest = layers[0], layers[1:]
    first = np.concatenate([w.swapaxes(1, 2), b[..., None]], axis=2)
    return first, [(w.swapaxes(1, 2), b[..., None]) for w, b in rest]


def _float32_inputs(x: np.ndarray) -> np.ndarray:
    """Inputs (rows, in) as float32 (in + 1, rows), the last row all ones."""
    xa = np.ones((x.shape[1] + 1, x.shape[0]), dtype=np.float32)
    xa[:-1] = x.T
    return xa


def _scores32(spec: MlpSpec, first: np.ndarray, rest, xa: np.ndarray) -> np.ndarray:
    """Float32 class scores (k, classes, rows) of a block of draws.

    The layers are those of ``_float32_layers`` and the inputs those of
    ``_float32_inputs``, so the first layer of every draw is one matrix
    product with the bias folded in.
    """
    k, out, _ = first.shape
    h = (first.reshape(k * out, -1) @ xa).reshape(k, out, -1)
    for w, b in rest:
        _activate(spec, h, out=h)
        h = w @ h
        h += b
    return h


def _margins(scores: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Label margins s_y - max_{j != y} s_j (k, rows) of the C-contiguous
    scores (k, classes, rows).

    ``index`` is ``(arange(k)[:, None] * classes * rows + labels * rows +
    arange(rows)).ravel()``, the positions of the label scores in the
    flattened block, so one 1-D gather reads them and one 1-D scatter
    overwrites them with -inf in ``scores``.
    """
    flat = scores.reshape(-1)
    label_scores = flat.take(index)
    flat[index] = -np.inf
    return label_scores.reshape(len(scores), -1) - scores.max(axis=1)


def _stacks(draw: np.ndarray) -> list[slice]:
    """Slices of the sorted ``draw`` for ``_recheck_rows``, each of at most
    ``_ROW_BUDGET`` padded rows: (its draws) x (most pairs of one draw).

    A draw with more than ``_ROW_BUDGET`` pairs is split into pieces of
    ``_ROW_BUDGET``, each a stack of its own.
    """
    per_draw = np.unique(draw, return_counts=True)[1]
    if len(per_draw) * per_draw.max() <= _ROW_BUDGET:
        return [slice(0, len(draw))]
    stacks, start, width, stacked, lo = [], 0, 0, 0, 0
    for count in per_draw.tolist():
        for piece in range(lo, lo + count, _ROW_BUDGET):
            size = min(_ROW_BUDGET, lo + count - piece)
            if (stacked + 1) * max(width, size) > _ROW_BUDGET:
                stacks.append(slice(start, piece))
                start, width, stacked = piece, 0, 0
            stacked += 1
            width = max(width, size)
        lo += count
    return stacks + [slice(start, len(draw))]


def _recheck_rows(spec, thetas, x, y, draw, row, slack):
    """Tier 2: errors per draw among (draw, input) pairs of the call, and the
    pairs still undecided, from one stacked float64 call.

    ``draw`` is sorted and ``row`` indexes ``x`` and ``y``.  The rows of each
    draw are stacked on that draw's slice, padded with zero inputs, so no
    pair needs its own copy of the weights; ``_stacks`` keeps the padded
    stack within ``_ROW_BUDGET`` rows.
    """
    which, first, per_draw = np.unique(draw, return_index=True, return_counts=True)
    stack = np.repeat(np.arange(len(which)), per_draw)
    slot = np.arange(len(draw)) - first[stack]
    inputs = np.zeros((len(which), per_draw.max(), x.shape[1]))
    inputs[stack, slot] = x[row]
    scores = _scores(spec, thetas[which].astype(np.float64), inputs)[stack, slot]
    index = y[row] * len(row) + np.arange(len(row))
    margin = _margins(np.ascontiguousarray(scores.T)[None], index)[0]
    errors = np.bincount(draw[margin < -slack], minlength=len(thetas))
    return errors, ~(np.abs(margin) > slack)


def _exact_errors(spec, theta, x, y, rows) -> int:
    """Tier 3: errors among ``rows`` of a tile under one float64 ``theta`` (1, d),
    scored with the float64 path's shapes and so with its bits."""
    predicted = np.argmax(_scores(spec, theta, x)[0], axis=-1)
    return int(np.count_nonzero(predicted[rows] != y[rows]))


def error_counts(spec: MlpSpec, thetas: np.ndarray, data: LabeledSet) -> np.ndarray:
    """Misclassified inputs of ``data`` under each row of ``thetas`` (k, d_model).

    The counts are those of scoring in float64 (``_float64_counts``), but most
    rows are decided in float32.  Scoring keeps the blocks of the float64
    path: at most ``_ROW_BUDGET`` (draw, input) rows, ``_ROW_BUDGET // n``
    stacked draws on sets of up to ``_ROW_BUDGET`` inputs and one draw on row
    tiles of ``_ROW_BUDGET`` inputs on larger sets.  Float32 ``thetas`` are
    used as they are; any other dtype is read as float64.

    Once per call ``_thresholds`` bounds the difference B between a float32
    and a float64 score from the largest |x|, the column 1-norms of |W| and
    the largest |b|.  The bound covers rounding the inputs and weights to
    float32, any summation order of the products, fused multiply-adds,
    underflow, and np.tanh's error: at most ``_TANH32_ULPS`` units in the last
    place of its float32 result against float64, and ``_TANH64_ULPS`` of its
    float64 result against the exact value.  Each input is then decided by
    its label margin s_y - max_{j != y} s_j:

    1. float32, block by block in a (draws, classes, rows) layout, the label
       scores read through one flat index per row tile: a margin beyond 2B
       has the float64 margin's sign, so it decides the row.  Only when the
       margins below -2B and above 2B do not add up to the block's pairs
       (NaN is on neither side) does the block collect its undecided (draw,
       input) pairs;
    2. after the last block, the undecided pairs of the call are scored again
       in stacked float64 calls, one unless its padded stack would exceed
       ``_ROW_BUDGET`` rows; each decides the pairs whose margin exceeds
       twice the largest difference of two float64 scorings;
    3. the rest, ties among them, are read per draw and row tile from the
       tile scored with the float64 path's own shapes, whose bits they are.

    When the bound shows that float32 could overflow, the whole call is
    scored in float64.  Inputs of another width than ``spec``'s raise
    ``StructureError`` and a label that is not a class of ``spec`` raises
    ``DomainError``.  A row's count does not depend on the other rows of
    ``thetas``.  A tile's product can differ from the full-height product in
    the last bit: on OpenBLAS 0.3.31, tiles of 8 rows or more reproduce the
    full product's bits except for a final layer of 3-4 outputs on 100,000
    rows, where no prediction changed.
    """
    thetas = np.asarray(thetas)
    if thetas.dtype != np.float32:
        thetas = thetas.astype(np.float64, copy=False)
    if thetas.ndim != 2 or thetas.shape[1] != spec.d_model:
        raise StructureError(f"thetas has shape {thetas.shape}, spec needs (k, {spec.d_model})")
    x, y = data.inputs, data.labels
    _check_data(spec, data)
    counts = np.zeros(len(thetas), dtype=np.int64)
    if data.n == 0 or len(thetas) == 0:
        return counts
    bound = _thresholds(spec, thetas, max(x.max(), -x.min()))
    if bound is None:
        return _float64_counts(spec, thetas.astype(np.float64, copy=False), data)
    threshold, slack = bound
    first, rest = _float32_layers(spec, thetas)
    draws = max(1, _ROW_BUDGET // data.n)
    unsure = []  # undecided pairs as draw * n + input
    for start in range(0, data.n, _ROW_BUDGET):
        tile = slice(start, start + _ROW_BUDGET)
        xa = _float32_inputs(x[tile])
        rows = xa.shape[1]
        # label positions in a full block's flattened scores; a shorter last
        # block of k draws uses the first k * rows
        index = (np.arange(draws)[:, None] * (spec.widths[-1] * rows)
                 + y[tile] * rows + np.arange(rows)).ravel()
        for lo in range(0, len(thetas), draws):
            block = slice(lo, lo + draws)
            scores = _scores32(spec, first[block], [(w[block], b[block]) for w, b in rest], xa)
            margin = _margins(scores, index[: len(scores) * rows])
            wrong = (margin < -threshold).sum(axis=1)
            counts[block] += wrong
            # a NaN margin is on neither side, so it falls short here too
            if wrong.sum() + np.count_nonzero(margin > threshold) < margin.size:
                # flat position f of the block is pair lo * n + start + f: a
                # block holds one draw, or several on a one-tile set (start 0)
                flat = np.flatnonzero(~(np.abs(margin) > threshold))
                unsure.append(flat + (lo * data.n + start))
    if not unsure:
        return counts
    draw, row = np.divmod(np.sort(np.concatenate(unsure)), data.n)
    undecided = np.empty(len(draw), dtype=bool)
    for part in _stacks(draw):
        errors, undecided[part] = _recheck_rows(spec, thetas, x, y, draw[part], row[part], slack)
        counts += errors
    if not undecided.any():
        return counts
    draw, row = draw[undecided], row[undecided]
    tiles = -(-data.n // _ROW_BUDGET)
    groups, starts = np.unique(draw * tiles + row // _ROW_BUDGET, return_index=True)
    for group, members in zip(groups.tolist(), np.split(row, starts[1:])):
        d, t = divmod(group, tiles)
        tile = slice(t * _ROW_BUDGET, (t + 1) * _ROW_BUDGET)
        theta = thetas[d : d + 1].astype(np.float64)
        counts[d] += _exact_errors(spec, theta, x[tile], y[tile], members - tile.start)
    return counts


def _backprop(spec: MlpSpec, layers, x: np.ndarray, onehot: np.ndarray):
    """Softmax probabilities of M models and their mean cross-entropy gradient.

    ``layers`` holds (weight (M, in, out), bias (M, 1, out)) per layer, ``x``
    the batches (M, b, in) and ``onehot`` their one-hot labels (M, b,
    classes).  Returns the probabilities (M, b, classes) and (dW, db) per
    layer in the shapes of ``layers``.  Every product is a stack of 2-D
    products, so each model's gradient has the bits of its own out-of-place
    computation; subtracting a one-hot label leaves the other scores exact.
    """
    acts, pre = [x], []
    for w, b in layers[:-1]:
        z = acts[-1] @ w + b
        pre.append(z)
        acts.append(_activate(spec, z))
    w, b = layers[-1]
    scores = acts[-1] @ w + b
    expo = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = expo / expo.sum(axis=-1, keepdims=True)

    delta = (probs - onehot) / x.shape[1]
    grads = []
    for li in range(len(layers) - 1, -1, -1):
        grads.append((acts[li].swapaxes(1, 2) @ delta, delta.sum(axis=1, keepdims=True)))
        if li > 0:
            delta = delta @ layers[li][0].swapaxes(1, 2)
            if spec.activation == "tanh":
                delta *= 1.0 - acts[li] ** 2
            elif spec.activation == "relu":
                delta *= pre[li - 1] > 0
    return probs, grads[::-1]


def _layers(spec: MlpSpec, flat: np.ndarray):
    """(weight (M, in, out), bias (M, 1, out)) views per layer of ``flat`` (M, d_model)."""
    return [(w, b[:, None]) for w, b in _unpack(spec, flat)]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 30
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise DomainError(f"lr must be positive and finite, got {self.lr}")
        for name in ("epochs", "batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 0:
            raise DomainError("epochs must be >= 0")
        if self.batch < 1:
            raise DomainError("batch must be >= 1")


def train_stack(spec: MlpSpec, init, sets, hypers, names) -> np.ndarray:
    """Mini-batch SGD on softmax cross-entropy of M copies of ``init`` at
    once: model i trains on ``sets[i]`` under ``hypers[i]`` and errors call
    it ``names[i]``; deterministic in each seed.  ``init`` is a (d_model,)
    row, rounded to float32 first; returns the float32 (M, d_model) rows of
    the trained models, each rounded from its float64 parameters.

    Each model draws its own permutation per epoch from
    ``rng_for(hypers[i].seed, "train")`` and its batches from its own set.
    The M models step together on a leading model axis: every product is a
    stack of 2-D products, and each step updates every layer's weight and
    bias views of the (M, d_model) float64 parameters in place, so model i
    ends with the bits of training it alone.  The sets must have one size
    and the configs may differ only in seed (``StructureError``); an empty
    set or a non-finite ``init`` raises ``DomainError``.

    epochs=0 returns ``init`` for every model.  A model whose loss goes
    non-finite, or whose parameters leave the float32 range, raises
    ``TrainingDiverged`` naming it and the epoch; numpy's overflow warnings
    are silenced while it trains.
    """
    with np.errstate(over="ignore"):
        init = np.asarray(init, dtype=np.float32)
    if init.shape != (spec.d_model,):
        raise StructureError(f"init has shape {init.shape}, spec needs ({spec.d_model},)")
    if not np.isfinite(init).all():
        raise DomainError("init contains NaN/Inf")
    count = len(sets)
    if not 0 < count == len(hypers) == len(names):
        raise StructureError(f"need one set, config and name per model, got {count}, "
                             f"{len(hypers)} and {len(names)}")
    if len({data.n for data in sets}) > 1:
        raise StructureError(f"stacked sets differ in size: {[data.n for data in sets]}")
    hyper = hypers[0]
    if any((h.lr, h.epochs, h.batch) != (hyper.lr, hyper.epochs, hyper.batch) for h in hypers):
        raise StructureError("stacked training configs may differ only in seed")
    for data, name in zip(sets, names):
        _check_data(spec, data)
        if data.n == 0:
            raise DomainError(f"{name}: empty training set")
    if hyper.epochs == 0:
        return np.repeat(init[None], count, axis=0)
    rngs = [rng_for(h.seed, "train") for h in hypers]
    x = np.stack([data.inputs for data in sets])
    onehot = np.stack([np.eye(spec.widths[-1])[data.labels] for data in sets])
    flat = np.repeat(init[None].astype(np.float64), count, axis=0)
    layers = _layers(spec, flat)
    models = np.arange(count)[:, None]
    n = sets[0].n
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, hyper.epochs + 1):
            order = np.stack([rng.permutation(n) for rng in rngs])
            xs, ys = x[models, order], onehot[models, order]
            for lo in range(0, n, hyper.batch):
                batch = slice(lo, lo + hyper.batch)
                probs, grads = _backprop(spec, layers, xs[:, batch], ys[:, batch])
                # the loss is finite exactly when the probabilities are: a
                # row with a finite largest score has probabilities in [0, 1],
                # any other row is all NaN
                if not np.isfinite(probs).all():
                    i = int(np.argmin(np.isfinite(probs).all(axis=(1, 2))))
                    raise TrainingDiverged(f"{names[i]}, epoch {epoch}: loss became nan")
                for (w, b), (gw, gb) in zip(layers, grads):
                    w -= hyper.lr * gw
                    b -= hyper.lr * gb
            inside = (np.abs(flat) <= _F32_MAX).all(axis=1)
            if not inside.all():
                i = int(np.argmin(inside))
                raise TrainingDiverged(
                    f"{names[i]}, epoch {epoch}: parameters left the float32 range")
    return flat.astype(np.float32)

