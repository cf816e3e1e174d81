"""Synthetic multi-task data and a small feed-forward classifier.

Tasks are Gaussian class-mean mixtures whose means share a controllable
amount of structure across tasks, so that models fine-tuned on related tasks
genuinely help a held-out task when merged.  Sets come from one tiled
sampler, ``sample_tiles``: its tiles hold ``_ROW_BUDGET`` rows and start at
multiples of it, the row tiles ``error_counts`` scores a large set in, so a
set too large to hold can be scored tile by tile with the whole set's
counts.  ``sample_set`` joins the tiles.  The classifier is a tanh MLP
trained with mini-batch SGD on softmax cross-entropy; certification only ever
sees its 0-1 loss.

There is one SGD loop, ``train_stack``: it trains M models of one
architecture under one ``TrainConfig`` at once on a leading model axis, each
on its own set with its own shuffling seed; every stacked product is one 2-D
product per model, so each model gets the bits of training it alone, and one
model is a stack of one.  A model that diverges raises ``TrainingDiverged``
naming it and the epoch, without numpy overflow warnings.

Every risk a certificate uses comes from ``error_counts``, which counts the
0-1 errors of many parameter rows at once; ``coefficient_counts`` counts
them, for the search's estimates, for rows whose first layer combines a few
fixed ones.  The classifier both count for is the float32 network: weights
and inputs are rounded to float32 and every product, bias and activation
runs in float32.  An input is classified
correctly only when its label score is strictly above every other class
score, so a tie counts as an error, and so does a NaN score, which scores
that overflow the float32 range can give (inf - inf).  Certification only
needs some fixed classifier's 0-1 error, and counting a doubtful input as an
error only raises the empirical error that the kl inversion is monotone in,
so every bound stays valid.  Training runs in float64.  ``error_counts`` and
``train_stack`` reject inputs of another width than the spec's
(``StructureError``) and labels that are not its classes (``DomainError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, StructureError, TrainingDiverged
from .seeding import rng_for

# (draw, input) rows per scored block in ``error_counts``, and rows per
# ``sample_tiles`` tile.  It counts rows, not bytes, so a block's working set
# grows with the widest layer.  The tile height is part of the output
# contract: a row tile's first-layer product has the bits of its own
# height, so another budget moves score bits.  On 100,000-row sets 4,096
# was the fastest budget tried: smaller blocks pay more per-block overhead,
# larger ones leave the cache.  Stacking more draws on a tile of about
# 4,000 rows keeps every count, but no draw count was faster on both shapes
# tried: 20 draws on a 4,096-row tile took 1.60, 1.91, 1.53 and 3.39 ms at
# 1, 2, 4 and 8 draws per block, 80 draws on 4,000 rows 12.0, 11.8, 11.9
# and 12.6 ms.
_ROW_BUDGET = 4096

_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """A Gaussian mixture classification task: x = mean[y] + noise, whose
    (class_count, input_dim) shape is that of its distinct ``class_means``."""

    task_id: str
    class_means: np.ndarray
    noise_scale: float
    label_seed: int

    def __post_init__(self):
        means = np.array(self.class_means, dtype=np.float64, copy=True)
        means.flags.writeable = False
        object.__setattr__(self, "class_means", means)
        if means.ndim != 2 or len(means) < 2:
            raise DomainError(f"class_means must be (classes >= 2, input_dim), got {means.shape}")
        if not self.noise_scale > 0:
            raise DomainError("noise_scale must be positive")
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                if np.array_equal(means[i], means[j]):
                    raise DomainError(f"class means {i} and {j} coincide")

    @property
    def class_count(self) -> int:
        return self.class_means.shape[0]

    @property
    def input_dim(self) -> int:
        return self.class_means.shape[1]


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

    @cached_property
    def _scoring_tiles(self) -> tuple:
        """The ``_float32_inputs`` of each row tile of ``_ROW_BUDGET`` inputs,
        what ``error_counts`` scores this set with, built on first use."""
        return tuple(_float32_inputs(self.inputs[start : start + _ROW_BUDGET])
                     for start in range(0, self.n, _ROW_BUDGET))

    @cached_property
    def _label_indexes(self) -> dict:
        # class count -> ``_label_index``'s tiles, filled on first use
        return {}

    def _label_index(self, classes: int) -> tuple:
        """Per row tile of ``_scoring_tiles``, the ``_tile_label_index`` of its
        labels for a ``classes``-class model, built once per class count and
        kept."""
        index = self._label_indexes.get(classes)
        if index is None:
            draws = _block_draws(self.n)
            index = self._label_indexes[classes] = tuple(
                _tile_label_index(self.labels[start : start + _ROW_BUDGET], classes, draws)
                for start in range(0, self.n, _ROW_BUDGET))
        return index

    @cached_property
    def _label_max(self) -> int:
        """The largest label, -1 for an empty set."""
        return int(self.labels.max()) if self.n else -1

    @cached_property
    def _slice_sets(self) -> dict:
        # slice count -> ``_slices``'s sets, filled on first use
        return {}

    def _slices(self, count: int) -> tuple:
        """The ``count`` contiguous ``np.array_split`` parts of this set as
        sets, built once per count and kept, so each keeps its own scoring
        constants.  A part holds read-only views of this set's arrays, which
        were checked and copied when it was made, so it is neither checked
        nor copied again."""
        parts = self._slice_sets.get(count)
        if parts is None:
            parts = []
            for x, y in zip(np.array_split(self.inputs, count), np.array_split(self.labels, count)):
                part = object.__new__(LabeledSet)
                object.__setattr__(part, "inputs", x)
                object.__setattr__(part, "labels", y)
                parts.append(part)
            parts = self._slice_sets[count] = tuple(parts)
        return parts

    def subset(self, indices) -> "LabeledSet":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledSet(self.inputs[idx], self.labels[idx])


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of the toy classifier.

    ``widths`` runs input -> hidden... -> classes; every hidden layer is
    tanh.  Each affine layer contributes two parameter blocks (weight,
    bias), so a one-hidden-layer network exposes four blocks to layer-wise
    merging.
    """

    widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2 or any(w <= 0 for w in self.widths):
            raise DomainError(f"invalid widths {self.widths}")

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


def _unpack(spec: MlpSpec, flat: np.ndarray, skip: int = 0):
    """(weight, bias) per affine layer of ``flat``, shaped (..., d_model), or
    per layer after the first ``skip`` when ``flat`` holds only their values."""
    lead = flat.shape[:-1]
    layers = []
    cursor = 0
    for fan_in, fan_out in list(zip(spec.widths[:-1], spec.widths[1:]))[skip:]:
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
    if data._label_max >= spec.widths[-1]:
        raise DomainError(
            f"label {data._label_max} is not a class of a {spec.widths[-1]}-class model"
        )


def _float32_layers(spec: MlpSpec, thetas: np.ndarray):
    """(first, rest): the layers of the float32 ``thetas`` for ``_scores32``.

    ``first`` is the first layer as (k, out, in + 1), its bias the last
    column; ``rest`` holds each later layer as ``_later_layers`` does.
    """
    layers = _unpack(spec, thetas)
    (w, b), rest = layers[0], layers[1:]
    first = np.concatenate([w.swapaxes(1, 2), b[..., None]], axis=2)
    return first, _later_layers(rest)


def _later_layers(layers):
    """Each (weight (k, in, out), bias (k, out)) layer as (W^T (k, out, in),
    b (k, out, 1))."""
    return [(w.swapaxes(1, 2), b[..., None]) for w, b in layers]


def _float32_inputs(x: np.ndarray) -> np.ndarray:
    """Inputs (rows, in) as read-only float32 (in + 1, rows), the last row all
    ones."""
    xa = np.ones((x.shape[1] + 1, x.shape[0]), dtype=np.float32)
    xa[:-1] = x.T
    xa.flags.writeable = False
    return xa


def _scores32(spec: MlpSpec, first: np.ndarray, rest, xa: np.ndarray) -> np.ndarray:
    """Float32 class scores (k, classes, rows) of a block of draws.

    The first layer of every draw is one matrix product, ``first`` (k, r, K)
    as (k·r, K) times ``xa`` (K, cols), read as (k, hidden, rows): the
    ``_float32_layers`` first layers (r = hidden) times the
    ``_float32_inputs``, or the draws' basis coefficients (r = 1) times the
    basis responses (L, hidden·rows) of ``coefficient_counts``.  ``rest``
    holds the later layers as ``_later_layers`` gives them.
    """
    k = len(first)
    h = (first.reshape(k * first.shape[1], -1) @ xa).reshape(k, spec.widths[1], -1)
    for w, b in rest:
        np.tanh(h, out=h)
        h = w @ h
        h += b
    return h


def _block_draws(n: int) -> int:
    """Draws per block that ``error_counts`` scores on a set of n inputs."""
    return 1 if n == 1 else max(1, _ROW_BUDGET // n)


def _tile_label_index(labels: np.ndarray, classes: int, draws: int) -> np.ndarray:
    """The read-only positions of the label scores in the flattened scores
    (draws, classes, rows) of a full block on a tile of ``labels``:
    ``(d * classes + label) * rows + row`` in draw-major order."""
    rows = len(labels)
    index = (np.arange(draws)[:, None] * (classes * rows) + labels * rows + np.arange(rows)).ravel()
    index.flags.writeable = False
    return index


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
    return label_scores.reshape(len(scores), -1) - np.maximum.reduce(scores, axis=1)


def error_counts(spec: MlpSpec, thetas: np.ndarray, data: LabeledSet) -> np.ndarray:
    """Misclassified inputs of ``data`` under each row of ``thetas`` (k, d_model),
    counted for the float32 network.

    An input is an error unless its label margin s_y - max_{j != y} s_j is
    strictly positive: a tie counts as an error, and so does a margin of
    -inf or NaN, which scores that overflow the float32 range can give; such
    a call warns of nothing.
    ``thetas`` of another dtype than float32 are rounded to float32 once; a
    finite value too large for float32 raises ``DomainError``, as in
    ``merging.merged_values``.

    The scores are formed in blocks of at most ``_ROW_BUDGET`` (draw, input)
    rows, in a (draws, classes, rows) layout: ``_ROW_BUDGET // n`` stacked
    draws on sets of 2 to ``_ROW_BUDGET`` inputs, and otherwise one draw on
    row tiles of ``_ROW_BUDGET`` inputs.  A one-input set takes one draw per
    block because its first layer is a matrix-vector product, whose last
    bits change with the number of stacked draws.  The label scores of a
    block are read through one flat index.  A set's float32 input tiles,
    its largest label and, per class count, its label index are built on
    their first use and kept with it.  A draw's scores, and so its count,
    do not depend on the other rows of ``thetas``.  Inputs of another width than ``spec``'s raise
    ``StructureError`` and a label that is not a class of ``spec`` raises
    ``DomainError``.
    """
    thetas = np.asarray(thetas)
    if thetas.ndim != 2 or thetas.shape[1] != spec.d_model:
        raise StructureError(f"thetas has shape {thetas.shape}, spec needs (k, {spec.d_model})")
    if thetas.dtype != np.float32:
        with np.errstate(over="ignore"):
            rounded = thetas.astype(np.float32)
        if not np.array_equal(np.isinf(rounded), np.isinf(thetas)):
            raise DomainError("thetas overflow the 32-bit float range")
        thetas = rounded
    _check_data(spec, data)
    first, rest = _float32_layers(spec, thetas)
    return _count_errors(spec, first, rest, data)


def coefficient_counts(spec: MlpSpec, coeffs: np.ndarray, first_basis: np.ndarray,
                       later: np.ndarray, data: LabeledSet) -> np.ndarray:
    """``error_counts`` of k rows whose first layer is ``coeffs[i] @`` the L
    first layers ``first_basis`` and whose later layers are ``later[i]``.

    ``coeffs`` (k, L), ``first_basis`` (L·hidden, in + 1) in the ``[W^T |
    b]`` layout of ``_float32_layers`` and ``later`` (k, d_model - (in +
    1)·hidden) are float32.  Per row tile the L responses Z = ``first_basis
    @ xa`` are formed once, and a draw's first-layer pre-activations are
    ``coeffs[i] @ Z``; blocks, margins and counts are those of
    ``error_counts``.  These pre-activations round differently from the
    merged row's, so a margin within float32 rounding of zero can score
    differently; and a one-draw block is a vector-matrix product, whose bits
    can differ from a matrix product's on tiles of about 600 rows or more.
    A label that is not a class of ``spec`` raises ``DomainError``, other
    shapes ``StructureError``.
    """
    width, hidden = spec.widths[0] + 1, spec.widths[1]
    if (coeffs.ndim != 2 or first_basis.shape != (coeffs.shape[1] * hidden, width)
            or later.shape != (len(coeffs), spec.d_model - width * hidden)):
        raise StructureError(
            f"coefficients {coeffs.shape}, first-layer basis {first_basis.shape} and later "
            f"layers {later.shape} do not fit a {spec.widths} network")
    _check_data(spec, data)
    return _count_errors(spec, coeffs[:, None], _later_layers(_unpack(spec, later, 1)), data,
                         first_basis)


def _count_errors(spec: MlpSpec, first, rest, data: LabeledSet, first_basis=None):
    """The misclassified inputs of ``data`` under each of the k draws whose
    layers ``_scores32`` reads from ``first`` (k, r, K) and ``rest``: the
    first layer is ``first`` times the float32 inputs of each row tile, or,
    given ``first_basis``, times that basis's responses to them."""
    counts = np.zeros(len(first), dtype=np.int64)
    if data.n == 0 or len(first) == 0:
        return counts
    draws = _block_draws(data.n)
    with np.errstate(over="ignore", invalid="ignore"):
        for xa, index in zip(data._scoring_tiles, data._label_index(spec.widths[-1])):
            rows = xa.shape[1]
            if first_basis is not None:
                xa = (first_basis @ xa).reshape(first.shape[2], spec.widths[1] * rows)
            for lo in range(0, len(first), draws):
                block = slice(lo, lo + draws)
                scores = _scores32(spec, first[block], [(w[block], b[block]) for w, b in rest], xa)
                # a shorter last block of k draws uses the first k * rows positions
                margin = _margins(scores, index[: len(scores) * rows])
                # np.count_nonzero's count, without its wrapper
                counts[block] += rows - np.add.reduce(margin > 0, axis=1)
    return counts


def _backprop(layers, weights_t, x: np.ndarray, onehot: np.ndarray, grads):
    """Softmax denominators of M models; their mean cross-entropy gradient
    goes into ``grads``.

    ``layers`` holds (weight (M, in, out), bias (M, 1, out)) per layer,
    ``weights_t`` each weight's (M, out, in) transposed view, ``x`` the
    batches (M, b, in) and ``onehot`` their one-hot labels (M, b, classes).
    The gradient is written into ``grads``, the caller's layer views of an
    (M, d_model) float64 buffer, which is required.  Returns only the
    denominators (M, b, 1) of the probabilities: a row with a finite largest
    score has probabilities in [0, 1] and a denominator in [1, classes], any
    other row is all NaN, so they are finite exactly when the probabilities,
    and the loss, are.  Every product is a stack of 2-D products, so each
    model's gradient has the bits of its own out-of-place computation;
    subtracting a one-hot label leaves the other scores exact.
    """
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.tanh(acts[-1] @ w + b))
    w, b = layers[-1]
    scores = acts[-1] @ w + b
    expo = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    denominators = np.add.reduce(expo, axis=-1, keepdims=True)

    delta = (expo / denominators - onehot) / x.shape[1]
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grads[li]
        np.matmul(acts[li].swapaxes(1, 2), delta, out=gw)
        np.add.reduce(delta, axis=1, keepdims=True, out=gb)
        if li > 0:
            delta = delta @ weights_t[li]
            delta *= 1.0 - acts[li] ** 2
    return denominators


def _layers(spec: MlpSpec, flat: np.ndarray):
    """(weight (M, in, out), bias (M, 1, out)) views per layer of ``flat`` (M, d_model)."""
    return [(w, b[:, None]) for w, b in _unpack(spec, flat)]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 30
    batch: int = 32

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


def train_stack(spec: MlpSpec, init, sets, config: TrainConfig, seeds, names) -> np.ndarray:
    """Mini-batch SGD on softmax cross-entropy of M copies of ``init`` at once
    under ``config``: model i trains on ``sets[i]`` and errors call it
    ``names[i]``.  ``init`` is a (d_model,) row, rounded to float32 first;
    returns the float32 (M, d_model) rows of the trained models, each
    rounded from its float64 parameters.

    Model i draws its own permutation per epoch from ``rng_for(seeds[i],
    "train")``, so it is deterministic in its seed, and its batches from its
    own set.  The M models step together on a leading model axis: every
    product is a stack of 2-D products, each step writes the gradient into
    the layer views of one (M, d_model) float64 buffer and updates the (M,
    d_model) float64 parameters with that whole buffer in place, so model i
    ends with the bits of training it alone.  Unequal set sizes, or not one
    set, seed and name per model, raise ``StructureError``; an empty set or
    a non-finite ``init`` raises ``DomainError``.

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
    if not 0 < count == len(seeds) == len(names):
        raise StructureError(f"need one set, seed and name per model, got {count}, "
                             f"{len(seeds)} and {len(names)}")
    if len({data.n for data in sets}) > 1:
        raise StructureError(f"stacked sets differ in size: {[data.n for data in sets]}")
    for data, name in zip(sets, names):
        _check_data(spec, data)
        if data.n == 0:
            raise DomainError(f"{name}: empty training set")
    if config.epochs == 0:
        return np.repeat(init[None], count, axis=0)
    rngs = [rng_for(seed, "train") for seed in seeds]
    x = np.stack([data.inputs for data in sets])
    onehot = np.stack([np.eye(spec.widths[-1])[data.labels] for data in sets])
    flat = np.repeat(init[None].astype(np.float64), count, axis=0)
    layers = _layers(spec, flat)
    weights_t = [w.swapaxes(1, 2) for w, _ in layers]
    # every step writes its gradient into ``grad`` through its layer views
    grad = np.empty_like(flat)
    grads = _layers(spec, grad)
    models = np.arange(count)[:, None]
    n = sets[0].n
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = np.stack([rng.permutation(n) for rng in rngs])
            xs, ys = x[models, order], onehot[models, order]
            for lo in range(0, n, config.batch):
                batch = slice(lo, lo + config.batch)
                denominators = _backprop(layers, weights_t, xs[:, batch], ys[:, batch], grads)
                # finite exactly when the loss is (see ``_backprop``)
                if not np.isfinite(denominators).all():
                    i = int(np.argmin(np.isfinite(denominators).all(axis=(1, 2))))
                    raise TrainingDiverged(f"{names[i]}, epoch {epoch}: loss became nan")
                grad *= config.lr
                flat -= grad
            inside = (np.abs(flat) <= _F32_MAX).all(axis=1)
            if not inside.all():
                i = int(np.argmin(inside))
                raise TrainingDiverged(
                    f"{names[i]}, epoch {epoch}: parameters left the float32 range")
    return flat.astype(np.float32)

