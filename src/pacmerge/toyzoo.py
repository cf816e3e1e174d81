"""Synthetic multi-task data and a small feed-forward classifier.

Tasks are Gaussian class-mean mixtures whose means share a controllable
amount of structure across tasks, so that models fine-tuned on related tasks
genuinely help a held-out task when merged.  The classifier is a plain MLP
trained with mini-batch SGD on softmax cross-entropy; certification only ever
sees its 0-1 loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError, TrainingDiverged
from .params import ParamVector
from .seeding import rng_for

_ACTIVATIONS = ("tanh", "relu", "identity")

# (draw, input) rows per scored block in ``error_counts``.  On 100,000-row
# sets 4,096 was the fastest budget tried: smaller blocks pay more per-block
# overhead, larger ones leave the cache.
_ROW_BUDGET = 4096


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


def sample_set(task: SyntheticTask, n: int, seed: int) -> LabeledSet:
    """n i.i.d. draws from the task, deterministic in (task, n, seed)."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    rng = rng_for(task.label_seed, "sample", seed)
    labels = rng.integers(0, task.class_count, size=n)
    noise = rng.standard_normal((n, task.input_dim))
    inputs = task.class_means[labels] + task.noise_scale * noise
    return LabeledSet(inputs, labels)


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


def init_params(spec: MlpSpec, seed: int) -> ParamVector:
    """Gaussian fan-in-scaled weights, zero biases."""
    rng = rng_for(seed, "init")
    chunks = []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        chunks.append(rng.standard_normal(fan_in * fan_out) / np.sqrt(fan_in))
        chunks.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(chunks), spec.layer_offsets())


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


def _activate(spec: MlpSpec, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if spec.activation == "tanh":
        return np.tanh(z, out=out)
    if spec.activation == "relu":
        return np.maximum(z, 0.0, out=out)
    return z


def _scores(spec: MlpSpec, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class scores (k, n, classes) under each row of the float64 ``thetas``.

    One row runs plain 2-D products.  k rows run stacked products, each slice
    the same 2-D product, so a row's scores do not depend on its batch.  Bias
    and activation update each fresh product in place, with the bits of the
    out-of-place ``act(h @ w + b)``; ``thetas`` and ``x`` are only read.
    """
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    layers = _unpack(spec, thetas[0] if len(thetas) == 1 else thetas)
    for w, b in layers[:-1]:
        h = h @ w
        h += b[..., None, :]
        _activate(spec, h, out=h)
    w, b = layers[-1]
    scores = h @ w
    scores += b[..., None, :]
    return scores if scores.ndim == 3 else scores[None]


def error_counts(spec: MlpSpec, thetas: np.ndarray, data: LabeledSet) -> np.ndarray:
    """Misclassified inputs of ``data`` under each row of ``thetas`` (k, d_model).

    Scores blocks of at most ``_ROW_BUDGET`` (draw, input) rows: sets of up to
    ``_ROW_BUDGET`` inputs stack ``_ROW_BUDGET // n`` draws per block, larger
    sets take one draw and row tiles of ``_ROW_BUDGET`` inputs, and the int64
    counts of a draw are summed over its tiles.  A row's scores do not depend
    on the other draws of its block.  A tile's product can differ from the
    full-height product in the last bit: on OpenBLAS 0.3.31, tiles of 8 rows
    or more reproduce the full product's bits except for a final layer of 3-4
    outputs on 100,000 rows, where no prediction changed.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != spec.d_model:
        raise StructureError(f"thetas has shape {thetas.shape}, spec needs (k, {spec.d_model})")
    x, y = data.inputs, data.labels
    counts = np.zeros(len(thetas), dtype=np.int64)
    draws = max(1, _ROW_BUDGET // max(data.n, 1))
    for lo in range(0, len(thetas), draws):
        for start in range(0, data.n, _ROW_BUDGET):
            tile = slice(start, start + _ROW_BUDGET)
            predicted = np.argmax(_scores(spec, thetas[lo : lo + draws], x[tile]), axis=-1)
            counts[lo : lo + draws] += np.count_nonzero(predicted != y[tile], axis=-1)
    return counts


def forward(spec: MlpSpec, theta: ParamVector, x: np.ndarray) -> np.ndarray:
    """Class scores, one row per input; deterministic."""
    if theta.size != spec.d_model:
        raise StructureError(f"theta has {theta.size} values, spec needs {spec.d_model}")
    return _scores(spec, theta.values[None].astype(np.float64), x)[0]


def predict(spec: MlpSpec, theta: ParamVector, x: np.ndarray) -> np.ndarray:
    """Argmax class per input; ties break toward the lowest class index."""
    return np.argmax(forward(spec, theta, x), axis=1)


def zero_one_risk(spec: MlpSpec, theta: ParamVector, data: LabeledSet) -> float:
    """(# misclassified) / n on a non-empty set."""
    if data.n == 0:
        raise DomainError("zero_one_risk needs a non-empty set")
    return float(error_counts(spec, theta.values[None], data)[0] / data.n)


def _loss_and_grad(spec: MlpSpec, flat: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy and its gradient w.r.t. the flat parameters."""
    layers = _unpack(spec, flat)
    acts = [np.atleast_2d(x)]
    pre = []
    h = acts[0]
    for w, b in layers[:-1]:
        z = h @ w + b
        pre.append(z)
        h = _activate(spec, z)
        acts.append(h)
    w, b = layers[-1]
    scores = h @ w + b

    shifted = scores - scores.max(axis=1, keepdims=True)
    expo = np.exp(shifted)
    probs = expo / expo.sum(axis=1, keepdims=True)
    n = x.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))

    dscores = probs.copy()
    dscores[np.arange(n), y] -= 1.0
    dscores /= n

    grads = [None] * len(layers)
    delta = dscores
    for li in range(len(layers) - 1, -1, -1):
        w, b = layers[li]
        gw = acts[li].T @ delta
        gb = delta.sum(axis=0)
        grads[li] = (gw, gb)
        if li > 0:
            delta = delta @ w.T
            if spec.activation == "tanh":
                delta = delta * (1.0 - acts[li] ** 2)
            elif spec.activation == "relu":
                delta = delta * (pre[li - 1] > 0)
    flat_grad = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return loss, flat_grad


def loss_and_grad(spec: MlpSpec, theta: ParamVector, data: LabeledSet):
    """Public hook for gradient checks: full-batch loss and flat gradient."""
    if theta.size != spec.d_model:
        raise StructureError(f"theta has {theta.size} values, spec needs {spec.d_model}")
    return _loss_and_grad(spec, theta.values.astype(np.float64), data.inputs, data.labels)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 30
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        if not self.lr > 0:
            raise DomainError("lr must be positive")
        if self.epochs < 0:
            raise DomainError("epochs must be >= 0")
        if self.batch < 1:
            raise DomainError("batch must be >= 1")


def train(spec: MlpSpec, init: ParamVector, data: LabeledSet, hyper: TrainConfig) -> ParamVector:
    """Mini-batch SGD on softmax cross-entropy; deterministic in hyper.seed.

    epochs=0 returns ``init`` unchanged.  Raises TrainingDiverged if the loss
    goes non-finite.
    """
    if init.size != spec.d_model:
        raise StructureError(f"init has {init.size} values, spec needs {spec.d_model}")
    if hyper.epochs == 0:
        return init
    rng = rng_for(hyper.seed, "train")
    flat = init.values.astype(np.float64)
    n = data.n
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, hyper.batch):
            idx = order[lo : lo + hyper.batch]
            loss, grad = _loss_and_grad(spec, flat, data.inputs[idx], data.labels[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss}")
            flat -= hyper.lr * grad
    if not np.all(np.isfinite(flat)):
        raise TrainingDiverged("parameters became non-finite")
    return ParamVector(flat.astype(np.float32), spec.layer_offsets())
