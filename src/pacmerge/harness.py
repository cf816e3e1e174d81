"""Experiment orchestration: configuration, scenarios, runs, and reports.

A configuration is a flat mapping of dotted key paths to typed values with a
canonical text form (sorted ``key = value`` lines) whose hash stamps every
output.  Shipped scenarios bundle defaults for the bundled study designs:

* ``paper-table1-toy``   - all four merge schemes under both objectives,
  reproducing the vacuity contrast between high- and low-dimensional schemes;
* ``paper-ddp``          - layer-wise merging with plain, bound-optimized,
  and data-dependent-prior certification;
* ``paper-gap-sweep``    - certified gap versus support size, with the
  half-validation comparison (``certify_point`` on one row, KL = 0);
* ``paper-discrete``     - finite-grid certificates (``certify_point`` on
  the grid) against the bound-optimized Gaussian-posterior baseline;
* ``validity-trial``     - repeated fresh-support trials checking that the
  certificate violation rate stays below delta: one pass fits every trial
  and certifies one posterior draw (``certify_gaussian``, no query), then
  one ``sample_counts`` call streams the population through the scorer,
  tile by tile, scoring every trial's draw, and sets each record's test
  error and violation;
* ``smoke``              - a seconds-scale end-to-end exercise for tests.

``run`` builds one world and is the only loop over the certified targets:
per target it builds the hold-one-out pool and extends its records from
``_run_validity`` for ``validity``, else from ``_run_target``.  ``_PLANS``
is the one statement of what a kind certifies (its schemes, and its methods
in record order); ``_METHODS`` maps each method to the ``objective.kind``
that selects it (none: it always runs) and to its certificate generator.
``_run_target`` walks support sizes x schemes x methods, keeping those
``merge.kind`` and ``objective.kind`` admit; ``make_config`` rejects a value
that admits none.  Seeds are keyed (index, scheme, method) for search and
evaluation, ("support", index) for the support and (index,) for a DDP split,
with n appended in a sweep: no certificate depends on which others run.
Every record comes from ``certify``'s ``certify_gaussian`` or
``certify_point``; this module computes no bound.  Runs are deterministic:
(config, seeds) fix every output bit, and every emitted bound is
re-validated against a recomputation before writing.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import zipfile
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import CertificateRecord, from_fields
from .certify import (OBJECTIVE_KINDS, CertifyConfig, certify, certify_gaussian, certify_point,
                      optimize)
from .cma import CmaConfig
from .errors import ConfigError, DomainError, FormatError, StructureError
from .merging import KINDS, MergeScheme, merged_values
from .params import ModelPool
from .posterior import MC_SAMPLES, RiskEstimator, slice_count
from .seeding import derive_seed, rng_for
from .toyzoo import (
    SGD,
    LabeledSet,
    MlpSpec,
    TrainConfig,
    gen_tasks,
    init_params,
    sample_counts,
    sample_set,
    train_stack,
)

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_KINDS = ("table", "ddp", "sweep", "discrete", "validity")
_OBJECTIVE_CHOICES = OBJECTIVE_KINDS + ("both",)
_MERGE_CHOICES = KINDS + ("all",)


def _choice(options):
    def parse(value):
        value = str(value)
        if value not in options:
            raise ValueError(f"must be one of {options}")
        return value

    return parse


def _bounded_float(lo, hi, lo_open=False, hi_open=False):
    def parse(value):
        if isinstance(value, (bool, np.bool_)):
            raise ValueError("must be a number, not a bool")
        value = float(value)
        # written so that NaN, which fails every comparison, is rejected
        if not lo <= value <= hi or (lo_open and value == lo) or (hi_open and value == hi):
            raise ValueError(f"must be in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}")
        return value

    return parse


def _int(value) -> int:
    """``int(value)``, refusing a bool and a number with a fractional part."""
    fractional = isinstance(value, (float, np.floating)) and not float(value).is_integer()
    if isinstance(value, (bool, np.bool_)) or fractional:
        raise ValueError("must be an integer")
    return int(value)


def _int_at_least(lo):
    def parse(value):
        value = _int(value)
        if value < lo:
            raise ValueError(f"must be >= {lo}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _int_list(lo, ascending=False):
    """Comma-separated ints, at least one, each >= lo, and strictly ascending
    if asked."""
    item = _int_at_least(lo)

    def parse(value):
        parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
        values = [item(part) for part in parts if str(part).strip()]
        if not values:
            raise ValueError("must list at least one value")
        if ascending and any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("must be strictly ascending")
        return values

    return parse


_SCHEMA: dict[str, tuple] = {
    # key: (parser, default)
    "scenario": (str, "custom"),
    "kind": (_choice(_KINDS), "table"),
    "seed": (_int_at_least(0), 7),
    "tasks.count": (_int_at_least(2), 6),
    "tasks.input_dim": (_positive_int, 16),
    "tasks.class_count": (_int_at_least(2), 4),
    "tasks.relatedness": (_bounded_float(0.0, 1.0), 0.8),
    "tasks.noise_scale": (_bounded_float(0.0, 1e9, lo_open=True), 2.0),
    "model.hidden": (_positive_int, 32),
    "pool.base_n": (_positive_int, 200),
    "pool.base_epochs": (_int_at_least(0), 30),
    "pool.ft_n": (_positive_int, 300),
    "pool.ft_epochs": (_int_at_least(0), 25),
    "certify.n": (_int_at_least(2), 100),
    "certify.targets": (_positive_int, 5),
    "merge.kind": (_choice(_MERGE_CHOICES), "all"),
    "merge.trim_fraction": (_bounded_float(0.0, 1.0, lo_open=True), 0.2),
    "objective.kind": (_choice(_OBJECTIVE_CHOICES), "both"),
    "posterior.variance": (_bounded_float(0.0, 1e9, lo_open=True), 0.05),
    "prior.variance": (_bounded_float(0.0, 1e9, lo_open=True), 0.05),
    "bound.delta": (_bounded_float(0.0, 1.0, lo_open=True, hi_open=True), 0.05),
    "cma.max_evals": (_positive_int, 2000),
    "ddp.split": (_bounded_float(0.0, 1.0, lo_open=True, hi_open=True), 0.5),
    "ddp.prior_objective": (_choice(OBJECTIVE_KINDS), "train_risk"),
    "sweep.n_list": (_int_list(4, ascending=True), [100, 500, 1000, 2000, 4000]),
    "discrete.grid_sizes": (_int_list(2), [20, 40, 60, 80, 100]),
    "eval.query_n": (_positive_int, 2000),
    "validity.trials": (_positive_int, 200),
    "validity.population": (_positive_int, 100000),
    "validity.grid": (_positive_int, 41),
}

# Keys that determine the source-model pool; pool caching hashes these, the
# SGD constants ``toyzoo.SGD`` and ``__version__``, so a release or an SGD
# edit that trains differently builds its own pool.
_POOL_KEYS = ("seed",) + tuple(
    k for k in _SCHEMA if k.startswith(("tasks.", "model.", "pool."))
)

# kind -> (the schemes it merges, its methods in record order; see _METHODS).
# validity's plan only validates its config; _run_validity runs it.
_PLANS = {
    "table": (KINDS, OBJECTIVE_KINDS),
    "ddp": (KINDS, OBJECTIVE_KINDS + ("ddp",)),
    "sweep": (KINDS, ("ddp", "half_val", "pac_bayes_upper")),
    "discrete": (("task_arith",), ("pac_bayes_upper", "grid")),
    "validity": (("task_arith",), ("train_risk",)),
}


SCENARIOS: dict[str, dict] = {
    "paper-table1-toy": {"kind": "table", "merge.kind": "all", "objective.kind": "both"},
    "paper-ddp": {"kind": "ddp", "merge.kind": "layer_wise"},
    "paper-gap-sweep": {"kind": "sweep", "merge.kind": "task_wise", "cma.max_evals": 800},
    "paper-discrete": {"kind": "discrete", "merge.kind": "task_arith", "cma.max_evals": 800},
    "validity-trial": {
        "kind": "validity",
        "tasks.count": 4,
        "tasks.input_dim": 8,
        "tasks.class_count": 3,
        "model.hidden": 16,
        "pool.base_n": 150,
        "pool.ft_n": 150,
        "pool.base_epochs": 20,
        "pool.ft_epochs": 15,
        "certify.targets": 1,
    },
    "smoke": {
        "kind": "table",
        "merge.kind": "task_arith",
        "objective.kind": "both",
        "tasks.count": 3,
        "tasks.input_dim": 8,
        "model.hidden": 8,
        "pool.base_n": 60,
        "pool.ft_n": 60,
        "pool.base_epochs": 10,
        "pool.ft_epochs": 8,
        "certify.n": 40,
        "certify.targets": 2,
        "eval.query_n": 200,
        "cma.max_evals": 60,
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated flat configuration with a canonical hash."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical(self) -> str:
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, list):
                text = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]

    @property
    def pool_hash(self) -> str:
        lines = [f"version = {__version__}"]
        lines += [f"sgd.{key} = {value!r}" for key, value in sorted(SGD.items())]
        lines += [line for line in self.canonical().splitlines()
                  if line.partition(" = ")[0] in _POOL_KEYS]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def make_config(scenario: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Assemble defaults <- scenario preset <- overrides, validating each key."""
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    merged: dict = {}
    if scenario not in (None, "custom"):  # a config with no preset writes "custom"
        if scenario not in SCENARIOS:
            raise ConfigError("scenario", f"unknown scenario {scenario!r}; "
                              f"known: {sorted(SCENARIOS)}")
        merged.update(SCENARIOS[scenario])
        merged["scenario"] = scenario
    if overrides:
        merged.update(overrides)
    for key, raw in merged.items():
        if key not in _SCHEMA:
            raise ConfigError(key, "unknown configuration key")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(key, f"invalid value {raw!r}: {exc}") from exc
    # every kind certifies a Gaussian, and gaussian_kl needs this ratio in the float range
    if not 0 < values["posterior.variance"] / values["prior.variance"] < np.inf:
        raise ConfigError("prior.variance", "posterior / prior variance ratio is not in (0, inf)")
    if values["certify.targets"] > values["tasks.count"]:
        raise ConfigError("certify.targets", "more targets than generated tasks")
    schemes, methods = _PLANS[values["kind"]]
    objectives = dict.fromkeys(_METHODS[m][0] for m in methods if _METHODS[m][0])
    for key, certifiable in (("merge.kind", (*schemes, "all")),
                             ("objective.kind", (*objectives, "both"))):
        if values[key] not in certifiable:
            raise ConfigError(key, f"must be one of {certifiable} for kind = {values['kind']}")
    if values["kind"] == "validity" and values["certify.targets"] != 1:
        raise ConfigError("certify.targets", "must be 1 for kind = validity")
    if values["kind"] == "ddp" and values["certify.n"] < 4:
        raise ConfigError("certify.n", "must be >= 4 for kind = ddp, so both halves have >= 2")
    return ExperimentConfig(dict(sorted(values.items())))


def load_config_file(path, scenario: str | None = None,
                     overrides: dict | None = None) -> ExperimentConfig:
    """Parse a ``key = value`` file (# comments allowed) into a config; a key
    set twice raises ``ConfigError`` naming the second line.  ``scenario``
    names the preset when the file has no ``scenario`` line; one that differs
    from the file's raises ``ConfigError("scenario", ...)``.  ``overrides``
    win over the file's lines before any value is parsed, as in
    ``make_config``, so a file line they replace is never read."""
    lines: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}", f"expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"{path}:{lineno}", f"key {key!r} is set twice")
        lines[key] = value.strip()
    named = lines.pop("scenario", scenario)
    if scenario not in (None, named):
        raise ConfigError("scenario", f"{path} sets scenario {named!r}, not {scenario!r}")
    return make_config(named, {**lines, **(overrides or {})})


# ---------------------------------------------------------------------------
# World building (tasks, pool, classifier)
# ---------------------------------------------------------------------------


@dataclass
class World:
    tasks: list
    pool: ModelPool
    model_spec: MlpSpec


def build_world(config: ExperimentConfig, cache_dir: Path | None = None) -> World:
    """Generate tasks and train the source-model pool.

    The base model trains on a mixture of every task's data; each member is
    the base fine-tuned on one task.  Each stage trains for its
    ``pool.*_epochs`` under ``toyzoo.SGD``: in batches of its ``batch`` rows,
    the base at learning rate ``base_lr`` and the members at ``ft_lr``.  All
    members fine-tune in one ``train_stack`` call, each with its own
    shuffling seed and the bits of training it alone, so the pool bytes do
    not depend on the stacking.  A diverging model raises ``TrainingDiverged``
    naming "base" or the member's task id.

    When ``cache_dir`` is given, the pool is cached as one float32 array,
    the base row over the member rows, in ``<cache_dir>/<pool hash>.npz``;
    the pool hash covers every key the tasks, the model and the pool depend
    on, ``toyzoo.SGD`` and ``__version__``.  Task ids and layer offsets come
    from the config, so the file holds only the numbers.  A later run of the same
    release reloads the pool bit-exactly; a damaged or mismatched file is a
    ``FormatError``.  The file is written under a temporary name and renamed,
    so a killed run leaves no half-written cache.
    """
    seed = config["seed"]
    tasks = gen_tasks(
        derive_seed(seed, "tasks"),
        config["tasks.count"],
        config["tasks.input_dim"],
        config["tasks.class_count"],
        config["tasks.relatedness"],
        config["tasks.noise_scale"],
    )
    spec = MlpSpec((config["tasks.input_dim"], config["model.hidden"],
                    config["tasks.class_count"]))

    task_ids, offsets = [task.task_id for task in tasks], spec.layer_offsets()
    cache = None if cache_dir is None else Path(cache_dir) / f"{config.pool_hash}.npz"
    if cache is not None and cache.exists():
        return World(tasks, _load_pool(cache, task_ids, offsets), spec)

    mixture_parts = [
        sample_set(task, config["pool.base_n"], derive_seed(seed, "base-data", i))
        for i, task in enumerate(tasks)
    ]
    mixture = LabeledSet(
        np.concatenate([part.inputs for part in mixture_parts]),
        np.concatenate([part.labels for part in mixture_parts]),
    )
    (base,) = train_stack(
        spec,
        init_params(spec, derive_seed(seed, "base-init")),
        [mixture],
        TrainConfig(SGD["base_lr"], config["pool.base_epochs"]),
        [derive_seed(seed, "base-train")],
        ["base"],
    )
    tuned = train_stack(
        spec,
        base,
        [sample_set(task, config["pool.ft_n"], derive_seed(seed, "ft-data", i))
         for i, task in enumerate(tasks)],
        TrainConfig(SGD["ft_lr"], config["pool.ft_epochs"]),
        [derive_seed(seed, "ft-train", i) for i in range(len(tasks))],
        task_ids,
    )
    # one rounding of the float64 difference; an overflow fails the pool's finite check
    with np.errstate(over="ignore"):
        deltas = (tuned.astype(np.float64) - base.astype(np.float64)).astype(np.float32)
    pool = ModelPool(base, deltas, task_ids, offsets)
    if cache is not None:
        cache.parent.mkdir(parents=True, exist_ok=True)
        partial = cache.with_name(cache.name + ".tmp")
        try:
            with open(partial, "wb") as fh:
                np.savez(fh, rows=np.vstack([pool.base[None], pool.deltas]))
            os.replace(partial, cache)
        finally:  # a failed write leaves no partial file; after the rename there is none
            partial.unlink(missing_ok=True)
    return World(tasks, pool, spec)


def _load_pool(path, task_ids, offsets) -> ModelPool:
    """The pool ``build_world`` cached at ``path``; the zip container's CRC-32
    catches a damaged file, and every failure is a ``FormatError``."""
    try:
        with np.load(path) as cached:
            rows = cached["rows"]
        if rows.dtype != np.float32 or rows.ndim != 2 or not len(rows):
            raise ValueError(f"rows are {rows.dtype} {rows.shape}, not float32 (1 + M, P)")
        return ModelPool(rows[0], rows[1:], task_ids, offsets)
    except (OSError, EOFError, KeyError, ValueError, NotImplementedError, zipfile.BadZipFile,
            StructureError, DomainError) as exc:
        raise FormatError(f"cannot load cached pool {path}: {exc}") from exc


def _certify_config(config, *key) -> CertifyConfig:
    return CertifyConfig(
        posterior_variance=config["posterior.variance"],
        prior_variance=config["prior.variance"],
        delta=config["bound.delta"],
        cma=CmaConfig(max_evals=config["cma.max_evals"],
                      seed=derive_seed(config["seed"], "cma", *key)),
        eval_seed=derive_seed(config["seed"], "eval", *key),
    )


# ---------------------------------------------------------------------------
# Run records and reports
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    config: dict
    config_hash: str
    version: str
    wall_time_s: float
    records: list

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["records"] = [r.to_dict() for r in self.records]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        record = from_fields(cls, data)
        if not re.fullmatch("[0-9a-f]{16}", record.config_hash):
            raise FormatError(
                f"config_hash must be 16 lowercase hex digits, got {record.config_hash!r}")
        record.records = [CertificateRecord.from_dict(r) for r in record.records]
        return record


REPORT_COLUMNS = (
    "task", "scheme", "objective", "n", "train_error", "test_error",
    "pb_bound", "upper_bound", "kl", "certified_gap", "vacuous",
)


def _row(record: CertificateRecord) -> list[str]:
    def fmt(value):
        return "" if value is None else f"{value:.6f}"

    return [
        record.task_id,
        record.scheme,
        record.objective,
        str(record.n),
        fmt(record.train_error),
        fmt(record.test_error),
        fmt(record.pb_bound),
        fmt(record.upper_bound),
        fmt(record.kl_qp),
        fmt(record.certified_gap),
        "true" if record.vacuous else "false",
    ]


def report_text(record: RunRecord, fmt: str) -> str:
    """Render a run as csv, json, or md; stable column order either way."""
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        lines.extend(",".join(_row(r)) for r in record.records)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt == "md":
        best: dict[str, float] = {}
        for r in record.records:
            current = best.get(r.task_id)
            if current is None or r.pb_bound < current:
                best[r.task_id] = r.pb_bound
        bold = REPORT_COLUMNS.index("pb_bound")
        lines = [
            "| " + " | ".join(REPORT_COLUMNS) + " |",
            "|" + "|".join("---" for _ in REPORT_COLUMNS) + "|",
        ]
        for r in record.records:
            cells = _row(r)
            if r.pb_bound == best[r.task_id]:
                cells[bold] = f"**{cells[bold]}**"
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise FormatError(f"unknown report format {fmt!r}")


def write_report(record: RunRecord, fmt: str, out_dir, stem: str) -> Path:
    text = report_text(record, fmt)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.{fmt}"
    path.write_text(text, encoding="utf-8")
    return path


def load_record(path) -> RunRecord:
    """A stored run record, loaded by ``RunRecord.from_dict`` and each
    certificate re-derived by ``validate``.

    ``FormatError`` is raised for bytes that are not UTF-8 JSON, for a record
    or certificate whose keys are not exactly its dataclass fields or whose
    values do not have their fields' JSON types (``bounds.from_fields``), for a
    config hash that is not 16 lowercase hex digits, and for a certificate
    that does not re-derive."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = RunRecord.from_dict(json.load(fh))
        for certificate in record.records:
            certificate.validate()
        return record
    except (OSError, ValueError, OverflowError, AssertionError) as exc:
        raise FormatError(f"cannot load run record: {exc}") from exc


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _fit(objective_kind):
    """The method that certifies a Gaussian posterior fitted to the support
    under ``objective_kind``."""
    def method(config, spec, task, key, scheme, support, query, cfg):
        yield certify(scheme, objective_kind, support, query, spec, cfg, task_id=task.task_id)

    return method


def _ddp(config, spec, task, key, scheme, support, query, cfg):
    """Data-dependent prior (Perez-Ortiz et al. 2021, arXiv:2007.12911): a
    seeded shuffle cuts the support into half A (``ddp.split`` of it, each
    half >= 2 rows) and half B; a search under ``ddp.prior_objective`` on A
    fits the prior mean, and ``certify`` bound-optimizes and certifies on B
    alone, so n = |B|.  The prior is a function of A and the seeds only, so
    it is fixed before B is seen, as a PAC-Bayes prior must be for the
    certificate on B.  Provenance adds the split and the prior search."""
    n, split, prior_objective = support.n, config["ddp.split"], config["ddp.prior_objective"]
    split_seed = derive_seed(config["seed"], "ddp-split", *key)
    order = rng_for(split_seed, "ddp-split").permutation(n)
    cut = min(max(round(split * n), 2), n - 2)
    half_a, half_b = support.subset(np.sort(order[:cut])), support.subset(np.sort(order[cut:]))
    prior_cfg = replace(cfg, cma=replace(cfg.cma, seed=derive_seed(cfg.cma.seed, "ddp-prior")))
    prior = optimize(scheme, prior_objective, half_a, spec, prior_cfg)
    record = certify(scheme, "pac_bayes_upper", half_b, query, spec, cfg, task_id=task.task_id,
                     prior_mean=prior.x_best, objective_label="ddp")
    record.provenance.update({
        "ddp_split_fraction": split, "ddp_split_seed": split_seed,
        "ddp_prior_objective": prior_objective, "ddp_prior_n": half_a.n,
        "ddp_prior_evals": prior.evals, "ddp_prior_stop": prior.stop,
        "ddp_prior_sigma": prior.sigma, "ddp_prior_slices": slice_count(half_a.n, MC_SAMPLES),
    })
    yield record


def _half_val(config, spec, task, key, scheme, support, query, cfg):
    """Fit on the first half of the support, a test-set bound on the rest."""
    half = support.n // 2
    fit = optimize(scheme, "train_risk", support.subset(np.arange(half)), spec, cfg)
    yield certify_point(scheme, fit.x_best[None], support.subset(np.arange(half, support.n)),
                        query, spec, cfg.delta, task.task_id, "half_val",
                        {"train_half_n": half, "evals": fit.evals, "search_stop": fit.stop,
                         "search_sigma": fit.sigma,
                         "search_slices": slice_count(half, MC_SAMPLES)})


def _grid(config, spec, task, key, scheme, support, query, cfg):
    """Per grid size G, the best of G evenly spaced coefficients in [0, 1]
    (KL = ln G)."""
    for grid_size in config["discrete.grid_sizes"]:
        yield certify_point(scheme, np.linspace(0.0, 1.0, grid_size)[:, None], support, query,
                            spec, cfg.delta, task.task_id, "discrete", {"grid_size": grid_size})


# method -> (the objective.kind that selects it, or None if it always runs;
# a generator of its certificates for one support and scheme)
_METHODS = {
    "train_risk": ("train_risk", _fit("train_risk")),
    "pac_bayes_upper": ("pac_bayes_upper", _fit("pac_bayes_upper")),
    "ddp": (None, _ddp),
    "half_val": (None, _half_val),
    "grid": (None, _grid),
}


def _run_target(config, spec, index, task, subpool):
    """One target's records: per support size (each of ``sweep.n_list`` for
    ``sweep``, else ``certify.n``), scheme and method of the kind's plan that
    ``merge.kind`` and ``objective.kind`` admit; one query set for all."""
    plan_schemes, plan_methods = _PLANS[config["kind"]]
    seed, objective = config["seed"], config["objective.kind"]
    query = sample_set(task, config["eval.query_n"], derive_seed(seed, "query", index))
    schemes = [MergeScheme(kind, subpool, config["merge.trim_fraction"])
               for kind in plan_schemes if config["merge.kind"] in (kind, "all")]
    methods = [m for m in plan_methods
               if objective == "both" or _METHODS[m][0] in (None, objective)]
    sweep = config["kind"] == "sweep"
    for n in config["sweep.n_list"] if sweep else [config["certify.n"]]:
        size = (n,) if sweep else ()
        support = sample_set(task, n, derive_seed(seed, "support", index, *size))
        for scheme in schemes:
            for method in methods:
                cfg = _certify_config(config, index, scheme.kind, method, *size)
                yield from _METHODS[method][1](config, spec, task, (index, *size), scheme,
                                               support, query, cfg)


def _run_validity(config, spec, index, task, subpool):
    """Fresh-support trials of the certificate against near-exact risk.

    The hypothesis class (pool, grid, prior) is fixed once.  A fit pass
    draws each trial's fresh support set of ``certify.n`` rows, fits its
    merge coefficient mu by grid argmin of the Monte-Carlo train risk (all
    grid points in one ``risks`` call of the trial's ``RiskEstimator`` of
    ``MC_SAMPLES`` draws) and certifies one draw h of N(mu, posterior
    variance) with ``certify_gaussian``, on the draw stream
    ``(seed, "trial-draw", trial)`` and with no query.  One streamed pass
    over the population then scores every trial's h, each re-merged alone
    from its record so it is the row its certificate scored: one
    ``sample_counts`` call draws the population tile by tile into one buffer
    and scores each tile there, so one tile of inputs is alive at a time and
    each count is h's count on the whole population.  h's population error
    becomes its record's ``test_error``, and a violation when it exceeds the
    record's bound.
    """
    scheme = MergeScheme("task_arith", subpool)
    seed = config["seed"]
    grid = np.linspace(0.0, 2.0, config["validity.grid"])
    cfg = _certify_config(config)  # its search and evaluation seeds go unused
    n = config["certify.n"]

    records = []
    for trial in range(config["validity.trials"]):
        support = sample_set(task, n, derive_seed(seed, "trial-support", trial))
        risks = RiskEstimator(scheme, spec, support, cfg.posterior_variance, MC_SAMPLES,
                              derive_seed(seed, "trial-fit", trial)).risks(grid[:, None])
        mu = grid[int(np.argmin(risks))]
        records.append(certify_gaussian(scheme, np.array([mu]), support, None, spec, cfg,
                                        derive_seed(seed, "trial-draw", trial),
                                        f"trial{trial}", "validity", {}))

    thetas = np.concatenate([merged_values(scheme, np.array([r.provenance["draw"]]))
                             for r in records])
    population = config["validity.population"]
    errors = sample_counts(spec, thetas, task, population, derive_seed(seed, "population"))
    for record, count in zip(records, errors.tolist()):
        record.test_error = count / population
        record.provenance["violation"] = bool(record.test_error > record.pb_bound)
    return records


def run(config: ExperimentConfig, out_dir=None) -> RunRecord:
    """Execute a configured scenario and (optionally) write its reports.

    Builds the task set and pool once (cached as one ``.npz`` array in
    ``<out_dir>/pools`` when ``out_dir`` is given, see ``build_world``),
    then walks the first ``certify.targets`` tasks: per target it builds the
    hold-one-out pool and takes the records of ``_run_validity`` or
    ``_run_target``.  It re-validates every bound and writes
    ``<scenario>-<hash>.json`` plus ``.csv`` under ``out_dir``.
    """
    started = time.monotonic()
    cache_dir = Path(out_dir) / "pools" if out_dir is not None else None
    world = build_world(config, cache_dir)
    runner = _run_validity if config["kind"] == "validity" else _run_target
    records = []
    for index, task in enumerate(world.tasks[: config["certify.targets"]]):
        subpool = world.pool.without(task.task_id)
        records.extend(runner(config, world.model_spec, index, task, subpool))

    for record in records:
        record.validate()
        record.provenance.setdefault("config_hash", config.hash)

    run_record = RunRecord(
        config=dict(config.values),
        config_hash=config.hash,
        version=__version__,
        wall_time_s=time.monotonic() - started,
        records=records,
    )
    if out_dir is not None:
        stem = f"{config['scenario']}-{config.hash}"
        write_report(run_record, "json", out_dir, stem)
        write_report(run_record, "csv", out_dir, stem)
    return run_record
