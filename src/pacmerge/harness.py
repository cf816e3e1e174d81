"""Experiment orchestration: configuration, scenarios, runs, and reports.

A configuration is a flat mapping of dotted key paths to typed values with a
canonical text form (sorted ``key = value`` lines) whose hash stamps every
output.  Shipped scenarios bundle defaults for the bundled study designs:

* ``paper-table1-toy``   - all four merge schemes under both objectives,
  reproducing the vacuity contrast between high- and low-dimensional schemes;
* ``paper-ddp``          - layer-wise merging with plain, bound-optimized,
  and data-dependent-prior certification;
* ``paper-gap-sweep``    - certified gap versus support size, with the
  half-validation comparison;
* ``paper-discrete``     - finite-grid certificates against the continuous
  Gaussian-posterior baseline;
* ``validity-trial``     - repeated fresh-support trials checking that the
  certificate violation rate stays below delta;
* ``smoke``              - a seconds-scale end-to-end exercise for tests.

Each scenario kind has one runner in ``_RUNNERS``, called as
``runner(config, world)`` on the one world ``run`` builds; the runners that
certify held-out targets take them from ``_targets``.  Runs are
deterministic: (config, seeds) fix every output bit, and every emitted bound
is re-validated against a recomputation before writing.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import CertificateRecord, gaussian_kl, make_record
from .certify import (CertifyConfig, DdpConfig, certify, certify_ddp, certify_discrete,
                      default_prior, optimize)
from .cma import CmaConfig
from .errors import ConfigError, DomainError, FormatError
from .merging import KINDS, make_scheme, realize
from .params import ModelPool, axpy, pool_load, pool_save
from .posterior import GaussianSpec, mc_risk, mc_risks
from .seeding import derive_seed
from .toyzoo import (
    LabeledSet,
    MlpSpec,
    TrainConfig,
    gen_tasks,
    init_params,
    sample_set,
    train,
    train_stack,
    zero_one_risk,
)

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_KINDS = ("table", "ddp", "sweep", "discrete", "validity")
_OBJECTIVE_CHOICES = ("train_risk", "pac_bayes_upper", "both")
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
        value = float(value)
        if (value < lo or value > hi or (lo_open and value == lo)
                or (hi_open and value == hi)):
            raise ValueError(f"must be in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}")
        return value

    return parse


def _int_at_least(lo):
    def parse(value):
        value = int(value)
        if value < lo:
            raise ValueError(f"must be >= {lo}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _int_list(lo, ascending=False):
    """Comma-separated ints, each >= lo, and strictly ascending if asked."""
    item = _int_at_least(lo)

    def parse(value):
        parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
        values = [item(part) for part in parts if str(part).strip()]
        if ascending and any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("must be strictly ascending")
        return values

    return parse


def _popsize(value):
    value = int(value)
    if value != 0 and value < 4:
        raise ValueError("must be 0 (the default rule) or >= 4")
    return value


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
    "model.activation": (_choice(("tanh", "relu", "identity")), "tanh"),
    "pool.base_n": (_positive_int, 200),
    "pool.base_epochs": (_int_at_least(0), 30),
    "pool.base_lr": (_bounded_float(0.0, 1e9, lo_open=True), 0.05),
    "pool.ft_n": (_positive_int, 300),
    "pool.ft_epochs": (_int_at_least(0), 25),
    "pool.ft_lr": (_bounded_float(0.0, 1e9, lo_open=True), 0.02),
    "pool.batch": (_positive_int, 32),
    "certify.n": (_int_at_least(2), 100),
    "certify.targets": (_positive_int, 5),
    "merge.kind": (_choice(_MERGE_CHOICES), "all"),
    "merge.trim_fraction": (_bounded_float(0.0, 1.0, lo_open=True), 0.2),
    "objective.kind": (_choice(_OBJECTIVE_CHOICES), "both"),
    "posterior.variance": (_bounded_float(0.0, 1e9, lo_open=True), 0.05),
    "posterior.mc_samples": (_positive_int, 10),
    "prior.variance": (_bounded_float(0.0, 1e9, lo_open=True), 0.05),
    "bound.delta": (_bounded_float(0.0, 1.0, lo_open=True, hi_open=True), 0.05),
    "cma.popsize": (_popsize, 0),  # 0 -> 4 + floor(3 ln d)
    "cma.sigma0": (_bounded_float(0.0, 1e9, lo_open=True), 1.0),
    "cma.max_evals": (_positive_int, 2000),
    "ddp.split": (_bounded_float(0.0, 1.0, lo_open=True, hi_open=True), 0.5),
    "ddp.prior_objective": (_choice(("train_risk", "pac_bayes_upper")), "train_risk"),
    "sweep.n_list": (_int_list(4, ascending=True), [100, 500, 1000, 2000, 4000]),
    "discrete.grid_sizes": (_int_list(2), [20, 40, 60, 80, 100]),
    "eval.query_n": (_positive_int, 2000),
    "validity.trials": (_positive_int, 200),
    "validity.population": (_positive_int, 100000),
    "validity.n": (_int_at_least(2), 100),
    "validity.grid": (_positive_int, 41),
}

# Keys that determine the source-model pool; pool caching hashes only these.
_POOL_KEYS = ("seed",) + tuple(
    k for k in _SCHEMA if k.startswith(("tasks.", "model.", "pool."))
)


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
        lines = [f"{k} = {self.values[k]}" for k in sorted(_POOL_KEYS)]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def make_config(scenario: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Assemble defaults <- scenario preset <- overrides, validating each key."""
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    merged: dict = {}
    if scenario is not None:
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
    if values["certify.targets"] > values["tasks.count"]:
        raise ConfigError("certify.targets", "more targets than generated tasks")
    if values["kind"] == "ddp" and values["certify.n"] < 4:
        raise ConfigError("certify.n", "must be >= 4 for kind = ddp, so both halves have >= 2")
    return ExperimentConfig(dict(sorted(values.items())))


def load_config_file(path, scenario: str | None = None) -> ExperimentConfig:
    """Parse a ``key = value`` file (# comments allowed) into a config."""
    overrides: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}", f"expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        overrides[key.strip()] = value.strip()
    scenario = overrides.pop("scenario", scenario)
    return make_config(scenario, overrides)


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
    the base fine-tuned on one task.  All members fine-tune in one
    ``train_stack`` call, each with the bits of its own ``train`` call, so
    the pool bytes do not depend on the stacking.  A diverging model raises
    ``TrainingDiverged`` naming "base" or the member's task id.  When
    ``cache_dir`` is given the pool is persisted under its pool hash and
    reloaded bit-exactly on later runs.
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
    spec = MlpSpec(
        (config["tasks.input_dim"], config["model.hidden"], config["tasks.class_count"]),
        config["model.activation"],
    )

    pool_path = None
    if cache_dir is not None:
        pool_path = Path(cache_dir) / config.pool_hash
        if (pool_path / "manifest.json").exists():
            return World(tasks, pool_load(pool_path), spec)

    mixture_parts = [
        sample_set(task, config["pool.base_n"], derive_seed(seed, "base-data", i))
        for i, task in enumerate(tasks)
    ]
    mixture = LabeledSet(
        np.concatenate([part.inputs for part in mixture_parts]),
        np.concatenate([part.labels for part in mixture_parts]),
    )
    base = train(
        spec,
        init_params(spec, derive_seed(seed, "base-init")),
        mixture,
        TrainConfig(
            lr=config["pool.base_lr"],
            epochs=config["pool.base_epochs"],
            batch=config["pool.batch"],
            seed=derive_seed(seed, "base-train"),
        ),
        name="base",
    )
    tuned = train_stack(
        spec,
        base,
        [sample_set(task, config["pool.ft_n"], derive_seed(seed, "ft-data", i))
         for i, task in enumerate(tasks)],
        [
            TrainConfig(
                lr=config["pool.ft_lr"],
                epochs=config["pool.ft_epochs"],
                batch=config["pool.batch"],
                seed=derive_seed(seed, "ft-train", i),
            )
            for i in range(len(tasks))
        ],
        [task.task_id for task in tasks],
    )
    members = [(task.task_id, axpy(model, -1.0, base)) for task, model in zip(tasks, tuned)]
    pool = ModelPool(base, tuple(members))
    if pool_path is not None:
        pool_save(pool, pool_path)
    return World(tasks, pool, spec)


def _support(config, task, index) -> LabeledSet:
    return sample_set(task, config["certify.n"], derive_seed(config["seed"], "support", index))


def _query(config, task, index) -> LabeledSet:
    return sample_set(task, config["eval.query_n"], derive_seed(config["seed"], "query", index))


def _ddp_config(config, index, *key) -> DdpConfig:
    return DdpConfig(
        split_fraction=config["ddp.split"],
        prior_objective=config["ddp.prior_objective"],
        split_seed=derive_seed(config["seed"], "ddp-split", index, *key),
    )


def _certify_config(config, *key) -> CertifyConfig:
    popsize = config["cma.popsize"] or None
    return CertifyConfig(
        posterior_variance=config["posterior.variance"],
        prior_variance=config["prior.variance"],
        mc_samples=config["posterior.mc_samples"],
        delta=config["bound.delta"],
        cma=CmaConfig(
            popsize=popsize,
            sigma0=config["cma.sigma0"],
            max_evals=config["cma.max_evals"],
            seed=derive_seed(config["seed"], "cma", *key),
        ),
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
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "version": self.version,
            "wall_time_s": self.wall_time_s,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            config=data["config"],
            config_hash=data["config_hash"],
            version=data["version"],
            wall_time_s=data["wall_time_s"],
            records=[CertificateRecord.from_dict(r) for r in data["records"]],
        )


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
        lines = [
            "| " + " | ".join(REPORT_COLUMNS) + " |",
            "|" + "|".join("---" for _ in REPORT_COLUMNS) + "|",
        ]
        for r in record.records:
            cells = _row(r)
            if r.pb_bound == best[r.task_id]:
                cells[6] = f"**{cells[6]}**"
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
    """A stored run record, each certificate re-derived by ``validate``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = RunRecord.from_dict(json.load(fh))
        for certificate in record.records:
            certificate.validate()
        return record
    except (OSError, json.JSONDecodeError, KeyError, TypeError, AssertionError,
            DomainError) as exc:
        raise FormatError(f"cannot load run record: {exc}") from exc


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _scheme_list(config) -> tuple[str, ...]:
    return KINDS if config["merge.kind"] == "all" else (config["merge.kind"],)


def _objective_list(config) -> tuple[str, ...]:
    if config["objective.kind"] == "both":
        return ("train_risk", "pac_bayes_upper")
    return (config["objective.kind"],)


def _targets(config, world):
    """(index, task, hold-one-out pool, query set) per certified target."""
    for index in range(config["certify.targets"]):
        task = world.tasks[index]
        yield index, task, world.pool.without(task.task_id), _query(config, task, index)


def _run_table(config, world) -> list[CertificateRecord]:
    records = []
    for index, task, subpool, query in _targets(config, world):
        support = _support(config, task, index)
        for scheme_kind in _scheme_list(config):
            scheme = make_scheme(scheme_kind, subpool, config["merge.trim_fraction"])
            for objective_kind in _objective_list(config):
                cfg = _certify_config(config, index, scheme_kind, objective_kind)
                records.append(certify(scheme, objective_kind, support, query,
                                       world.model_spec, cfg, task_id=task.task_id))
    return records


def _run_ddp(config, world) -> list[CertificateRecord]:
    scheme_kind = config["merge.kind"] if config["merge.kind"] != "all" else "layer_wise"
    records = []
    for index, task, subpool, query in _targets(config, world):
        scheme = make_scheme(scheme_kind, subpool, config["merge.trim_fraction"])
        support = _support(config, task, index)
        for objective_kind in ("train_risk", "pac_bayes_upper"):
            cfg = _certify_config(config, index, scheme_kind, objective_kind)
            records.append(certify(scheme, objective_kind, support, query,
                                   world.model_spec, cfg, task_id=task.task_id))
        cfg = _certify_config(config, index, scheme_kind, "ddp")
        records.append(certify_ddp(scheme, support, _ddp_config(config, index),
                                   world.model_spec, cfg, query=query, task_id=task.task_id))
    return records


def _half_val_record(scheme, support, query, model_spec, cfg, task_id) -> CertificateRecord:
    """Train a deterministic merge on half the data, certify on the rest."""
    half = support.n // 2
    train_half = support.subset(np.arange(half))
    val_half = support.subset(np.arange(half, support.n))
    mu, _ = optimize(scheme, "train_risk", train_half, model_spec, cfg)
    model = realize(scheme, mu)
    val_error = zero_one_risk(model_spec, model, val_half)
    test = zero_one_risk(model_spec, model, query) if query is not None else None
    # a test-set bound: point-mass prior and posterior, so KL = 0
    return make_record(
        task_id, scheme.kind, "half_val", val_error, 0.0, val_half.n, cfg.delta,
        test_error=test, provenance={"train_half_n": train_half.n, "form": "pac"},
    )


def _run_sweep(config, world) -> list[CertificateRecord]:
    """Per (task, n): a DDP certificate, a half-validation test-set-bound
    certificate, and a full-data bound-optimized certificate."""
    scheme_kind = config["merge.kind"] if config["merge.kind"] != "all" else "task_wise"
    records = []
    for index, task, subpool, query in _targets(config, world):
        scheme = make_scheme(scheme_kind, subpool, config["merge.trim_fraction"])
        for n in config["sweep.n_list"]:
            support = sample_set(task, n, derive_seed(config["seed"], "support", index, n))
            cfg_ddp = _certify_config(config, index, scheme_kind, "ddp", n)
            records.append(certify_ddp(scheme, support, _ddp_config(config, index, n),
                                       world.model_spec, cfg_ddp, query=query,
                                       task_id=task.task_id))
            cfg_hv = _certify_config(config, index, scheme_kind, "half_val", n)
            records.append(_half_val_record(scheme, support, query, world.model_spec,
                                            cfg_hv, task.task_id))
            cfg_opt = _certify_config(config, index, scheme_kind, "pac_bayes_upper", n)
            records.append(certify(scheme, "pac_bayes_upper", support, query,
                                   world.model_spec, cfg_opt, task_id=task.task_id))
    return records


def _run_discrete(config, world) -> list[CertificateRecord]:
    records = []
    for index, task, subpool, query in _targets(config, world):
        support = _support(config, task, index)
        scheme = make_scheme("task_arith", subpool)
        cfg = _certify_config(config, index, "task_arith", "continuous")
        records.append(
            certify(scheme, "pac_bayes_upper", support, query, world.model_spec, cfg,
                    task_id=task.task_id, objective_label="continuous")
        )
        for grid_size in config["discrete.grid_sizes"]:
            cfg_d = _certify_config(config, index, "task_arith", "discrete", grid_size)
            records.append(
                certify_discrete(subpool, grid_size, support, world.model_spec, cfg_d,
                                 query=query, task_id=task.task_id)
            )
    return records


def _run_validity(config, world) -> list[CertificateRecord]:
    """Fresh-support trials of the certificate against near-exact risk.

    The hypothesis class (pool, grid, prior) is fixed once; each trial draws a
    fresh support set, fits the merge coefficient by grid argmin of the
    Monte-Carlo train risk (all grid points in one ``mc_risks`` call),
    certifies it, and compares against the risk on a large query set.
    """
    task = world.tasks[0]
    subpool = world.pool.without(task.task_id)
    scheme = make_scheme("task_arith", subpool)
    seed = config["seed"]
    grid = np.linspace(0.0, 2.0, config["validity.grid"])
    population = sample_set(task, config["validity.population"], derive_seed(seed, "population"))
    delta = config["bound.delta"]
    variance = config["posterior.variance"]
    k = config["posterior.mc_samples"]
    prior = default_prior(scheme, config["prior.variance"])
    n = config["validity.n"]

    def one_trial(trial: int) -> CertificateRecord:
        support = sample_set(task, n, derive_seed(seed, "trial-support", trial))
        fit_seed = derive_seed(seed, "trial-fit", trial)
        risks = mc_risks(grid[:, None], variance, scheme, world.model_spec, support, k,
                         fit_seed)
        mu = float(grid[int(np.argmin(risks))])
        q = GaussianSpec(np.array([mu]), variance)
        true_risk = mc_risk(q, scheme, world.model_spec, population, k,
                            derive_seed(seed, "trial-test", trial))
        record = make_record(
            f"trial{trial}", scheme.kind, "validity", float(np.min(risks)),
            gaussian_kl(q, prior), n, delta, test_error=true_risk, provenance={"mu": mu},
        )
        record.provenance["violation"] = bool(true_risk > record.pb_bound)
        return record

    return [one_trial(t) for t in range(config["validity.trials"])]


# One runner per scenario kind, each ``(config, world) -> records``.
_RUNNERS = {
    "table": _run_table,
    "ddp": _run_ddp,
    "sweep": _run_sweep,
    "discrete": _run_discrete,
    "validity": _run_validity,
}


def run(config: ExperimentConfig, out_dir=None) -> RunRecord:
    """Execute a configured scenario and (optionally) write its reports.

    Builds the task set and pool once (disk-cached by pool hash when
    ``out_dir`` is given), hands that world to the runner ``_RUNNERS`` holds
    for ``config["kind"]``, re-validates every bound it returns, and writes
    ``<scenario>-<hash>.json`` plus ``.csv`` under ``out_dir``.
    """
    started = time.monotonic()
    cache_dir = Path(out_dir) / "pools" if out_dir is not None else None
    world = build_world(config, cache_dir)
    records = _RUNNERS[config["kind"]](config, world)

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
