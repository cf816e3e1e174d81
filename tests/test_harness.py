import argparse
import hashlib
import importlib.util
import json
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacmerge
import pacmerge.harness as harness
import pacmerge.toyzoo as toyzoo
from pacmerge import (ConfigError, FormatError, TrainConfig, TrainingDiverged, bernoulli_kl,
                      budget, optimize, sample_set, train_stack)
from pacmerge.cli import _EXIT_2, _config_from_args, main
from pacmerge.harness import (
    SCENARIOS,
    RunRecord,
    build_world,
    load_config_file,
    load_record,
    make_config,
    report_text,
    run,
    write_report,
)
from pacmerge.bounds import make_record
from pacmerge.harness import _run_validity
from pacmerge.merging import KINDS, MergeScheme, default_phi, merged_values
from pacmerge.posterior import MC_SAMPLES, RiskEstimator
from pacmerge.seeding import derive_seed, rng_for
from pacmerge.toyzoo import error_counts
from pacmerge.toyzoo import _ROW_BUDGET as R


# kind -> the merge.kind and objective.kind values it certifies
EVERY_SCHEME = {"task_arith", "ties", "task_wise", "layer_wise", "all"}
ACCEPTED = {
    "table": {"merge.kind": EVERY_SCHEME,
              "objective.kind": {"train_risk", "pac_bayes_upper", "both"}},
    "ddp": {"merge.kind": EVERY_SCHEME,
            "objective.kind": {"train_risk", "pac_bayes_upper", "both"}},
    "sweep": {"merge.kind": EVERY_SCHEME, "objective.kind": {"pac_bayes_upper", "both"}},
    "discrete": {"merge.kind": {"task_arith", "all"},
                 "objective.kind": {"pac_bayes_upper", "both"}},
    "validity": {"merge.kind": {"task_arith", "all"}, "objective.kind": {"train_risk", "both"}},
}


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = make_config("smoke", {"seed": 99})
        assert cfg["seed"] == 99
        assert cfg["scenario"] == "smoke"
        assert cfg["bound.delta"] == 0.05

    def test_unknown_key_names_path(self):
        with pytest.raises(ConfigError) as err:
            make_config(None, {"bogus.key": 1})
        assert err.value.path == "bogus.key"

    def test_invalid_value_names_path(self):
        with pytest.raises(ConfigError) as err:
            make_config(None, {"bound.delta": "1.5"})
        assert err.value.path == "bound.delta"

    # keys that no longer exist, each set to the one value it had in use: the
    # classifier is tanh only; the search population is always 4 + floor(3
    # ln d), its step size starts at 1 and its estimates take 10 draws; the
    # pool trains in batches of 32 at learning rates 0.05 and 0.02; and a
    # validity trial's support has certify.n rows
    @pytest.mark.parametrize("key,value", [
        ("model.activation", "tanh"), ("cma.popsize", 0), ("cma.sigma0", 1.0),
        ("posterior.mc_samples", 10), ("pool.batch", 32), ("pool.base_lr", 0.05),
        ("pool.ft_lr", 0.02), ("validity.n", 100),
    ])
    def test_removed_key_names_path(self, key, value):
        with pytest.raises(ConfigError, match="unknown configuration key") as err:
            make_config(None, {key: value})
        assert err.value.path == key

    @pytest.mark.parametrize("key,value", [
        ("pool.base_epochs", -1), ("pool.ft_epochs", -3),
        # a bool or a fractional number is not an integer, though int() takes it
        ("cma.max_evals", 2.9), ("validity.trials", 1.5), ("sweep.n_list", [100.7, 200]),
        ("certify.targets", True), ("seed", np.bool_(True)),
        ("cma.max_evals", float("inf")), ("cma.max_evals", float("nan")),
        ("cma.max_evals", np.float64("inf")),
    ])
    def test_bad_search_and_training_values_name_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            make_config(None, {key: value})
        assert err.value.path == key

    @pytest.mark.parametrize("key", [key for key, (_, default) in harness._SCHEMA.items()
                                     if isinstance(default, float)])
    def test_nan_float_names_key(self, key):
        with pytest.raises(ConfigError) as err:
            make_config(None, {key: "nan"})
        assert err.value.path == key

    # float() takes a bool as 0.0 or 1.0
    @pytest.mark.parametrize("key,value", [
        *[(key, True) for key, (_, default) in harness._SCHEMA.items()
          if isinstance(default, float)],
        ("tasks.relatedness", False), ("tasks.noise_scale", np.bool_(True)),
    ])
    def test_bool_float_names_key(self, key, value):
        with pytest.raises(ConfigError, match="not a bool") as err:
            make_config(None, {key: value})
        assert err.value.path == key

    @pytest.mark.parametrize("overrides,key", [
        ({"certify.n": 1}, "certify.n"),
        ({"kind": "ddp", "certify.n": 3}, "certify.n"),
        ({"kind": "validity", "certify.n": 1}, "certify.n"),
        ({"discrete.grid_sizes": "5,1"}, "discrete.grid_sizes"),
        ({"seed": -1}, "seed"),
        ({"tasks.count": 1, "certify.targets": 1}, "tasks.count"),
        ({"tasks.class_count": 1}, "tasks.class_count"),
    ])
    def test_sizes_too_small_to_certify_name_key(self, overrides, key):
        with pytest.raises(ConfigError) as err:
            make_config(None, overrides)
        assert err.value.path == key

    def test_smallest_certifiable_sizes_accepted(self):
        cfg = make_config(None, {"certify.n": 2, "discrete.grid_sizes": "2"})
        assert (cfg["certify.n"], cfg["discrete.grid_sizes"]) == (2, [2])
        assert make_config("validity-trial", {"certify.n": 2})["certify.n"] == 2
        assert make_config(None, {"kind": "ddp", "certify.n": 4})["certify.n"] == 4

    def test_boundary_search_and_training_values_accepted(self):
        for value in ("12", 12, np.int64(12), np.int32(12), 12.0):
            cfg = make_config(None, {"cma.max_evals": value, "sweep.n_list": [value, "20"]})
            assert (cfg["cma.max_evals"], cfg["sweep.n_list"]) == (12, [12, 20])
            assert type(cfg["cma.max_evals"]) is int
        cfg = make_config(None, {"pool.base_epochs": 0, "pool.ft_epochs": 0})
        assert (cfg["pool.base_epochs"], cfg["pool.ft_epochs"]) == (0, 0)

    @pytest.mark.parametrize("variance, prior_variance", [(0.05, 5e-324), (5e-324, 1e9)])
    def test_variance_ratio_out_of_float_range_names_prior(self, variance, prior_variance):
        with pytest.raises(ConfigError, match=r"ratio is not in \(0, inf\)") as err:
            make_config(None, {"posterior.variance": variance, "prior.variance": prior_variance})
        assert err.value.path == "prior.variance"

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            make_config("no-such-scenario")

    def test_hash_stable_and_sensitive(self):
        a = make_config("smoke")
        b = make_config("smoke")
        c = make_config("smoke", {"seed": 123})
        assert a.hash == b.hash
        assert a.hash != c.hash

    def test_pool_hash_covers_the_release(self, monkeypatch):
        # a pool cached by another release is not reused
        cfg = make_config("smoke")
        before = cfg.pool_hash
        monkeypatch.setattr(harness, "__version__", "0.0.0")
        assert cfg.pool_hash != before

    # the pool cache's file name; a changed hash orphans every cached pool.
    # Each case is named by its scenario alone, so a new hash renames no test.
    POOL_HASHES = {"smoke": "e4a70955a191a609", "validity-trial": "c39beac48cf37204",
                   "paper-table1-toy": "aa3a34663c98ff7a"}

    @pytest.mark.parametrize("scenario", POOL_HASHES)
    def test_pool_hash_pinned(self, scenario):
        assert make_config(scenario).pool_hash == self.POOL_HASHES[scenario]

    def test_canonical_round_trips_through_file(self, tmp_path):
        # a config with no preset writes scenario = custom
        for cfg in (make_config("smoke", {"seed": 5}), make_config(None, {"kind": "sweep"})):
            path = tmp_path / "run.cfg"
            path.write_text(cfg.canonical())
            loaded = load_config_file(path)
            assert loaded.hash == cfg.hash
        assert loaded["scenario"] == "custom"
        path.write_text("scenario = customs\n")
        with pytest.raises(ConfigError) as err:
            load_config_file(path)
        assert err.value.path == "scenario"

    @pytest.mark.parametrize("scenario,key,value", [
        *[(scenario, "merge.kind", kind) for scenario in ("paper-discrete", "validity-trial")
          for kind in KINDS if kind != "task_arith"],
        ("paper-gap-sweep", "objective.kind", "train_risk"),
        ("paper-discrete", "objective.kind", "train_risk"),
        ("validity-trial", "objective.kind", "pac_bayes_upper"),
    ])
    def test_kind_rejects_what_it_cannot_certify(self, scenario, key, value):
        with pytest.raises(ConfigError) as err:
            make_config(scenario, {key: value})
        assert err.value.path == key
        every = "all" if key == "merge.kind" else "both"
        assert make_config(scenario, {key: every})[key] == every

    @pytest.mark.parametrize("kind", sorted(ACCEPTED))
    @pytest.mark.parametrize("key,choices", [
        ("merge.kind", ("task_arith", "ties", "task_wise", "layer_wise", "all")),
        ("objective.kind", ("train_risk", "pac_bayes_upper", "both")),
    ])
    def test_kind_accepts_exactly_what_it_certifies(self, kind, key, choices):
        accepted = ACCEPTED[kind][key]
        for value in choices:
            overrides = {"kind": kind, "certify.targets": 1, key: value}
            if value in accepted:
                assert make_config(None, overrides)[key] == value
            else:
                with pytest.raises(ConfigError, match=f"for kind = {kind}$") as err:
                    make_config(None, overrides)
                assert err.value.path == key

    @pytest.mark.parametrize("overrides", [{"kind": "validity"},
                                           {"kind": "validity", "certify.targets": 2}])
    def test_validity_certifies_one_target(self, overrides):
        with pytest.raises(ConfigError) as err:
            make_config(None, overrides)
        assert err.value.path == "certify.targets"
        assert make_config("validity-trial")["certify.targets"] == 1

    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nscenario = smoke\nseed = 3  # inline\n")
        cfg = load_config_file(path)
        assert cfg["seed"] == 3
        assert cfg["certify.targets"] == 2  # smoke preset applied

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("this has no equals sign\n")
        with pytest.raises(ConfigError):
            load_config_file(path)


def test_version_matches_pyproject():
    # tomllib is not in Python 3.10's standard library
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert pacmerge.__version__ == version


# Without libcst (hypothesis's codemods extra) the patch writer's import
# fails, hypothesis's pytest plugin catches that, and there is nothing to guard.
@pytest.mark.skipif(importlib.util.find_spec("libcst") is None, reason="libcst not installed")
def test_hypothesis_failure_report_imports_under_the_warning_filters(pytestconfig):
    # A failing @given test makes hypothesis import its patch writer, which
    # imports libcst; if that import warned as an error under the
    # ``filterwarnings`` of pyproject.toml, pytest would stop with an
    # internal error and run no later test.  A fresh interpreter, since
    # this one may have imported it already.
    flags = [f"-W{entry}" for entry in pytestconfig.getini("filterwarnings")]
    code = "import importlib; importlib.import_module('hypothesis.extra._patching')"
    result = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke-out")
    cfg = make_config("smoke")
    return cfg, run(cfg, out), out


class TestRun:
    def test_deterministic_csv_bytes(self, smoke_record, tmp_path):
        cfg, first, _ = smoke_record
        second = run(cfg, tmp_path)
        assert report_text(first, "csv") == report_text(second, "csv")

    def test_records_revalidate(self, smoke_record):
        _, record, _ = smoke_record
        for r in record.records:
            r.validate()

    def test_outputs_written(self, smoke_record):
        cfg, _, out = smoke_record
        stem = f"smoke-{cfg.hash}"
        assert (out / f"{stem}.json").exists()
        assert (out / f"{stem}.csv").exists()

    def test_pool_cache_round_trip(self, smoke_record, tmp_path):
        cfg, _, out = smoke_record
        cached = build_world(cfg, out / "pools")
        fresh = build_world(cfg, None)
        assert pool_bytes(cached.pool) == pool_bytes(fresh.pool)

    def test_vacuity_matches_closed_form(self, smoke_record):
        _, record, _ = smoke_record
        for r in record.records:
            assert r.vacuous == (r.upper_bound >= 1.0 or r.pb_bound >= 1.0)


# Every shipped scenario at a size that runs in about a second.
TINY = {
    "seed": 3, "tasks.count": 3, "tasks.input_dim": 6, "model.hidden": 8,
    "pool.base_n": 40, "pool.base_epochs": 4, "pool.ft_n": 40, "pool.ft_epochs": 3,
    "certify.n": 40, "certify.targets": 1, "eval.query_n": 100, "cma.max_evals": 12,
    "sweep.n_list": "20,40", "discrete.grid_sizes": "3,5",
    "validity.trials": 3, "validity.population": 500, "validity.grid": 5,
}


@pytest.fixture
def diverging_training(monkeypatch):
    """Pool training at a learning rate of 1e308, not the pool's 0.05 and
    0.02, so the base model's weights overflow and its loss is nan in epoch 1."""
    monkeypatch.setattr(harness, "TrainConfig", lambda lr, epochs: TrainConfig(1e308, epochs))


# The behaviour contract: per small run, the sha256 of its CSV report and of
# its JSON record less ``wall_time_s`` (sorted keys, so provenance is pinned
# too); eight runs, about 0.45 s in all.  A change that moves a bound or a
# provenance field updates the digest here and names the field in CHANGES.md.
PIN_SIZES = {
    "tasks.count": 3, "tasks.input_dim": 8, "model.hidden": 8, "pool.base_n": 60,
    "pool.ft_n": 60, "pool.base_epochs": 10, "pool.ft_epochs": 8, "certify.targets": 1,
    "eval.query_n": 200,
}
PINNED_CSV = [
    ("smoke", {"merge.kind": "all"},
     "d6df3be8530e446c41f4b122f10ea6606f49ffc3bc62e4adcc91977083c6370f",
     "d9bc27581f01c8ff9884a8cccf5e2ed02d543303eec8e1c5a4a7f73d1b7b3fc1"),
    ("paper-ddp", dict(PIN_SIZES, **{"certify.n": 40, "cma.max_evals": 60}),
     "9961f7e732fdb4294dc3cf0281fdbb017dff6a5f361a1d4aea6477bb0fe09404",
     "02637b61c44cbe7e601143a7880af268764ad69a1a6f7875eaa29c162b5ca176"),
    ("paper-gap-sweep", dict(PIN_SIZES, **{"sweep.n_list": "40,400", "cma.max_evals": 30}),
     "d6a7c85de3ff7cdae559e2ffb7b66c6fa39d041063395b7d8885d132158480a8",
     "2b0b234f09ed2b7efcdaea7a6e61677a5004e5c51a31295638742fd1f30a3e51"),
    ("paper-discrete", dict(PIN_SIZES, **{"certify.n": 40, "cma.max_evals": 30,
                                          "discrete.grid_sizes": "20,40"}),
     "ab8467c83db534b46987762b0c1d3520f2243e7341b5cc4548c4b552815eb976",
     "c3cdfb052754081f7399a1457a3300262fc1cf919dfcb2194df86cd00d1f21c8"),
    # 9,000 population rows: three population tiles
    ("validity-trial", {"validity.trials": 3, "validity.population": 9000},
     "bab49ad0c900f1657ee5e21c523a5287283dd8bbaf8c8433df09bdc0a76832e9",
     "b520100fd8bfc86f720ef09cff5b4e8b137fb13ede0a564777ae5ff4d7071256"),
    # two certified targets each, so the seed keys of a second target are pinned
    ("paper-ddp", dict(PIN_SIZES, **{"certify.targets": 2, "certify.n": 40,
                                     "cma.max_evals": 60}),
     "29607f1dcca5fff4305d978ccd7cb48a08c1edc2fa82fcc0108e19b4012952a7",
     "7d20e2d99fa36ae50954dd86b5c841ffe99ff6cfdcce143158a2a3376a41b564"),
    ("paper-gap-sweep", dict(PIN_SIZES, **{"certify.targets": 2, "sweep.n_list": "40,400",
                                           "cma.max_evals": 30}),
     "9bec2e06e520dba5de51dd4c86c9aad9550a8ba29c4aaba8e54014764580a45c",
     "d05750bd69c27d200e710f3c0434db4591556a3ddbeef98086e71ef0388e990a"),
    ("paper-discrete", dict(PIN_SIZES, **{"certify.targets": 2, "certify.n": 40,
                                          "cma.max_evals": 30, "discrete.grid_sizes": "20,40"}),
     "fe738b1c65601af4085e425f7801c2298a22a812315c246243a78fabe74b37ec",
     "d50535e9ea679533e2d8750079d3edbcfed10c8b50c66b1a701baabd917ce508"),
]


def test_pinned_csv_reports():
    digests = []
    for scenario, overrides, _, _ in PINNED_CSV:
        record = run(make_config(scenario, overrides))
        stored = record.to_dict()
        del stored["wall_time_s"]
        digests.append((hashlib.sha256(report_text(record, "csv").encode()).hexdigest(),
                        hashlib.sha256(json.dumps(stored, sort_keys=True).encode()).hexdigest()))
    assert digests == [(csv, stored) for _, _, csv, stored in PINNED_CSV]


def pool_bytes(pool):
    return pool.base.tobytes() + pool.deltas.tobytes()


# scenario -> sha256 of the pool's base and delta bytes at its defaults
PINNED_POOL = {
    "smoke": "3575ac6b4bbfca5d1a11099e03887cf0f7736ab84ff3aef3edd0ab583001f061",
    "validity-trial": "9ecc1ce150cbf97b36a55ad24bc029c9b76470b8f776dbfc416e505a1105f8c5",
}


@pytest.mark.parametrize("scenario", sorted(PINNED_POOL))
def test_pinned_pool_bytes(scenario):
    pool = build_world(make_config(scenario)).pool
    assert hashlib.sha256(pool_bytes(pool)).hexdigest() == PINNED_POOL[scenario]


def cached_rows(path):
    with np.load(path) as cached:
        return cached["rows"]


def resave(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def flip_middle_byte(path):
    # the middle of a small pool file lies in the array data, which the
    # zip CRC-32 covers
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


# damage done to a cached pool file, each a FormatError on the next load
CACHE_DAMAGE = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-40]),
    "flipped-byte": flip_middle_byte,
    "junk-prefix": lambda path: path.write_bytes(b"junk" + path.read_bytes()),
    "wrong-key": lambda path: resave(path, weights=cached_rows(path)),
    "float64": lambda path: resave(path, rows=cached_rows(path).astype(np.float64)),
    "other-member-count": lambda path: resave(path, rows=cached_rows(path)[:-1]),
}


@pytest.fixture
def train_calls(monkeypatch):
    """The calls made to ``train_stack`` by ``build_world``."""
    calls, real = [], harness.train_stack

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "train_stack", spy)
    return calls


class TestBuildWorld:
    def test_cache_hit_trains_nothing(self, tmp_path, train_calls):
        config = make_config("smoke", TINY)
        fresh = build_world(config, tmp_path)
        assert len(train_calls) == 2  # the base, then every member at once
        train_calls.clear()
        cached = build_world(config, tmp_path)
        assert train_calls == []
        assert pool_bytes(cached.pool) == pool_bytes(fresh.pool)
        assert not (cached.pool.base.flags.writeable or cached.pool.deltas.flags.writeable)

    @pytest.mark.parametrize("damage", sorted(CACHE_DAMAGE))
    def test_damaged_cache_is_a_format_error(self, tmp_path, damage):
        config = make_config("smoke", TINY)
        build_world(config, tmp_path)
        CACHE_DAMAGE[damage](tmp_path / f"{config.pool_hash}.npz")
        with pytest.raises(FormatError, match="^cannot load cached pool "):
            build_world(config, tmp_path)

    @pytest.mark.parametrize("key,value", [("batch", 16), ("base_lr", 0.1), ("ft_lr", 0.04)])
    def test_sgd_edit_retrains(self, tmp_path, monkeypatch, train_calls, key, value):
        # the cache key covers the SGD constants: after an edit the cached
        # pool is not reloaded, and the pool is the one the edit trains
        config = make_config("smoke", TINY)
        cached = pool_bytes(build_world(config, tmp_path).pool)
        monkeypatch.setitem(toyzoo.SGD, key, value)
        train_calls.clear()
        edited = pool_bytes(build_world(config, tmp_path).pool)
        assert len(train_calls) == 2
        assert edited != cached
        assert edited == pool_bytes(build_world(config).pool)

    def test_interrupted_write_leaves_no_cache(self, tmp_path, monkeypatch, train_calls):
        def savez_then_fail(fh, **arrays):
            fh.write(b"PK\x03\x04")
            raise OSError("no space left on device")

        config = make_config("smoke", TINY)
        with monkeypatch.context() as patch:
            patch.setattr(np, "savez", savez_then_fail)
            with pytest.raises(OSError, match="no space left"):
                build_world(config, tmp_path)
        assert list(tmp_path.iterdir()) == []  # neither the cache nor its .npz.tmp
        train_calls.clear()
        rebuilt = build_world(config, tmp_path)
        assert len(train_calls) == 2
        assert pool_bytes(rebuilt.pool) == pool_bytes(build_world(config).pool)
        assert (tmp_path / f"{config.pool_hash}.npz").exists()

    def test_pool_equals_members_fine_tuned_one_at_a_time(self):
        config = make_config("smoke", TINY)
        world = build_world(config)
        seed, base = config["seed"], world.pool.base
        assert world.pool.M == len(world.tasks) == 3
        members = zip(world.pool.task_ids, world.pool.deltas)
        for i, (task, (task_id, delta)) in enumerate(zip(world.tasks, members)):
            (tuned,) = train_stack(
                world.model_spec, base,
                [sample_set(task, config["pool.ft_n"], derive_seed(seed, "ft-data", i))],
                TrainConfig(lr=0.02, epochs=config["pool.ft_epochs"]),
                [derive_seed(seed, "ft-train", i)],
                [task.task_id],
            )
            assert task_id == task.task_id
            difference = tuned.astype(np.float64) - base.astype(np.float64)
            assert delta.tobytes() == difference.astype(np.float32).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_base_raises_only_training_diverged(self, diverging_training):
        with pytest.raises(TrainingDiverged, match=r"^base, epoch \d+: "):
            build_world(make_config("smoke"))


# scenario -> (certificate count, objectives) under TINY
EXPECTED = {
    "smoke": (2, {"train_risk", "pac_bayes_upper"}),
    "paper-table1-toy": (8, {"train_risk", "pac_bayes_upper"}),
    "paper-ddp": (3, {"train_risk", "pac_bayes_upper", "ddp"}),
    "paper-gap-sweep": (6, {"ddp", "half_val", "pac_bayes_upper"}),
    "paper-discrete": (3, {"pac_bayes_upper", "discrete"}),
    "validity-trial": (3, {"validity"}),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_scenario_runs_and_validates(scenario):
    count, objectives = EXPECTED[scenario]
    record = run(make_config(scenario, TINY))
    assert len(record.records) == count
    assert {r.objective for r in record.records} == objectives
    for r in record.records:
        r.validate()
        assert 0.0 <= r.train_error <= r.pb_bound <= 1.0
        assert r.pb_bound == 1.0 or (
            bernoulli_kl(r.train_error, r.pb_bound) >= budget(r.kl_qp, r.n, r.delta))


# ddp and sweep take every scheme of merge.kind = all, as table does:
# 4 schemes x (2 objectives + ddp), and 4 schemes x 3 certificates per
# support size.
@pytest.mark.parametrize("scenario,count", [("paper-ddp", 4 * 3),
                                            ("paper-gap-sweep", 4 * 3 * 2)])
def test_merge_kind_all_takes_every_scheme(scenario, count):
    record = run(make_config(scenario, dict(TINY, **{"merge.kind": "all"})))
    assert len(record.records) == count
    assert {r.scheme for r in record.records} == set(KINDS)


def test_ddp_takes_objective_kind():
    record = run(make_config("paper-ddp", dict(TINY, **{"objective.kind": "train_risk"})))
    assert [r.objective for r in record.records] == ["train_risk", "ddp"]


# (scenario, overrides) under TINY -> (scheme, objective, n) per record, in
# order.  n is the number of rows a certificate is scored on: DDP and half-val
# certify on half of their support.
PLAN_ORDER = [
    ("paper-ddp", {"objective.kind": "pac_bayes_upper"},
     [("layer_wise", "pac_bayes_upper", 40), ("layer_wise", "ddp", 20)]),
    ("paper-discrete", {"merge.kind": "all"},
     [("task_arith", "pac_bayes_upper", 40), ("task_arith", "discrete", 40),
      ("task_arith", "discrete", 40)]),
    ("paper-gap-sweep", {"merge.kind": "ties"},
     [("ties", "ddp", 10), ("ties", "half_val", 10), ("ties", "pac_bayes_upper", 20),
      ("ties", "ddp", 20), ("ties", "half_val", 20), ("ties", "pac_bayes_upper", 40)]),
]


@pytest.mark.parametrize("scenario,overrides,expected", PLAN_ORDER)
def test_plan_record_order(scenario, overrides, expected):
    record = run(make_config(scenario, dict(TINY, **overrides)))
    assert [(r.scheme, r.objective, r.n) for r in record.records] == expected


def test_half_val_records_state_their_search(monkeypatch):
    # the runner calls the search itself for the DDP prior and for the
    # half-val fit, in that order per support size; task_arith (d = 1) stalls
    # within 300 evaluations on some support
    fits = []

    def recorded(*args):
        fits.append(optimize(*args))
        return fits[-1]

    monkeypatch.setattr(harness, "optimize", recorded)
    config = make_config("paper-gap-sweep", dict(TINY, **{"merge.kind": "task_arith",
                                                          "cma.max_evals": 300}))
    records = run(config).records
    half_val = [r for r in records if r.objective == "half_val"]
    ddp = [r for r in records if r.objective == "ddp"]
    assert len(half_val) == len(ddp) == 2 and len(fits) == 4
    for record, fit in zip(half_val, fits[1::2]):
        assert {key: record.provenance[key] for key in ("evals", "search_stop", "search_sigma")} \
            == {"evals": fit.evals, "search_stop": fit.stop, "search_sigma": fit.sigma}
    for record, prior in zip(ddp, fits[0::2]):
        assert [record.provenance[f"ddp_prior_{key}"] for key in ("evals", "stop", "sigma")] \
            == [prior.evals, prior.stop, prior.sigma]
    assert "stalled" in {fit.stop for fit in fits[1::2]}


def ddp_halves(config, key, support):
    """Half A and half B of a DDP split, from the definition: the support
    permuted on the stream (derive_seed(seed, "ddp-split", *key), "ddp-split")
    and cut at round(ddp.split * n), kept within [2, n - 2]; each half in
    support order."""
    n = support.n
    order = rng_for(derive_seed(config["seed"], "ddp-split", *key), "ddp-split").permutation(n)
    cut = min(max(round(config["ddp.split"] * n), 2), n - 2)
    return support.subset(np.sort(order[:cut])), support.subset(np.sort(order[cut:]))


@pytest.fixture(scope="module")
def ddp_world():
    """A TINY paper-ddp world: its first task and that target's task_arith
    merge over the other members."""
    config = make_config("paper-ddp", TINY)
    world = build_world(config)
    task = world.tasks[0]
    return world.model_spec, task, MergeScheme("task_arith", world.pool.without(task.task_id))


@pytest.fixture
def ddp_calls(monkeypatch):
    """The searches of ``harness._ddp``: per ``optimize`` call (the prior)
    its support, per ``certify`` call (the posterior) its support and prior
    mean."""
    calls, certify = {"optimize": [], "certify": []}, harness.certify

    def prior_search(scheme, objective, support, spec, cfg):
        calls["optimize"].append(support)
        return optimize(scheme, objective, support, spec, cfg)

    def posterior(scheme, objective, support, query, spec, cfg, **kwargs):
        calls["certify"].append((support, kwargs["prior_mean"]))
        return certify(scheme, objective, support, query, spec, cfg, **kwargs)

    monkeypatch.setattr(harness, "optimize", prior_search)
    monkeypatch.setattr(harness, "certify", posterior)
    return calls


def ddp_record(world, support, overrides=None, query=None, key=(0,)):
    """``harness._ddp``'s one record for ``support`` under TINY and
    ``overrides``, on the seed key of target 0's task_arith DDP method."""
    spec, task, scheme = world
    config = make_config("paper-ddp", dict(TINY, **(overrides or {})))
    cfg = harness._certify_config(config, *key, scheme.kind, "ddp")
    (record,) = harness._ddp(config, spec, task, key, scheme, support, query, cfg)
    return record


class TestDdp:
    def test_split_sizes_and_disjoint(self, ddp_world, ddp_calls):
        _, task, _ = ddp_world
        support = sample_set(task, 100, 7)
        ddp_record(ddp_world, support)
        ((half_a,), ((half_b, _),)) = ddp_calls["optimize"], ddp_calls["certify"]
        assert half_a.n == 50 and half_b.n == 50
        joined = np.concatenate([half_a.inputs, half_b.inputs])
        assert np.unique(joined, axis=0).shape[0] == support.n  # disjoint rows
        expected = ddp_halves(make_config("paper-ddp", TINY), (0,), support)
        for half, reference in zip((half_a, half_b), expected):
            assert half.inputs.tobytes() == reference.inputs.tobytes()
            assert half.labels.tobytes() == reference.labels.tobytes()

    def test_certificate_n_is_second_half(self, ddp_world):
        _, task, _ = ddp_world
        record = ddp_record(ddp_world, sample_set(task, 100, 7), {"cma.max_evals": 60},
                            query=sample_set(task, 400, 8))
        assert record.n == 50 and record.provenance["ddp_prior_n"] == 50
        assert record.objective == "ddp"
        record.validate()

    def test_prior_pure_function_of_first_half(self, ddp_world, ddp_calls):
        # new rows in place of half B's, at the same positions: the prior
        # search sees the same half A and finds the same prior mean
        _, task, _ = ddp_world
        support = sample_set(task, 100, 7)
        order = rng_for(derive_seed(TINY["seed"], "ddp-split", 0), "ddp-split").permutation(100)
        inputs, labels = support.inputs.copy(), support.labels.copy()
        other = sample_set(task, 50, 9)
        inputs[order[50:]], labels[order[50:]] = other.inputs, other.labels
        for data in (support, pacmerge.LabeledSet(inputs, labels)):
            ddp_record(ddp_world, data, {"cma.max_evals": 50})
        (a_1, a_2), ((b_1, prior_1), (b_2, prior_2)) = ddp_calls["optimize"], ddp_calls["certify"]
        assert a_1.inputs.tobytes() == a_2.inputs.tobytes()
        assert b_1.inputs.tobytes() != b_2.inputs.tobytes()
        np.testing.assert_array_equal(prior_1, prior_2)

    def test_records_state_their_search_slices(self, ddp_world):
        # 2,700 rows split 0.3: the prior searches 810 rows in 2 slices, the
        # posterior 1,890 rows in 4; the whole support takes 6 slices
        spec, task, scheme = ddp_world
        support = sample_set(task, 2700, 3)
        record = ddp_record(ddp_world, support, {"ddp.split": 0.3, "cma.max_evals": 8})
        assert (record.provenance["ddp_prior_n"], record.n) == (810, 1890)
        assert record.provenance["ddp_prior_slices"] == 2
        assert record.provenance["search_slices"] == 4
        config = make_config("paper-ddp", dict(TINY, **{"cma.max_evals": 8}))
        record = pacmerge.certify(scheme, "train_risk", support, None, spec,
                                  harness._certify_config(config))
        assert record.provenance["search_slices"] == 6

    def test_records_state_how_both_searches_stopped(self, ddp_world):
        # task_arith (d = 1) stalls within 500 evaluations on either half
        spec, task, scheme = ddp_world
        support = sample_set(task, 100, 7)
        config = make_config("paper-ddp", dict(TINY, **{"cma.max_evals": 500}))
        cfg = harness._certify_config(config, 0, scheme.kind, "ddp")
        half_a, half_b = ddp_halves(config, (0,), support)
        prior_cfg = replace(cfg, cma=replace(cfg.cma, seed=derive_seed(cfg.cma.seed, "ddp-prior")))
        prior = optimize(scheme, config["ddp.prior_objective"], half_a, spec, prior_cfg)
        search = optimize(scheme, "pac_bayes_upper", half_b, spec, cfg, prior.x_best)
        record = ddp_record(ddp_world, support, {"cma.max_evals": 500})
        assert {key: record.provenance[key] for key in (
            "ddp_prior_evals", "ddp_prior_stop", "ddp_prior_sigma",
            "evals", "search_stop", "search_sigma")} == {
            "ddp_prior_evals": prior.evals, "ddp_prior_stop": prior.stop,
            "ddp_prior_sigma": prior.sigma, "evals": search.evals,
            "search_stop": search.stop, "search_sigma": search.sigma}
        assert "stalled" in (prior.stop, search.stop)


def test_discrete_gaussian_record_is_the_table_method():
    # paper-discrete's Gaussian record is the pac_bayes_upper method, on its
    # seed key (index, scheme, "pac_bayes_upper"), so it equals table's
    overrides = dict(TINY, **{"merge.kind": "task_arith", "objective.kind": "pac_bayes_upper"})
    table, discrete = (run(make_config(None, dict(overrides, kind=kind))).records[0]
                       for kind in ("table", "discrete"))
    del table.provenance["config_hash"], discrete.provenance["config_hash"]
    assert discrete.to_dict() == table.to_dict()
    assert discrete.objective == "pac_bayes_upper"


def reference_validity(config, world):
    """``validity-trial`` records from their definition: per trial, the grid
    argmin mu of the Monte-Carlo train risk, one draw h = mu + sigma eps on
    the stream (seed, "trial-draw", trial), h's exact errors on the support
    and on the whole population held as one ``sample_set``, and the KL
    max(ln dQ/dP(h), 0), all in plain float64 for the one coefficient."""
    task = world.tasks[0]
    spec = world.model_spec
    scheme = MergeScheme("task_arith", world.pool.without(task.task_id))
    seed, k, variance = config["seed"], MC_SAMPLES, config["posterior.variance"]
    prior_variance, prior = config["prior.variance"], float(default_phi(scheme)[0])
    grid = np.linspace(0.0, 2.0, config["validity.grid"])
    population = sample_set(task, config["validity.population"], derive_seed(seed, "population"))
    n = config["certify.n"]
    records = []
    for trial in range(config["validity.trials"]):
        support = sample_set(task, n, derive_seed(seed, "trial-support", trial))
        risks = RiskEstimator(scheme, spec, support, variance, k,
                              derive_seed(seed, "trial-fit", trial)).risks(grid[:, None])
        mu = float(grid[int(np.argmin(risks))])
        draw_seed = derive_seed(seed, "trial-draw", trial)
        h = mu + math.sqrt(variance) * float(rng_for(draw_seed, "gauss", 0).standard_normal())
        row = merged_values(scheme, np.array([[h]]))
        ln_ratio = (-0.5 * math.log(variance / prior_variance)
                    + (h - prior) ** 2 / (2.0 * prior_variance) - (h - mu) ** 2 / (2.0 * variance))
        ratio = variance / prior_variance
        gibbs_kl = 0.5 * (ratio - 1.0 - math.log(ratio)) + (mu - prior) ** 2 / (2.0 * prior_variance)
        true_risk = int(error_counts(spec, row, population)[0]) / population.n
        record = make_record(
            f"trial{trial}", scheme.kind, "validity", int(error_counts(spec, row, support)[0]) / n,
            max(ln_ratio, 0.0), n, delta=config["bound.delta"], test_error=true_risk,
            provenance={"mu": [mu], "draw": [h], "draw_seed": draw_seed, "ln_ratio": ln_ratio,
                        "gibbs_kl": gibbs_kl},
        )
        record.provenance["violation"] = bool(true_risk > record.pb_bound)
        records.append(record)
    return records


class TestValidityPopulation:
    """The validity population streamed tile by tile through the scorer."""

    # two full tiles and a 5-row remainder
    def test_records_equal_per_trial_risk_on_the_whole_population(self):
        config = make_config("validity-trial", dict(TINY, **{"validity.population": 2 * R + 5}))
        world = build_world(config)
        task = world.tasks[0]
        records = list(_run_validity(config, world.model_spec, 0, task,
                                     world.pool.without(task.task_id)))
        expected = reference_validity(config, world)
        assert [r.to_dict() for r in records] == [r.to_dict() for r in expected]
        assert len({r.test_error for r in records}) > 1

    def test_trial_support_has_certify_n_rows(self):
        config = make_config("validity-trial", dict(TINY, **{"certify.n": 40}))
        records = run(config).records
        assert len(records) == config["validity.trials"] == 3
        assert [r.n for r in records] == [40] * 3

    def test_defaults_violate_at_most_delta_of_the_trials(self):
        config = make_config("validity-trial")
        records = run(config).records
        violations = sum(r.provenance["violation"] for r in records)
        assert len(records) == config["validity.trials"] == 200
        assert violations <= config["bound.delta"] * len(records)

    def test_traced_peak_does_not_grow_with_the_population(self):
        # one 200,000-row population is 12.2 MB of inputs; the labels, drawn
        # up front, are 1.6 MB of it
        config = make_config("validity-trial", dict(TINY, **{"validity.population": 200_000}))
        world = build_world(config)
        task = world.tasks[0]
        subpool = world.pool.without(task.task_id)
        tracemalloc.start()
        try:
            list(_run_validity(config, world.model_spec, 0, task, subpool))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSweepValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ConfigError) as err:
            make_config("paper-gap-sweep", {"sweep.n_list": "100,50"})
        assert err.value.path == "sweep.n_list"

    def test_rejects_tiny_n(self):
        with pytest.raises(ConfigError) as err:
            make_config("paper-gap-sweep", {"sweep.n_list": "2,100"})
        assert err.value.path == "sweep.n_list"

    def test_rejects_repeated_n(self):
        with pytest.raises(ConfigError) as err:
            make_config("paper-gap-sweep", {"sweep.n_list": "100,100"})
        assert err.value.path == "sweep.n_list"

    # an empty list would run and certify nothing for that key: no sweep
    # record, or no grid record beside the Gaussian one
    @pytest.mark.parametrize("scenario,key", [("paper-gap-sweep", "sweep.n_list"),
                                              ("paper-discrete", "discrete.grid_sizes")])
    @pytest.mark.parametrize("value", ["", " , ", []])
    def test_rejects_empty_list(self, scenario, key, value):
        with pytest.raises(ConfigError, match="at least one value") as err:
            make_config(scenario, {key: value})
        assert err.value.path == key


class TestReport:
    def test_empty_record_header_only(self):
        empty = RunRecord(config={}, config_hash="x", version="0", wall_time_s=0.0, records=[])
        text = report_text(empty, "csv")
        assert text == (
            "task,scheme,objective,n,train_error,test_error,"
            "pb_bound,upper_bound,kl,certified_gap,vacuous\n"
        )

    def test_csv_has_stable_columns(self, smoke_record):
        _, record, _ = smoke_record
        header = report_text(record, "csv").splitlines()[0]
        assert header.split(",") == [
            "task", "scheme", "objective", "n", "train_error", "test_error",
            "pb_bound", "upper_bound", "kl", "certified_gap", "vacuous",
        ]

    def test_md_bolds_minimum_pb_per_task(self, smoke_record):
        _, record, _ = smoke_record
        text = report_text(record, "md")
        for task_id in {r.task_id for r in record.records}:
            best = min(r.pb_bound for r in record.records if r.task_id == task_id)
            assert f"**{best:.6f}**" in text

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_json_round_trip(self, scenario, tmp_path):
        run(make_config(scenario, TINY), tmp_path)
        (path,) = tmp_path.glob(f"{scenario}-*.json")
        assert report_text(load_record(path), "json") == path.read_text(encoding="utf-8")

    def test_unknown_format(self, smoke_record):
        _, record, _ = smoke_record
        with pytest.raises(FormatError):
            report_text(record, "xml")


class TestCli:
    def test_certify_and_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["certify", "--scenario", "smoke", "--out", str(out)]) == 0
        cfg = make_config("smoke")
        record_path = out / f"smoke-{cfg.hash}.json"
        assert record_path.exists()
        assert main([
            "report", "--record", str(record_path), "--format", "md", "--out", str(out)
        ]) == 0
        reports = list(out.glob("report-*.md"))
        assert len(reports) == 1

    def test_validity_prints_violation_count(self, tmp_path, capsys):
        cfg_file = tmp_path / "validity.cfg"
        cfg_file.write_text(
            "scenario = validity-trial\n" + "".join(f"{k} = {v}\n" for k, v in TINY.items())
        )
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg_file), "--out", str(out)]) == 0
        cfg = load_config_file(cfg_file)
        record = load_record(out / f"validity-trial-{cfg.hash}.json")
        violations = sum(r.provenance["violation"] for r in record.records)
        slack = min(r.pb_bound - r.test_error for r in record.records)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"violations: {violations}/3 (delta 0.05); smallest slack {slack:.4f}"

    @pytest.mark.parametrize("scenario", ["smoke", "validity-trial"])
    def test_certify_prints_a_run_summary(self, tmp_path, capsys, scenario):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"scenario = {scenario}\n"
                            + "".join(f"{k} = {v}\n" for k, v in TINY.items()))
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg_file), "--out", str(out)]) == 0
        cfg = load_config_file(cfg_file)
        records = load_record(out / f"{scenario}-{cfg.hash}.json").records
        bounds = sorted(r.pb_bound for r in records)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{scenario} ({cfg.hash}): {len(records)} certificates in ")
        assert lines[1] == (f"vacuous: {sum(r.vacuous for r in records)}/{len(records)}; "
                            f"pb_bound min/median/max: {bounds[0]:.4f}/"
                            f"{np.median(bounds):.4f}/{bounds[-1]:.4f}")
        # validity runs make no search; smoke's two searches spend their budget
        if scenario == "validity-trial":
            assert len(lines) == 3 and lines[2].startswith("violations: ")
        else:
            assert lines[2:] == ["searches: 0 stalled, 2 at budget; evaluations 24/24"]

    def test_certify_prints_search_stops_and_evaluations(self, tmp_path, capsys):
        # at 300 evaluations the sweep's searches, DDP prior searches included,
        # end both ways
        cfg_file = tmp_path / "sweep.cfg"
        sizes = dict(TINY, **{"cma.max_evals": 300})
        cfg_file.write_text("scenario = paper-gap-sweep\n"
                            + "".join(f"{k} = {v}\n" for k, v in sizes.items()))
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg_file), "--out", str(out)]) == 0
        cfg = load_config_file(cfg_file)
        records = load_record(out / f"paper-gap-sweep-{cfg.hash}.json").records
        searches = [(r.provenance["search_stop"], r.provenance["evals"]) for r in records]
        searches += [(r.provenance["ddp_prior_stop"], r.provenance["ddp_prior_evals"])
                     for r in records if r.objective == "ddp"]
        stalled = [evals for stop, evals in searches if stop == "stalled"]
        budget = [evals for stop, evals in searches if stop == "budget"]
        assert len(searches) == 8 and stalled and budget
        assert set(budget) == {300} and max(stalled) < 300
        assert capsys.readouterr().out.splitlines()[2] == (
            f"searches: {len(stalled)} stalled, {len(budget)} at budget; "
            f"evaluations {sum(stalled) + 300 * len(budget)}/2400")

    @pytest.mark.parametrize("field,value", [
        ("pb_bound", 0.01), ("train_error", -0.5), ("upper_bound", math.nan), ("task_id", 7),
        ("scheme", None), ("objective", ["train_risk"]), ("test_error", "0.1"),
        ("test_error", True), ("n", 10**400)])
    def test_report_rejects_a_record_that_does_not_validate(
            self, smoke_record, tmp_path, capsys, field, value):
        _, record, _ = smoke_record
        stored = record.to_dict()
        stored["records"][0][field] = value
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(stored))
        with pytest.raises(FormatError):
            load_record(path)
        out = tmp_path / "out"
        assert main(["report", "--record", str(path), "--format", "csv", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("format error: cannot load run record")
        assert not list(out.glob("report-*"))

    def test_report_rejects_a_nan_kl(self, smoke_record, tmp_path, capsys):
        # NaN compares false, so an unchecked NaN KL certifies the train error
        _, record, _ = smoke_record
        stored = record.to_dict()
        first = stored["records"][0]
        first.update(kl_qp=math.nan, pb_bound=first["train_error"], vacuous=False)
        path = tmp_path / "nan-kl.json"
        path.write_text(json.dumps(stored))
        assert main(["report", "--record", str(path), "--format", "csv",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("format error: cannot load run record")
        assert "KL must be >= 0" in err[0]

    @pytest.mark.parametrize("config_hash", ["ab/cd", "ABCDEF0123456789", "0123", 12])
    def test_report_rejects_a_malformed_config_hash(
            self, smoke_record, tmp_path, capsys, config_hash):
        _, record, _ = smoke_record
        stored = dict(record.to_dict(), config_hash=config_hash)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(stored))
        assert main(["report", "--record", str(path), "--format", "csv",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("format error: cannot load run record")

    @pytest.mark.parametrize("field,value", [
        ("version", 7), ("config", "x"), ("wall_time_s", "slow"), ("records", {})])
    def test_report_rejects_a_run_field_of_the_wrong_type(
            self, smoke_record, tmp_path, capsys, field, value):
        _, record, _ = smoke_record
        stored = dict(record.to_dict(), **{field: value})
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(stored))
        assert main(["report", "--record", str(path), "--format", "json",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"format error: cannot load run record: {field} must be")

    def test_report_accepts_an_infinite_kl(self, smoke_record, tmp_path, capsys):
        _, record, _ = smoke_record
        stored = record.to_dict()
        first = stored["records"][0]
        infinite = make_record(first["task_id"], first["scheme"], first["objective"],
                               first["train_error"], math.inf, first["n"], first["delta"])
        stored["records"][0] = infinite.to_dict()
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(stored))
        assert main(["report", "--record", str(path), "--format", "csv",
                     "--out", str(tmp_path)]) == 0
        loaded = load_record(path).records[0]
        assert (loaded.pb_bound, loaded.upper_bound, loaded.vacuous) == (1.0, math.inf, True)

    def test_diverged_training_exit_code(self, tmp_path, capsys, diverging_training):
        assert main(["certify", "--scenario", "smoke", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("training diverged: base, epoch ")

    def test_non_finite_search_objective_exit_code(self, tmp_path, capsys):
        # the KL overflows to inf, so the very first objective value is inf
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = smoke\nmerge.kind = layer_wise\n"
                       "posterior.variance = 1e9\nprior.variance = 1e-299\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("search failed: objective returned inf")
        assert not list(tmp_path.glob("*.csv"))

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus.key = 1\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_duplicate_config_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = smoke\nseed = 3\n# comment\nseed = 4\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"config error: {bad}:4: key 'seed' is set twice"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("line", ["pool.base_epochs = -1",
                                      "pool.ft_epochs = -1", "posterior.variance = nan"])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"scenario = smoke\n{line}\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"config error: {line.split()[0]}: invalid value")

    @pytest.mark.parametrize("variances", ["prior.variance = 5e-324",
                                           "posterior.variance = 5e-324\nprior.variance = 1e9"])
    def test_variance_ratio_out_of_float_range_exit_code(self, tmp_path, capsys, train_calls,
                                                          variances):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"scenario = smoke\n{variances}\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "config error: prior.variance: posterior / prior variance ratio is not in (0, inf)")
        assert train_calls == [] and not list(tmp_path.glob("*.csv"))

    def test_validity_with_two_targets_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = validity-trial\ncertify.targets = 2\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "config error: certify.targets: must be 1 for kind = validity")
        assert not list(tmp_path.glob("*.csv"))

    def test_discrete_with_layer_wise_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = paper-discrete\nmerge.kind = layer_wise\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "config error: merge.kind: must be one of ('task_arith', 'all') for kind = discrete")
        assert not list(tmp_path.glob("*.csv"))

    def test_size_too_small_to_certify_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = paper-ddp\ncertify.n = 3\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("config error: certify.n:")

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert main(["certify", "--scenario", "smoke", "--out", str(tmp_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "config error: seed: invalid value")

    def test_config_file_not_utf8_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"scenario = smoke\nseed = \xff\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "cannot read config file" in err[0]

    def test_record_not_utf8_exit_code(self, smoke_record, tmp_path, capsys):
        _, record, _ = smoke_record
        path = tmp_path / "record.json"
        path.write_bytes(report_text(record, "json").encode().replace(b'"smoke"', b'"\xff"'))
        assert main(["report", "--record", str(path), "--format", "csv",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("format error: cannot load run record")

    def test_record_with_a_non_mapping_certificate_exit_code(self, smoke_record, tmp_path,
                                                              capsys):
        _, record, _ = smoke_record
        stored = record.to_dict()
        stored["records"] = ["xy"]
        path = tmp_path / "record.json"
        path.write_text(json.dumps(stored))
        assert main(["report", "--record", str(path), "--format", "csv",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("format error: cannot load run record")

    def test_corrupt_pool_cache_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = make_config("smoke")
        build_world(cfg, out / "pools")
        flip_middle_byte(out / "pools" / f"{cfg.pool_hash}.npz")
        assert main(["certify", "--scenario", "smoke", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("format error: cannot load cached pool")
        assert not list(out.glob("*.csv"))

    def test_scenario_differing_from_the_file_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scenario = smoke\n")
        for seed in ([], ["--seed", "3"]):  # a seed override does not hide it
            assert main(["certify", "--config", str(cfg_file), "--scenario", "paper-ddp",
                         "--out", str(tmp_path), *seed]) == 2
            assert capsys.readouterr().err.splitlines() == [
                f"config error: scenario: {cfg_file} sets scenario 'smoke', not 'paper-ddp'"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("file_line,flag", [("scenario = smoke\n", "smoke"),
                                                ("scenario = smoke\n", None),
                                                ("", "smoke")])
    def test_scenario_on_one_side_or_matching(self, tmp_path, file_line, flag):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(file_line + "seed = 5\n")
        args = argparse.Namespace(config=str(cfg_file), scenario=flag, seed=None)
        assert _config_from_args(args).hash == make_config("smoke", {"seed": 5}).hash

    def test_seed_flag_wins_over_the_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scenario = smoke\nmerge.kind = task_arith\nseed = 9\n"
                            "cma.max_evals = 50\n")
        args = argparse.Namespace(config=str(cfg_file), scenario=None, seed=4)
        config = _config_from_args(args)
        expected = make_config("smoke", {"merge.kind": "task_arith", "seed": 4,
                                         "cma.max_evals": "50"})
        assert config.hash == expected.hash and config.values == expected.values
        # the same config as rebuilding the file's whole config with the seed
        rebuilt = make_config(None, {**load_config_file(cfg_file).values, "seed": 4})
        assert config.hash == rebuilt.hash and config.values == rebuilt.values

    def test_seed_flag_replaces_an_invalid_seed_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("scenario = smoke\nseed = -1\n")
        args = argparse.Namespace(config=str(cfg_file), scenario=None, seed=3)
        assert _config_from_args(args).hash == make_config("smoke", {"seed": 3}).hash
        with pytest.raises(ConfigError, match="^seed: invalid value '-1'"):
            _config_from_args(argparse.Namespace(config=str(cfg_file), scenario=None, seed=None))

    @pytest.mark.parametrize("verb", ["certify", "report"])
    def test_output_that_cannot_be_written_exit_code(self, smoke_record, tmp_path, capsys,
                                                     verb):
        cfg, _, out = smoke_record
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        args = (["certify", "--scenario", "smoke"] if verb == "certify" else
                ["report", "--record", str(out / f"smoke-{cfg.hash}.json"), "--format", "md"])
        assert main([*args, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("cannot write output: [Errno ")
        assert str(taken) in err and "Traceback" not in err
        assert taken.read_text() == "a file, not a directory\n"

    def test_seed_override_changes_hash(self, tmp_path):
        out = tmp_path / "out"
        assert main(["certify", "--scenario", "smoke", "--out", str(out), "--seed", "321"]) == 0
        cfg = make_config("smoke", {"seed": 321})
        assert (out / f"smoke-{cfg.hash}.json").exists()


# Edge values per key, drawn on top of TINY: one-row sets (a batch of 32
# larger than its set), a one-evaluation search, the smallest and a ragged
# population, a near-zero trim and delta, and every kind.
EDGES = {
    "kind": ["table", "ddp", "sweep", "discrete", "validity"],
    "merge.kind": ["all", "task_arith", "layer_wise"],
    "pool.base_n": [1, 40],
    "pool.ft_n": [1, 40],
    "certify.n": [2, 4, 40],
    "cma.max_evals": [1, 2, 12],
    "eval.query_n": [1, 100],
    "merge.trim_fraction": [1e-9, 1.0],
    "bound.delta": [1e-300, 0.05],
    "sweep.n_list": ["4", "4,40"],
    "discrete.grid_sizes": ["2", "3,5"],
    "validity.population": [1, 4097],
    "validity.grid": [1, 5],
    "validity.trials": [1, 2],
}


class TestEdgeConfigs:
    @settings(max_examples=25, deadline=None)
    @given(st.fixed_dictionaries({key: st.sampled_from(values) for key, values in EDGES.items()}))
    def test_run_returns_or_raises_an_error_the_cli_exits_2_on(self, edges):
        try:
            run(make_config(None, {**TINY, **edges}))
        except tuple(_EXIT_2) as exc:
            assert not isinstance(exc, OSError)  # run writes nothing without out_dir
