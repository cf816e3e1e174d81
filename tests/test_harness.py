import json
import math

import numpy as np
import pytest

from pacmerge import BoundBudget, ConfigError, FormatError, bernoulli_kl
from pacmerge.cli import main
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

    @pytest.mark.parametrize("key,value", [
        ("cma.popsize", 1), ("cma.popsize", 2), ("cma.popsize", 3), ("cma.popsize", -1),
        ("pool.base_epochs", -1), ("pool.ft_epochs", -3),
    ])
    def test_bad_search_and_training_values_name_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            make_config(None, {key: value})
        assert err.value.path == key

    @pytest.mark.parametrize("overrides,key", [
        ({"certify.n": 1}, "certify.n"),
        ({"kind": "ddp", "certify.n": 3}, "certify.n"),
        ({"validity.n": 1}, "validity.n"),
        ({"discrete.grid_sizes": "5,1"}, "discrete.grid_sizes"),
    ])
    def test_sizes_too_small_to_certify_name_key(self, overrides, key):
        with pytest.raises(ConfigError) as err:
            make_config(None, overrides)
        assert err.value.path == key

    def test_smallest_certifiable_sizes_accepted(self):
        cfg = make_config(None, {"certify.n": 2, "validity.n": 2, "discrete.grid_sizes": "2"})
        assert (cfg["certify.n"], cfg["validity.n"], cfg["discrete.grid_sizes"]) == (2, 2, [2])
        assert make_config(None, {"kind": "ddp", "certify.n": 4})["certify.n"] == 4

    def test_boundary_search_and_training_values_accepted(self):
        for popsize in (0, 4):
            assert make_config(None, {"cma.popsize": popsize})["cma.popsize"] == popsize
        cfg = make_config(None, {"pool.base_epochs": 0, "pool.ft_epochs": 0})
        assert (cfg["pool.base_epochs"], cfg["pool.ft_epochs"]) == (0, 0)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            make_config("no-such-scenario")

    def test_hash_stable_and_sensitive(self):
        a = make_config("smoke")
        b = make_config("smoke")
        c = make_config("smoke", {"seed": 123})
        assert a.hash == b.hash
        assert a.hash != c.hash

    def test_canonical_round_trips_through_file(self, tmp_path):
        cfg = make_config("smoke", {"seed": 5})
        path = tmp_path / "run.cfg"
        path.write_text(cfg.canonical())
        loaded = load_config_file(path)
        assert loaded.hash == cfg.hash

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
        assert cached.pool == fresh.pool

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
# scenario -> (certificate count, objectives) under TINY
EXPECTED = {
    "smoke": (2, {"train_risk", "pac_bayes_upper"}),
    "paper-table1-toy": (8, {"train_risk", "pac_bayes_upper"}),
    "paper-ddp": (3, {"train_risk", "pac_bayes_upper", "ddp"}),
    "paper-gap-sweep": (6, {"ddp", "half_val", "pac_bayes_upper"}),
    "paper-discrete": (3, {"continuous", "discrete"}),
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
        budget = BoundBudget(r.kl_qp, r.n, r.delta).value
        assert r.pb_bound == 1.0 or bernoulli_kl(r.train_error, r.pb_bound) >= budget


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

    def test_json_round_trip(self, smoke_record, tmp_path):
        _, record, _ = smoke_record
        path = write_report(record, "json", tmp_path, "roundtrip")
        loaded = load_record(path)
        assert report_text(loaded, "csv") == report_text(record, "csv")
        assert loaded.config_hash == record.config_hash

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
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"violations: {violations}/3 (delta 0.05)"

    @pytest.mark.parametrize("field,value", [("pb_bound", 0.01), ("train_error", -0.5)])
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
        assert capsys.readouterr().err.startswith("format error: cannot load run record")
        assert not list(out.glob("report-*"))

    def test_gen_pool(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-pool", "--scenario", "smoke", "--out", str(out)]) == 0
        cfg = make_config("smoke")
        assert (out / "pools" / cfg.pool_hash / "manifest.json").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus.key = 1\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", ["cma.popsize = 2", "pool.base_epochs = -1",
                                      "pool.ft_epochs = -1"])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"scenario = smoke\n{line}\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"config error: {line.split()[0]}: invalid value")

    def test_size_too_small_to_certify_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = paper-ddp\ncertify.n = 3\n")
        assert main(["certify", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("config error: certify.n:")

    def test_sweep_requires_sweep_kind(self, tmp_path):
        assert main(["sweep", "--scenario", "smoke", "--out", str(tmp_path)]) == 2

    def test_seed_override_changes_hash(self, tmp_path):
        out = tmp_path / "out"
        assert main(["certify", "--scenario", "smoke", "--out", str(out), "--seed", "321"]) == 0
        cfg = make_config("smoke", {"seed": 321})
        assert (out / f"smoke-{cfg.hash}.json").exists()
