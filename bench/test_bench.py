"""Smoke tests for the benchmark command; no timing thresholds.

Run from the repository root: ``python -m pytest bench``.
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ROOT / "bench" / "run.py"


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_named_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in wanted
    ]
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_metric_lists_match_benchmark_json():
    run = _load_run()
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_tampered_certificate_fails_the_check():
    sys.path.insert(0, str(ROOT / "src"))
    from pacmerge.bounds import CertificateRecord, seeger_certificate

    run = _load_run()
    report = seeger_certificate(0.2, 3.0, 100, 0.05)
    fields = dict(task_id="t", scheme="task_arith", objective="train_risk", n=100,
                  delta=0.05, train_error=0.2, kl_qp=3.0, pb_bound=report.pb_bound,
                  upper_bound=report.upper_bound, vacuous=report.vacuous)
    assert run.check_record(CertificateRecord(**fields), seeger_certificate) is None
    loosened = dict(fields, pb_bound=report.pb_bound + 0.01)
    assert "pb_bound" in run.check_record(CertificateRecord(**loosened), seeger_certificate)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-n4000",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
