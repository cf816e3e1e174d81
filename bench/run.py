#!/usr/bin/env python3
"""pacmerge benchmark: certification workloads, end-to-end time and
certificate quality, and per-layer spans from a separate traced run.

Run it from the repository root, which must hold ``src/pacmerge``:

    python3 bench/run.py --workload table1-search --seed 1 --seconds 40 --trace 0

The load is a closed loop in one process: one scenario run at a time, the
next started when the previous one has returned, with ``PACMERGE_THREADS``
unset and the BLAS thread pool held to one thread.  A run certifies a fixed
number of independent worlds ("instances"); instance ``i`` of ``--seed s`` is
the workload's scenario with config key ``seed = 1000 * s + i``, and nothing
else reaches the program.  The instances take turns until ``--seconds`` are
spent: each turn sets one up (tasks plus SGD-trained pool, built with a cold
pool cache) and then runs ``pacmerge.harness.run`` on it, which loads that
pool.  A first, untimed turn on instance 0 warms up; then every instance
gets at least one timed turn, and a repeated instance must write a
byte-identical CSV report.  A fixed numpy kernel (``calibrate``) runs
between turns, and each turn's timings are scaled to a reference host speed
by the kernel's time on either side of it.  ``setup_s`` is the median
build; the run timings take each instance's median turn and average over
instances.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the first ``TRACED_INSTANCES`` instances are each set
up under the tracer (see ``tracing.py``), run once untraced and once traced,
and the last line holds per-layer metrics per instance; this pass does a
fixed amount of work whatever ``--seconds`` says.  Every certificate of every run is checked: the record
re-validates, ``pb_bound`` recomputes from ``(train_error, kl_qp, n, delta)``
and ``0 <= train_error <= pb_bound <= 1``.  Any failure makes ``correct``
false and the exit code 1.  Details, digests and machine facts go to
``.bench_build/pacmerge-bench/`` and to the line before the result.

``bench/README.md`` says why each workload exists and which end-to-end metric
each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_build" / "pacmerge-bench"

# (name, unit); BENCHMARK.json lists the same names in the same order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_cpu_s", "s"),
    ("certs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pb_bound_mean", "risk"),
    ("nonvacuous_frac", "frac"),
    ("test_error_mean", "risk"),
    ("bound_held_frac", "frac"),
)

PER_LAYER = (
    ("toyzoo.forward.calls", "count"),
    ("toyzoo.forward.self_s", "s"),
    ("toyzoo.forward.rows", "count"),
    ("toyzoo.forward.gflop_computed", "GFLOP"),
    ("toyzoo.zero_one_risk.calls", "count"),
    ("toyzoo.zero_one_risk.self_s", "s"),
    ("toyzoo.train.calls", "count"),
    ("toyzoo.train.s", "s"),
    ("params.pool_save_s", "s"),
    ("params.pool_load_s", "s"),
    ("merging.realize.calls", "count"),
    ("merging.realize.self_s", "s"),
    ("seeding.rng_for.calls", "count"),
    ("seeding.rng_for.self_s", "s"),
    ("posterior.mc_risk.calls", "count"),
    ("posterior.mc_risk.s", "s"),
    ("posterior.mc_risk.self_s", "s"),
    ("posterior.draws", "count"),
    ("posterior.sample.self_s", "s"),
    ("cma.evals", "count"),
    ("cma.generations", "count"),
    ("cma.ask_tell.self_s", "s"),
    ("cma.useful_eval_frac", "frac"),
    ("certify.objective_eval_us", "us"),
    ("certify.cert_s_p50", "s"),
    ("bounds.invert_kl.calls", "count"),
    ("bounds.invert_kl.self_s", "s"),
    ("bounds.gaussian_kl.calls", "count"),
    ("bounds.gaussian_kl.self_s", "s"),
    ("bounds.seeger_certificate.calls", "count"),
    ("bounds.seeger_certificate.self_s", "s"),
    ("harness.build_world_s", "s"),
    ("harness.write_report_s", "s"),
    ("harness.report_bytes", "bytes"),
    ("bounds.self_s", "s"),
    ("certify.self_s", "s"),
    ("cma.self_s", "s"),
    ("harness.self_s", "s"),
    ("merging.self_s", "s"),
    ("params.self_s", "s"),
    ("posterior.self_s", "s"),
    ("seeding.self_s", "s"),
    ("toyzoo.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage_frac", "frac"),
    ("trace.spans", "count"),
)


@dataclass(frozen=True)
class Workload:
    scenario: str
    overrides: dict
    instances: int
    tiny: dict  # extra overrides for the smoke-test size


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "table1-search": Workload(
        "paper-table1-toy",
        {"certify.targets": 1, "cma.max_evals": 150},
        instances=14,
        tiny={"cma.max_evals": 12, "eval.query_n": 200},
    ),
    "sweep-n4000": Workload(
        "paper-gap-sweep",
        {"certify.targets": 1, "sweep.n_list": "4000", "cma.max_evals": 40},
        instances=18,
        tiny={"sweep.n_list": "200", "cma.max_evals": 8},
    ),
    "validity-trials": Workload(
        "validity-trial",
        {"validity.trials": 2},
        instances=20,
        tiny={"validity.population": 2000, "validity.grid": 5},
    ),
}
TINY_INSTANCES = 2
TRACED_INSTANCES = 3  # the traced pass covers the first instances only


def instance_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def check_record(record, seeger_certificate) -> str | None:
    """None if the certificate is sound and consistent, else why not."""
    label = f"{record.task_id}/{record.scheme}/{record.objective}"
    try:
        record.validate()
        report = seeger_certificate(record.train_error, record.kl_qp, record.n, record.delta)
    except Exception as exc:  # every failed check counts, whatever raised
        return f"{label}: {type(exc).__name__}: {exc}"
    if abs(report.pb_bound - record.pb_bound) > 1e-9:
        return f"{label}: pb_bound {record.pb_bound} != recomputed {report.pb_bound}"
    if not 0.0 <= record.train_error <= record.pb_bound <= 1.0:
        return (f"{label}: expected 0 <= train_error {record.train_error} "
                f"<= pb_bound {record.pb_bound} <= 1")
    return None


def expected_certificates(config) -> int:
    kind = config["kind"]
    if kind == "validity":
        return config["validity.trials"]
    if kind == "sweep":
        return 3 * config["certify.targets"] * len(config["sweep.n_list"])
    schemes = 4 if config["merge.kind"] == "all" else 1
    objectives = 2 if config["objective.kind"] == "both" else 1
    return config["certify.targets"] * schemes * objectives


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------

# About the median time of ``calibrate()`` on a shared 2-vCPU Xeon VM
# (Python 3.11, numpy 2.4, one BLAS thread), where it ranged 0.09-0.14 s.
# Timings are reported at that host speed: each is multiplied by REF_CAL_S
# over the calibration time measured around it.  Other tenants of a
# shared host slowed the same run by up to 2x for minutes at a time; the
# kernel slows with it, so the scaled timings move far less than the raw
# ones (kept in the result file).  The kernel uses numpy only, never
# pacmerge, so a change to the program cannot move it.
REF_CAL_S = 0.1
CAL_SMALL_PASSES = 1000
CAL_MEDIUM_PASSES = 200


@functools.cache
def _calibration_inputs():
    import numpy as np  # after main() has fixed the BLAS thread count

    rng = np.random.default_rng(20250521)
    small = [rng.standard_normal(shape) for shape in ((100, 8), (8, 16), (16, 3))]
    medium = [rng.standard_normal(shape) for shape in ((4000, 8), (8, 16), (16, 3))]
    large = [rng.standard_normal(shape) for shape in ((100_000, 8), (8, 48), (48, 3))]
    buffers = (np.empty((4000, 16)), np.empty((4000, 3)))
    return np, small, medium, large, buffers


def calibrate() -> float:
    """Wall seconds of a fixed piece of work shaped like pacmerge's hot loops.

    Three parts of similar length: per-draw Python and small-array overhead
    (a Gaussian draw, a forward pass on 100 rows, a 0-1 risk); forward
    matmuls on 4,000 rows into fixed buffers; and one forward pass on
    100,000 rows into fresh 38 MB arrays, which glibc always maps anew, so
    that page faults and memory bandwidth weigh in as they do for the
    program, whatever state the process's allocator is in.
    """
    np, small, medium, large, (hidden, scores) = _calibration_inputs()
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    x, w1, w2 = small
    risk = 0.0
    for _ in range(CAL_SMALL_PASSES):
        theta = w1 + 0.01 * rng.standard_normal(w1.shape)
        out = np.tanh(x @ theta) @ w2
        risk += float(np.mean(np.argmax(out, axis=1) == 1))
    x, w1, w2 = medium
    for _ in range(CAL_MEDIUM_PASSES):
        np.tanh(np.matmul(x, w1, out=hidden), out=hidden)
        np.matmul(hidden, w2, out=scores)
    x, w1, w2 = large
    risk += float(np.mean(np.argmax(np.tanh(x @ w1) @ w2, axis=1) == 1))
    return time.perf_counter() - started


def _calibration_worker(conn) -> None:
    while conn.recv():
        conn.send(calibrate())


class Calibrator:
    """``calibrate()`` run on request in a forked child process.

    The kernel's 38 MB arrays then stay out of the benchmark process, whose
    peak resident memory is reported as the program's.
    """

    def __enter__(self):
        context = multiprocessing.get_context("fork")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(target=_calibration_worker, args=(child_conn,),
                                       daemon=True)
        self.process.start()
        child_conn.close()
        return self

    def __call__(self) -> float:
        self.conn.send(True)
        return self.conn.recv()

    def __exit__(self, *exc):
        try:
            self.conn.send(False)
        except OSError:
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Bench:
    """One benchmark process: instances, timings, checks and failures."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, traced: bool,
                 work_dir: Path):
        from pacmerge import harness
        from pacmerge.bounds import seeger_certificate

        self.harness = harness
        self.seeger_certificate = seeger_certificate
        overrides = dict(workload.overrides, **(workload.tiny if tiny else {}))
        count = TINY_INSTANCES if tiny else workload.instances
        if traced:
            count = min(count, TRACED_INSTANCES)
        self.configs = [
            harness.make_config(workload.scenario, dict(overrides, seed=instance_seed(seed, i)))
            for i in range(count)
        ]
        self.dirs = [work_dir / f"instance{i}" for i in range(count)]
        self.setup_s: list[float] = []
        self.runs: list[dict] = []  # one per harness.run call
        self.first_records: dict[int, list] = {}
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.calibration_s: list[float] = []

    def set_up(self, index: int) -> float | None:
        """Build the instance's world with a cold pool cache; run() then loads it.

        Returns the build time, or None if the build failed."""
        pools = self.dirs[index] / "pools"
        shutil.rmtree(pools, ignore_errors=True)
        started = time.perf_counter()
        try:
            self.harness.build_world(self.configs[index], pools)
        except Exception:  # a failed build is a failure, not an abort
            self.attempted += 1
            self.failures.append(f"instance {index} set-up: {traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - started
        self.setup_s.append(elapsed)
        return elapsed

    def run_once(self, index: int) -> dict | None:
        """One closed-loop scenario run from the cached pool, then its checks."""
        config, out_dir = self.configs[index], self.dirs[index]
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            record = self.harness.run(config, out_dir)
        except Exception:  # a crashed scenario is a failure, not an abort
            self.attempted += 1
            self.failures.append(f"instance {index}: {traceback.format_exc()}")
            return None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

        records = record.records
        self.attempted += len(records)
        for rec in records:
            problem = check_record(rec, self.seeger_certificate)
            if problem:
                self.failures.append(f"instance {index}: {problem}")
        expected = expected_certificates(config)
        if len(records) != expected:
            self.attempted += 1
            self.failures.append(f"instance {index}: {len(records)} certificates, expected {expected}")

        csv_path = out_dir / f"{config['scenario']}-{config.hash}.csv"
        csv = csv_path.read_bytes()
        header = ",".join(self.harness.REPORT_COLUMNS)
        if csv.decode("utf-8").splitlines()[:1] != [header] or csv.count(b"\n") != len(records) + 1:
            self.attempted += 1
            self.failures.append(f"instance {index}: malformed CSV report {csv_path.name}")
        digest = hashlib.sha256(csv).hexdigest()
        first = self.digests.setdefault(index, digest)
        if digest != first:
            self.attempted += 1
            self.failures.append(f"instance {index}: CSV digest {digest} != first run's {first}")
        self.first_records.setdefault(index, records)

        sample = {"instance": index, "wall_s": wall, "cpu_s": cpu, "certs": len(records)}
        self.runs.append(sample)
        return sample

    def quality(self) -> dict:
        records = [r for recs in self.first_records.values() for r in recs]
        if not records:
            return {}
        n = len(records)
        return {
            "pb_bound_mean": sum(r.pb_bound for r in records) / n,
            "nonvacuous_frac": sum(not r.vacuous for r in records) / n,
            "test_error_mean": sum(r.test_error for r in records) / n,
            "bound_held_frac": sum(r.test_error <= r.pb_bound for r in records) / n,
        }

    def instances_info(self) -> list[dict]:
        return [
            {"config_seed": c["seed"], "config_hash": c.hash, "csv_sha256": self.digests.get(i)}
            for i, c in enumerate(self.configs)
        ]


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    """Set up and run the instances in turn until ``seconds`` are spent.

    The first turn is a warm-up: it is checked but not timed.  After it,
    every instance gets at least one timed turn, even past the deadline.
    ``calibrate`` runs (in a child process) before the first timed turn and
    after each, and a turn's timings are scaled by ``REF_CAL_S`` over the
    mean of the calibration times on either side of it.
    """
    count = len(bench.configs)
    deadline = time.perf_counter() + seconds
    bench.set_up(0)
    bench.run_once(0)
    turns = []  # (instance, set-up seconds or None, run sample or None)
    with Calibrator() as calibrate_now:
        cal = [calibrate_now()]
        started = time.perf_counter()
        for step in itertools.count():
            index = step % count
            setup = bench.set_up(index)
            run = bench.run_once(index) if setup is not None else None
            turns.append((index, setup, run))
            cal.append(calibrate_now())
            if step + 1 < count:
                continue
            now = time.perf_counter()
            if now + (now - started) / (step + 1) > deadline:
                break
    bench.calibration_s = cal
    scales = [2.0 * REF_CAL_S / (before + after) for before, after in zip(cal, cal[1:])]
    setups = [setup * f for (_, setup, _), f in zip(turns, scales) if setup is not None]
    by_instance: dict[int, list] = {}
    for (index, _, run), f in zip(turns, scales):
        if run is not None:
            by_instance.setdefault(index, []).append((run["wall_s"] * f, run["cpu_s"] * f))
    if not setups or not by_instance:
        return {}

    def per_world(column):
        # One number per world (the median of its turns), then the mean over worlds.
        return statistics.mean(
            statistics.median(sample[column] for sample in samples)
            for samples in by_instance.values())

    certs = statistics.mean(expected_certificates(bench.configs[i]) for i in by_instance)
    run_s = per_world(0)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "run_cpu_s": per_world(1),
        "certs_per_s": certs / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(bench.quality())
    return metrics


def measure_per_layer(bench: Bench, tracer) -> dict:
    count = len(bench.configs)
    plain_s, traced_s = [], []
    for index in range(count):
        tracer.install()
        try:
            built = bench.set_up(index)
        finally:
            tracer.uninstall()
        if built is None:
            continue
        plain = bench.run_once(index)
        tracer.install()
        try:
            traced = bench.run_once(index)
        finally:
            tracer.uninstall()
        if plain and traced:
            plain_s.append(plain["wall_s"])
            traced_s.append(traced["wall_s"])

    table = tracer.by_label()

    def field(label, key):
        return table.get(label, {}).get(key, 0) / count

    metrics = {}
    for name, _ in PER_LAYER:
        label, _, key = name.rpartition(".")
        if key in ("calls", "self_s", "s") and label in table:
            metrics[name] = field(label, key)
    for module in ("bounds", "certify", "cma", "harness", "merging", "params",
                   "posterior", "seeding", "toyzoo"):
        metrics[f"{module}.self_s"] = sum(
            v["self_s"] for k, v in table.items() if k.startswith(module + ".")) / count

    evals = sum(s["evals"] for s in tracer.searches)
    certificate_spans = (
        tracer.durations("certify.certify", unless_parent=("certify.certify_ddp",))
        + tracer.durations("certify.certify_ddp")
        + tracer.durations("certify.certify_discrete")
    )
    run_total = table.get("harness.run", {}).get("s", 0.0)
    metrics.update({
        "toyzoo.forward.rows": tracer.counters["toyzoo.forward.rows"] / count,
        "toyzoo.forward.gflop_computed": tracer.counters["toyzoo.forward.flop"] / 1e9 / count,
        "params.pool_save_s": field("params.pool_save", "s"),
        "params.pool_load_s": field("params.pool_load", "s"),
        "posterior.draws": tracer.counters["posterior.draws"] / count,
        "cma.evals": evals / count,
        "cma.generations": field("cma.CmaEs.ask", "calls"),
        "cma.ask_tell.self_s": field("cma.CmaEs.ask", "self_s") + field("cma.CmaEs.tell", "self_s"),
        "cma.useful_eval_frac": (
            sum(s["last_improvement"] for s in tracer.searches) / evals if evals else 0.0),
        "certify.objective_eval_us": (
            table.get("certify.optimize", {}).get("s", 0.0) / evals * 1e6 if evals else 0.0),
        "certify.cert_s_p50": statistics.median(certificate_spans) if certificate_spans else 0.0,
        "harness.build_world_s": field("harness.build_world", "s"),
        "harness.write_report_s": field("harness.write_report", "s"),
        "harness.report_bytes": tracer.counters["harness.report_bytes"] / count,
        "trace.overhead_s": min(traced_s) - min(plain_s) if plain_s else 0.0,
        "trace.coverage_frac": (
            1.0 - table["harness.run"]["self_s"] / run_total if run_total else 0.0),
        "trace.spans": len(tracer) / count,
    })
    return {name: metrics.get(name, 0.0) for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own git directory, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: few evaluations, two small instances")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pacmerge" / "__init__.py").is_file():
        print(f"bench: no pacmerge sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    # The load is serial: no pacmerge worker threads and one BLAS thread.
    inherited_threads = os.environ.pop("PACMERGE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import numpy
    import pacmerge

    if Path(pacmerge.__file__).resolve().parent != (src / "pacmerge").resolve():
        print(f"bench: imported pacmerge from {pacmerge.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_ROOT / f"work-{tag}-{os.getpid()}"
    try:
        bench = Bench(workload, args.seed, args.tiny, bool(args.trace), work_dir)
        if args.trace:
            tracer = Tracer()
            values = measure_per_layer(bench, tracer)
            tracer.save(OUT_ROOT / f"spans-{args.workload}.npz")
            specs = PER_LAYER
        else:
            values = measure_end_to_end(bench, args.seconds)
            specs = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = not bench.failures and all(name in values for name, _ in specs)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "scenario": workload.scenario,
        "instances": bench.instances_info(),
        "runs": bench.runs,
        "setup_s": bench.setup_s,
        "calibration_s": bench.calibration_s,
        "ref_calibration_s": REF_CAL_S,
        "fail_frac": len(bench.failures) / max(bench.attempted, 1),
        "failures": bench.failures,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "git_commit": git_commit(ROOT),
        "pacmerge_threads_inherited": inherited_threads,
        "blas_threads": 1,
        "metrics": values,
    }
    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    (OUT_ROOT / f"result-{tag}.json").write_text(json.dumps(info, indent=2) + "\n",
                                                 encoding="utf-8")
    for failure in bench.failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    for name, unit in specs:
        if name in values:
            print(f"# {name} = {values[name]:.6g} {unit}")
    print("# info " + json.dumps({k: info[k] for k in (
        "workload", "seed", "instances", "fail_frac", "machine", "git_commit",
        "pacmerge_threads_inherited", "blas_threads")}))
    result = {
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": len(bench.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in specs if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
