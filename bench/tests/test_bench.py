"""Tests of the benchmark harness itself, at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest bench/tests -q``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

END_TO_END = ("job_s_p50", "job_s_tail", "cold_job_s", "setup_s", "peak_rss_mb", "fail_ratio")
NAMED_LAYERS = (
    [f"{name}.{part}" for name in tracing.SPAN_NAMES for part in ("calls", "self_s")]
    + ["survival.disk_eigenpairs.roots", "charges.stationary_points.roots",
       "charges.stationary_points.in_disk_ratio", "evolution.evolve.steps",
       "csvio.write_csv.bytes", "cli.threads", "tracing_overhead_s"]
)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _benchmark_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


def test_one_command_prints_every_metric_with_unit_and_count():
    proc = _bench("--workload", "figures", "--seed", "0", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name in END_TO_END:
        pattern = rf"^metric {name} = \S+ \S+ \(.*n=\d+"
        assert any(re.match(pattern, ln) for ln in lines), f"{name} missing:\n{proc.stdout}"
    assert any(ln.startswith("# host ") and "blas=" in ln and "nproc=" in ln for ln in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _benchmark_names("end_to_end")
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and metric["unit"]


def test_traced_run_emits_every_named_layer_metric():
    proc = _bench("--workload", "figures", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    printed = {m.group(1) for m in re.finditer(r"^layer (\S+) = ", proc.stdout, re.M)}
    assert set(NAMED_LAYERS) <= printed
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["metrics"]) == _benchmark_names("per_layer")
    assert result["metrics"]["charges.stationary_points.calls"]["value"] == 210
    assert result["metrics"]["charges.stationary_points.in_disk_ratio"]["value"] == 1.0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "figures", "--seed", "0", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture
def charges_run(tmp_path):
    """A w=6 `run charges` on a random custom model; returns its argv."""
    import nullsteer.cli as cli

    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    config = {"model": {"type": "custom", "matrix_re": ((a + a.T) / 2).tolist()},
              "detection": {"vector": {"re": psi.real.tolist(), "im": psi.imag.tolist()}},
              "tau": 0.7, "experiment": "charges"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    return argv


def _rewrite_first_root(argv, move):
    path = os.path.join(argv[-1], "roots.csv")
    with open(path) as fh:
        header, first, *rest = fh.read().splitlines()
    re_xi, im_xi = (float(x) for x in first.split(",")[:2])
    xi = move(complex(re_xi, im_xi))
    cells = [xi.real, xi.imag, abs(xi), float(np.angle(xi)), 0.0]
    with open(path, "w") as fh:
        fh.write("\n".join([header, ",".join("%.16e" % c for c in cells), *rest]) + "\n")


def test_oracle_accepts_correct_roots(charges_run):
    assert oracle.check_run(charges_run) == []


def test_root_moved_outside_the_disk_fails(charges_run):
    _rewrite_first_root(charges_run, lambda xi: xi / abs(xi) * 1.01)
    problems = oracle.check_run(charges_run)
    assert problems and "1 of 5 roots outside the unit disk" in problems[0]


def test_root_moved_off_the_oracle_fails(charges_run):
    _rewrite_first_root(charges_run, lambda xi: xi * (1.0 - 1e-6))
    problems = oracle.check_run(charges_run)
    assert problems and "1 not matching the oracle" in problems[0]


def test_rerun_with_different_bytes_counts_as_failure(charges_run):
    bench_run = run.Run("wide-charges", 0, 1.0, False)
    job = {"index": 0, "seconds": 0.1,
           "runs": [{"argv": charges_run, "rc": 0, "error": None, "digests": {"roots.csv": "a"}}]}
    rerun = json.loads(json.dumps(job))
    rerun["runs"][0]["digests"]["roots.csv"] = "b"
    bench_run.processes = [{"tag": "cold0", "jobs": [job]}, {"tag": "warm", "jobs": [rerun]}]
    attempted, failures = bench_run.check()
    assert attempted == 2
    assert len(failures) == 1 and "differ" in failures[0]


def _span(name, parent, start, end, thread=1):
    span = tracing.Span(name, 0, thread, parent)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_the_union_of_children():
    parent = _span("cli.run_experiment", None, 0.0, 10.0)
    left = _span("charges.charges", parent, 1.0, 4.0)
    right = _span("charges.charges", parent, 3.0, 6.0, thread=2)
    grandchild = _span("models.propagator", left, 1.5, 2.5)
    own = tracing.self_times([parent, left, right, grandchild])
    assert own[id(parent)] == pytest.approx(5.0)
    assert own[id(left)] == pytest.approx(2.0)
    assert own[id(right)] == pytest.approx(3.0)
    layers = tracing.job_layers([parent, left, right, grandchild], lambda c, r: 0)
    assert layers["charges.charges.calls"] == 2
    assert layers["cli.threads"] == 2
