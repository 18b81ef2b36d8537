"""nullsteer benchmark: closed-loop studies driving the real CLI in-process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload tree-d8 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # every study

Workloads (see ``workloads.py`` for why each was chosen): ``tree-d8``,
``tau-sweep``, ``figures`` and ``wide-charges``.  One client runs jobs back
to back in one process (a closed loop); inputs come from ``--seed``.

With ``--trace 0`` a run makes

- fresh interpreters that only ``import nullsteer.cli`` (``setup_s``),
- cold processes that import and run job 0 once (``cold_job_s``),
- one workload process that runs jobs until ``--seconds`` have passed
  since the cold processes began; its first job is cold too, the rest
  give ``job_s_p50`` and ``job_s_tail``, and its peak resident set
  (``VmHWM``) is ``peak_rss_mb``.

With ``--trace 1`` an untraced process and a traced process (spans from
``tracing.py``) share the time; per-layer numbers come from the traced
one's warm jobs, and the tracing overhead is the difference of their
median job times.

Every CLI run is checked against ``oracle.py``.  Job 0 runs in at least two
processes, and its outputs must be byte-identical in all of them.
``fail_ratio`` counts runs that raised, exited non-zero, failed the check
or were not byte-identical, over all CLI runs attempted; the report prints
it, and the JSON line carries it as ``failed`` over ``attempted``.

The report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics listed in
BENCHMARK.json.  The traced report prints every per-layer number, also
those left out of BENCHMARK.json because they are zero on some workload.
BLAS pools are pinned to one thread; NULLSTEER_THREADS is left unset so
that the program's default thread pool is what is measured.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NULLSTEER_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".bench_work")

IMPORT_PROBES = 5       # import-only interpreters before and after the jobs
MAX_COLD_PROBES = 8     # cold processes per run
COLD_SHARE = 1 / 3      # share of --seconds given to cold processes
RUN_DEADLINE_S = 170.0  # every run ends well inside 180 s
TAIL_BEYOND = 10        # jobs that must lie beyond the reported tail

END_TO_END_UNITS = {"job_s_p50": "s", "job_s_tail": "s", "cold_job_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

#: Unit of a per-layer number, by the last part of its name.
_LAYER_UNITS = {"calls": "count", "roots": "count", "steps": "count",
                "bytes": "bytes", "threads": "count", "self_s": "s",
                "in_disk_ratio": "ratio"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a program failure)."""


def layer_unit(name):
    return _LAYER_UNITS[name.rsplit(".", 1)[1]]


def host_info():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nullsteer_threads": os.environ.get("NULLSTEER_THREADS", "unset"),
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.dir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
        self.processes = []  # worker results: dicts with tag, import_s, rss_mb, jobs

    def remaining(self):
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, tag, mode, budget_s=0.0, min_jobs=1, trace=False):
        spec = {
            "root": ROOT, "workload": self.workload, "seed": self.seed,
            "mode": mode, "budget_s": budget_s, "min_jobs": min_jobs, "trace": trace,
            "out": os.path.join(self.dir, tag), "result": os.path.join(self.dir, f"{tag}.json"),
        }
        os.makedirs(spec["out"])
        log = os.path.join(self.dir, f"{tag}.log")
        timeout = self.remaining()
        if timeout <= 0:
            raise HarnessError(f"no time left for {tag} within {RUN_DEADLINE_S:g} s")
        with open(log, "w") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(spec)],
                    cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=err, timeout=timeout, check=False)
            except subprocess.TimeoutExpired as exc:
                raise HarnessError(f"{tag} did not finish within {timeout:.0f} s") from exc
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            with open(log) as fh:
                tail = fh.read()[-2000:]
            raise HarnessError(f"{tag} exited with code {proc.returncode}:\n{tail}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result["tag"] = tag
        self.processes.append(result)
        return result

    def measure(self):
        """Run this mode's processes; return the untraced workload process and
        the traced one (None without tracing)."""
        if self.trace:
            half = self.seconds / 2.0
            plain = self.spawn("untraced", "jobs", budget_s=half, min_jobs=2)
            traced = self.spawn("traced", "jobs", budget_s=half, min_jobs=2, trace=True)
            return plain, traced
        # Import samples are taken before and after the jobs, so that one
        # moment of contention on the host cannot decide the median.
        self.spawn("import-warmup", "import")  # may compile bytecode
        del self.processes[0]
        for i in range(IMPORT_PROBES):
            self.spawn(f"import{i}", "import")
        cold_start = time.monotonic()
        for i in range(MAX_COLD_PROBES):
            if i and time.monotonic() - cold_start >= COLD_SHARE * self.seconds:
                break
            self.spawn(f"cold{i}", "jobs", min_jobs=1)
        budget = max(0.0, self.seconds - (time.monotonic() - cold_start))
        warm = self.spawn("warm", "jobs", budget_s=budget, min_jobs=2)
        for i in range(IMPORT_PROBES, 2 * IMPORT_PROBES):
            self.spawn(f"import{i}", "import")
        return warm, None

    def check(self):
        """Oracle and determinism checks over every CLI run; return (attempted, failures)."""
        attempted = 0
        failures = []
        verdicts = {}
        reference = {}
        for proc in self.processes:
            for job in proc["jobs"]:
                for k, run in enumerate(job["runs"]):
                    attempted += 1
                    command = " ".join(run["argv"][:2])
                    where = f"{proc['tag']} job {job['index']} run {k} ({command})"
                    if run["error"] is not None or run["rc"] != 0:
                        failures.append(f"{where}: exit {run['rc']} {run['error'] or ''}".strip())
                        continue
                    # Figure jobs all have the same inputs; other jobs' inputs
                    # are fixed by their index.
                    key = (0 if self.workload == "figures" else job["index"], k)
                    if key in reference:
                        if reference[key] != run["digests"]:
                            failures.append(f"{where}: outputs differ from the first run "
                                            f"of identical inputs")
                            continue
                    else:
                        reference[key] = run["digests"]
                        verdicts[key] = oracle.check_run(run["argv"])
                    failures += [f"{where}: {p}" for p in verdicts[key]]
        return attempted, failures


def _tail(samples):
    """Highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def warm_times(proc):
    return [job["seconds"] for job in proc["jobs"][1:]]


def end_to_end(run, warm):
    warm_s = warm_times(warm)
    cold = [p["jobs"][0]["seconds"] for p in run.processes if p["jobs"]]
    imports = [p["import_s"] for p in run.processes]
    tail, pct = _tail(warm_s)
    return {
        "job_s_p50": (statistics.median(warm_s), f"n={len(warm_s)} warm jobs"),
        "job_s_tail": (tail, f"p{pct:.1f}, n={len(warm_s)} warm jobs"
                       + (", maximum: too few jobs" if len(warm_s) <= TAIL_BEYOND else "")),
        "cold_job_s": (statistics.median(cold), f"median of n={len(cold)} fresh processes"),
        "setup_s": (statistics.median(imports), f"median of n={len(imports)} fresh interpreters"),
        "peak_rss_mb": (warm["rss_mb"], "peak resident set (VmHWM) of the workload process, n=1"),
    }


def per_layer(plain, traced):
    jobs = traced["jobs"][1:]
    names = list(jobs[0]["layers"])
    per_job = {name: statistics.median(j["layers"][name] for j in jobs) for name in names}
    totals = {name: sum(j["layers"][name] for j in traced["jobs"]) for name in names}
    overhead = statistics.median(warm_times(traced)) - statistics.median(warm_times(plain))
    return per_job, totals, len(traced["jobs"]), overhead


def _benchmark_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds, trace)
    print(f"# workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("# host " + " ".join(f"{k}={v!r}" for k, v in host_info().items()))
    try:
        warm, traced = run.measure()
        attempted, failures = run.check()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    print(f"metric fail_ratio = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} failed of n={attempted} CLI runs)")
    for line in failures[:20]:
        print(f"fail {line}")
    if len(failures) > 20:
        print(f"fail ... {len(failures) - 20} more")
    if trace:
        per_job, totals, n_jobs, overhead = per_layer(warm, traced)
        metrics = {name: (value, layer_unit(name)) for name, value in per_job.items()}
        metrics["tracing_overhead_s"] = (overhead, "s")
        for name, value in per_job.items():
            print(f"layer {name} = {value:.6g} {layer_unit(name)} per job "
                  f"(median of n={n_jobs - 1} warm traced jobs; workload total "
                  f"{totals[name]:.6g} over {n_jobs} jobs)")
        print(f"layer tracing_overhead_s = {overhead:.6g} s (traced minus untraced job_s_p50)")
        wanted = _benchmark_metrics("per_layer")
    else:
        metrics = {}
        for name, (value, note) in end_to_end(run, warm).items():
            metrics[name] = (value, END_TO_END_UNITS[name])
            print(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]} ({note})")
        wanted = _benchmark_metrics("end_to_end")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "nullsteer", "__init__.py")):
        print(f"error: no nullsteer sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
