"""One benchmark process: import nullsteer, then run jobs in-process.

Run by ``run.py`` as ``python3 bench/worker.py '<spec json>'``.  The spec
names the workload, seed, mode and output locations:

- ``import``: time ``import nullsteer.cli`` and exit;
- ``jobs``: run job 0, 1, 2, ... until ``budget_s`` has passed (at least
  ``min_jobs``), optionally with tracing.

Each job's time runs from its first CLI call to the return of its last,
which has written the last CSV and manifest.  Input generation, output
hashing and trace processing happen outside that interval.  The result,
with the peak resident set of this process, goes to the spec's ``result``
path.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def peak_rss_mb():
    """Peak resident set of this process image (``VmHWM``), in MiB.

    ``ru_maxrss`` is the fallback only: on Linux it also counts the resident
    set the parent had when it forked this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(out_dir):
    """sha256 of every output file except the manifest, which holds wall time."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "run_manifest.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main(spec):
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    start = time.perf_counter()
    import nullsteer.cli as cli
    import_s = time.perf_counter() - start
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's src/")
    result = {"import_s": import_s, "jobs": []}
    if spec["mode"] == "jobs":
        result["jobs"] = run_jobs(spec, cli)
    result["rss_mb"] = peak_rss_mb()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


def run_jobs(spec, cli):
    import workloads

    tracer = None
    if spec["trace"]:
        import oracle
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    jobs = []
    loop_start = time.perf_counter()
    index = 0
    while index < spec["min_jobs"] or time.perf_counter() - loop_start < spec["budget_s"]:
        job_dir = os.path.join(spec["out"], f"job_{index:04d}")
        argvs = workloads.make_job(spec["workload"], spec["seed"], index, job_dir)
        outcomes = []
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        for argv in argvs:
            try:
                outcomes.append((cli.main(argv), None))
            except Exception:  # a crash in the program is a failed run, not a harness error
                outcomes.append((None, traceback.format_exc(limit=3)))
        seconds = time.perf_counter() - start
        runs = []
        for argv, (rc, error) in zip(argvs, outcomes):
            out_dir = argv[argv.index("--out") + 1]
            digests = _digest(out_dir) if rc == 0 and os.path.isdir(out_dir) else {}
            runs.append({"argv": argv, "rc": rc, "error": error, "digests": digests})
        job = {"index": index, "seconds": seconds, "runs": runs}
        if tracer is not None:
            job["layers"] = tracing.job_layers(tracer.take(index), oracle.config_root_match)
        jobs.append(job)
        index += 1
    return jobs


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
