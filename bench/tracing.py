"""Timing spans around nullsteer's public functions, installed from outside.

The program is not modified.  ``Tracer.install`` replaces each target
function with one timing wrapper and puts that wrapper at every module
attribute that named the original (``charges.stationary_points``,
``survival.stationary_points``, ``cli.stationary_points``, the package
namespace, ...), so a call is timed once whichever alias reached it.

A span records its name, start, end, thread id, job id and its parent, the
innermost open span on the same thread.  Spans opened on a thread with no
open span (the sweep's pool workers) have no parent and belong to the job
span by job id.  A span's self time is its duration minus the union of its
children's intervals, so time spent waiting on pool workers stays in the
self time of the span that waits.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

#: Traced functions as (module, attribute path).  ``perturbation`` is left
#: out: it is closed-form and no open item targets its speed.
TARGETS = (
    ("models", "spectral_decompose"),
    ("models", "propagator"),
    ("models", "SpectralDecomposition.hamiltonian"),
    ("survival", "full_spectrum"),
    ("survival", "build_survival"),
    ("survival", "dark_states"),
    ("survival", "disk_eigenpairs"),
    ("charges", "charges"),
    ("charges", "stationary_points"),
    ("charges", "detect_exceptional"),
    ("evolution", "evolve"),
    ("evolution", "classify_regime"),
    ("configio", "load_config"),
    ("configio", "resolve_state"),
    ("csvio", "write_csv"),
    ("svgplot", "SvgFigure.write"),
    ("cli", "run_experiment"),
    ("cli", "run_reproduce"),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)


def _argument(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


# Extra sizes captured per call: name -> function(args, kwargs, result).
# They keep references only; anything costly is computed after the job.
_CAPTURE = {
    "survival.disk_eigenpairs": lambda a, k, r: len(_argument(a, k, 3, "roots")),
    "charges.stationary_points": lambda a, k, r: (_argument(a, k, 0, "config"), r),
    "evolution.evolve": lambda a, k, r: int(_argument(a, k, 2, "n_steps")),
    "csvio.write_csv": lambda a, k, r: _argument(a, k, 0, "path"),
}


class Span:
    __slots__ = ("name", "job", "thread", "parent", "start", "end", "info")

    def __init__(self, name, job, thread, parent):
        self.name = name
        self.job = job
        self.thread = thread
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Collects spans in memory; ``job`` tags every span opened meanwhile."""

    def __init__(self):
        self.job = None
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        capture = _CAPTURE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, self.job, threading.get_ident(),
                        stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if capture is not None:
                span.info = capture(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target at every nullsteer module attribute naming it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "nullsteer" or n.startswith("nullsteer.")]
        for mod_name, path in TARGETS:
            module = importlib.import_module(f"nullsteer.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            traced = self.wrap(f"{mod_name}.{path}", original)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def take(self, job):
        """Remove and return the spans recorded for one job."""
        with self._lock:
            mine = [s for s in self.spans if s.job == job]
            self.spans = [s for s in self.spans if s.job != job]
        return mine


def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map each span to its duration minus the union of its children."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {
        id(s): (s.end - s.start)
        - union_length(children.get(id(s), ()), s.start, s.end)
        for s in spans
    }


def job_layers(spans, root_match):
    """Per-layer numbers of one job's spans.

    ``root_match(config, roots)`` returns how many returned roots lie
    strictly inside the unit disk and match the oracle.
    """
    own = self_times(spans)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    roots_returned = roots_good = 0
    out["survival.disk_eigenpairs.roots"] = 0
    out["evolution.evolve.steps"] = 0
    out["csvio.write_csv.bytes"] = 0
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own[id(s)]
        if s.info is None:
            continue
        if s.name == "survival.disk_eigenpairs":
            out["survival.disk_eigenpairs.roots"] += s.info
        elif s.name == "charges.stationary_points":
            config, result = s.info
            roots_returned += len(result.roots)
            roots_good += root_match(config, result.roots)
        elif s.name == "evolution.evolve":
            out["evolution.evolve.steps"] += s.info
        elif s.name == "csvio.write_csv":
            out["csvio.write_csv.bytes"] += os.path.getsize(s.info)
    out["charges.stationary_points.roots"] = roots_returned
    out["charges.stationary_points.in_disk_ratio"] = (
        roots_good / roots_returned if roots_returned else 1.0
    )
    out["cli.threads"] = len({s.thread for s in spans})
    return out
