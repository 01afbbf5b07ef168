"""Out-of-tree instrumentation for the benchmark.

Every probe here wraps a *public* entry point of one ``repro`` layer from
the outside; nothing under ``src/`` is modified.  Two kinds of probe:

* :class:`Jobs` is always installed.  It times each job (one
  ``CampaignRunner.run`` or ``BeamExperiment.run`` call), keeps a digestable
  summary of the job's result, and counts the evaluations handed to an
  executor (``run_chunks``) — the "attempted" side of failure accounting.
  Its cost inside the timed window is two clock reads per job and one
  addition per chunk call.
* :class:`Tracer` is installed only for a traced pass.  It records one span
  (name, start, end, parent, run id) per call into the layers named in
  :data:`SPANS`, keeps the spans in memory, and reduces them to per-layer
  call counts and self time when the pass ends.  Forked lease workers
  record into their inherited copy and write it to a file as they exit.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from digest import beam_summary, campaign_summary

# (module, owner class or None for a module function, attribute, span name)
SPANS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.sim.launch", None, "run_kernel", "sim.golden"),
    ("repro.sim.replay", "ReplaySession", "ensure_capture", "replay.capture"),
    ("repro.sim.replay", "ReplaySession", "ensure_ticks", "replay.ensure_ticks"),
    ("repro.sim.replay", "ReplaySession", "run", "replay.run"),
    ("repro.faultsim.batch", "BatchEvaluator", "classify", "batch.classify"),
    ("repro.faultsim.campaign", "CampaignRunner", "run", "campaign"),
    ("repro.faultsim.campaign", "CampaignRunner", "plan_tasks", "campaign.plan"),
    ("repro.beam.experiment", "BeamExperiment", "run", "beam.run"),
    ("repro.beam.experiment", "BeamExperiment", "exposure", "beam.exposure"),
    ("repro.beam.engine", "BeamEngine", "evaluate_detailed", "beam.eval"),
    ("repro.predict.model", None, "measure_microbench_fits", "microbench.fits"),
    ("repro.profiling.profiler", "Profiler", "metrics", "profiling.metrics"),
    ("repro.predict.model", "PredictionModel", "predict", "predict"),
    ("repro.predict.model", None, "measure_memory_avf", "predict.memory_avf"),
    ("repro.exec.engine", "SerialExecutor", "run_chunks", "exec.run_chunks"),
    ("repro.exec.engine", "LeaseExecutor", "run_chunks", "exec.run_chunks"),
    ("repro.store.store", "CampaignStore", "get", "store.get"),
    ("repro.store.store", "CampaignStore", "put_chunk", "store.put_chunk"),
    ("repro.store.store", "CampaignStore", "load_chunk", "store.load_chunk"),
    ("repro.report.extract", None, "extract_store", "report.extract"),
    ("repro.report.render", None, "render_report", "report.render"),
]

#: every span name the traced pass reports, in output order; run_kernel
#: records faulty runs as "sim.vanilla" (see Tracer._spanned)
SPAN_NAMES: List[str] = list(dict.fromkeys(["sim.golden", "sim.vanilla"] + [n for *_, n in SPANS]))

#: classes whose per-instance ``stats`` dicts the traced pass sums up
STATS_OWNERS = {
    "replay": ("repro.sim.replay", "ReplaySession"),
    "batch": ("repro.faultsim.batch", "BatchEvaluator"),
}


def _patch_function(module_name: str, attr: str, wrapper: Callable) -> Callable[[], None]:
    """Point every loaded ``repro`` module's binding of ``module.attr`` at
    ``wrapper`` (modules that did ``from x import f`` hold their own
    reference).  Returns the undo callable."""
    original = getattr(sys.modules[module_name], attr)
    patched = []
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)
            patched.append(module)

    def undo() -> None:
        for module in patched:
            setattr(module, attr, original)

    return undo


def _patch_method(owner: type, attr: str, wrapper: Callable) -> Callable[[], None]:
    original = owner.__dict__[attr]
    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


def _target(module_name: str, owner: Optional[str], attr: str) -> Callable:
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(getattr(module, owner), attr) if owner else getattr(module, attr)


class Jobs:
    """Job timer + attempted-evaluation counter (see module doc)."""

    def __init__(self) -> None:
        #: (seconds, result, summarize) per job, in call order; results are
        #: summarized after the timed phase, outside the measured window
        self._jobs: List[Tuple[float, Any, Callable[[Any], dict]]] = []
        #: evaluations handed to an executor
        self.attempted = 0
        self._undo: List[Callable[[], None]] = []

    def install(self) -> None:
        from repro.beam.experiment import BeamExperiment
        from repro.exec.engine import LeaseExecutor, SerialExecutor
        from repro.faultsim.campaign import CampaignRunner

        jobs = self

        def timed(original, summarize):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                result = original(*args, **kwargs)
                jobs._jobs.append((time.perf_counter() - started, result, summarize))
                return result

            return wrapper

        self._undo.append(_patch_method(
            CampaignRunner, "run", timed(CampaignRunner.run, campaign_summary),
        ))
        self._undo.append(_patch_method(
            BeamExperiment, "run", timed(BeamExperiment.run, beam_summary),
        ))
        for owner in (SerialExecutor, LeaseExecutor):
            self._undo.append(_patch_method(owner, "run_chunks", self._counting(owner.run_chunks)))

    def _counting(self, original):
        jobs = self

        @functools.wraps(original)
        def run_chunks(self, fn, context, tasks, *args, **kwargs):
            jobs.attempted += len(tasks)
            return original(self, fn, context, tasks, *args, **kwargs)

        return run_chunks

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def count(self) -> int:
        return len(self._jobs)

    def take(self, start: int = 0) -> Tuple[List[float], List[dict]]:
        """(seconds, summaries) of the jobs from index ``start`` on."""
        picked = self._jobs[start:]
        return [s for s, _, _ in picked], [summarize(r) for _, r, summarize in picked]


class Tracer:
    """In-memory span recorder over the layer entry points in :data:`SPANS`."""

    def __init__(self, run_id: str, out_dir: str) -> None:
        self.run_id = run_id
        self.out_dir = out_dir
        #: [name, start, end, parent index or -1]; every span of this list
        #: belongs to run ``run_id``
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: live ``stats`` dicts of every ReplaySession / BatchEvaluator built
        self.stats: Dict[str, List[dict]] = {kind: [] for kind in STATS_OWNERS}
        #: stats values at fork time (a forked worker reports only its delta)
        self._stats_base: Dict[int, dict] = {}
        self._undo: List[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------
    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, original: Callable) -> Callable:
        call = self.call
        if name == "sim.golden":
            # run_kernel serves golden runs and vanilla faulty runs alike;
            # only the fault arguments tell them apart
            @functools.wraps(original)
            def run_kernel(*args, **kwargs):
                # plan and strikes are the 6th and 7th parameters
                plan = kwargs.get("plan", args[5] if len(args) > 5 else None)
                strikes = kwargs.get("strikes", args[6] if len(args) > 6 else ())
                faulty = plan is not None or bool(strikes)
                return call("sim.vanilla" if faulty else name, original, args, kwargs)

            return run_kernel
        if name == "replay.capture":
            # called before every replayed run; keep the span only when the
            # call captured a tape (it then has no child spans to orphan)
            tracer = self

            @functools.wraps(original)
            def ensure_capture(session, *args, **kwargs):
                before = session.stats["captures"]
                index = len(tracer.spans)
                try:
                    return call(name, original, (session,) + args, kwargs)
                finally:
                    if session.stats["captures"] == before and len(tracer.spans) == index + 1:
                        tracer.spans.pop()

            return ensure_capture

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(name, original, args, kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, owner, attr, name in SPANS:
            original = _target(module_name, owner, attr)
            wrapper = self._spanned(name, original)
            if owner is None:
                self._undo.append(_patch_function(module_name, attr, wrapper))
            else:
                self._undo.append(
                    _patch_method(getattr(sys.modules[module_name], owner), attr, wrapper)
                )
        for kind, (module_name, owner) in STATS_OWNERS.items():
            cls = _target(module_name, None, owner)
            self._undo.append(_patch_method(cls, "__init__", self._registering(kind, cls.__init__)))
        import repro.service.worker as service_worker

        self._undo.append(_patch_function(
            "repro.service.worker", "service_child_main",
            self._child_main(service_worker.service_child_main),
        ))

    def _registering(self, kind: str, original: Callable) -> Callable:
        stats = self.stats[kind]

        @functools.wraps(original)
        def __init__(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            stats.append(instance.stats)

        return __init__

    def _child_main(self, original: Callable) -> Callable:
        """Wrap the forked lease worker's entry point: start from an empty
        span list, and on exit write spans, counters and stats deltas."""
        tracer = self

        @functools.wraps(original)
        def service_child_main(*args, **kwargs):
            from repro.telemetry import get_telemetry

            tracer.spans, tracer._stack = [], []
            tracer._stats_base = {
                id(d): dict(d) for dicts in tracer.stats.values() for d in dicts
            }
            try:
                return original(*args, **kwargs)
            finally:
                path = os.path.join(tracer.out_dir, f"worker-{os.getpid()}.json")
                with open(path, "w") as handle:
                    json.dump({
                        "run_id": tracer.run_id,
                        "spans": tracer.spans,
                        "counters": dict(get_telemetry().registry.counters),
                        "stats": tracer.stats_totals(),
                    }, handle)

        return service_child_main

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reduction ----------------------------------------------------------
    def stats_totals(self) -> Dict[str, Dict[str, float]]:
        totals: Dict[str, Dict[str, float]] = {}
        for kind, dicts in self.stats.items():
            into = totals.setdefault(kind, {})
            for d in dicts:
                base = self._stats_base.get(id(d), {})
                for key, value in d.items():
                    into[key] = into.get(key, 0) + value - base.get(key, 0)
        return totals

    def worker_reports(self) -> List[dict]:
        """Collect (and remove) the files forked workers wrote."""
        reports = []
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-*.json"))):
            with open(path) as handle:
                reports.append(json.load(handle))
            os.remove(path)
        return reports


def self_times(spans: List[list]) -> Dict[str, Tuple[int, float]]:
    """name -> (calls, self seconds).  Spans of one process nest strictly,
    so a span's children cover exactly the sum of their durations."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Tuple[int, float]] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        calls, seconds = out.get(name, (0, 0.0))
        out[name] = (calls + 1, seconds + (end - start) - covered)
    return out


def top_level_seconds(spans: List[list], start: float, end: float) -> float:
    """Time the top-level spans inside ``[start, end]`` cover."""
    return sum(
        min(e, end) - max(s, start)
        for _, s, e, parent in spans
        if parent < 0 and e > start and s < end
    )
