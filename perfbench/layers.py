"""Per-layer metrics of a traced pass: names, units, and their reduction
from spans, telemetry counters and the engines' ``stats`` dicts."""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import SPAN_NAMES, self_times, top_level_seconds

#: repro.telemetry counters reported as counted
COUNTERS = [
    "sim.instructions_total",
    "campaign.injections",
    "beam.evals",
    "mem_avf.strikes",
    "exec.tasks",
    "exec.chunk_retries",
    "store.hits",
    "store.misses",
    "store.commits",
    "service.leases.granted",
    "service.leases.lost_race",
    "service.leases.stolen",
    "service.commits.duplicate",
    "service.heartbeats",
]

#: (name, unit, better) of every per-layer metric, in output order
PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"{name}.{kind}", unit, "lower")
     for name in SPAN_NAMES for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [(name, "count", "lower") for name in COUNTERS]
    + [
        ("sim.host_ns_per_instr", "ns", "lower"),
        ("replay.vanilla_frac", "ratio", "lower"),
        ("batch.resolved_frac", "ratio", "higher"),
        ("exec.cpu_util", "ratio", "higher"),
        ("store.hit_frac", "ratio", "higher"),
        ("store.bytes", "bytes", "lower"),
        ("service.wasted_frac", "ratio", "lower"),
        ("report.html_bytes", "bytes", "lower"),
        ("regen_s", "s", "lower"),
        ("trace.unaccounted_frac", "ratio", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)

#: spans whose self time is spent executing simulated instructions
_SIMULATING = [
    "sim.golden", "sim.vanilla", "replay.capture", "replay.ensure_ticks",
    "replay.run", "batch.classify",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, reports: List[dict], counters: Dict[str, float],
                  out: dict) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``, which needs
    an untraced pass and is computed by run.py.  ``reports`` are the lease
    workers' (:meth:`Tracer.worker_reports`)."""
    spans: Dict[str, Tuple[int, float]] = {}
    stats = tracer.stats_totals()
    counters = dict(counters)
    for process in [tracer.spans] + [r["spans"] for r in reports]:
        for name, (calls, seconds) in self_times(process).items():
            prev_calls, prev_seconds = spans.get(name, (0, 0.0))
            spans[name] = (prev_calls + calls, prev_seconds + seconds)
    for report in reports:
        for name, value in report["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for kind, values in report["stats"].items():
            into = stats.setdefault(kind, {})
            for key, value in values.items():
                into[key] = into.get(key, 0) + value

    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, seconds = spans.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = seconds
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0.0)

    replay = stats.get("replay", {})
    batch = stats.get("batch", {})
    runs = sum(replay.get(k, 0) for k in ("replays", "vanilla", "fallbacks"))
    resolved = batch.get("classified", 0) + batch.get("due", 0)
    hits, misses = metrics["store.hits"], metrics["store.misses"]
    granted = metrics["service.leases.granted"]
    wasted = metrics["service.leases.lost_race"] + metrics["service.commits.duplicate"]
    start, end = out["measured"]
    metrics.update({
        "sim.host_ns_per_instr": _ratio(
            1e9 * sum(metrics[f"{n}.self_s"] for n in _SIMULATING),
            metrics["sim.instructions_total"],
        ),
        "replay.vanilla_frac": _ratio(replay.get("vanilla", 0) + replay.get("fallbacks", 0), runs),
        "batch.resolved_frac": _ratio(resolved, resolved + batch.get("residual", 0)),
        "exec.cpu_util": _ratio(out["cpu_s"], out["wall_s"] * out["workers"]),
        "store.hit_frac": _ratio(hits, hits + misses),
        "store.bytes": out.get("store_bytes", 0),
        "service.wasted_frac": _ratio(wasted, granted),
        "report.html_bytes": out.get("html_bytes", 0),
        "regen_s": out.get("regen_s", 0.0),
        "trace.unaccounted_frac": _ratio(
            out["wall_s"] - top_level_seconds(tracer.spans, start, end), out["wall_s"]
        ),
    })
    return metrics
