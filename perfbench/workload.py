"""One benchmark pass, in a fresh interpreter.

    python3 perfbench/workload.py --workload fig5-beam --seed 0 \\
        --work-dir DIR --out pass.json [--trace] [--setup-only] [--size tiny]

The pass builds its inputs from the seed, runs the workload once, and
writes one JSON object to ``--out``: set-up time, phase times, completed
and attempted evaluations, per-job times, output digests and, for a traced
pass, the per-layer numbers.  ``run.py`` starts the passes and reduces them
to the benchmark's metrics; a fresh interpreter per pass means every pass
pays the cold costs (imports, golden captures) a user's run pays.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from interpreter start-up

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

WORKLOADS = ("fig5-beam", "served-pipeline")

#: ExperimentConfig sizes per workload.  "bench" is what the benchmark
#: measures; "tiny" keeps the same job matrix at the smallest sizes, for the
#: benchmark's own tests.  Beam runs evaluate at least four faults per
#: mechanistic resource whatever ``beam_fault_evals`` says.
SIZES = {
    "bench": {
        "fig5-beam": dict(beam_fault_evals=8),
        "served-pipeline": dict(injections=8, beam_fault_evals=4, memory_avf_strikes=4),
    },
    "tiny": {
        "fig5-beam": dict(beam_fault_evals=1),
        "served-pipeline": dict(injections=8, beam_fault_evals=4, memory_avf_strikes=4),
    },
}

#: lease workers of the served pipeline (nproc of the 2-core reference box)
SERVED_WORKERS = 2

#: warm passes (second session over the complete store, then dashboard
#: extract and render) per served pass; regen_s is their median
WARM_REPEATS = 2

class Pass:
    """Inputs and handles of one pass, built before the first layer call."""

    def __init__(self, workload: str, seed: int, size: str, work_dir: pathlib.Path) -> None:
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.due import run_due
        from repro.experiments.fig1 import run_fig1
        from repro.experiments.fig3 import run_fig3
        from repro.experiments.fig4 import FIG4_KEPLER, FIG4_VOLTA, run_fig4
        from repro.experiments.fig5 import FIG5_CODES, run_fig5
        from repro.experiments.fig6 import run_fig6
        from repro.experiments.table1 import run_table1

        # layers the served pipeline reaches only after set-up
        import repro.report.extract  # noqa: F401
        import repro.report.render  # noqa: F401
        import repro.service.worker  # noqa: F401

        fig4 = {("kepler", c) for c in FIG4_KEPLER} | {("volta", c) for c in FIG4_VOLTA}
        fig5 = {(arch, c) for (arch, _), codes in FIG5_CODES.items() for c in codes}
        self.figures, codes = {
            "fig5-beam": ([run_fig5], fig5),
            "served-pipeline": (
                [run_table1, run_fig1, run_fig3, run_fig4, run_fig5, run_fig6, run_due],
                fig4 | fig5,
            ),
        }[workload]
        self.workload = workload
        self.work_dir = work_dir
        self.store_path = work_dir / "campaigns.sqlite"  # served-pipeline only
        self.completed = 0
        self.config = ExperimentConfig(seed=seed, **SIZES[size][workload])
        self.workers = SERVED_WORKERS if workload == "served-pipeline" else 1
        self.session = self.new_session()
        for arch, code in sorted(codes):
            self.session.workload(arch, code)

    def _count(self, _result) -> None:
        self.completed += 1

    def new_session(self):
        """A fresh session: serial without a store, or lease workers over
        the served pipeline's SQLite store (opened anew, as a rerun would)."""
        from dataclasses import replace

        from repro.exec.engine import LeaseExecutor
        from repro.experiments.session import ExperimentSession
        from repro.store.policy import ExecutionPolicy
        from repro.store.store import open_store

        if self.workload != "served-pipeline":
            return ExperimentSession(self.config, on_result=self._count)
        config = replace(self.config, policy=ExecutionPolicy(store=open_store(self.store_path)))
        return ExperimentSession(
            config, on_result=self._count, executor=LeaseExecutor(workers=self.workers)
        )

    def run_figures(self, session) -> list:
        return [figure(session=session)[0] for figure in self.figures]


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped worker (Linux
    reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _store_bytes(path: pathlib.Path) -> int:
    """Database plus write-ahead log and shared-memory index."""
    return sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))


def run_pass(p: Pass, trace: bool, run_id: str) -> dict:
    from digest import rows_summary, sha, store_digest
    from spans import Jobs, Tracer

    # module handles, not names: a traced pass patches the module functions
    import repro.report.extract as report_extract
    import repro.report.render as report_render
    from repro.telemetry import NULL_SINK, telemetry_session

    out: dict = {"workers": p.workers, "error": None}
    tracer = Tracer(run_id, str(p.work_dir)) if trace else None
    if tracer is not None:
        tracer.install()
    jobs = Jobs()
    jobs.install()  # outermost: job times and attempts are not spans
    try:
        with telemetry_session(sink=NULL_SINK) as telemetry:
            cpu = _cpu_seconds()
            started = time.perf_counter()
            rows = p.run_figures(p.session)
            ended = time.perf_counter()
            out["wall_s"] = ended - started
            out["cpu_s"] = _cpu_seconds() - cpu
            out["evals"] = p.completed
            out["measured"] = [started, ended]
            job_seconds, summaries = jobs.take()
            out["job_seconds"] = job_seconds
            record = {"jobs": summaries, "rows": rows_summary(rows)}
            if p.workload == "served-pipeline":
                out["store_bytes"] = _store_bytes(p.store_path)
                regens, matches = [], []
                for _ in range(WARM_REPEATS):
                    first_job = jobs.count()
                    regen = time.perf_counter()
                    warm_rows = p.run_figures(p.new_session())
                    extract = report_extract.extract_store(str(p.store_path))
                    html = report_render.render_report([extract])
                    regens.append(time.perf_counter() - regen)
                    _, warm_summaries = jobs.take(first_job)
                    matches.append(
                        {"jobs": warm_summaries, "rows": rows_summary(warm_rows)} == record
                    )
                out["regen_s"] = statistics.median(regens)
                out["html_bytes"] = len(html.encode())
                out["warm_matches_cold"] = all(matches)
                record["store"] = store_digest(extract)
            out["digest"] = sha(record)
            counters = dict(telemetry.registry.counters)
    except Exception:  # noqa: BLE001 - a failed pass is reported, not raised
        out["error"] = traceback.format_exc()
        counters = {}
    finally:
        jobs.uninstall()
        if tracer is not None:
            tracer.uninstall()
    out["attempted"] = jobs.attempted
    out["completed"] = p.completed
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None and out["error"] is None:
        from layers import layer_metrics

        reports = tracer.worker_reports()
        out["layers"] = layer_metrics(tracer, reports, counters, out)
        out["spans"] = {
            "run_id": tracer.run_id,
            "processes": [tracer.spans] + [r["spans"] for r in reports],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="bench")
    parser.add_argument("--work-dir", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.work_dir.mkdir(parents=True, exist_ok=True)
    p = Pass(args.workload, args.seed, args.size, args.work_dir)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        run_id = f"{args.workload}/{args.seed}/{os.getpid()}"
        result = {"setup_s": setup_s, **run_pass(p, args.trace, run_id)}
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
