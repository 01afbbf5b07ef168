"""The repository benchmark: named workloads, checked outputs, every metric.

    python3 perfbench/run.py --workload fig5-beam --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Workloads (see perfbench/README.md for why each exists):

* ``fig5-beam`` — the Figure 5 beam matrix with its normalisation anchors,
  serial.
* ``served-pipeline`` — every paper artifact through two lease workers
  over a fresh SQLite store (cold), again over the complete store (warm),
  then the store dashboard.

A run makes a fixed number of passes, ``--seconds`` divided by the
workload's nominal pass time on the reference machine (at least one), so
that two commits are measured on the same sample; only on a host much
slower than the reference does it stop early, to stay short.  Each pass
runs in a fresh interpreter (perfbench/workload.py) on its own input set:
pass ``i`` of a run with seed ``n`` uses input seed ``1000 * n + i``, so a
run averages over several input sets and the same seed always gives the
same inputs.  Metrics are medians over the passes, and a job's time is its
median over the passes.  With ``--trace 1`` every round is an untraced pass
followed by a traced pass on the same inputs; the per-layer metrics come
from the traced passes, whose spans are written to
``.perfbench/spans-<workload>-<seed>.json`` when the run ends.

Every pass's output digest must equal the reference digest kept for its
input seed in perfbench/reference.json, where one is kept; every digest is
printed, so two commits can be compared on any seed.  The passes of a
traced round must agree with each other.

Comment lines (``#``) summarise the run; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when the outputs are correct, 1 when they are not, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from digest import check  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workload import WORKLOADS  # noqa: E402

#: (name, unit) of every end-to-end metric, in output order
END_TO_END = [
    ("wall_s", "s"),
    ("evals_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: seconds one pass takes on the reference machine (2-core x86-64 Linux),
#: interpreter start-up included; sets how many passes fit in --seconds
NOMINAL_PASS_S = {"fig5-beam": 9.0, "served-pipeline": 30.0}

#: set-up is sampled at least this often per run (extra set-up-only passes)
MIN_SETUP_SAMPLES = 3

#: a run stops starting passes, and kills a running one, this long after
#: it started, so that it always ends within three minutes
RUN_DEADLINE_S = 170.0

#: on a host much slower than the reference, a run starts no pass that
#: would end after this multiple of --seconds (keeping at least one)
SLOW_HOST_FACTOR = 1.5


def environment() -> dict:
    """Python, numpy, scipy presence, nproc, and the code revision."""
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        revision = probe.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(str(path.relative_to(SRC)).encode())
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.util.find_spec("scipy") is not None,
        "nproc": os.cpu_count(),
        "git": revision,
        "src_sha256": sources.hexdigest()[:16],
    }


def input_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def run_pass(work: pathlib.Path, index: int, workload: str, seed: int, size: str,
             deadline: float, trace: bool = False, setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and its own process group, so
    that a pass killed at the deadline (``time.monotonic()``) takes its
    lease workers with it."""
    out = work / f"pass-{index}.json"
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", workload,
        "--seed", str(seed), "--size", size,
        "--work-dir", str(work / f"pass-{index}"), "--out", str(out),
    ]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    env = dict(os.environ, TMPDIR=str(work))
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"pass killed at the {RUN_DEADLINE_S:.0f} s run deadline",
                "traced": trace, "seed": seed}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of a crashed pass
        except ProcessLookupError:
            pass
    shutil.rmtree(work / f"pass-{index}", ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        return {"error": f"pass exited {proc.returncode}: {stderr[-2000:]}", "traced": trace,
                "seed": seed}
    result = json.loads(out.read_text())
    result.update(traced=trace, seed=seed)
    return result


def tail(values: List[float]) -> Dict[str, float]:
    """Value at the highest percentile with at least 10 samples above it
    (with 11 samples or fewer, the smallest: no percentile has 10 above)."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / len(ordered),
        "beyond": len(ordered) - 1 - index,
    }


def reduce_run(workload: str, size: str, passes: List[dict], setups: List[float],
               trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"] and not p.get("error")]
    traced = [p for p in passes if p["traced"] and not p.get("error")]
    errors = [p["error"] for p in passes if p.get("error")]

    # failure accounting: an aborted pass still owed what a clean pass did
    clean = plain + traced
    owed = clean[0]["attempted"] if clean else None
    attempted = failed = 0
    for p in passes:
        done = p.get("completed", 0)
        tried = p.get("attempted", 0)
        if p.get("error"):
            tried = max(tried, owed if owed is not None else tried + 1, done + 1)
        attempted += tried
        failed += tried - done

    problems = list(errors)
    notes: List[str] = []
    by_seed: Dict[int, set] = {}
    for p in clean:
        by_seed.setdefault(p["seed"], set()).add(p["digest"])
    for pass_seed, digests in sorted(by_seed.items()):
        if len(digests) > 1:
            problems.append(f"passes on input seed {pass_seed} disagree on the output digest")
        for value in sorted(digests):
            status = check(workload, size, pass_seed, value)
            if status == "mismatch":
                problems.append(
                    f"output digest of input seed {pass_seed} differs from the reference")
            notes.append(f"digest {workload}/{size}/{pass_seed}: {value} (reference: {status})")
    if any(not p.get("warm_matches_cold", True) for p in clean):
        problems.append("warm pass records differ from the cold pass")
    if failed:
        problems.append(f"{failed} of {attempted} evaluations failed")

    metrics: Dict[str, dict] = {}
    if trace and traced and plain:
        for name, unit in ((n, u) for n, u, _ in PER_LAYER):
            if name == "trace.overhead_frac":
                value = (
                    statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in plain) - 1.0
                )
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        if traced[0]["workers"] > 1:
            notes.append(
                f"traced cold pass ran {traced[0]['workers']} lease worker processes; "
                "their spans and counters were written at worker exit and merged"
            )
    elif not trace and plain:
        # each job's median over the passes: every pass runs the same job
        # list, so the job count and the tail percentile do not depend on
        # how many passes a run made
        n_jobs = {len(p["job_seconds"]) for p in plain}
        if len(n_jobs) > 1:
            problems.append(f"passes ran different numbers of jobs: {sorted(n_jobs)}")
        jobs = [statistics.median(p["job_seconds"][i] for p in plain) for i in range(min(n_jobs))]
        job_tail = tail(jobs)
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "evals_per_s": statistics.median(p["evals"] / p["wall_s"] for p in plain),
            "job_p50_s": statistics.median(jobs),
            "job_tail_s": job_tail["value"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        if "regen_s" in plain[0]:
            notes.append(
                f"regen_s {statistics.median(p['regen_s'] for p in plain):.6g} s "
                "(warm pass + dashboard over the complete store)"
            )
        notes.append("wall_s per pass: " + " ".join(f"{p['wall_s']:.3f}" for p in plain))
        notes.append(
            f"evaluations per pass {sorted({p['evals'] for p in plain})}; jobs {len(jobs)} "
            f"(job_tail_s at p{job_tail['percentile']:.1f}, {job_tail['beyond']} beyond)"
        )
    notes.append(
        f"failed_frac {failed / attempted if attempted else 1.0:.6g} ratio "
        f"({failed} of {attempted} evaluations)"
    )
    return {
        "workload": workload,
        "correct": not problems and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": metrics,
        "passes": len(passes),
        "setup_samples": len(setups),
        "notes": notes,
        "problems": problems,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    work = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        started = time.monotonic()
        deadline = started + RUN_DEADLINE_S
        rounds = max(1, round(seconds / NOMINAL_PASS_S[workload] / (2 if trace else 1)))
        passes: List[dict] = []
        for index in range(rounds):
            elapsed = time.monotonic() - started
            if index and elapsed * (index + 1) / index > SLOW_HOST_FACTOR * seconds:
                break
            pass_seed = input_seed(seed, index)
            passes.append(run_pass(work, len(passes), workload, pass_seed, size, deadline))
            if trace:
                passes.append(run_pass(work, len(passes), workload, pass_seed, size, deadline,
                                       trace=True))
            if passes[-1].get("error"):
                break
        setups = [p["setup_s"] for p in passes if "setup_s" in p]
        while setups and len(setups) < MIN_SETUP_SAMPLES:
            sample = run_pass(work, len(passes) + len(setups), workload,
                              input_seed(seed, 0), size, deadline, setup_only=True)
            if "setup_s" not in sample:
                break
            setups.append(sample["setup_s"])
        if trace:
            # the spans of every traced pass, kept after the run
            with open(work.parent / f"spans-{workload}-{seed}.json", "w") as handle:
                json.dump([p["spans"] for p in passes if "spans" in p], handle)
        return reduce_run(workload, size, passes, setups, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass


def report(result: dict, env: dict, seed: int, trace: bool) -> None:
    print(f"# perfbench {result['workload']} seed={seed} trace={int(trace)} "
          f"passes={result['passes']} setup_samples={result['setup_samples']}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"# {name:32s} {metric['value']:.6g} {metric['unit']}")
    for line in result["notes"]:
        print(f"# {line}")
    for line in result["problems"]:
        print(f"# PROBLEM: {line.splitlines()[-1] if line.strip() else line}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="tiny: smallest inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops the pass it is waiting for (run_pass's
    # finally kills the pass's process group)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # the build: byte-compile once, so no pass's set-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        report(result, env, args.seed, bool(args.trace))
        results.append(result)
    if len(results) == 1:
        final = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        for result in results:
            print(json.dumps({"workload": result["workload"], **{
                key: result[key] for key in ("correct", "attempted", "failed", "metrics")}}))
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r in results for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
