"""Digests of a pass's outputs, and the reference table they are checked
against.

A digest is the SHA-256 of a canonical JSON summary.  Floats enter the
summary rounded to 12 significant digits, so the digest pins every value
the figures use while ignoring last-ulp noise.  Beam runs contribute point
estimates and counts only, never confidence intervals: the intervals depend
on whether scipy is installed.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Dict, Optional

REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"


def _num(value: float) -> str:
    return format(float(value), ".12g")


def sha(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_summary(result) -> dict:
    """Outcome counts, AVFs and a hash of every record of one campaign."""
    from repro.faultsim.outcomes import Outcome
    from repro.store.codec import encode_results

    counts = {o.value: result.count(o) for o in Outcome}
    n = max(1, len(result.records))
    return {
        "job": f"{result.device}/{result.framework}/{result.workload}",
        "counts": counts,
        "avf": {name: _num(count / n) for name, count in counts.items()},
        "records": sha(encode_results(result.records)),
    }


def beam_summary(result) -> dict:
    """Point FIT estimates and per-resource fault counts of one beam run."""
    return {
        "job": f"{result.device}/{result.workload}/{result.ecc.value}",
        "fit_sdc": _num(result.fit_sdc.value),
        "fit_due": _num(result.fit_due.value),
        "tallies": {
            name: [_num(t.faults), _num(t.sdc), _num(t.due)]
            for name, t in sorted(result.tallies.items())
        },
    }


def rows_summary(value: Any) -> Any:
    """The figure rows in canonical JSON form (floats rounded, enums by
    value) — what a reader of the regenerated tables sees."""
    if isinstance(value, dict):
        return {str(k): rows_summary(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [rows_summary(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return _num(value)
    return str(getattr(value, "value", value))


def store_digest(extract) -> str:
    """Digest of a store's extracted logical content (records and domain
    counters of every run), which is independent of worker count."""
    return sha(extract.model())


def load_references() -> Dict[str, str]:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def reference_key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


def check(workload: str, size: str, seed: int, digest: Optional[str],
          references: Optional[Dict[str, str]] = None) -> str:
    """'match', 'mismatch', 'missing' (no digest: the pass failed) or
    'unreferenced' (no reference kept for this seed)."""
    if digest is None:
        return "missing"
    table = load_references() if references is None else references
    expected = table.get(reference_key(workload, size, seed))
    if expected is None:
        return "unreferenced"
    return "match" if expected == digest else "mismatch"
