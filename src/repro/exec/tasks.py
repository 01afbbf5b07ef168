"""Picklable task descriptions for the parallel execution engine.

A *context* describes everything a worker needs to evaluate a whole chunk
of tasks for one campaign / beam run / strike sweep — the device, the
workload, the ECC mode, the root seed.  It is pickled once per chunk.  A
*task* is one fault evaluation within that context; it is tiny (a site
reference plus an RNG name path) so dispatch overhead stays small.

Determinism contract: a task's randomness comes exclusively from
``RngFactory(root_seed).stream(*task.rng_path)``.  The name path encodes
the task's identity (campaign names + task ordinal), so the substream —
and therefore the evaluation outcome — is a pure function of the root seed
and the task, independent of which worker runs it, in which chunk, in
which order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.telemetry.metrics import Snapshot

if TYPE_CHECKING:  # domain types only; runtime imports would be circular
    from repro.arch.devices import DeviceSpec
    from repro.beam.cross_sections import CrossSectionCatalog
    from repro.faultsim.frameworks import InjectorFramework
    from repro.workloads.base import Workload

#: RNG substream name path, fed to ``RngFactory.stream(*path)``
RngPath = Tuple[object, ...]


@dataclass
class ChunkResult:
    """Per-task results plus the chunk's captured telemetry snapshot.

    The worker-side chunk evaluators wrap their results in this so the
    parent can merge each chunk's metrics into its own registry — the
    wire format of the deterministic cross-process aggregation (see
    :mod:`repro.telemetry`).  Executors transparently unwrap it; chunk
    functions returning a plain list (tests, custom fns) still work.
    """

    results: List
    telemetry: Optional[Snapshot] = None


@dataclass(frozen=True)
class WorkloadHandle:
    """A workload plus a stable identity for worker-side caches.

    Each chunk pickles the workload independently, so two chunks of the
    same campaign deserialize to two distinct instances in a worker; the
    fingerprint lets the worker recognise them as the same workload and
    reuse its cached golden run.
    """

    workload: Workload
    fingerprint: Tuple[str, str, int]

    @classmethod
    def wrap(cls, workload: Workload) -> "WorkloadHandle":
        cls_path = f"{type(workload).__module__}.{type(workload).__qualname__}"
        return cls(workload, (cls_path, workload.spec.name, workload.seed))


@dataclass(frozen=True)
class CampaignContext:
    """Chunk context for injection-campaign tasks."""

    device: DeviceSpec
    framework: InjectorFramework
    ecc: str                       # EccMode.value
    root_seed: int
    workload: WorkloadHandle
    #: sandbox crash policy; rides in the context (not RunPolicy) because
    #: the policy object never travels to worker processes
    on_crash: str = "due"
    #: checkpoint/replay knobs (see repro.sim.replay).  Part of the cache
    #: key — a cached runner built replay-off must not serve a replay-on
    #: chunk — but deliberately NOT part of the store fingerprint: replay
    #: on/off produces bit-identical records, so cached chunks stay valid
    #: across the setting.  batch_eval follows the same contract.
    replay: bool = True
    snapshots_per_run: int = 16
    batch_eval: bool = True

    def cache_key(self) -> tuple:
        return (
            "campaign",
            self.device.name,
            self.framework.name,
            self.ecc,
            self.workload.fingerprint,
            self.on_crash,
            self.replay,
            self.snapshots_per_run,
            self.batch_eval,
        )


@dataclass(frozen=True)
class InjectionTask:
    """One architecture-level injection within a campaign.

    The site group is referenced by *name* (SiteGroup stream predicates are
    closures and do not pickle); the worker rebuilds the framework's groups
    and resolves the name locally.
    """

    index: int                     # ordinal within the campaign
    group: str                     # SiteGroup name
    target_index: int              # dynamic instance within the group
    root_seed: int
    rng_path: RngPath


@dataclass(frozen=True)
class BeamEvalContext:
    """Chunk context for beam fault evaluations."""

    device: DeviceSpec
    ecc: str                       # EccMode.value
    backend: str
    catalog: CrossSectionCatalog
    catalog_tag: str               # distinguishes non-default catalogs
    workload: WorkloadHandle
    on_crash: str = "due"
    #: checkpoint/replay knobs (cache key only; see CampaignContext)
    replay: bool = True
    snapshots_per_run: int = 16

    def cache_key(self) -> tuple:
        return (
            "beam",
            self.device.name,
            self.ecc,
            self.backend,
            self.catalog_tag,
            self.workload.fingerprint,
            self.on_crash,
            self.replay,
            self.snapshots_per_run,
        )


@dataclass(frozen=True)
class BeamEvalTask:
    """One sampled particle strike, evaluated by the BeamEngine."""

    index: int
    resource: str                  # flat resource key ("op:FFMA", "mem:...")
    root_seed: int
    rng_path: RngPath


@dataclass(frozen=True)
class MemoryAvfContext:
    """Chunk context for Eq. 3 memory-AVF storage strikes (ECC OFF)."""

    device: DeviceSpec
    backend: str
    workload: WorkloadHandle
    on_crash: str = "due"

    def cache_key(self) -> tuple:
        return (
            "mem_avf",
            self.device.name,
            self.backend,
            self.workload.fingerprint,
            self.on_crash,
        )


@dataclass(frozen=True)
class StrikeTask:
    """One storage strike of the memory-AVF sweep."""

    index: int
    space: str                     # "rf" | "global" | "shared"
    tick: float
    root_seed: int
    rng_path: RngPath


def catalog_tag(catalog: "CrossSectionCatalog", device: "DeviceSpec") -> str:
    """Stable-within-a-run tag identifying a catalog for worker caches."""
    from repro.beam.cross_sections import catalog_for

    try:
        default = catalog_for(device)
    except Exception:
        default = None
    if catalog is default:
        return "default"
    return f"custom-{id(catalog):x}"
