"""Uncore fault injector: the domain hardware injectors cannot reach.

SASSIFI/NVBitFI corrupt architecturally visible state — instruction
outputs, registers, addresses — and therefore never see the warp
scheduler, instruction fetch/decode, memory-controller transactions, or
the host interface.  The paper attributes the bulk of beam-measured DUEs
to exactly those structures (§VII-B, Fig. 6 and the NSREC'21 follow-up).
:class:`UncoreInjector` makes them injectable in simulation:

* fault *sites* are uncore units, weighted by their per-unit FIT
  contribution on the running workload
  (:func:`repro.arch.uncore.uncore_table` × the unit's activity),
* each injected fault draws its manifestation from the unit's outcome
  mixture (the same splits the beam catalog uses):

  - **DUE** — the unit's :class:`~repro.sim.exceptions.GpuDeviceException`
    subclass is raised (``SchedulerHangError``, ``InstructionDecodeError``,
    ``MemoryControllerError``, ``HostInterfaceError``), giving every record
    a machine-readable ``due_cause``,
  - **SDC** — the fault leaks into architectural state and is replayed
    *mechanistically*: a corrupted memory-controller transaction becomes a
    global-memory strike, corrupted scheduler state a register-file strike,
    a decode fault a wrong instruction output; the workload's own
    comparison rule then decides SDC vs masked,
  - **masked** — the corrupted state was never consumed; no re-execution.

Every injected run executes under the campaign
:class:`~repro.faultsim.sandbox.InjectionSandbox`, so a pathological
mechanistic replay is contained like any other injection.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode
from repro.arch.uncore import UncoreFitTable, uncore_table
from repro.arch.units import UnitKind
from repro.common.errors import InjectionError
from repro.common.rng import RngFactory, resolve_rngs
from repro.faultsim.outcomes import CampaignResult, InjectionRecord, Outcome
from repro.faultsim.sandbox import WATCHDOG_FACTOR, InjectionSandbox
from repro.sim.exceptions import (
    ContainedCrashError,
    GpuDeviceException,
    HostInterfaceError,
    InstructionDecodeError,
    MemoryControllerError,
    SchedulerHangError,
)
from repro.sim.injection import (
    FaultModel,
    InjectionMode,
    InjectionPlan,
    StorageStrike,
    gpr_write_stream,
)
from repro.sim.fastpath import fast_path_enabled
from repro.sim.launch import KernelRun, run_kernel
from repro.sim.replay import ReplaySession
from repro.telemetry import get_telemetry
from repro.workloads.base import CompareResult, Workload

#: which device exception a DUE-manifesting fault in each unit raises;
#: lives here (not repro.arch) so the arch layer stays below repro.sim
UNCORE_EXCEPTIONS: Dict[UnitKind, Type[GpuDeviceException]] = {
    UnitKind.SCHEDULER: SchedulerHangError,
    UnitKind.INSTRUCTION_PIPELINE: InstructionDecodeError,
    UnitKind.MEMORY_CONTROLLER: MemoryControllerError,
    UnitKind.HOST_INTERFACE: HostInterfaceError,
}

#: where an SDC-manifesting uncore fault leaks into architectural state
_SDC_SPACE = {
    UnitKind.SCHEDULER: "rf",        # stale operand read from a mis-scheduled warp
    UnitKind.MEMORY_CONTROLLER: "global",  # corrupted write-back transaction
    UnitKind.HOST_INTERFACE: "global",     # corrupted DMA / copy-engine word
}

_UNITS = tuple(UNCORE_EXCEPTIONS)
_GROUP_NAMES = {unit: f"uncore:{unit.value}" for unit in _UNITS}


def uncore_due_cause(unit: UnitKind) -> str:
    """The machine-readable ``due_cause`` a DUE in this unit carries."""
    return UNCORE_EXCEPTIONS[unit].cause


class UncoreInjector:
    """Simulated injector for warp-scheduler / ipipe / memctl / host-if faults."""

    name = "UNCORE"
    #: simulation backend: these faults are toolchain-independent, use the
    #: modern compiler like the other high-level tools
    backend = "cuda10"
    supported_architectures = ("kepler", "volta")

    def __init__(
        self,
        device: DeviceSpec,
        rngs: Optional[RngFactory] = None,
        *,
        seed: Optional[int] = None,
        ecc: EccMode = EccMode.ON,
        on_crash: str = "due",
        table: Optional[UncoreFitTable] = None,
        replay: Optional[bool] = None,
        snapshots_per_run: int = 16,
    ) -> None:
        self.device = device
        self.rngs = resolve_rngs(rngs, seed, "UncoreInjector")
        self.ecc = ecc
        self.table = table if table is not None else uncore_table(device.architecture)
        self.sandbox = InjectionSandbox(on_crash)
        self.replay_enabled = True if replay is None else bool(replay)
        self.snapshots_per_run = snapshots_per_run
        self._golden: Dict[str, KernelRun] = {}
        self._sessions: Dict[Tuple[str, bool], ReplaySession] = {}

    # -- golden ---------------------------------------------------------------
    def golden(self, workload: Workload) -> KernelRun:
        if workload.name not in self._golden:
            self._golden[workload.name] = run_kernel(
                self.device,
                workload.kernel,
                workload.sim_launch(),
                ecc=self.ecc,
                backend=self.backend,
            )
        return self._golden[workload.name]

    def _session(self, workload: Workload) -> ReplaySession:
        key = (workload.name, fast_path_enabled())
        session = self._sessions.get(key)
        if session is None:
            golden = self.golden(workload)
            session = ReplaySession(
                self.device,
                workload.kernel,
                workload.sim_launch(),
                ecc=self.ecc,
                backend=self.backend,
                snapshots_per_run=self.snapshots_per_run,
                expected_ticks=golden.ticks,
            )
            self._sessions[key] = session
        return session

    # -- site weighting -------------------------------------------------------
    def unit_weights(self, workload: Workload) -> Dict[UnitKind, float]:
        """Per-unit FIT contribution of the running workload.

        The same activity scaling the beam's exposure profile applies:
        per-SM units (scheduler, ipipe) count once per busy SM, the
        memory-controller cluster scales with device size, the host
        interface with how chatty the code is.  Faults are then sampled
        proportionally, so campaign AVFs weight units like the field does.
        """
        golden = self.golden(workload)
        occ_inputs = workload.reference_occupancy_inputs(self.device)
        sms_busy = max(1.0, min(float(self.device.sm_count), float(occ_inputs["grid_blocks"])))
        activity = {
            UnitKind.SCHEDULER: sms_busy,
            UnitKind.INSTRUCTION_PIPELINE: sms_busy,
            UnitKind.MEMORY_CONTROLLER: self.device.sm_count / 10.0,
            UnitKind.HOST_INTERFACE: 1.0 + golden.trace.host_syncs / 4.0,
        }
        return {
            unit: self.table.rates_for(unit).fit_per_instance * activity[unit]
            for unit in _UNITS
        }

    # -- one injection --------------------------------------------------------
    def inject_once(
        self, workload: Workload, unit: UnitKind, rng: np.random.Generator
    ) -> InjectionRecord:
        record = self._inject_once(workload, unit, rng)
        telemetry = get_telemetry()
        telemetry.count("uncore.injections")
        telemetry.count(f"uncore.outcome.{record.outcome.value}")
        telemetry.count(f"uncore.unit.{unit.value}")
        return record

    def _inject_once(
        self, workload: Workload, unit: UnitKind, rng: np.random.Generator
    ) -> InjectionRecord:
        golden = self.golden(workload)
        group = _GROUP_NAMES[unit]
        rates = self.table.rates_for(unit)
        draw = float(rng.random())
        if draw >= rates.p_due + rates.p_sdc:
            # the corrupted state was flushed / never consumed
            return InjectionRecord(group=group, outcome=Outcome.MASKED, detail="absorbed")
        try:
            run = self.sandbox.run(self._manifest, workload, unit, golden, rng, draw, rates)
        except GpuDeviceException as exc:
            return InjectionRecord(
                group=group,
                outcome=Outcome.DUE,
                due_cause=exc.cause,
                contained=isinstance(exc, ContainedCrashError),
            )
        compare = workload.compare(golden.outputs, run.outputs)
        outcome = Outcome.SDC if compare is CompareResult.SDC else Outcome.MASKED
        return InjectionRecord(group=group, outcome=outcome, detail=f"{unit.value}_leak")

    def _manifest(
        self,
        workload: Workload,
        unit: UnitKind,
        golden: KernelRun,
        rng: np.random.Generator,
        draw: float,
        rates,
    ) -> KernelRun:
        """The injected execution (runs inside the sandbox)."""
        if draw < rates.p_due:
            raise UNCORE_EXCEPTIONS[unit]()
        # SDC branch: replay the leak mechanistically
        plan = None
        strikes: Tuple[StorageStrike, ...] = ()
        if unit is UnitKind.INSTRUCTION_PIPELINE:
            plan = self._decode_plan(golden, rng)
        if plan is None:
            tick = float(rng.integers(0, max(1, int(golden.ticks))))
            strikes = (StorageStrike(tick=tick, space=_SDC_SPACE.get(unit, "global"), rng=rng),)
        if self.replay_enabled:
            # bit-identical suffix re-execution from the nearest snapshot
            return self._session(workload).run(
                plan=plan,
                strikes=strikes,
                watchdog_limit=WATCHDOG_FACTOR * golden.ticks,
            )
        return run_kernel(
            self.device,
            workload.kernel,
            workload.sim_launch(),
            ecc=self.ecc,
            backend=self.backend,
            plan=plan,
            strikes=strikes,
            watchdog_limit=WATCHDOG_FACTOR * golden.ticks,
        )

    def _decode_plan(
        self, golden: KernelRun, rng: np.random.Generator
    ) -> Optional[InjectionPlan]:
        """A decode fault executes the *wrong* instruction: model it as a
        randomly corrupted output of a random dynamic GPR write."""
        writes = golden.trace.instances_of(
            op for op in golden.trace.instances if gpr_write_stream(op)
        )
        if writes < 1:
            return None
        return InjectionPlan(
            mode=InjectionMode.OUTPUT_VALUE,
            stream=gpr_write_stream,
            target_index=int(rng.integers(0, int(writes))),
            fault_model=FaultModel.RANDOM_VALUE,
            rng=rng,
        )

    # -- campaign -------------------------------------------------------------
    def run(self, workload: Workload, injections: int) -> CampaignResult:
        if injections <= 0:
            raise InjectionError("campaign needs at least one injection")
        weights = self.unit_weights(workload)
        units = list(weights)
        p = np.array([weights[u] for u in units], dtype=np.float64)
        if not (p > 0).any():
            raise InjectionError(f"no active uncore units for {workload.name}")
        p = p / p.sum()
        rng = self.rngs.stream("uncore", self.device.name, workload.name)
        choices = rng.choice(len(units), size=injections, p=p)
        result = CampaignResult(
            workload=workload.name, framework=self.name, device=self.device.name
        )
        for i in range(injections):
            task_rng = self.rngs.stream(
                "uncore", self.device.name, workload.name, "task", i
            )
            result.add(self.inject_once(workload, units[int(choices[i])], task_rng))
        return result
