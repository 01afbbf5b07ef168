"""Beam outcome engine: classify one sampled particle strike.

Faults in *architecturally visible* resources are evaluated mechanistically
— the fault is injected into a re-execution of the workload, using exactly
the machinery the injectors use, and the run's outcome is observed.  Faults
in *storage under ECC* short-circuit analytically (corrected, or a detected
uncorrectable → DUE), and faults in *hidden* resources draw from the
catalog's outcome mixtures (the one modeled element; see DESIGN.md §5.4).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode, EccOutcome, SecdedModel
from repro.arch.isa import OpClass
from repro.arch.units import UnitKind
from repro.beam.cross_sections import CrossSectionCatalog
from repro.common.errors import ConfigurationError
from repro.faultsim.outcomes import Outcome, StrikeEval
from repro.faultsim.sandbox import WATCHDOG_FACTOR, InjectionSandbox
from repro.faultsim.uncore import UNCORE_EXCEPTIONS
from repro.sim.exceptions import ContainedCrashError, EccDoubleBitError, GpuDeviceException
from repro.sim.injection import (
    FaultModel,
    InjectionMode,
    InjectionPlan,
    StorageStrike,
    opclass_stream,
)
from repro.sim.launch import KernelRun, run_kernel
from repro.sim.replay import ReplaySession
from repro.telemetry import get_logger, get_telemetry
from repro.workloads.base import CompareResult, Workload

_log = get_logger("beam.engine")

_ADDRESSABLE = (OpClass.LDG, OpClass.STG, OpClass.LDS, OpClass.STS)

#: telemetry keys precomputed over the closed (kind, outcome) space —
#: ``evaluate`` runs once per sampled strike, so no f-strings there;
#: DUE causes are an open set, memoized on first sight
_EVAL_KEYS = {kind: f"beam.eval.{kind}" for kind in ("op", "mem", "hidden")}
_OUTCOME_KEYS = {
    (kind, outcome): f"beam.outcome.{kind}.{outcome.value}"
    for kind in ("op", "mem", "hidden")
    for outcome in Outcome
}
_CAUSE_KEYS: dict = {}


class BeamEngine:
    """Evaluates strike outcomes for one (device, workload, ECC) setup."""

    def __init__(
        self,
        device: DeviceSpec,
        workload: Workload,
        catalog: CrossSectionCatalog,
        ecc: EccMode,
        backend: str = "cuda10",
        on_crash: str = "due",
        replay: Optional[bool] = None,
        snapshots_per_run: int = 16,
    ) -> None:
        self.device = device
        self.workload = workload
        self.catalog = catalog
        self.ecc = ecc
        self.backend = backend
        self.secded = SecdedModel(mode=ecc)
        self.sandbox = InjectionSandbox(on_crash)
        self.replay_enabled = True if replay is None else bool(replay)
        self.snapshots_per_run = snapshots_per_run
        self._golden: Optional[KernelRun] = None
        self._session: Optional[ReplaySession] = None

    @property
    def golden(self) -> KernelRun:
        if self._golden is None:
            _log.debug(
                "computing golden run: %s on %s (ecc=%s)",
                self.workload.name, self.device.name, self.ecc.value,
            )
            self._golden = run_kernel(
                self.device,
                self.workload.kernel,
                self.workload.sim_launch(),
                ecc=self.ecc,
                backend=self.backend,
            )
        return self._golden

    # -- shared plumbing ----------------------------------------------------------
    def _replay_session(self) -> ReplaySession:
        if self._session is None:
            golden = self.golden
            self._session = ReplaySession(
                self.device,
                self.workload.kernel,
                self.workload.sim_launch(),
                ecc=self.ecc,
                backend=self.backend,
                snapshots_per_run=self.snapshots_per_run,
                expected_ticks=golden.ticks,
            )
        return self._session

    def _run_with(self, plan=None, strikes=()) -> StrikeEval:
        golden = self.golden
        try:
            # sandboxed like the injection campaigns: an unexpected crash in
            # a mechanistic re-execution is contained per on_crash instead
            # of killing the worker (the beam supervisor never dies with
            # the DUT)
            if self.replay_enabled:
                # fork from the nearest snapshot below the fault site and
                # run only the suffix (bit-identical; vanilla fallback is
                # the session's own responsibility)
                run = self.sandbox.run(
                    self._replay_session().run,
                    plan=plan,
                    strikes=strikes,
                    watchdog_limit=WATCHDOG_FACTOR * golden.ticks,
                )
            else:
                run = self.sandbox.run(
                    run_kernel,
                    self.device,
                    self.workload.kernel,
                    self.workload.sim_launch(),
                    ecc=self.ecc,
                    backend=self.backend,
                    plan=plan,
                    strikes=strikes,
                    watchdog_limit=WATCHDOG_FACTOR * golden.ticks,
                )
        except GpuDeviceException as exc:
            return StrikeEval(
                outcome=Outcome.DUE,
                due_cause=exc.cause,
                contained=isinstance(exc, ContainedCrashError),
            )
        compare = self.workload.compare(golden.outputs, run.outputs)
        if compare is CompareResult.SDC:
            return StrikeEval(outcome=Outcome.SDC)
        return StrikeEval(outcome=Outcome.MASKED)

    # -- strike evaluators ------------------------------------------------------------
    def op_fault_eval(self, op: OpClass, rng: np.random.Generator) -> StrikeEval:
        """A strike on a functional-unit datapath while ``op`` is in flight."""
        instances = self.golden.trace.instances.get(op, 0)
        if instances <= 0:
            raise ConfigurationError(f"{self.workload.name} never executes {op}")
        target = int(rng.integers(0, int(instances)))
        mode = InjectionMode.OUTPUT_VALUE
        if op in _ADDRESSABLE and rng.random() < self.catalog.lsu_address_fraction:
            mode = InjectionMode.ADDRESS
        plan = InjectionPlan(
            mode=mode,
            stream=opclass_stream(op),
            target_index=target,
            fault_model=FaultModel.SINGLE_BIT,
            rng=rng,
        )
        return self._run_with(plan=plan)

    def storage_fault_eval(self, unit: UnitKind, rng: np.random.Generator) -> StrikeEval:
        """A strike on a storage bit (RF / shared / device memory)."""
        if not unit.is_storage:
            raise ConfigurationError(f"{unit} is not storage")
        if self.ecc is EccMode.ON:
            # analytic short-circuit: SECDED corrects single-bit upsets and
            # escalates the MBU fraction to a driver-level DUE
            outcome = self.secded.strike(rng)
            if outcome is EccOutcome.DETECTED_DUE:
                return StrikeEval(outcome=Outcome.DUE, due_cause=EccDoubleBitError.cause)
            return StrikeEval(outcome=Outcome.MASKED)
        space = {
            UnitKind.REGISTER_FILE: "rf",
            UnitKind.SHARED_MEMORY: "shared",
            UnitKind.DEVICE_MEMORY: "global",
            UnitKind.L2_CACHE: "global",
        }[unit]
        tick = float(rng.integers(0, max(1, int(self.golden.ticks))))
        strike = StorageStrike(tick=tick, space=space, rng=rng)
        return self._run_with(strikes=(strike,))

    def hidden_fault_eval(self, unit: UnitKind, rng: np.random.Generator) -> StrikeEval:
        """A strike on a resource no injector can reach: outcome mixture.

        Exactly one RNG draw, as before cause tracking (numeric
        compatibility); a DUE carries the unit's uncore cause — the same
        ``GpuDeviceException.cause`` the :class:`UncoreInjector` raises, so
        beam and injector DUE provenance share one vocabulary.
        """
        if not unit.is_hidden:
            raise ConfigurationError(f"{unit} is not a hidden resource")
        model = self.catalog.hidden_outcomes[unit]
        draw = rng.random()
        if draw < model.p_due:
            return StrikeEval(outcome=Outcome.DUE, due_cause=UNCORE_EXCEPTIONS[unit].cause)
        if draw < model.p_due + model.p_sdc:
            return StrikeEval(outcome=Outcome.SDC)
        return StrikeEval(outcome=Outcome.MASKED)

    # back-compat wrappers: the Outcome-only views of the evaluators above
    def evaluate_op_fault(self, op: OpClass, rng: np.random.Generator) -> Outcome:
        return self.op_fault_eval(op, rng).outcome

    def evaluate_storage_fault(self, unit: UnitKind, rng: np.random.Generator) -> Outcome:
        return self.storage_fault_eval(unit, rng).outcome

    def evaluate_hidden_fault(self, unit: UnitKind, rng: np.random.Generator) -> Outcome:
        return self.hidden_fault_eval(unit, rng).outcome

    # -- resource dispatch ----------------------------------------------------------------
    def evaluate_detailed(self, resource: str, rng: np.random.Generator) -> StrikeEval:
        """Evaluate by flat resource key ("op:FFMA", "mem:register_file",
        "hidden:scheduler"), with DUE provenance."""
        kind, _, name = resource.partition(":")
        if kind == "op":
            evaluation = self.op_fault_eval(OpClass[name], rng)
        elif kind == "mem":
            evaluation = self.storage_fault_eval(UnitKind(name), rng)
        elif kind == "hidden":
            evaluation = self.hidden_fault_eval(UnitKind(name), rng)
        else:
            raise ConfigurationError(f"unknown resource key {resource!r}")
        # per-provenance-bucket tallies; captured per task in worker chunks,
        # so the merged aggregate is identical for any workers= setting
        telemetry = get_telemetry()
        telemetry.count("beam.evals")
        telemetry.count(_EVAL_KEYS[kind])
        telemetry.count(_OUTCOME_KEYS[kind, evaluation.outcome])
        if evaluation.outcome is Outcome.DUE:
            cause_key = _CAUSE_KEYS.get(evaluation.due_cause)
            if cause_key is None:
                cause_key = _CAUSE_KEYS[evaluation.due_cause] = (
                    f"beam.due_cause.{evaluation.due_cause or 'unknown'}"
                )
            telemetry.count(cause_key)
        return evaluation

    def evaluate(self, resource: str, rng: np.random.Generator) -> Outcome:
        """Outcome-only view of :meth:`evaluate_detailed`."""
        return self.evaluate_detailed(resource, rng).outcome
