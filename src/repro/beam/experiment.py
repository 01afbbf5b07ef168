"""Beam experiment protocol: fluence accounting, fault sampling, FIT rates.

Mirrors the paper's §III-C methodology:

1. a workload is exposed for a number of *beam hours* under an accelerated
   flux (ChipIR by default);
2. fault arrivals per resource follow a Poisson process with rate
   Φ × Σ_eff(resource) (see :mod:`repro.beam.exposure`);
3. every sampled fault is classified by the :class:`BeamEngine`;
4. FIT = errors / fluence, scaled to the natural terrestrial flux, with
   95% Poisson confidence intervals;
5. the experiment reports whether the single-fault regime (<1 error per
   1,000 executions) held.

``mode="expected"`` replaces the Poisson draw with a stratified
expected-value estimate (deterministic per seed, cheaper), used by the
benchmark harness; ``mode="montecarlo"`` is the faithful protocol.

Mechanistic fault evaluations — the re-executions that dominate a beam
run's wall clock — are dispatched through :mod:`repro.exec`: each sampled
strike becomes a task with a private RNG substream, so results are
bit-identical for any ``workers=`` setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arch.devices import DeviceSpec
from repro.arch.ecc import EccMode
from repro.beam.cross_sections import CrossSectionCatalog, catalog_for
from repro.beam.engine import BeamEngine
from repro.beam.exposure import ExposureProfile, compute_exposure
from repro.beam.facility import CHIPIR, Facility, single_fault_regime_ok
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory, resolve_rngs
from repro.common.stats import Estimate, poisson_rate_estimate
from repro.common.units import FIT_SCALE_HOURS, TERRESTRIAL_FLUX_N_CM2_H
from repro.exec.engine import Executor, get_executor
from repro.exec.tasks import BeamEvalContext, BeamEvalTask, WorkloadHandle, catalog_tag
from repro.exec.worker import _cached_state, run_beam_chunk
from repro.faultsim.outcomes import Outcome, StrikeEval
from repro.faultsim.uncore import UNCORE_EXCEPTIONS
from repro.sim.exceptions import EccDoubleBitError
from repro.store.policy import (
    RunPolicy,
    replay_setting,
    resolve_on_crash,
    resolve_policy,
    snapshots_setting,
    warn_legacy_kwargs,
)
from repro.store.store import StoreLike
from repro.telemetry import get_logger, get_telemetry
from repro.workloads.base import Workload

_log = get_logger("beam.experiment")


@dataclass
class ResourceTally:
    """Fault counts for one resource."""

    faults: float = 0.0
    sdc: float = 0.0
    due: float = 0.0
    #: DUE provenance: machine-readable cause → (possibly re-weighted) count
    due_causes: Dict[str, float] = field(default_factory=dict)

    def add_due(self, cause: str, weight: float = 1.0) -> None:
        self.due += weight
        key = cause or "unknown"
        self.due_causes[key] = self.due_causes.get(key, 0.0) + weight


@dataclass
class BeamResult:
    """Outcome of one beam experiment on one code."""

    workload: str
    device: str
    ecc: EccMode
    beam_hours: float
    fluence_n_cm2: float
    fit_sdc: Estimate
    fit_due: Estimate
    tallies: Dict[str, ResourceTally] = field(default_factory=dict)
    exec_seconds: float = 0.0
    single_fault_regime: bool = True

    @property
    def errors(self) -> float:
        return sum(t.sdc + t.due for t in self.tallies.values())

    def breakdown(self, outcome: Outcome) -> Dict[str, float]:
        """Per-resource share of the SDC or DUE count."""
        key = "sdc" if outcome is Outcome.SDC else "due"
        total = sum(getattr(t, key) for t in self.tallies.values())
        if total == 0:
            return {}
        return {
            name: getattr(t, key) / total
            for name, t in self.tallies.items()
            if getattr(t, key) > 0
        }

    def due_breakdown(self) -> Dict[str, float]:
        """DUE provenance across all resources: cause → expected count."""
        table: Dict[str, float] = {}
        for tally in self.tallies.values():
            for cause, weight in tally.due_causes.items():
                table[cause] = table.get(cause, 0.0) + weight
        return table

    def due_cross_sections(self) -> Dict[str, float]:
        """Per-cause beam DUE cross-sections, cm² (counts ÷ fluence) —
        the beam-side vocabulary the uncore FIT table is calibrated
        against."""
        if self.fluence_n_cm2 <= 0:
            return {}
        return {
            cause: weight / self.fluence_n_cm2
            for cause, weight in self.due_breakdown().items()
        }

    def fit_due_by_cause(self) -> Dict[str, float]:
        """Per-cause DUE FIT at natural flux (point estimates)."""
        scale = TERRESTRIAL_FLUX_N_CM2_H * FIT_SCALE_HOURS
        return {
            cause: sigma * scale
            for cause, sigma in self.due_cross_sections().items()
        }


def _fit_estimate(errors: float, fluence: float) -> Estimate:
    """FIT (failures / 10⁹ h at natural flux) with its Poisson interval."""
    scale = TERRESTRIAL_FLUX_N_CM2_H * FIT_SCALE_HOURS
    return poisson_rate_estimate(errors, fluence).scaled(scale)


class BeamExperiment:
    """Runs accelerated-beam campaigns for one device."""

    def __init__(
        self,
        device: DeviceSpec,
        facility: Facility = CHIPIR,
        catalog: Optional[CrossSectionCatalog] = None,
        rngs: Optional[RngFactory] = None,
        *,
        seed: Optional[int] = None,
        workers: int = 1,
        executor: Optional[Executor] = None,
        store: Optional[StoreLike] = None,
        resume: Optional[bool] = None,
        refresh: bool = False,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
        policy: Optional[RunPolicy] = None,
        on_crash: Optional[str] = None,
    ) -> None:
        warn_legacy_kwargs(
            "BeamExperiment",
            store=store, resume=resume, refresh=refresh,
            retries=retries, backoff=backoff, on_crash=on_crash,
        )
        self.device = device
        self.facility = facility
        self.catalog = catalog if catalog is not None else catalog_for(device)
        self.rngs = resolve_rngs(rngs, seed, "BeamExperiment")
        self.executor = get_executor(workers, executor)
        self.policy = resolve_policy(
            store=store, policy=policy, resume=resume, refresh=refresh,
            retries=retries, backoff=backoff,
        )
        self.on_crash = resolve_on_crash(on_crash, self.policy)
        self.replay_enabled = replay_setting(self.policy)
        self.snapshots_per_run = snapshots_setting(self.policy)

    def exposure(self, workload: Workload, ecc: EccMode) -> Tuple[BeamEngine, ExposureProfile]:
        engine = BeamEngine(
            self.device, workload, self.catalog, ecc, on_crash=self.on_crash,
            replay=self.replay_enabled, snapshots_per_run=self.snapshots_per_run,
        )
        profile = compute_exposure(self.device, workload, engine.golden, self.catalog)
        return engine, profile

    @staticmethod
    def _analytic_probabilities(
        engine: BeamEngine, resource: str, ecc: EccMode
    ) -> Optional[Tuple[float, float]]:
        """(p_sdc, p_due) for resources whose outcome distribution is exact:
        ECC-protected storage (SECDED corrects all but the MBU fraction) and
        hidden resources (the catalog mixtures).  Mechanistic resources
        return None and are sampled by re-execution."""
        kind, _, name = resource.partition(":")
        if kind == "mem" and ecc is EccMode.ON:
            return 0.0, engine.secded.mbu_probability
        if kind == "hidden":
            from repro.arch.units import UnitKind

            model = engine.catalog.hidden_outcomes[UnitKind(name)]
            return model.p_sdc, model.p_due
        return None

    @staticmethod
    def _analytic_due_cause(resource: str, ecc: EccMode) -> str:
        """The DUE cause an analytically-evaluated resource's DUEs carry."""
        kind, _, name = resource.partition(":")
        if kind == "mem" and ecc is EccMode.ON:
            return EccDoubleBitError.cause
        if kind == "hidden":
            from repro.arch.units import UnitKind

            return UNCORE_EXCEPTIONS[UnitKind(name)].cause
        return "unknown"

    def _evaluate_all(
        self,
        engine: BeamEngine,
        workload: Workload,
        ecc: EccMode,
        mode: str,
        plan: List[Tuple[str, int]],
        on_result: Optional[Callable] = None,
    ) -> List[StrikeEval]:
        """Dispatch ``plan`` — ordered (resource, n_eval) pairs — through the
        executor and return outcomes flattened in plan order.  Each strike's
        randomness comes from a substream named by (campaign, resource,
        ordinal), so the outcome list is executor-invariant."""
        names = (self.device.name, workload.name, ecc.value, mode)
        tasks = []
        for resource, n_eval in plan:
            for j in range(n_eval):
                tasks.append(
                    BeamEvalTask(
                        index=len(tasks),
                        resource=resource,
                        root_seed=self.rngs.root_seed,
                        rng_path=("beam", *names, "eval", resource, j),
                    )
                )
        context = BeamEvalContext(
            device=self.device,
            ecc=ecc.value,
            backend=engine.backend,
            catalog=self.catalog,
            catalog_tag=catalog_tag(self.catalog, self.device),
            workload=WorkloadHandle.wrap(workload),
            on_crash=self.on_crash,
            replay=self.replay_enabled,
            snapshots_per_run=self.snapshots_per_run,
        )
        # reuse this experiment's engine (golden already computed for the
        # exposure profile) in the serial path and fork-spawned children
        _cached_state(context.cache_key(), lambda: engine)
        if self.policy is not None:
            return self.executor.run_chunks(
                run_beam_chunk, context, tasks, on_result=on_result, policy=self.policy
            )
        return self.executor.run_chunks(run_beam_chunk, context, tasks, on_result=on_result)

    def run(
        self,
        workload: Workload,
        ecc: EccMode = EccMode.ON,
        beam_hours: float = 72.0,
        mode: str = "montecarlo",
        max_fault_evals: int = 400,
        min_evals_per_resource: int = 4,
        on_result: Optional[Callable] = None,
    ) -> BeamResult:
        """Expose one code for ``beam_hours`` and measure its FIT rates.

        ``max_fault_evals`` caps the number of mechanistic re-executions; a
        larger Poisson draw is thinned and re-weighted, preserving the
        expected counts (documented coverage cap).  ``on_result`` observes
        every completed fault evaluation (completion order).
        """
        if beam_hours <= 0:
            raise ConfigurationError("beam_hours must be positive")
        if mode not in ("montecarlo", "expected"):
            raise ConfigurationError(f"unknown beam mode {mode!r}")
        if ecc is EccMode.ON and not self.device.ecc_capable:
            raise ConfigurationError(
                f"{self.device.name} cannot enable ECC (e.g. Titan V lacks DRAM ECC)"
            )
        telemetry = get_telemetry()
        with telemetry.span(
            "beam",
            workload=workload.name,
            device=self.device.name,
            ecc=ecc.value,
            beam_hours=beam_hours,
            mode=mode,
        ):
            result = self._run(
                workload, ecc, beam_hours, mode, max_fault_evals,
                min_evals_per_resource, on_result, telemetry,
            )
        _log.info(
            "beam run %s/%s ecc=%s: %.2f errors over %.0f beam-hours "
            "(FIT sdc=%.3g due=%.3g)",
            workload.name, self.device.name, ecc.value, result.errors,
            beam_hours, result.fit_sdc.value, result.fit_due.value,
        )
        return result

    def _run(
        self,
        workload: Workload,
        ecc: EccMode,
        beam_hours: float,
        mode: str,
        max_fault_evals: int,
        min_evals_per_resource: int,
        on_result: Optional[Callable],
        telemetry,
    ) -> BeamResult:
        engine, profile = self.exposure(workload, ecc)
        fluence = self.facility.fluence(beam_hours).n_per_cm2
        rng = self.rngs.stream("beam", self.device.name, workload.name, ecc.value, mode)

        sigma_eff = profile.as_rates()
        tallies: Dict[str, ResourceTally] = {}

        telemetry.count("beam.exposures")
        if mode == "montecarlo":
            expected = {r: fluence * s for r, s in sigma_eff.items()}
            drawn = {r: int(rng.poisson(e)) for r, e in expected.items()}
            total_drawn = sum(drawn.values())
            telemetry.count("beam.faults.drawn", total_drawn)
            thin = min(1.0, max_fault_evals / total_drawn) if total_drawn else 1.0
            plan = [(r, int(np.ceil(n * thin))) for r, n in drawn.items()]
            evals = self._evaluate_all(engine, workload, ecc, mode, plan, on_result)
            pos = 0
            for resource, n_eval in plan:
                n = drawn[resource]
                tally = ResourceTally(faults=float(n))
                weight = (n / n_eval) if n_eval else 0.0
                for evaluation in evals[pos : pos + n_eval]:
                    if evaluation.outcome is Outcome.SDC:
                        tally.sdc += weight
                    elif evaluation.outcome is Outcome.DUE:
                        tally.add_due(evaluation.due_cause, weight)
                pos += n_eval
                tallies[resource] = tally
        else:  # expected-value mode: stratified AVF per resource
            # resources with exact outcome distributions cost nothing; the
            # mechanistic evaluation budget is shared only among the rest
            mechanistic: Dict[str, float] = {}
            for resource, sigma in sigma_eff.items():
                expected_faults = fluence * sigma
                analytic = self._analytic_probabilities(engine, resource, ecc)
                if analytic is not None:
                    p_sdc, p_due = analytic
                    tally = ResourceTally(
                        faults=expected_faults, sdc=expected_faults * p_sdc
                    )
                    if p_due > 0:
                        tally.add_due(
                            self._analytic_due_cause(resource, ecc),
                            expected_faults * p_due,
                        )
                    tallies[resource] = tally
                else:
                    mechanistic[resource] = sigma
            mech_sigma = sum(mechanistic.values())
            ordered = sorted(mechanistic.items(), key=lambda kv: -kv[1])
            plan = [
                (
                    resource,
                    max(
                        min_evals_per_resource,
                        int(round(max_fault_evals * (sigma / mech_sigma if mech_sigma else 0.0))),
                    ),
                )
                for resource, sigma in ordered
            ]
            evals = self._evaluate_all(engine, workload, ecc, mode, plan, on_result)
            pos = 0
            for (resource, n_eval), (_, sigma) in zip(plan, ordered):
                expected_faults = fluence * sigma
                hits = {Outcome.SDC: 0, Outcome.DUE: 0, Outcome.MASKED: 0}
                cause_hits: Dict[str, int] = {}
                for evaluation in evals[pos : pos + n_eval]:
                    hits[evaluation.outcome] += 1
                    if evaluation.outcome is Outcome.DUE:
                        cause = evaluation.due_cause or "unknown"
                        cause_hits[cause] = cause_hits.get(cause, 0) + 1
                pos += n_eval
                tally = ResourceTally(
                    faults=expected_faults,
                    sdc=expected_faults * hits[Outcome.SDC] / n_eval,
                )
                for cause, n_cause in cause_hits.items():
                    tally.add_due(cause, expected_faults * n_cause / n_eval)
                tallies[resource] = tally

        sdc_count = sum(t.sdc for t in tallies.values())
        due_count = sum(t.due for t in tallies.values())

        executions = beam_hours * 3600.0 / max(profile.exec_seconds, 1e-12)
        regime_ok = single_fault_regime_ok(sdc_count + due_count, executions)

        due_breakdown: Dict[str, float] = {}
        for tally in tallies.values():
            for cause, weight in tally.due_causes.items():
                due_breakdown[cause] = due_breakdown.get(cause, 0.0) + weight

        telemetry.point(
            "beam.result",
            workload=workload.name,
            ecc=ecc.value,
            errors_sdc=sdc_count,
            errors_due=due_count,
            due_breakdown=due_breakdown,
            single_fault_regime=regime_ok,
        )
        return BeamResult(
            workload=workload.name,
            device=self.device.name,
            ecc=ecc,
            beam_hours=beam_hours,
            fluence_n_cm2=fluence,
            fit_sdc=_fit_estimate(sdc_count, fluence),
            fit_due=_fit_estimate(due_count, fluence),
            tallies=tallies,
            exec_seconds=profile.exec_seconds,
            single_fault_regime=regime_ok,
        )
