"""Run policy: how the execution engine uses the store and handles failure.

One small frozen object threads the whole durability story through
``run_chunks``:

* ``store`` — the :class:`~repro.store.store.CampaignStore` (or None: no
  caching, behaviour identical to the pre-store engine),
* ``resume`` — replay completed chunks from the store (the default),
* ``refresh`` — ignore existing entries and recompute everything,
  overwriting the store (the CLI's ``--no-cache``),
* ``retries`` / ``backoff`` — per-chunk retry with exponential backoff;
  a chunk that still fails is quarantined (with a store) or re-raised.

Retrying is always safe: a chunk's randomness comes exclusively from its
tasks' named RNG substreams, so a retry evaluates exactly the same work.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.store.store import CampaignStore, StoreLike, open_store

#: default per-chunk retry budget when a policy is in force
DEFAULT_RETRIES = 2
#: default base backoff (seconds); attempt ``k`` sleeps ``backoff * 2**(k-1)``
DEFAULT_BACKOFF = 0.05

#: what the injection sandbox does with an unexpected (non-device) exception
#: inside an injected run — see docs/ROBUSTNESS.md:
#:
#: * ``"due"``        — contain and classify the run as a DUE with
#:   ``due_cause="contained:<ExcType>"`` (the default: campaigns are
#:   crash-proof, like the paper's beam supervisor),
#: * ``"quarantine"`` — contain but treat the chunk as poisoned: it goes
#:   straight to the store's quarantine without burning retries,
#: * ``"raise"``      — let the exception propagate (debugging).
ON_CRASH_POLICIES = ("due", "quarantine", "raise")
#: policy in force when nothing was requested anywhere
DEFAULT_ON_CRASH = "due"


@dataclass(frozen=True)
class ServicePolicy:
    """Coordination knobs for lease-based multi-worker campaigns.

    Carried as :attr:`ExecutionPolicy.service` and consumed by
    :mod:`repro.service` / :class:`~repro.exec.engine.LeaseExecutor`:

    * ``lease_ttl`` — seconds a claimed chunk's lease stays valid without
      being committed or renewed; an expired lease is reclaimable by any
      live worker (at-least-once execution — duplicate commits are
      byte-verified no-ops, see docs/SERVICE.md),
    * ``heartbeat_interval`` — seconds between a worker's liveness
      heartbeats; a worker that misses ``miss_factor`` intervals is
      presumed dead/stalled and its chunks go back to the pool,
    * ``max_lease_epochs`` — hard cap on how many times one chunk may be
      claimed before it is quarantined as poison,
    * ``victim_threshold`` — a chunk whose lease expired under this many
      *distinct dead* workers escalates straight to quarantine (it is
      killing workers, not merely unlucky),
    * ``poll_interval`` — the longest an idle worker waits between scans
      for reclaimable work (forked workers and their supervisor wake
      earlier, on a child's exit or when the whole chunk list settles).
    """

    lease_ttl: float = 30.0
    heartbeat_interval: float = 5.0
    max_lease_epochs: int = 5
    victim_threshold: int = 2
    poll_interval: float = 0.05
    #: heartbeat staleness multiplier: a worker is presumed dead after
    #: ``miss_factor * heartbeat_interval`` seconds of silence
    miss_factor: int = 3

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ConfigurationError("lease_ttl must be > 0")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be > 0")
        if self.max_lease_epochs < 1:
            raise ConfigurationError("max_lease_epochs must be >= 1")
        if self.victim_threshold < 1:
            raise ConfigurationError("victim_threshold must be >= 1")
        if self.poll_interval <= 0:
            raise ConfigurationError("poll_interval must be > 0")
        if self.miss_factor < 1:
            raise ConfigurationError("miss_factor must be >= 1")

    @property
    def dead_after(self) -> float:
        """Seconds of heartbeat silence after which a worker is presumed
        dead (and its expired leases count it as a chunk victim)."""
        return self.miss_factor * self.heartbeat_interval


@dataclass(frozen=True)
class RunPolicy:
    """Durability + failure-handling knobs for one engine run."""

    store: Optional[CampaignStore] = None
    resume: bool = True
    refresh: bool = False
    retries: int = DEFAULT_RETRIES
    backoff: float = DEFAULT_BACKOFF
    #: sandbox crash policy; None means "nothing requested here" so an
    #: explicit ``on_crash=`` kwarg (or the default) can take over
    on_crash: Optional[str] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.backoff < 0:
            raise ConfigurationError("backoff must be >= 0")
        if self.on_crash is not None and self.on_crash not in ON_CRASH_POLICIES:
            raise ConfigurationError(
                f"on_crash must be one of {ON_CRASH_POLICIES}, got {self.on_crash!r}"
            )

    @property
    def read_allowed(self) -> bool:
        """May completed chunks be replayed from the store?"""
        return self.store is not None and self.resume and not self.refresh

    @property
    def write_allowed(self) -> bool:
        return self.store is not None


@dataclass(frozen=True)
class ExecutionPolicy(RunPolicy):
    """Every run-shaping knob of the facade in one object.

    Extends :class:`RunPolicy` (durability + failure handling) with the
    execution-strategy knobs: checkpoint/replay and snapshot density.  The
    facade entry points (``run_campaign``/``run_beam``/``predict``) and the
    engines (``CampaignRunner``/``BeamExperiment``) accept exactly one
    ``policy=ExecutionPolicy(...)`` in place of the former
    ``store=/resume=/refresh=/retries=/backoff=/on_crash=`` kwarg sprawl
    (which still works through a one-shot deprecation shim).

    ``replay=None`` means *auto*: replay on, with transparent per-run
    fallback to the vanilla path whenever no usable snapshot precedes a
    fault site.  ``replay=False`` forces the vanilla path everywhere.

    ``batch_eval`` follows the same convention for the vectorized batched
    fault evaluator (:mod:`repro.faultsim.batch`): None = auto (on, with
    transparent per-injection fallback whenever an injection is outside
    the analyzable population), False = force per-injection evaluation.

    ``service`` carries the lease/heartbeat/cancellation knobs of the
    fault-tolerant campaign service (:mod:`repro.service`,
    docs/SERVICE.md); None uses the :class:`ServicePolicy` defaults when a
    service-mode executor is in force and is inert otherwise.
    """

    #: checkpoint/replay: None = auto (on with vanilla fallback), False = off
    replay: Optional[bool] = None
    #: evenly-spaced snapshots recorded per golden capture (≥ 1)
    snapshots_per_run: int = 16
    #: batched vectorized fault evaluation: None = auto, False = off
    batch_eval: Optional[bool] = None
    #: lease/heartbeat knobs for service-mode execution (None = defaults)
    service: Optional[ServicePolicy] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.snapshots_per_run < 1:
            raise ConfigurationError("snapshots_per_run must be >= 1")


def replay_setting(policy: Optional[RunPolicy]) -> bool:
    """Whether replay is enabled under ``policy`` (tolerates plain
    :class:`RunPolicy` instances and None — both mean the auto default)."""
    setting = getattr(policy, "replay", None)
    return True if setting is None else bool(setting)


def snapshots_setting(policy: Optional[RunPolicy]) -> int:
    """Snapshot density under ``policy`` (default 16)."""
    return int(getattr(policy, "snapshots_per_run", 16) or 16)


def batch_eval_setting(policy: Optional[RunPolicy]) -> bool:
    """Whether batched fault evaluation is enabled under ``policy``
    (tolerates plain :class:`RunPolicy` instances and None — both mean the
    auto default)."""
    setting = getattr(policy, "batch_eval", None)
    return True if setting is None else bool(setting)


def service_setting(policy: Optional[RunPolicy]) -> "ServicePolicy":
    """The service knobs under ``policy`` (defaults when absent; tolerates
    plain :class:`RunPolicy` instances and None)."""
    setting = getattr(policy, "service", None)
    return setting if setting is not None else ServicePolicy()


def as_execution_policy(
    policy: Optional[RunPolicy],
    on_crash: Optional[str] = None,
    replay: Optional[bool] = None,
    snapshots_per_run: Optional[int] = None,
    batch_eval: Optional[bool] = None,
    service: Optional[ServicePolicy] = None,
) -> ExecutionPolicy:
    """Fold a (possibly plain, possibly absent) policy plus overrides into
    one :class:`ExecutionPolicy`.  Explicit overrides win; fields the base
    policy already carries are preserved."""
    if policy is None:
        base = ExecutionPolicy()
    elif isinstance(policy, ExecutionPolicy):
        base = policy
    else:
        base = ExecutionPolicy(
            store=policy.store,
            resume=policy.resume,
            refresh=policy.refresh,
            retries=policy.retries,
            backoff=policy.backoff,
            on_crash=policy.on_crash,
        )
    updates = {}
    if on_crash is not None:
        updates["on_crash"] = on_crash
    if replay is not None:
        updates["replay"] = replay
    if snapshots_per_run is not None:
        updates["snapshots_per_run"] = snapshots_per_run
    if batch_eval is not None:
        updates["batch_eval"] = batch_eval
    if service is not None:
        updates["service"] = service
    return replace(base, **updates) if updates else base


#: (owner, kwarg) pairs that have already warned this process — the shim
#: warns once per call site category, not once per run
_WARNED: Set[Tuple[str, str]] = set()


def warn_legacy_kwargs(owner: str, **kwargs: object) -> None:
    """Deprecation shim for the pre-ExecutionPolicy kwarg sprawl: warn once
    per (owner, kwarg) for any value that differs from the old default."""
    for name, value in kwargs.items():
        if value not in (None, False):
            warn_deprecated_kwarg(owner, name, stacklevel=5)


def warn_deprecated_kwarg(owner: str, kwarg: str, stacklevel: int = 4) -> None:
    """One-shot DeprecationWarning for a legacy run-option kwarg.

    ``owner`` names the API surface ("CampaignRunner", "BeamExperiment",
    "ExperimentConfig", "predict") so each surface warns independently.
    See docs/API.md for the kwarg → ExecutionPolicy migration table.
    """
    key = (owner, kwarg)
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(
        f"{owner}({kwarg}=...) is deprecated; pass "
        f"policy=ExecutionPolicy({kwarg}=...) instead (see docs/API.md)",
        DeprecationWarning,
        stacklevel=stacklevel,
    )


def resolve_policy(
    store: Optional[StoreLike] = None,
    policy: Optional[RunPolicy] = None,
    resume: Optional[bool] = None,
    refresh: bool = False,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
) -> Optional[RunPolicy]:
    """Resolve the ``store=``/``resume=``/``refresh=``/``retries=`` kwargs
    every engine entry point accepts into one :class:`RunPolicy`.

    An explicit ``policy=`` wins and must come alone.  ``resume=True`` and
    ``refresh=True`` together are a contradiction (refresh bypasses the
    cache) and raise.  Returns None — engine behaviour unchanged — when
    nothing durability-related was requested.
    """
    if policy is not None:
        if store is not None or resume is not None or refresh or retries is not None:
            raise ConfigurationError(
                "pass either policy= or the store=/resume=/refresh=/retries= "
                "kwargs, not both"
            )
        return policy
    if resume and refresh:
        raise ConfigurationError(
            "resume and refresh conflict: refresh (--no-cache) bypasses the "
            "cache that resume replays — drop one of the two"
        )
    if store is None:
        if resume or refresh:
            raise ConfigurationError("resume=/refresh= require a store=")
        if retries is None:
            return None
        return RunPolicy(
            retries=retries,
            backoff=backoff if backoff is not None else DEFAULT_BACKOFF,
        )
    return RunPolicy(
        store=open_store(store),
        resume=resume if resume is not None else True,
        refresh=refresh,
        retries=retries if retries is not None else DEFAULT_RETRIES,
        backoff=backoff if backoff is not None else DEFAULT_BACKOFF,
    )


def resolve_on_crash(on_crash: Optional[str], policy: Optional[RunPolicy]) -> str:
    """Resolve the sandbox crash policy for one runner.

    Precedence: explicit ``on_crash=`` kwarg, then ``policy.on_crash``,
    then :data:`DEFAULT_ON_CRASH` ("due" — campaigns are crash-proof unless
    someone asks otherwise).
    """
    if on_crash is not None:
        if on_crash not in ON_CRASH_POLICIES:
            raise ConfigurationError(
                f"on_crash must be one of {ON_CRASH_POLICIES}, got {on_crash!r}"
            )
        return on_crash
    if policy is not None and policy.on_crash is not None:
        return policy.on_crash
    return DEFAULT_ON_CRASH
