"""The service's headline invariant, end to end: a lease-coordinated
campaign — any worker count, either backend, cancelled and resumed,
clean or continue — commits a store bit-identical to a serial run's."""

import multiprocessing
import time

import pytest

from repro.api import as_device, as_framework
from repro.common.errors import CampaignCancelledError
from repro.exec.engine import LeaseExecutor
from repro.faultsim.campaign import CampaignRunner
from repro.report import extract_store
from repro.service.registry import CampaignRegistry
from repro.store import ExecutionPolicy, ServicePolicy, open_store
from repro.telemetry import telemetry_session
from repro.workloads.registry import get_workload

INJECTIONS = 8  # serial partition: 4 chunks of 2

#: tight knobs so polling waits are milliseconds, not the prod defaults
SERVICE = ServicePolicy(lease_ttl=10.0, heartbeat_interval=0.2, poll_interval=0.02)


def _signature(result):
    return [
        (r.group, r.outcome, r.op, r.bit, r.detail, r.due_cause, r.contained)
        for r in result.records
    ]


def _run(path, backend, executor=None, refresh=False, on_result=None,
         service=SERVICE):
    store = open_store(path, backend=backend)
    try:
        runner = CampaignRunner(
            as_device("kepler"),
            as_framework("nvbitfi"),
            seed=1,
            executor=executor,
            policy=ExecutionPolicy(store=store, refresh=refresh, service=service),
        )
        return runner.run(get_workload("kepler", "FMXM", seed=1), INJECTIONS, on_result)
    finally:
        store.close()


def _model(path):
    return extract_store(path).model()


class TestSerialEquivalence:
    @pytest.mark.parametrize("backend", ["sqlite", "jsonl"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_lease_run_is_bit_identical_to_serial(self, tmp_path, backend, workers):
        serial_path = tmp_path / f"serial.{backend}"
        lease_path = tmp_path / f"lease.{backend}"
        serial = _run(serial_path, backend)
        leased = _run(lease_path, backend, executor=LeaseExecutor(workers=workers))
        assert _signature(leased) == _signature(serial)
        assert _model(lease_path) == _model(serial_path)


class TestResume:
    def test_continue_mode_replays_without_reexecuting(self, tmp_path):
        path = tmp_path / "svc.sqlite"
        first = _run(path, "sqlite", executor=LeaseExecutor())
        with telemetry_session() as telemetry:
            second = _run(path, "sqlite", executor=LeaseExecutor())
            counters = dict(telemetry.registry.counters)
        assert _signature(second) == _signature(first)
        assert counters.get("service.chunks.executed", 0) == 0
        assert counters.get("service.leases.granted", 0) == 0  # nothing claimed

    def test_clean_mode_reexecutes_everything(self, tmp_path):
        path = tmp_path / "svc.sqlite"
        first = _run(path, "sqlite", executor=LeaseExecutor())
        with telemetry_session() as telemetry:
            second = _run(path, "sqlite", executor=LeaseExecutor(), refresh=True)
            counters = dict(telemetry.registry.counters)
        # DAVOS clean semantics: same answer, recomputed from scratch
        assert _signature(second) == _signature(first)
        assert counters["service.chunks.executed"] == 4


class TestEventDrivenSupervision:
    def test_warm_rerun_over_a_complete_store_forks_nothing(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "warm.sqlite"
        cold = _run(path, "sqlite", executor=LeaseExecutor(workers=2))

        def no_fork(process):
            raise AssertionError("a warm rerun must not start a worker process")

        monkeypatch.setattr(multiprocessing.Process, "start", no_fork)
        warm = _run(path, "sqlite", executor=LeaseExecutor(workers=2))
        assert _signature(warm) == _signature(cold)

    def test_supervisor_and_idle_children_do_not_wait_out_the_poll_interval(
        self, tmp_path
    ):
        # every idle wait is bounded by a 5 s poll interval; a supervisor or
        # child that slept it instead of reacting to child exit / the done
        # event would push the run past it
        slow_poll = ServicePolicy(
            lease_ttl=10.0, heartbeat_interval=0.2, poll_interval=5.0
        )
        serial = _run(tmp_path / "serial.sqlite", "sqlite", service=slow_poll)
        started = time.monotonic()
        leased = _run(
            tmp_path / "lease.sqlite", "sqlite",
            executor=LeaseExecutor(workers=2), service=slow_poll,
        )
        elapsed = time.monotonic() - started
        assert _signature(leased) == _signature(serial)
        assert elapsed < 2.5


class TestCancellation:
    @pytest.mark.parametrize("backend", ["sqlite", "jsonl"])
    def test_tombstone_stops_claims_but_commits_in_flight_work(
        self, tmp_path, backend
    ):
        path = tmp_path / f"night.{backend}"
        store = open_store(path, backend=backend)
        try:
            registry = CampaignRegistry(store)
            runner = CampaignRunner(
                as_device("kepler"),
                as_framework("nvbitfi"),
                seed=1,
                executor=LeaseExecutor(campaign="night"),
                policy=ExecutionPolicy(store=store, service=SERVICE),
            )
            fired = []

            def cancel_on_first_result(record):
                # on_result fires as the first chunk's results deliver —
                # i.e. mid-campaign, between chunk claims
                if not fired:
                    fired.append(record)
                    registry.cancel("night", reason="operator said stop")

            with pytest.raises(CampaignCancelledError) as err:
                runner.run(
                    get_workload("kepler", "FMXM", seed=1),
                    INJECTIONS,
                    cancel_on_first_result,
                )
        finally:
            store.close()
        exc = err.value
        assert exc.campaign == "night"
        assert exc.reason == "operator said stop"
        assert 0 < exc.committed < exc.total == 4  # partial, durable progress

    def test_resubmission_revives_and_resumes_to_the_serial_answer(self, tmp_path):
        serial_path = tmp_path / "serial.sqlite"
        serial = _run(serial_path, "sqlite")

        path = tmp_path / "night.sqlite"
        store = open_store(path, backend="sqlite")
        try:
            registry = CampaignRegistry(store)
            runner = CampaignRunner(
                as_device("kepler"),
                as_framework("nvbitfi"),
                seed=1,
                executor=LeaseExecutor(campaign="night"),
                policy=ExecutionPolicy(store=store, service=SERVICE),
            )
            workload = get_workload("kepler", "FMXM", seed=1)
            fired = []

            def cancel_once(record):
                if not fired:
                    fired.append(record)
                    registry.cancel("night", reason="pause")

            with pytest.raises(CampaignCancelledError) as err:
                runner.run(workload, INJECTIONS, cancel_once)
            committed_before = err.value.committed
            assert 0 < committed_before < 4

            time.sleep(0.01)  # the reviving submission must postdate the stone
            registry.submit("night", {"workload": "FMXM"})
            assert not registry.cancelled("night")
            with telemetry_session() as telemetry:
                resumed = runner.run(workload, INJECTIONS)
                counters = dict(telemetry.registry.counters)
        finally:
            store.close()
        assert _signature(resumed) == _signature(serial)
        assert _model(path) == _model(serial_path)
        # only the chunks the cancellation cut off were (re-)executed
        assert counters["service.chunks.executed"] == 4 - committed_before
