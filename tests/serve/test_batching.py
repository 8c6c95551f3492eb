"""Tests for the cross-request micro-batcher (DESIGN.md §12)."""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.serve import (
    DEFAULT_BATCH_MAX,
    DEFAULT_BATCH_WINDOW_MS,
    MicroBatcher,
    ModelBank,
)


@pytest.fixture(scope="module")
def kettle_model(bank):
    model, lock = bank.get("kettle")
    return model, lock


def _watts(length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    watts = rng.uniform(80, 240, size=length) + 40.0
    watts[length // 4 : length // 4 + 6] = 2600.0
    return watts


def _concurrent_localize(batcher, model, lock, windows, appliance="kettle"):
    """Fire one localize per window from parallel threads; return rows."""
    results = [None] * len(windows)
    errors = [None] * len(windows)
    barrier = threading.Barrier(len(windows))

    def worker(i):
        try:
            barrier.wait(timeout=10)
            results[i] = batcher.localize(appliance, model, lock, windows[i])
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors[i] = exc

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(len(windows))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, errors


# -- construction --------------------------------------------------------


def test_defaults_and_validation():
    batcher = MicroBatcher()
    assert batcher.enabled
    assert batcher.batch_window_ms == DEFAULT_BATCH_WINDOW_MS
    assert batcher.batch_max == DEFAULT_BATCH_MAX
    with pytest.raises(ValueError):
        MicroBatcher(batch_window_ms=-1)
    with pytest.raises(ValueError):
        MicroBatcher(batch_max=0)


def test_disabled_configurations():
    assert not MicroBatcher(batch_max=1).enabled
    assert not MicroBatcher(batch_window_ms=0).enabled


# -- coalescing ----------------------------------------------------------


def test_concurrent_same_length_requests_coalesce(kettle_model):
    model, lock = kettle_model
    # batch_max == thread count: the leader wakes on fill, so a generous
    # window cannot slow the test down, only make coalescing certain.
    batcher = MicroBatcher(batch_window_ms=2_000.0, batch_max=4)
    windows = [_watts(64, seed=i) for i in range(4)]
    results, errors = _concurrent_localize(batcher, model, lock, windows)
    assert errors == [None] * 4
    stats = batcher.stats()
    assert stats["batches"] == 1
    assert stats["windows"] == 4
    assert stats["max_batch_size"] == 4
    assert stats["coalesced"] == 4
    assert stats["fallback"] == 0
    assert stats["avg_batch_size"] == 4.0
    assert stats["occupancy"] == 1.0
    # Every caller got its own single-row result, bit-identical to a
    # solo sweep of its window (the engine's batch-invariance contract).
    for window, result in zip(windows, results):
        solo = model.localize_watts(window[None, :])
        np.testing.assert_array_equal(
            result.probabilities, solo.probabilities
        )
        np.testing.assert_array_equal(result.status, solo.status)
        np.testing.assert_array_equal(result.cam, solo.cam)


def test_mixed_verdict_batch_scatters_per_row(kettle_model):
    model, lock = kettle_model
    batcher = MicroBatcher(batch_window_ms=2_000.0, batch_max=3)
    clean = _watts(64, seed=1)
    repaired = _watts(64, seed=2)
    repaired[10:13] = np.nan
    degraded = _watts(64, seed=3)
    degraded[5:60] = np.nan
    results, errors = _concurrent_localize(
        batcher, model, lock, [clean, repaired, degraded]
    )
    assert errors == [None] * 3
    assert not results[0].any_repaired and not results[0].any_degraded
    assert results[1].any_repaired and not results[1].any_degraded
    assert results[2].any_degraded
    assert np.isnan(results[2].probabilities[0])
    assert batcher.stats()["batches"] == 1


def test_different_lengths_never_share_a_batch(kettle_model):
    model, lock = kettle_model
    batcher = MicroBatcher(batch_window_ms=5.0, batch_max=4)
    windows = [_watts(64, seed=1), _watts(96, seed=2)]
    results, errors = _concurrent_localize(batcher, model, lock, windows)
    assert errors == [None, None]
    stats = batcher.stats()
    assert stats["batches"] == 2
    assert stats["max_batch_size"] == 1
    assert stats["fallback"] == 2  # both timed out alone
    assert results[0].cam.shape == (1, 64)
    assert results[1].cam.shape == (1, 96)


def test_batch_overflow_rolls_into_next_batch(kettle_model):
    """More concurrent callers than batch_max still all get answers."""
    model, lock = kettle_model
    batcher = MicroBatcher(batch_window_ms=50.0, batch_max=2)
    windows = [_watts(64, seed=i) for i in range(5)]
    results, errors = _concurrent_localize(batcher, model, lock, windows)
    assert errors == [None] * 5
    assert all(r is not None for r in results)
    stats = batcher.stats()
    assert stats["windows"] == 5
    assert 1 <= stats["max_batch_size"] <= 2
    assert batcher._forming == {}  # nothing left half-open


def test_disabled_batcher_falls_through_to_direct_path(kettle_model):
    model, lock = kettle_model
    batcher = MicroBatcher(batch_max=1)
    window = _watts(64, seed=7)
    result = batcher.localize("kettle", model, lock, window)
    solo = model.localize_watts(window[None, :])
    np.testing.assert_array_equal(result.probabilities, solo.probabilities)
    stats = batcher.stats()
    assert stats == {
        "enabled": False,
        "batch_window_ms": DEFAULT_BATCH_WINDOW_MS,
        "batch_max": 1,
        "batches": 1,
        "windows": 1,
        "coalesced": 0,
        "fallback": 1,
        "max_batch_size": 1,
        "avg_batch_size": 1.0,
        "occupancy": 1.0,
    }


def test_lone_request_times_out_and_sweeps_alone(kettle_model):
    model, lock = kettle_model
    batcher = MicroBatcher(batch_window_ms=1.0, batch_max=8)
    start = time.perf_counter()
    result = batcher.localize("kettle", model, lock, _watts(64, seed=8))
    elapsed = time.perf_counter() - start
    assert result.probabilities.shape == (1,)
    assert batcher.stats()["fallback"] == 1
    # Paid the 1 ms window plus one sweep — not a 2 s hang.
    assert elapsed < 2.0


# -- failure propagation -------------------------------------------------


class _ExplodingModel:
    def fingerprint(self):
        return ("boom-model",)

    def localize_watts(self, watts, appliance=None):
        raise RuntimeError("sweep exploded")


def test_sweep_error_reaches_every_caller_and_cleans_up():
    batcher = MicroBatcher(batch_window_ms=2_000.0, batch_max=3)
    model, lock = _ExplodingModel(), threading.Lock()
    windows = [_watts(64, seed=i) for i in range(3)]
    results, errors = _concurrent_localize(batcher, model, lock, windows)
    assert results == [None] * 3
    assert all(isinstance(e, RuntimeError) for e in errors)
    assert batcher._forming == {}  # the failed batch is not stuck forming
    # The batcher still accounts the failed sweep and remains usable.
    assert batcher.stats()["batches"] == 1


# -- observability -------------------------------------------------------


def test_batch_metrics_exported_to_obs(kettle_model):
    model, lock = kettle_model
    obs.reset()
    obs.enable()
    try:
        batcher = MicroBatcher(batch_window_ms=2_000.0, batch_max=2)
        windows = [_watts(64, seed=i) for i in range(2)]
        _, errors = _concurrent_localize(batcher, model, lock, windows)
        assert errors == [None, None]
        batcher.localize("kettle", model, lock, _watts(96, seed=9))
        snapshot = obs.registry.snapshot()
        size = snapshot["serve.batch.size"]["series"][0]
        assert size["count"] == 2  # one coalesced sweep + one fallback
        assert size["sum"] == 3.0
        coalesced = obs.registry.counter("serve.batch.coalesced_total")
        fallback = obs.registry.counter("serve.batch.fallback_total")
        assert coalesced.value() == 2.0
        assert fallback.value() == 1.0
        # The dashboard line renders from exactly these series.
        from repro.obs.report import format_batching

        line = format_batching(snapshot)
        assert line.startswith("batching: sweeps=2 windows=3")
    finally:
        obs.disable()
        obs.reset()


# -- service integration -------------------------------------------------


def _prime_house(service, tenant, watts):
    status, _, _ = service.execute(
        "houses.create",
        tenant,
        lambda t: service.create_house(
            t, {"house_id": "h", "watts": watts.tolist()}
        ),
    )
    assert status == 201
    status, _, _ = service.execute(
        "devices.attach",
        tenant,
        lambda t: service.attach_device(t, "h", {"appliance": "kettle"}),
    )
    assert status == 201


def test_service_coalesces_cross_tenant_requests(bank):
    from repro.serve import (
        AdmissionController,
        DeviceScopeService,
        TenantRegistry,
    )

    service = DeviceScopeService(
        bank=bank,
        registry=TenantRegistry(),
        admission=AdmissionController(min_requests=10_000),
        batcher=MicroBatcher(batch_window_ms=500.0, batch_max=4),
    )
    rng = np.random.default_rng(11)
    tenants = [f"t{i}" for i in range(4)]
    for i, tenant in enumerate(tenants):
        watts = rng.uniform(80, 240, size=128) + 40.0
        watts[20 + i : 32 + i] = 2600.0
        _prime_house(service, tenant, watts)
    statuses = [None] * 4
    barrier = threading.Barrier(4)

    def worker(i):
        barrier.wait(timeout=10)
        statuses[i], _, _ = service.execute(
            "localize",
            tenants[i],
            lambda t: service.localize(
                t, "h", {"appliance": "kettle", "length": 128}
            ),
        )

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert statuses == [200] * 4
    stats = service.batcher.stats()
    assert stats["windows"] == 4
    assert stats["max_batch_size"] > 1  # tenants shared at least one sweep
    # Health exposes the same snapshot for operators.
    _, payload = service.health()
    assert payload["batching"] == service.batcher.stats()


def test_service_batched_answers_match_serial_service(bank):
    """End to end: a batched service returns byte-identical payloads."""
    from repro.serve import (
        AdmissionController,
        DeviceScopeService,
        TenantRegistry,
    )

    def build(batcher):
        return DeviceScopeService(
            bank=bank,
            registry=TenantRegistry(),
            admission=AdmissionController(min_requests=10_000),
            batcher=batcher,
        )

    serial = build(MicroBatcher(batch_max=1))
    batched = build(MicroBatcher(batch_window_ms=500.0, batch_max=3))
    rng = np.random.default_rng(13)
    watts_by_tenant = {}
    for i in range(3):
        watts = rng.uniform(80, 240, size=96) + 40.0
        watts[30 : 30 + 4 + i] = 2600.0
        watts_by_tenant[f"t{i}"] = watts
        _prime_house(serial, f"t{i}", watts)
        _prime_house(batched, f"t{i}", watts)

    def localize_on(service, tenant):
        status, payload, _ = service.execute(
            "localize",
            tenant,
            lambda t: service.localize(
                t, "h", {"appliance": "kettle", "length": 96}
            ),
        )
        assert status == 200
        return payload

    serial_payloads = {
        tenant: localize_on(serial, tenant) for tenant in watts_by_tenant
    }
    payloads = [None] * 3
    barrier = threading.Barrier(3)

    def worker(i):
        barrier.wait(timeout=10)
        payloads[i] = localize_on(batched, f"t{i}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(3):
        assert payloads[i] == serial_payloads[f"t{i}"]


def test_degraded_row_not_cached_but_clean_rows_are(bank):
    """Per-row cache rules survive batching: one tenant's degraded
    window must not be cached, while its batchmates' clean rows are."""
    from repro.serve import (
        AdmissionController,
        DeviceScopeService,
        TenantRegistry,
    )

    service = DeviceScopeService(
        bank=bank,
        registry=TenantRegistry(),
        admission=AdmissionController(min_requests=10_000),
        batcher=MicroBatcher(batch_window_ms=500.0, batch_max=2),
    )
    rng = np.random.default_rng(17)
    clean = rng.uniform(80, 240, size=64) + 40.0
    clean[20:28] = 2600.0
    broken = clean.copy()
    broken[5:60] = np.nan
    _prime_house(service, "clean", clean)
    _prime_house(service, "broken", broken)
    results = {}
    barrier = threading.Barrier(2)

    def worker(tenant):
        barrier.wait(timeout=10)
        status, payload, _ = service.execute(
            "detect",
            tenant,
            lambda t: service.detect(
                t, "h", {"appliance": "kettle", "length": 64}
            ),
        )
        results[tenant] = (status, payload)

    threads = [
        threading.Thread(target=worker, args=(t,))
        for t in ("clean", "broken")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results["clean"][0] == 200
    assert results["clean"][1]["verdict"] == "ok"
    assert results["broken"][1]["verdict"] == "degraded"
    assert service.batcher.stats()["max_batch_size"] == 2
    # The clean tenant's row was cached; the degraded one was rejected.
    clean_cache = service.registry.get_or_create("clean").cache
    broken_cache = service.registry.get_or_create("broken").cache
    assert len(clean_cache) == 1
    assert len(broken_cache) == 0
    assert broken_cache.rejected == 1
    # A replay by the degraded tenant recomputes (no poisoned hit).
    status, payload, _ = service.execute(
        "detect",
        "broken",
        lambda t: service.detect(
            t, "h", {"appliance": "kettle", "length": 64}
        ),
    )
    assert payload["cached"] is False


# -- arrival awareness ---------------------------------------------------


class _SlowModel:
    """The real model behind a sweep that outlasts the batch window."""

    def __init__(self, model, delay_s: float):
        self._model = model
        self._delay_s = delay_s

    def fingerprint(self):
        return self._model.fingerprint()

    def localize_watts(self, watts, appliance=None):
        time.sleep(self._delay_s)
        return self._model.localize_watts(watts, appliance=appliance)


def test_sequential_caller_after_idle_gap_sweeps_at_once(kettle_model):
    model, lock = kettle_model
    batcher = MicroBatcher(batch_window_ms=5.0, batch_max=8)
    batcher.localize("kettle", model, lock, _watts(64, seed=1))
    # A never-seen appliance still waits out its window.
    assert batcher.stats()["idle_leaders"] == 0
    time.sleep(0.02)  # idle for longer than the 5 ms window
    result = batcher.localize("kettle", model, lock, _watts(64, seed=2))
    stats = batcher.stats()
    assert stats["idle_leaders"] == 1
    assert stats["batches"] == 2 and stats["fallback"] == 2
    solo = model.localize_watts(_watts(64, seed=2)[None, :])
    np.testing.assert_array_equal(result.probabilities, solo.probabilities)


def test_burst_after_idle_lone_sweep_still_coalesces(kettle_model):
    model, lock = kettle_model
    batcher = MicroBatcher(batch_window_ms=200.0, batch_max=8)
    batcher.localize("kettle", model, lock, _watts(64, seed=20))
    time.sleep(0.3)  # idle for longer than the window
    windows = [_watts(64, seed=i) for i in range(4)]
    results, errors = _concurrent_localize(batcher, model, lock, windows)
    assert errors == [None] * 4
    stats = batcher.stats()
    # Only the burst's first arrival finds the appliance idle; its
    # arrival makes the appliance active, so the rest wait and share.
    assert stats["idle_leaders"] == 1
    assert stats["batches"] - 1 <= 2
    assert stats["max_batch_size"] > 1
    for window, result in zip(windows, results):
        solo = model.localize_watts(window[None, :])
        np.testing.assert_array_equal(
            result.probabilities, solo.probabilities
        )
        np.testing.assert_array_equal(result.status, solo.status)
        np.testing.assert_array_equal(result.cam, solo.cam)


def test_closed_loop_keeps_coalescing_across_long_sweeps(kettle_model):
    """Sweep ends count as activity: callers answered by a sweep longer
    than the window come straight back and still find company."""
    model, lock = kettle_model
    slow = _SlowModel(model, delay_s=0.15)
    batcher = MicroBatcher(batch_window_ms=50.0, batch_max=4)
    rounds = 3
    errors = []
    barrier = threading.Barrier(4)

    def worker(i):
        try:
            barrier.wait(timeout=10)
            for r in range(rounds):
                batcher.localize("kettle", slow, lock, _watts(64, 10 * i + r))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    stats = batcher.stats()
    assert stats["windows"] == 4 * rounds
    assert stats["idle_leaders"] == 0
    assert stats["avg_batch_size"] > 1.0


def test_activity_is_bounded_by_appliances_not_lengths(kettle_model):
    model, lock = kettle_model
    batcher = MicroBatcher(batch_window_ms=0.5, batch_max=8)
    for length in range(48, 98):
        batcher.localize("kettle", model, lock, _watts(length, seed=length))
    assert batcher.stats()["windows"] == 50
    assert list(batcher._activity) == ["kettle"]
    assert batcher._forming == {}


def test_disabled_batcher_records_no_activity(kettle_model):
    model, lock = kettle_model
    batcher = MicroBatcher(batch_max=1)
    for seed in range(3):
        batcher.localize("kettle", model, lock, _watts(64, seed=seed))
    assert batcher._activity == {}
    assert "idle_leaders" not in batcher.stats()
