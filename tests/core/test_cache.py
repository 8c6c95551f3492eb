"""Tests for the result LRU cache behind Prev/Next navigation."""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core import ResultCache, window_key


def test_put_get_roundtrip():
    cache = ResultCache(maxsize=4)
    cache.put("k", {"value": 1})
    assert cache.get("k") == {"value": 1}
    assert len(cache) == 1
    assert "k" in cache


def test_hit_returns_same_object():
    """The app renders cached results by reference — identity matters."""
    cache = ResultCache()
    value = np.arange(5)
    cache.put("k", value)
    assert cache.get("k") is value
    assert cache.get_or_compute("k", lambda: np.arange(5)) is value


def test_miss_returns_default_and_counts():
    cache = ResultCache()
    assert cache.get("absent") is None
    assert cache.get("absent", default=42) == 42
    assert cache.misses == 2
    assert cache.hits == 0


def test_hit_miss_counters_and_stats():
    cache = ResultCache(maxsize=2, name="test")
    cache.put("a", 1)
    cache.get("a")
    cache.get("a")
    cache.get("b")
    stats = cache.stats()
    assert stats["hits"] == 2
    assert stats["misses"] == 1
    assert stats["hit_rate"] == pytest.approx(2 / 3)
    assert stats["name"] == "test"
    assert stats["size"] == 1


def test_lru_evicts_least_recently_used():
    cache = ResultCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a — b becomes the eviction candidate
    cache.put("c", 3)
    assert "a" in cache and "c" in cache
    assert "b" not in cache
    assert len(cache) == 2


def test_put_refreshes_recency():
    cache = ResultCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # re-put refreshes, does not duplicate
    cache.put("c", 3)
    assert cache.get("a") == 10
    assert "b" not in cache


def test_get_or_compute_computes_once():
    cache = ResultCache()
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert cache.get_or_compute("k", compute) == "value"
    assert cache.get_or_compute("k", compute) == "value"
    assert len(calls) == 1
    assert cache.hits == 1 and cache.misses == 1


def test_cache_if_false_is_returned_but_not_stored():
    """Degraded/failed results must never become cache hits."""
    cache = ResultCache()
    calls = []

    def compute():
        calls.append(1)
        return {"degraded": True}

    value = cache.get_or_compute("k", compute, cache_if=lambda v: False)
    assert value == {"degraded": True}
    assert "k" not in cache
    assert cache.rejected == 1
    # The next lookup recomputes — the rejection did not stick a value.
    cache.get_or_compute("k", compute, cache_if=lambda v: False)
    assert len(calls) == 2
    assert cache.rejected == 2
    assert cache.stats()["rejected"] == 2


def test_cache_if_true_stores_normally():
    cache = ResultCache()
    cache.get_or_compute("k", lambda: "v", cache_if=lambda v: v == "v")
    assert cache.get("k") == "v"
    assert cache.rejected == 0


def test_cache_if_predicate_sees_the_computed_value():
    cache = ResultCache()
    seen = []
    cache.get_or_compute("k", lambda: 41, cache_if=lambda v: seen.append(v) or True)
    assert seen == [41]


def test_raising_compute_stores_nothing():
    cache = ResultCache()
    with pytest.raises(RuntimeError):
        cache.get_or_compute("k", lambda: (_ for _ in ()).throw(RuntimeError()))
    assert "k" not in cache
    assert cache.get_or_compute("k", lambda: "recovered") == "recovered"


def test_cache_if_rejections_exported_to_obs():
    obs.reset()
    obs.enable()
    try:
        cache = ResultCache(name="unit")
        cache.get_or_compute("k", lambda: 1, cache_if=lambda v: False)
        rejected = obs.registry.counter("app.result_cache_rejected_total")
        assert rejected.value(cache="unit") == 1.0
    finally:
        obs.disable()
        obs.reset()


def test_clear_keeps_totals():
    cache = ResultCache()
    cache.put("k", 1)
    cache.get("k")
    cache.get("missing")
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 1 and cache.misses == 1


def test_maxsize_validation():
    with pytest.raises(ValueError):
        ResultCache(maxsize=0)


def test_thread_safety_under_contention():
    cache = ResultCache(maxsize=8)

    def worker(seed):
        for i in range(200):
            key = (seed + i) % 12
            cache.get_or_compute(key, lambda k=key: k * 2)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(cache) <= 8
    assert cache.hits + cache.misses == 800


def test_obs_counters_exported():
    obs.reset()
    obs.enable()
    try:
        cache = ResultCache(name="unit")
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        hits = obs.registry.counter("app.result_cache_hits_total")
        misses = obs.registry.counter("app.result_cache_misses_total")
        assert hits.value(cache="unit") == 1.0
        assert misses.value(cache="unit") == 1.0
    finally:
        obs.disable()
        obs.reset()


def test_disabled_obs_still_counts_locally():
    assert not obs.enabled()
    cache = ResultCache()
    cache.get("absent")
    assert cache.misses == 1


# -- single-flight ------------------------------------------------------


def _wait_until(predicate, timeout=5.0):
    """Poll a cheap predicate; fail the test on timeout, never hang."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("timed out waiting for a single-flight state")
        time.sleep(0.0005)


def test_single_flight_computes_once_under_contention():
    """Concurrent misses on one key coalesce into a single compute."""
    cache = ResultCache()
    calls = []
    gate = threading.Event()

    def compute():
        calls.append(1)
        gate.wait(timeout=5)
        return "value"

    results = [None] * 4

    def worker(i):
        results[i] = cache.get_or_compute("k", compute)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    # Followers bill single_flight *before* they block, so this poll
    # guarantees all three joined the leader's flight before it lands.
    _wait_until(lambda: cache.single_flight == 3)
    gate.set()
    for t in threads:
        t.join()
    assert results == ["value"] * 4
    assert len(calls) == 1
    # One leader missed; the followers are billed as single-flight
    # joins, not as misses (and not as ordinary hits).
    assert cache.misses == 1
    assert cache.single_flight == 3
    assert cache.stats()["single_flight"] == 3


def test_single_flight_waiters_share_cache_if_rejection():
    """A degraded leader result reaches every waiter uncached."""
    cache = ResultCache()
    calls = []
    gate = threading.Event()

    def compute():
        calls.append(1)
        gate.wait(timeout=5)
        return {"degraded": True}

    results = []

    def worker():
        results.append(
            cache.get_or_compute("k", compute, cache_if=lambda v: False)
        )

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    _wait_until(lambda: cache.single_flight == 2)
    gate.set()
    for t in threads:
        t.join()
    assert results == [{"degraded": True}] * 3
    assert len(calls) == 1
    assert "k" not in cache  # rejection still holds for the whole flight


def test_single_flight_leader_error_lets_waiters_recover():
    """A failed leader must not poison waiters — they retry themselves."""
    cache = ResultCache()
    gate = threading.Event()
    attempts = []

    def compute():
        attempts.append(threading.current_thread().name)
        if len(attempts) == 1:
            gate.wait(timeout=5)
            raise RuntimeError("leader boom")
        return "recovered"

    errors, values = [], []

    def leader():
        try:
            cache.get_or_compute("k", compute)
        except RuntimeError as err:
            errors.append(str(err))

    def waiter():
        values.append(cache.get_or_compute("k", compute))

    lead = threading.Thread(target=leader, name="lead")
    lead.start()
    _wait_until(lambda: len(attempts) == 1)  # leader is inside compute
    waits = [threading.Thread(target=waiter, name=f"w{i}") for i in range(2)]
    for t in waits:
        t.start()
    _wait_until(lambda: cache.single_flight == 2)  # both joined the flight
    gate.set()
    lead.join()
    for t in waits:
        t.join()
    # The leader saw its own exception; each waiter recovered by
    # retrying (one of them becomes the new leader, the other may join
    # its flight or hit the now-cached value).
    assert errors == ["leader boom"]
    assert values == ["recovered", "recovered"]
    assert cache.get("k") == "recovered"


def test_single_flight_joins_exported_to_obs():
    obs.reset()
    obs.enable()
    try:
        cache = ResultCache(name="unit")
        gate = threading.Event()

        def compute():
            gate.wait(timeout=5)
            return 1

        threads = [
            threading.Thread(
                target=lambda: cache.get_or_compute("k", compute)
            )
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        _wait_until(lambda: cache.single_flight == 1)
        gate.set()
        for t in threads:
            t.join()
        joined = obs.registry.counter("app.result_cache_single_flight_total")
        assert joined.value(cache="unit") == 1.0
    finally:
        obs.disable()
        obs.reset()


# -- window_key ---------------------------------------------------------


def test_window_key_stable_for_equal_windows():
    watts = np.random.default_rng(0).normal(size=64)
    assert window_key("kettle", watts) == window_key("kettle", watts.copy())


def test_window_key_discriminates_content():
    watts = np.random.default_rng(1).normal(size=64)
    other = watts.copy()
    other[3] += 1e-9
    assert window_key("kettle", watts) != window_key("kettle", other)


def test_window_key_discriminates_appliance_and_fingerprint():
    watts = np.zeros(16)
    assert window_key("kettle", watts) != window_key("microwave", watts)
    assert window_key("kettle", watts, ("model-a",)) != window_key(
        "kettle", watts, ("model-b",)
    )


def test_window_key_includes_shape_and_dtype():
    flat = np.zeros(16)
    assert window_key("k", flat) != window_key("k", flat.reshape(4, 4))
    assert window_key("k", flat) != window_key("k", flat.astype(np.float32))


def test_window_key_handles_noncontiguous_views():
    base = np.random.default_rng(2).normal(size=(4, 32))
    strided = base[:, ::2]  # non-contiguous view
    assert window_key("k", strided) == window_key(
        "k", np.ascontiguousarray(strided)
    )


def _tiny_model():
    from repro.core import CamAL
    from repro.datasets import Standardizer
    from repro.models import ResNetEnsemble

    ensemble = ResNetEnsemble(kernel_sizes=(3,), n_filters=(2, 2, 2), seed=0)
    return CamAL(ensemble, Standardizer(mean=0.0, std=1.0))


def test_model_built_after_gc_never_hits_old_entries():
    """Fingerprints key on a serial, not ``id()``: CPython reuses a
    collected object's id, which would hand a new model the cached
    results of a dropped one."""
    import gc

    watts = np.zeros(64)
    cache = ResultCache(maxsize=64)
    seen = set()
    for _ in range(32):  # ids of dropped ensembles recur within a few builds
        model = _tiny_model()
        key = window_key("kettle", watts, model.fingerprint())
        assert model.fingerprint() not in seen
        assert cache.get(key) is None
        cache.put(key, "this model's answer")
        seen.add(model.fingerprint())
        del model
        gc.collect()
    assert cache.hits == 0


def test_loading_weights_changes_the_fingerprint():
    model = _tiny_model()
    before = model.fingerprint()
    model.ensemble.load_state_dict(model.ensemble.state_dict())
    assert model.fingerprint() != before
