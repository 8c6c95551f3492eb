import numpy as np
import pytest

from servebench.workloads import OUTAGE_TENANT, Sizes, make_plan, plan_digest

TINY = Sizes(browse_days=2, browse_views=20, live_houses=4, live_history_days=1, ingest_days=14)


@pytest.mark.parametrize("workload", ["browse", "live", "ingest"])
def test_same_seed_same_requests_other_seed_other_requests(workload):
    first = plan_digest(make_plan(workload, 3, 1.0, 34.0, TINY))
    again = plan_digest(make_plan(workload, 3, 1.0, 34.0, TINY))
    other = plan_digest(make_plan(workload, 4, 1.0, 34.0, TINY))
    assert first == again
    assert first != other


def test_browse_cycle_opens_each_window_once():
    plan = make_plan("browse", 1, 1.0, 34.0, Sizes(browse_views=400))
    props = plan.properties
    # New windows draw lengths in balanced blocks; Prev revisits re-show them.
    assert props["window_mix"] == pytest.approx({"6h": 1 / 3, "12h": 1 / 3, "1day": 1 / 3}, abs=0.02)
    assert props["appliance_mix"] == pytest.approx({"kettle": 0.5, "washing_machine": 0.5}, abs=0.02)
    assert props["new_window_share"] == pytest.approx(0.75, abs=0.01)
    for ops in plan.clients:
        windows = [(op.meta["house"], op.meta["start"], op.meta["length"], op.meta["appliance"]) for op in ops]
        opened = [w for i, w in enumerate(windows) if w not in windows[:i]]
        # More distinct windows per cycle than a tenant cache holds.
        assert len(opened) >= 300 > 256
        for _, start, length, _ in opened:
            assert start % length == 0 and start + length <= 28 * 1440
        # A window shown again is a recent one (a Prev revisit).
        for i, w in enumerate(windows):
            if w in windows[:i]:
                assert w in windows[max(0, i - 8) : i]


def test_browse_times_filled_houses_and_probes_one_with_its_outages():
    plan = make_plan("browse", 1, 1.0, 34.0, Sizes())
    timed = {key: watts for key, watts in plan.series.items() if key[0] != OUTAGE_TENANT}
    assert not any(np.isnan(watts).any() for watts in timed.values())
    outage = plan.series[(OUTAGE_TENANT, "house-0")]
    assert np.isnan(outage).any()
    assert len(plan.probe) == outage.size // 1440 == 28
    assert [r.method for r in plan.probe[0].prelude] == ["POST", "POST", "POST"]


def test_live_schedule_runs_at_the_offered_rate():
    plan = make_plan("live", 1, 2.0, 34.0, TINY)
    (ops,) = plan.clients
    assert len(ops) == 68
    assert [op.due_s for op in ops[:3]] == [0.0, 1 / 34, 2 / 34]


def test_ingest_fills_a_house_then_starts_over():
    plan = make_plan("ingest", 1, 1.0, 34.0, TINY)
    for ops in plan.clients:
        assert [op.meta["n_steps"] for op in ops] == [10080, 20160]
        assert [r.method for r in ops[0].prelude] == ["DELETE", "POST"]
    assert 0 < plan.properties["nan_share"] < 0.05
