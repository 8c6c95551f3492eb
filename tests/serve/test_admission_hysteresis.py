"""The global and per-tenant gates run one hysteresis machine.

Fed the same burn/count sequence, a global gate and a tenant gate must
admit, shed, probe and recover on the same requests, with reasons equal
up to the ``tenant_`` prefix.
"""

from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.serve import AdmissionController


class ScriptedSlo:
    """An SLO tracker whose ``burn_rate()`` answers what it is told."""

    def __init__(self, burn: float = 0.0, count: int = 0):
        self.burn, self.count = burn, count

    def burn_rate(self) -> tuple[float, int]:
        return self.burn, self.count


def controller(slo, accept_streak: int, probe_every: int) -> AdmissionController:
    return AdmissionController(
        slo=slo,
        quality_status=lambda: "ok",
        accept_streak=accept_streak,
        probe_every=probe_every,
        min_requests=8,
        tenant_min_requests=8,
    )


#: Burn rates straddling both edges of the default 1.0–2.0 band, and
#: counts on both sides of the 8-request floor.
signals = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
        st.sampled_from([0, 7, 8, 64]),
    ),
    min_size=1,
    max_size=60,
)


@given(
    sequence=signals,
    accept_streak=st.integers(1, 4),
    probe_every=st.integers(2, 5),
)
def test_tenant_gate_steps_like_the_global_gate(
    sequence, accept_streak, probe_every
):
    global_slo = ScriptedSlo()
    global_gate = controller(global_slo, accept_streak, probe_every)
    # The tenant gate's service stays healthy, so only the tenant's own
    # burn drives it.
    tenant_gate = controller(ScriptedSlo(), accept_streak, probe_every)
    tenant = SimpleNamespace(tenant_id="t", slo=ScriptedSlo())

    for burn, count in sequence:
        global_slo.burn, global_slo.count = burn, count
        tenant.slo.burn, tenant.slo.count = burn, count
        g = global_gate.decide()
        t = tenant_gate.decide(tenant=tenant)
        assert (t.accepted, t.probe) == (g.accepted, g.probe)
        assert t.retry_after_s == g.retry_after_s
        assert t.reason == g.reason or t.reason == "tenant_" + g.reason
        assert tenant_gate.shedding_tenants() == (
            ["t"] if global_gate.shedding else []
        )
        assert not tenant_gate.shedding
