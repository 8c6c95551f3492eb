"""Admission control: shed load before the service melts down.

The controller answers one question per request — *admit or shed?* —
from two signals the earlier PRs already maintain:

* **SLO burn rate** (:class:`repro.obs.SloTracker`): burning the error
  budget at ``burn_shed`` (default 2.0, the fast-burn page threshold
  :func:`repro.obs.health_level` also uses) or faster means the service
  is failing users *now*; taking more traffic only deepens the hole.
  It is read through :meth:`~repro.obs.SloTracker.burn_rate`, which
  answers from the tracker's running tallies: a decision costs O(1)
  whatever the SLO window length.
* **Model quality** (:mod:`repro.quality`): a ``critical`` quality
  status means the answers themselves cannot be trusted — serving more
  of them is worse than serving none.

Shed requests are answered ``503 Service Unavailable`` with a
``Retry-After`` header, counted in obs
(``serve.admission_decisions_total{outcome="shed"}`` plus a log event),
and **never** reach the result cache or the SLO window — a rejected
request neither poisons the cache nor spends error budget it was never
admitted to use.

Hysteresis (shed → accept): the SLO window is count-based, so while
everything is shed no new evidence arrives and the burn rate would stay
pinned above the threshold forever. The controller therefore admits
every ``probe_every``-th request as a **probe** while shedding; probes
flow through the full path and refill the SLO window. Acceptance
resumes only after ``accept_streak`` consecutive decisions observed the
burn rate at or below ``burn_accept`` (< ``burn_shed``) with quality
out of ``critical`` — one good probe does not reopen the floodgates.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

from .. import obs

__all__ = ["AdmissionController", "AdmissionDecision"]


@dataclass(frozen=True)
class AdmissionDecision:
    """One admit-or-shed verdict."""

    accepted: bool
    # ok | probe | slo_burn | quality_critical | recovering
    # | tenant_slo_burn | tenant_cost | tenant_probe | tenant_recovering
    reason: str
    retry_after_s: float = 0.0
    probe: bool = False


class _TenantShedState:
    """Per-tenant hysteresis mirror of the controller's global state."""

    __slots__ = ("shedding", "healthy_streak", "shed_counter")

    def __init__(self):
        self.shedding = False
        self.healthy_streak = 0
        self.shed_counter = 0


class AdmissionController:
    """Burn-rate + quality driven load shedding with hysteresis.

    Parameters
    ----------
    slo:
        The tracker whose burn rate gates admission (default: the
        process-wide ``obs.slo_tracker``).
    quality_status:
        Zero-arg callable returning ``ok``/``degraded``/``critical``
        (default: the installed :class:`repro.quality.QualityMonitor`'s
        overall status, ``ok`` when none is installed). ``critical``
        sheds; ``degraded`` does not — degraded answers are still
        answers.
    burn_shed / burn_accept:
        Enter shedding at ``burn >= burn_shed``; only a sustained
        ``burn <= burn_accept`` exits it (the hysteresis band).
    accept_streak:
        Consecutive healthy decisions required to exit shedding.
    min_requests:
        Burn rates computed from fewer than this many windowed requests
        are ignored — two unlucky requests must not shed a cold server.
    probe_every:
        While shedding, admit every Nth request as a probe.
    retry_after_s:
        Advisory client backoff, surfaced as ``Retry-After``.
    """

    def __init__(
        self,
        slo=None,
        quality_status=None,
        burn_shed: float = 2.0,
        burn_accept: float = 1.0,
        accept_streak: int = 3,
        min_requests: int = 16,
        probe_every: int = 8,
        retry_after_s: float = 1.0,
        tenant_burn_shed: "float | None" = None,
        tenant_min_requests: int = 8,
        cost_share_shed: float = 0.5,
    ):
        if burn_accept >= burn_shed:
            raise ValueError("burn_accept must be below burn_shed")
        if accept_streak < 1 or probe_every < 2 or min_requests < 1:
            raise ValueError(
                "accept_streak >= 1, probe_every >= 2, min_requests >= 1"
            )
        if tenant_min_requests < 1:
            raise ValueError("tenant_min_requests must be >= 1")
        if not (0.0 < cost_share_shed <= 1.0):
            raise ValueError("cost_share_shed must be in (0, 1]")
        self._slo = slo
        self._quality_status = quality_status
        self.burn_shed = float(burn_shed)
        self.burn_accept = float(burn_accept)
        self.accept_streak = int(accept_streak)
        self.min_requests = int(min_requests)
        self.probe_every = int(probe_every)
        self.retry_after_s = float(retry_after_s)
        #: Per-tenant shed threshold — a tenant burning *its own* error
        #: budget this fast is shed even while the service as a whole is
        #: healthy. Defaults to the global threshold.
        self.tenant_burn_shed = float(
            burn_shed if tenant_burn_shed is None else tenant_burn_shed
        )
        self.tenant_min_requests = int(tenant_min_requests)
        #: When global burn has left the healthy band, a tenant holding
        #: at least this fraction of recent CPU-ms is shed first — one
        #: heavy tenant should fail before every light tenant does.
        self.cost_share_shed = float(cost_share_shed)
        self._lock = threading.Lock()
        self._shedding = False
        self._healthy_streak = 0
        self._shed_counter = 0  # requests seen since shedding began
        #: tenant_id → hysteresis state, LRU-bounded.
        self._tenant_states: "OrderedDict[str, _TenantShedState]" = (
            OrderedDict()
        )
        self._tenant_states_cap = 1024

    # -- signal plumbing ---------------------------------------------------

    @staticmethod
    def _burn_rate(slo) -> tuple[float, int]:
        """``slo.burn_rate()`` with no data (NaN) read as zero burn."""
        burn, count = slo.burn_rate()
        if math.isnan(burn):
            burn = 0.0
        return float(burn), int(count)

    def _quality(self) -> str:
        if self._quality_status is not None:
            return self._quality_status()
        from .. import quality

        monitor = quality.monitor()
        if monitor is None:
            return "ok"
        status = monitor.status().get("overall", "ok")
        # The quality vocabulary is ok/warn/alert; alert is the
        # answers-cannot-be-trusted state that maps to critical.
        return {"ok": "ok", "warn": "degraded", "alert": "critical"}.get(
            status, "ok"
        )

    # -- the decision ------------------------------------------------------

    @property
    def shedding(self) -> bool:
        return self._shedding

    def shedding_tenants(self) -> list[str]:
        """Tenants currently in per-tenant shed state (for ``/health``)."""
        with self._lock:
            return sorted(
                tid
                for tid, state in self._tenant_states.items()
                if state.shedding
            )

    def decide(self, tenant=None, cost_share=None) -> AdmissionDecision:
        """Admit or shed the next request (thread-safe).

        With a :class:`~repro.serve.tenancy.TenantSession` (and
        optionally that tenant's recent CPU share from the
        :class:`~repro.serve.tenancy.CostLedger`), a globally-admitted
        request additionally passes per-tenant gates: the tenant's own
        SLO burn, and — once global burn leaves the healthy band — the
        tenant's share of recent cost. Both shed *only that tenant*,
        with the same probe/streak hysteresis as the global gate.
        """
        burn, count = self._burn_rate(
            self._slo if self._slo is not None else obs.slo_tracker
        )
        quality = self._quality()
        overloaded = (
            quality == "critical"
            or (count >= self.min_requests and burn >= self.burn_shed)
        )
        recovered = quality != "critical" and burn <= self.burn_accept
        with self._lock:
            if not self._shedding:
                if overloaded:
                    self._shedding = True
                    self._healthy_streak = 0
                    self._shed_counter = 0
                    decision = self._shed_decision(burn, quality)
                else:
                    decision = AdmissionDecision(accepted=True, reason="ok")
            else:
                if recovered:
                    self._healthy_streak += 1
                else:
                    self._healthy_streak = 0
                if self._healthy_streak >= self.accept_streak:
                    self._shedding = False
                    self._shed_counter = 0
                    decision = AdmissionDecision(
                        accepted=True, reason="recovering"
                    )
                else:
                    self._shed_counter += 1
                    if self._shed_counter % self.probe_every == 0:
                        decision = AdmissionDecision(
                            accepted=True, reason="probe", probe=True
                        )
                    else:
                        decision = self._shed_decision(burn, quality)
        if decision.accepted and tenant is not None:
            tenant_decision = self._decide_tenant(
                tenant, cost_share, burn, count
            )
            if tenant_decision is not None:
                decision = tenant_decision
        self._record(decision)
        return decision

    def _decide_tenant(
        self, tenant, cost_share, global_burn: float, global_count: int
    ) -> "AdmissionDecision | None":
        """Per-tenant gate; None means "no opinion, keep global verdict"."""
        tburn, tcount = self._burn_rate(tenant.slo)
        burn_hot = (
            tcount >= self.tenant_min_requests
            and tburn >= self.tenant_burn_shed
        )
        strained = (
            global_count >= self.min_requests
            and global_burn > self.burn_accept
        )
        cost_hot = (
            cost_share is not None
            and strained
            and float(cost_share) >= self.cost_share_shed
        )
        overloaded = burn_hot or cost_hot
        recovered = tburn <= self.burn_accept and not cost_hot
        reason = "tenant_slo_burn" if burn_hot or not cost_hot else "tenant_cost"
        with self._lock:
            state = self._tenant_states.get(tenant.tenant_id)
            if state is None:
                if not overloaded:
                    return None
                while len(self._tenant_states) >= self._tenant_states_cap:
                    self._tenant_states.popitem(last=False)
                state = _TenantShedState()
                self._tenant_states[tenant.tenant_id] = state
            else:
                self._tenant_states.move_to_end(tenant.tenant_id)
            if not state.shedding:
                if not overloaded:
                    return None
                state.shedding = True
                state.healthy_streak = 0
                state.shed_counter = 0
                return AdmissionDecision(
                    accepted=False,
                    reason=reason,
                    retry_after_s=self.retry_after_s,
                )
            if recovered:
                state.healthy_streak += 1
            else:
                state.healthy_streak = 0
            if state.healthy_streak >= self.accept_streak:
                state.shedding = False
                state.shed_counter = 0
                return AdmissionDecision(
                    accepted=True, reason="tenant_recovering"
                )
            state.shed_counter += 1
            if state.shed_counter % self.probe_every == 0:
                return AdmissionDecision(
                    accepted=True, reason="tenant_probe", probe=True
                )
            return AdmissionDecision(
                accepted=False,
                reason=reason,
                retry_after_s=self.retry_after_s,
            )

    def _shed_decision(self, burn: float, quality: str) -> AdmissionDecision:
        reason = (
            "quality_critical" if quality == "critical" else "slo_burn"
        )
        return AdmissionDecision(
            accepted=False, reason=reason, retry_after_s=self.retry_after_s
        )

    def _record(self, decision: AdmissionDecision) -> None:
        if not obs.enabled():
            return
        outcome = "accepted" if decision.accepted else "shed"
        obs.registry.counter(
            "serve.admission_decisions_total",
            help="admission controller verdicts by outcome and reason",
        ).inc(outcome=outcome, reason=decision.reason)
        if not decision.accepted:
            obs.registry.counter(
                "serve.requests_shed_total",
                help="requests rejected with 503 by admission control",
            ).inc(reason=decision.reason)
            obs.log.event(
                "serve.shed",
                reason=decision.reason,
                retry_after_s=decision.retry_after_s,
            )

    def reset(self) -> None:
        with self._lock:
            self._shedding = False
            self._healthy_streak = 0
            self._shed_counter = 0
            self._tenant_states.clear()
