"""Sliding-window CamAL: append-incremental, bit-identical localization.

:class:`SlidingCamAL` tracks a :class:`~repro.stream.LiveStore` and
keeps, per ensemble member, the final feature maps of the most recent
window. On each :meth:`localize` it recomputes the backbone only over
the regions an append (or a window slide) can have changed and splices
the rest from cache — and the spliced result is **bit-identical** to a
cold ``CamAL.localize_watts`` over the same window, on every
:class:`~repro.core.CamALResult` field (the ``tests/stream``
equivalence harness pins this).

Why bitwise reuse is even possible (DESIGN.md §13):

* ``Conv1d`` lowers to whole :data:`~repro.nn.conv.TIME_TILE` GEMM
  tiles along the output-time axis (the last one zero-extended), so
  every GEMM has one shape and position ``t``'s bits depend only on
  the input its row reads — never on the total window length. A
  suffix sweep starting on a tile boundary therefore reproduces the
  full sweep's tail exactly, and a position in a cached sweep's last,
  partial tile reproduces in a longer sweep.
* Every other backbone op (BatchNorm in eval mode, ReLU, the residual
  add) is pointwise, so reuse regions compose across the 9-conv stack
  by receptive-field arithmetic: a member with one-sided halos
  ``(Rl, Rr)`` (:func:`receptive_halo`) produces identical features at
  any position whose ``[t - Rl, t + Rr]`` context is unchanged and
  lies inside real data on both sweeps.
* Everything downstream of the feature maps — GAP, the linear head,
  softmax, CAM normalization, attention, thresholding — is recomputed
  fresh on the assembled features each sync: identical inputs, O(L)
  cost, identical bits by construction. Validation and
  standardization likewise rerun in full, which is what makes repairs
  safe: a trailing NaN gap repaired by edge-fill *changes its repaired
  values* once later appends turn it into an interior gap, and the
  byte-level prefix comparison below catches exactly that.

Degraded windows (PR 4 taxonomy) short-circuit through
``CamAL._localize_partial`` without touching the feature cache — and
the serve layer never caches them.

Training-mode members are rejected outright: a training-mode BatchNorm
couples every position through batch statistics, so no prefix is ever
stable (production paths run ``eval()`` ensembles, as the batch
equivalence suite documents).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .. import obs, quality
from ..core.camal import CamAL, CamALResult
from ..nn.conv import TIME_TILE, Conv1d
from ..nn.module import inference_mode
from ..robust.validate import DEFAULT_MAX_GAP, Verdict, validate_window
from .live import LiveStore

__all__ = ["receptive_halo", "SlidingCamAL", "StreamLocalization"]


def receptive_halo(module) -> tuple[int, int]:
    """One-sided receptive halos ``(left, right)`` of a conv stack.

    Sums the per-conv pad amounts over every ``Conv1d`` in the module
    tree — an exact bound for a sequential stack and a safe
    over-estimate across parallel branches (the ResNet shortcut's 1×1
    convs contribute zero). Raises for layers the streaming reuse
    contract cannot cover (strided or non-"same" convolutions, which
    break the position alignment the splice relies on).
    """
    left = right = 0
    for _, m in module.named_modules():
        if isinstance(m, Conv1d):
            if m.stride != 1 or m.padding != "same":
                raise ValueError(
                    "streaming reuse requires stride-1 'same'-padding "
                    f"convolutions; found stride={m.stride}, "
                    f"padding={m.padding!r}"
                )
            total = m.span - 1
            left += total // 2
            right += total - total // 2
    return left, right


def _ceil_tile(n: int) -> int:
    return -(-n // TIME_TILE) * TIME_TILE


@dataclass
class StreamLocalization:
    """One incremental sync: the result plus its provenance."""

    result: CamALResult
    start: int  # absolute index of the window's first sample
    end: int  # absolute index one past the window's last sample
    reused: int  # feature samples spliced from cache (summed over members)
    computed: int  # feature samples recomputed (summed over members)

    @property
    def reuse_ratio(self) -> float:
        denom = self.reused + self.computed
        return self.reused / denom if denom else 0.0


class SlidingCamAL:
    """Incremental localization over a :class:`LiveStore` window.

    Parameters
    ----------
    camal:
        The (eval-mode) model; its steps 1-6 (``_from_outputs``) and
        validation defaults are reused verbatim so results stay
        bit-identical to ``camal.localize_watts``.
    store:
        The live series. The instance tracks ``store.total`` and slides
        its window in :data:`~repro.nn.conv.TIME_TILE` hops to keep at
        most ``window`` samples.
    window:
        Maximum window length; once the store has grown past it the
        analyzed window is the most recent
        ``(window - slack - TIME_TILE, window]`` samples (tile-aligned
        slides keep splices exact).
    slack:
        Rebase hysteresis. A window slide invalidates the left-edge
        features (the zero-padding context moves), costing every member
        a head re-sweep — so instead of sliding a tile at a time, the
        base jumps ``slack`` further than strictly needed and then sits
        still while the next ``slack`` samples arrive. Appends between
        rebases pay only the receptive-field tail. Default: four tiles.
    max_gap:
        Repair budget forwarded to ``validate_window`` (the
        ``localize_watts`` default).
    appliance:
        Optional attribution for quality monitoring, mirroring
        ``localize_watts(appliance=...)``.
    """

    def __init__(
        self,
        camal: CamAL,
        store: LiveStore,
        window: int = 1440,
        slack: int = 4 * TIME_TILE,
        max_gap: int = DEFAULT_MAX_GAP,
        appliance: str | None = None,
    ):
        if window < TIME_TILE:
            raise ValueError(
                f"window must be >= TIME_TILE ({TIME_TILE}), got {window}"
            )
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        if any(m.training for m in camal.ensemble.members):
            raise ValueError(
                "SlidingCamAL requires an eval-mode ensemble: training-mode "
                "BatchNorm couples positions through batch statistics, so "
                "no feature prefix is ever reusable — call ensemble.eval()"
            )
        self.camal = camal
        self.store = store
        self.window = int(window)
        self.slack = int(slack)
        self.max_gap = int(max_gap)
        self.appliance = appliance
        self._halos = [
            receptive_halo(member) for member in camal.ensemble.members
        ]
        self._lock = threading.Lock()
        self._base: int | None = None  # current window start (absolute)
        self._cached_base: int | None = None
        self._cached_x: np.ndarray | None = None  # standardized window
        self._features: list[np.ndarray] | None = None  # per member (1,C,L)
        self.reused_total = 0
        self.computed_total = 0
        self.syncs = 0

    @property
    def reuse_ratio(self) -> float:
        """Lifetime fraction of feature samples served from cache."""
        denom = self.reused_total + self.computed_total
        return self.reused_total / denom if denom else 0.0

    def localize(self) -> StreamLocalization:
        """Sync to the store's current tail and localize the window."""
        with self._lock:
            with obs.request(kind="stream.localize"), obs.span(
                "stream.localize"
            ) as root:
                loc = self._sync()
                root.set(
                    start=loc.start, end=loc.end,
                    reused=loc.reused, computed=loc.computed,
                    reuse_ratio=loc.reuse_ratio,
                )
        self._record(loc)
        return loc

    # -- internals ----------------------------------------------------------

    def _advance_base(self, end: int) -> int:
        """Slide the window start in tile hops; keep tile phase."""
        if self._base is None:
            base = self.store.first
        else:
            base = self._base
            behind = self.store.first - base
            if behind > 0:  # eviction outran the window: realign, same phase
                base += _ceil_tile(behind)
        over = end - base - self.window
        if over > 0:
            # Overshoot by ``slack`` so the base then sits still while
            # the next ``slack`` samples stream in — head re-sweeps
            # amortize over many appends. Trim the overshoot (never
            # below the tile-aligned minimum hop that keeps the window
            # within ``self.window``) when the window is too short to
            # afford it.
            hop = _ceil_tile(over + self.slack)
            floor_hop = _ceil_tile(over)
            while hop > floor_hop and end - base - hop < 2:
                hop -= TIME_TILE
            base += hop
        self._base = base
        return base

    def _sync(self) -> StreamLocalization:
        camal = self.camal
        end = self.store.total
        base = self._advance_base(end)
        raw = self.store.read(base, max(end - base, 0))
        self.syncs += 1
        repaired_row, report = validate_window(raw, max_gap=self.max_gap)
        is_repaired = report.verdict is Verdict.REPAIRED
        if not report.usable:
            # Mirror ``_localize_watts``'s degraded branch exactly; the
            # feature cache is left untouched (it still describes the
            # last usable window and stays valid for the next sync).
            camal._record_robust(
                np.array([is_repaired]), np.array([False])
            )
            result = camal._localize_partial(
                raw[None],
                [raw if repaired_row is None else repaired_row],
                np.array([False]),
                np.array([is_repaired]),
            )
            quality.observe(self.appliance, raw[None], result)
            return StreamLocalization(result, base, end, 0, 0)
        eff = raw if repaired_row is None else repaired_row
        if is_repaired:
            camal._record_robust(np.array([True]), np.array([True]))
        x = camal.scaler.transform(eff[None])[0]
        changed_from, shift = self._diff(x, base)
        features, reused, computed = self._assemble(x, changed_from, shift)
        result = camal._from_outputs(x[None, None, :], features)
        if is_repaired:
            result.repaired = np.array([True])
        camal._record_detection(result.probabilities)
        camal._record_cam_stats(result.cam)
        quality.observe(self.appliance, raw[None], result)
        self._cached_base = base
        self._cached_x = x
        self._features = [feat for feat, _ in features]
        self.reused_total += reused
        self.computed_total += computed
        return StreamLocalization(result, base, end, reused, computed)

    def _diff(self, x: np.ndarray, base: int) -> tuple[int, int]:
        """First changed position of ``x`` vs the cached window.

        Returns ``(changed_from, shift)`` in new-window coordinates;
        ``changed_from`` is the length of the byte-equal overlap prefix
        (0 when nothing is cached), so it never reaches past the cached
        window. Comparing *standardized repaired* inputs is
        what makes repair drift safe: any position whose repaired value
        changed (e.g. a trailing edge-fill becoming an interior
        interpolation) compares unequal and is recomputed.
        """
        if self._features is None or self._cached_x is None:
            return 0, 0
        shift = base - self._cached_base
        old = self._cached_x
        if shift < 0 or shift % TIME_TILE:
            # Defensive: the base only ever advances in tile hops.
            return 0, 0
        overlap = min(old.size - shift, x.size)
        if overlap <= 0:
            return 0, shift
        a = old[shift : shift + overlap]
        b = x[:overlap]
        # NaN-safe bitwise comparison (usable windows are finite, but a
        # byte view keeps the contract exact regardless).
        neq = a.view(np.uint64) != b.view(np.uint64)
        changed_from = int(np.argmax(neq)) if neq.any() else overlap
        return changed_from, shift

    def _assemble(
        self, x: np.ndarray, changed_from: int, shift: int
    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], int, int]:
        """Per-member ``(features, logits)`` with prefix splicing.

        For each member, positions ``[head, stable_end)`` are bitwise
        stable and spliced from cache; ``[0, head)`` (only after a
        window slide — the left zero-padding moved) and
        ``[stable_end, L)`` are recomputed via tile-aligned sub-sweeps
        whose halo-polluted edges are discarded.
        """
        camal = self.camal
        l_new = x.size
        x3 = x[None, None, :]
        out: list[tuple[np.ndarray, np.ndarray]] = []
        reused = computed = 0
        for index, (member, (r_left, r_right)) in enumerate(
            zip(camal.ensemble.members, self._halos)
        ):
            head = r_left if shift > 0 else 0
            # Every GEMM tile is whole, so a cached position reproduces
            # whenever its input context is unchanged: its right halo
            # must end before the first changed (or the cached sweep's
            # right zero-padded) sample.
            stable_end = changed_from - r_right
            head_len = _ceil_tile(r_left + r_right) if head else 0
            tail_start = TIME_TILE * ((stable_end - r_left) // TIME_TILE)
            if (
                self._features is None
                or stable_end <= head
                or tail_start < 0
                or head_len >= l_new
            ):
                with inference_mode():
                    feat, logits = member.forward_features(x3)
                computed += l_new
                out.append((feat, logits))
                continue
            old_feat = self._features[index]
            # Match the backbone's output layout exactly: the conv
            # lowering emits ``(N, L, C).transpose(0, 2, 1)`` and every
            # pointwise op downstream preserves those strides, so GAP
            # and the CAM contraction reduce over a stride-C axis. The
            # assembled buffer must share that layout or their pairwise
            # summations block differently and the logits drift by ULPs.
            new_feat = np.empty(
                (1, l_new, old_feat.shape[1]), dtype=old_feat.dtype
            ).transpose(0, 2, 1)
            new_feat[0, :, head:stable_end] = old_feat[
                0, :, head + shift : stable_end + shift
            ]
            if head:
                with inference_mode():
                    head_feat, _ = member.forward_features(
                        x3[:, :, :head_len]
                    )
                new_feat[0, :, :head] = head_feat[0, :, :head]
                computed += head_len
            if stable_end < l_new:
                with inference_mode():
                    tail_feat, _ = member.forward_features(
                        x3[:, :, tail_start:]
                    )
                new_feat[0, :, stable_end:] = tail_feat[
                    0, :, stable_end - tail_start :
                ]
                computed += l_new - tail_start
            reused += stable_end - head
            # The head — GAP then the linear classifier — recomputes on
            # the assembled maps exactly as ``forward_features`` does.
            with inference_mode():
                logits = member.fc(member.gap(new_feat))
            out.append((new_feat, logits))
        return out, reused, computed

    def _record(self, loc: StreamLocalization) -> None:
        if not obs.enabled():
            return
        obs.registry.counter(
            "stream.localize_total",
            help="incremental live localizations",
        ).inc()
        obs.registry.counter(
            "stream.samples_reused_total",
            help="feature samples spliced from the sliding cache",
        ).inc(loc.reused)
        obs.registry.counter(
            "stream.samples_recomputed_total",
            help="feature samples recomputed on sync",
        ).inc(loc.computed)
        obs.registry.histogram(
            "stream.reuse_ratio",
            help="per-sync fraction of feature samples served from cache",
            buckets=obs.PROBABILITY_BUCKETS,
        ).observe(loc.reuse_ratio)
