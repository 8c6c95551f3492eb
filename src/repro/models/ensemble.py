"""Ensemble of TSC ResNets with varying kernel sizes (paper §II.A-B).

The ensemble exists for two reasons: averaging the detection
probabilities stabilizes the detector, and averaging *normalized* CAMs
from members with different receptive fields sharpens the localization —
a small-kernel member sees spikes, a large-kernel member sees cycles.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .. import nn, obs
from ..nn import functional as F
from ..nn.module import inference_mode
from .resnet import ResNetTSC

__all__ = ["DEFAULT_KERNEL_SIZES", "normalize_cam", "ResNetEnsemble"]

#: Kernel sizes used by the paper's ensemble.
DEFAULT_KERNEL_SIZES: tuple[int, ...] = (5, 7, 9, 15)

# Process-unique ensemble serials (never reused, unlike ``id()``).
_SERIALS = itertools.count()


def normalize_cam(cam: np.ndarray) -> np.ndarray:
    """Min-max normalize each window's CAM to [0, 1] (paper §II.B step 4).

    A constant CAM (no discriminative evidence anywhere) maps to all
    zeros rather than dividing by zero.
    """
    cam = np.asarray(cam, dtype=np.float64)
    if cam.ndim != 2:
        raise ValueError(f"expected (N, L) CAM stack, got shape {cam.shape}")
    low = cam.min(axis=1, keepdims=True)
    high = cam.max(axis=1, keepdims=True)
    span = high - low
    safe = np.where(span > 1e-12, span, 1.0)
    normalized = (cam - low) / safe
    return np.where(span > 1e-12, normalized, 0.0)


class ResNetEnsemble(nn.Module):
    """Bag of :class:`ResNetTSC` members differing in kernel size.

    Parameters
    ----------
    kernel_sizes:
        One member per entry (duplicates allowed — they get different
        init seeds).
    n_filters:
        Shared channel widths.
    seed:
        Base seed; member ``i`` initializes from ``seed + i``.

    ``serial`` is a process-unique number drawn when the ensemble is
    built, pruned or loaded; :meth:`repro.core.CamAL.fingerprint` keys
    on it. Unlike ``id()`` it is never reused after garbage collection.
    """

    def __init__(
        self,
        kernel_sizes: tuple[int, ...] = DEFAULT_KERNEL_SIZES,
        in_channels: int = 1,
        n_filters: tuple[int, int, int] = (16, 32, 32),
        seed: int = 0,
    ):
        super().__init__()
        if not kernel_sizes:
            raise ValueError("ensemble needs at least one member")
        self.kernel_sizes = tuple(kernel_sizes)
        self.in_channels = in_channels
        self.n_filters = tuple(n_filters)
        self.members = nn.ModuleList(
            [
                ResNetTSC(
                    kernel_size=k,
                    in_channels=in_channels,
                    n_filters=n_filters,
                    rng=np.random.default_rng(seed + i),
                )
                for i, k in enumerate(kernel_sizes)
            ]
        )
        self.serial = next(_SERIALS)
        self._init_pool_state()

    def load_state_dict(self, state: dict) -> None:
        """Load weights; the ensemble takes a fresh :attr:`serial`."""
        super().load_state_dict(state)
        self.serial = next(_SERIALS)

    def _init_pool_state(self) -> None:
        self._pool: ThreadPoolExecutor | None = None
        self._pool_workers = 0
        self._pool_lock = threading.Lock()

    def _executor(self, workers: int) -> ThreadPoolExecutor:
        """The ensemble's persistent member-fanout pool, grown on demand.

        Serving sweeps call :meth:`member_outputs` once per request;
        constructing a ``ThreadPoolExecutor`` (and its worker threads)
        per call is measurable churn, so one pool lives for the
        ensemble's lifetime and is resized upward if a caller asks for
        more fan-out. Shut it down via :meth:`close` (wired into the
        serve layer's ``ModelBank.close``); a closed ensemble lazily
        recreates the pool if used again.
        """
        with self._pool_lock:
            if self._pool is None or self._pool_workers < workers:
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                self._pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="ensemble-member",
                )
                self._pool_workers = workers
            return self._pool

    def close(self) -> None:
        """Shut down the member-fanout pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool, self._pool_workers = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError(
            "the ensemble is not trained end-to-end; train members "
            "individually and use predict_proba / normalized_cams"
        )

    # -- paper §II.B step 1: averaged ensemble probability ---------------

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Mean of the members' appliance-present probabilities, ``(N,)``."""
        probs = [member.predict_proba(x) for member in self.members]
        return np.mean(probs, axis=0)

    def member_probas(self, x: np.ndarray) -> dict[int, np.ndarray]:
        """Per-member probabilities keyed by position (for the GUI's
        "Model detection probabilities" tab)."""
        return {
            i: member.predict_proba(x) for i, member in enumerate(self.members)
        }

    # -- single-pass fast path (detection + CAM from one backbone sweep) ---

    def member_outputs(
        self, x: np.ndarray, workers: int | None = None
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """One ``(features, logits)`` pair per member, one backbone pass each.

        This is the primitive behind the inference fast path: everything
        CamAL needs — detection probabilities, per-member probabilities,
        and CAMs — derives from these pairs, so the ResNet backbone runs
        exactly once per member instead of once per consumer.

        ``workers > 1`` fans members out across a thread pool. numpy's
        einsum/matmul kernels release the GIL, so distinct members make
        real parallel progress; results are returned in member order
        regardless of completion order. When observability is enabled,
        each dispatched member runs inside a copy of the caller's
        :mod:`contextvars` context, so worker-thread spans keep the
        active ``obs.request`` id and parent span.
        """
        members = list(self.members)
        if workers is None or workers <= 1 or len(members) <= 1:
            return [
                self._member_forward(i, member, x)
                for i, member in enumerate(members)
            ]
        pool = self._executor(min(workers, len(members)))
        if obs.enabled():
            # Worker threads start from an empty context; one copy
            # per task (a Context cannot be entered concurrently).
            futures = [
                pool.submit(
                    contextvars.copy_context().run,
                    self._member_forward,
                    i,
                    member,
                    x,
                )
                for i, member in enumerate(members)
            ]
        else:
            futures = [
                pool.submit(self._member_forward, i, member, x)
                for i, member in enumerate(members)
            ]
        return [future.result() for future in futures]

    def _member_forward(
        self, index: int, member: ResNetTSC, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        with obs.span("ensemble.member_forward", member=index):
            return member.forward_features(x)

    def predict_with_cams(
        self, x: np.ndarray, workers: int | None = None
    ) -> tuple[np.ndarray, dict[int, np.ndarray], np.ndarray]:
        """Fused detection + localization from a single ensemble sweep.

        Returns ``(avg_proba, member_probas, normalized_cam_avg)`` —
        numerically identical to calling :meth:`predict_proba`,
        :meth:`member_probas`, and :meth:`normalized_cams` separately,
        but with one backbone pass per member instead of three. Runs
        under :func:`repro.nn.inference_mode`, so no layer retains
        backward caches.
        """
        with inference_mode():
            outputs = self.member_outputs(x, workers=workers)
        member_probas = {
            i: F.softmax(logits, axis=1)[:, 1]
            for i, (_, logits) in enumerate(outputs)
        }
        avg_proba = np.mean(list(member_probas.values()), axis=0)
        cams = [
            member.cam_from_features(features)
            for member, (features, _) in zip(self.members, outputs)
        ]
        cam_avg = np.mean([normalize_cam(cam) for cam in cams], axis=0)
        return avg_proba, member_probas, cam_avg

    # -- paper §II.B steps 3-4: averaged normalized CAM ---------------------

    def member_cams(self, x: np.ndarray) -> np.ndarray:
        """Raw (un-normalized) class-1 CAMs stacked per member, ``(M, N, L)``.

        Separated from :meth:`normalized_cams` so CamAL can trace CAM
        extraction and normalization as distinct stages.
        """
        return np.stack(
            [member.class_activation_map(x) for member in self.members]
        )

    def normalized_cams(self, x: np.ndarray) -> np.ndarray:
        """Average of per-member min-max normalized class-1 CAMs, ``(N, L)``."""
        cams = self.member_cams(x)
        return np.mean([normalize_cam(cam) for cam in cams], axis=0)

    # -- member selection (paper: "selected the networks that best
    #    detected specific appliances") ---------------------------------------

    def select_best(
        self, x_val: np.ndarray, y_val: np.ndarray, top_n: int
    ) -> "ResNetEnsemble":
        """Keep the ``top_n`` members by validation balanced accuracy."""
        if not 1 <= top_n <= len(self.members):
            raise ValueError(
                f"top_n must be in [1, {len(self.members)}], got {top_n}"
            )
        y_val = np.asarray(y_val) > 0.5
        scores = []
        for member in self.members:
            pred = member.predict_proba(x_val) > 0.5
            tp = np.sum(pred & y_val)
            tn = np.sum(~pred & ~y_val)
            pos = max(int(y_val.sum()), 1)
            neg = max(int((~y_val).sum()), 1)
            scores.append(0.5 * (tp / pos + tn / neg))
        order = np.argsort(scores)[::-1][:top_n]
        order = np.sort(order)  # keep original member order
        pruned = ResNetEnsemble.__new__(ResNetEnsemble)
        nn.Module.__init__(pruned)
        pruned.kernel_sizes = tuple(self.kernel_sizes[i] for i in order)
        pruned.in_channels = self.in_channels
        pruned.n_filters = self.n_filters
        pruned.members = nn.ModuleList([self.members[i] for i in order])
        pruned.serial = next(_SERIALS)
        pruned._init_pool_state()
        return pruned
