"""Ensemble of TSC ResNets with varying kernel sizes (paper §II.A-B).

The ensemble exists for two reasons: averaging the detection
probabilities stabilizes the detector, and averaging *normalized* CAMs
from members with different receptive fields sharpens the localization —
a small-kernel member sees spikes, a large-kernel member sees cycles.
"""

from __future__ import annotations

import itertools

import numpy as np

from .. import nn, obs
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

    def load_state_dict(self, state: dict) -> None:
        """Load weights; the ensemble takes a fresh :attr:`serial`."""
        super().load_state_dict(state)
        self.serial = next(_SERIALS)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError(
            "the ensemble is not trained end-to-end; train members "
            "individually and use predict_proba / member_outputs"
        )

    # -- paper §II.B step 1: averaged ensemble probability ---------------

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Mean of the members' appliance-present probabilities, ``(N,)``."""
        probs = [member.predict_proba(x) for member in self.members]
        return np.mean(probs, axis=0)

    # -- single pass (detection + CAM from one backbone sweep) -------------

    def member_outputs(
        self, x: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """One ``(features, logits)`` pair per member, one backbone pass each.

        This is the primitive behind CamAL inference: everything it
        needs — detection probabilities, per-member probabilities, and
        CAMs — derives from these pairs, so the ResNet backbone runs
        exactly once per member instead of once per consumer. Members
        run in order on the calling thread.
        """
        outputs = []
        for index, member in enumerate(self.members):
            with obs.span("ensemble.member_forward", member=index):
                outputs.append(member.forward_features(x))
        return outputs

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
        return pruned
