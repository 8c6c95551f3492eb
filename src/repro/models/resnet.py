"""Time-series-classification ResNet (Wang, Yan & Oates 2016).

The detector at the heart of CamAL (paper §II.A): stacked residual blocks
of same-padding 1-D convolutions, a global average pooling layer, and a
linear classifier. Because every convolution uses "same" padding and
stride 1, the final feature maps stay aligned with the input timestamps —
which is exactly what makes the Class Activation Map
``CAM_c(t) = Σ_k w_k^c · f_k(t)`` a *localization* signal.

The ensemble varies the kernel size ``k ∈ {5, 7, 9, 15}`` (§II.A); a
single :class:`ResNetTSC` takes ``kernel_size`` as its main hyperparameter.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.module import is_inference

__all__ = ["ResidualBlock", "ResNetTSC"]


class ResidualBlock(nn.Module):
    """Three conv-BN(-ReLU) stages with a projection shortcut.

    The shortcut is a 1×1 convolution + BN whenever the channel count
    changes, identity otherwise; the block output is
    ``ReLU(main(x) + shortcut(x))``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.main = nn.Sequential(
            nn.Conv1d(in_channels, out_channels, kernel_size, rng=rng),
            nn.BatchNorm1d(out_channels),
            nn.ReLU(),
            nn.Conv1d(out_channels, out_channels, kernel_size, rng=rng),
            nn.BatchNorm1d(out_channels),
            nn.ReLU(),
            nn.Conv1d(out_channels, out_channels, kernel_size, rng=rng),
            nn.BatchNorm1d(out_channels),
        )
        if in_channels != out_channels:
            self.shortcut = nn.Sequential(
                nn.Conv1d(in_channels, out_channels, 1, rng=rng),
                nn.BatchNorm1d(out_channels),
            )
        else:
            self.shortcut = None
        self._relu_mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # main's output is a fresh array owned by this call: add the
        # residual and apply the ReLU into it in place, never into x.
        pre = self.main(x)
        pre += self.shortcut(x) if self.shortcut is not None else x
        if not is_inference():
            self._relu_mask = pre > 0
        return np.fmax(pre, 0.0, out=pre)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._relu_mask is None:
            raise RuntimeError("backward called before forward")
        grad_pre = grad_output * self._relu_mask
        self._relu_mask = None
        grad_input = self.main.backward(grad_pre)
        if self.shortcut is not None:
            grad_input = grad_input + self.shortcut.backward(grad_pre)
        else:
            grad_input = grad_input + grad_pre
        return grad_input


class ResNetTSC(nn.Module):
    """Convolutional residual network for binary appliance detection.

    Parameters
    ----------
    kernel_size:
        Convolution width shared by every layer of every block — the
        ensemble's diversity axis.
    in_channels:
        Input channels (1 for the univariate aggregate).
    n_filters:
        Channel widths of the three residual blocks.
    num_classes:
        Output classes; 2 for the paper's {absent, present} setup.
    """

    def __init__(
        self,
        kernel_size: int = 7,
        in_channels: int = 1,
        n_filters: tuple[int, int, int] = (16, 32, 32),
        num_classes: int = 2,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        if len(n_filters) != 3:
            raise ValueError("n_filters must have three entries")
        rng = rng or np.random.default_rng(0)
        self.kernel_size = kernel_size
        self.num_classes = num_classes
        self.n_filters = tuple(n_filters)
        self.in_channels = in_channels
        f1, f2, f3 = n_filters
        self.block1 = ResidualBlock(in_channels, f1, kernel_size, rng)
        self.block2 = ResidualBlock(f1, f2, kernel_size, rng)
        self.block3 = ResidualBlock(f2, f3, kernel_size, rng)
        self.gap = nn.GlobalAvgPool1d()
        self.fc = nn.Linear(f3, num_classes, rng=rng)
        self._features: np.ndarray | None = None

    def forward_features(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One backbone pass → ``(features, logits)``.

        ``features`` are the final feature maps ``(N, C, L)`` — the CAM
        building blocks — and ``logits`` the ``(N, num_classes)`` head
        output. Detection probability and localization both derive from
        this single sweep; that is CamAL inference's contract
        (DESIGN.md §7 "Inference path").
        """
        h = self.block1(x)
        h = self.block2(h)
        h = self.block3(h)
        logits = self.fc(self.gap(h))
        # Cache for class_activation_map(None); never retained under
        # inference_mode, where callers hold the returned features.
        self._features = None if is_inference() else h
        return h, logits

    def forward(self, x: np.ndarray) -> np.ndarray:
        _, logits = self.forward_features(x)
        return logits

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.fc.backward(grad_output)
        grad = self.gap.backward(grad)
        grad = self.block3.backward(grad)
        grad = self.block2.backward(grad)
        return self.block1.backward(grad)

    # -- inference helpers --------------------------------------------------

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Probability that the appliance is present, shape ``(N,)``."""
        logits = self.forward(x)
        return F.softmax(logits, axis=1)[:, 1]

    def cam_from_features(
        self, features: np.ndarray, class_index: int = 1
    ) -> np.ndarray:
        """CAM ``(N, L)`` from already-computed feature maps.

        The cheap half of CAM extraction — an einsum against the final
        linear layer's weight row — split out so the fused ensemble path
        can reuse the features of the detection forward pass.
        """
        if not 0 <= class_index < self.num_classes:
            raise ValueError(
                f"class_index {class_index} out of range "
                f"[0, {self.num_classes})"
            )
        weights = self.fc.weight.data[class_index]  # (C,)
        # Batch-invariant contraction (DESIGN.md §12): an axis reduction
        # sums each output element over C in an index-fixed order, so
        # row i of a stacked batch matches the same row swept alone —
        # the einsum form lowers to a GEMV whose shape (and hence BLAS
        # kernel) depends on the batch size.
        return (features * weights[None, :, None]).sum(axis=1)

    def class_activation_map(
        self, x: np.ndarray | None = None, class_index: int = 1
    ) -> np.ndarray:
        """Raw CAM ``(N, L)`` for ``class_index``.

        ``CAM_c(t) = Σ_k w_k^c · f_k(t)`` where ``w`` are the rows of the
        final linear layer and ``f`` the cached feature maps. Pass ``x``
        to (re)compute features, or ``None`` to reuse the cache from the
        latest forward pass.
        """
        if x is not None:
            features, _ = self.forward_features(x)
        else:
            features = self._features
        if features is None:
            raise RuntimeError(
                "no cached features: call forward/forward_features first "
                "or pass x explicitly"
            )
        return self.cam_from_features(features, class_index)
