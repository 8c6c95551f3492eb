"""1-D convolution layer with exact im2col forward and adjoint backward."""

from __future__ import annotations

import numpy as np

from .functional import col2im1d, im2col1d
from .init import he_uniform
from .module import Module, is_inference
from .parameter import Parameter

__all__ = ["Conv1d", "TIME_TILE"]

#: Fixed tile length along the output-time axis of every Conv1d GEMM.
#: Tiling makes the lowering *length-invariant* on top of PR 8's batch
#: invariance: output position ``t`` is computed by a GEMM whose shape
#: depends only on ``t``'s tile — never on the total window length — so
#: a suffix recomputation that starts on a tile boundary reproduces the
#: full sweep's tail bit for bit (the streaming layer's reuse contract,
#: DESIGN.md §13). Must stay constant process-wide: results for the
#: same input differ at the ULP level across tile sizes.
TIME_TILE = 32


class Conv1d(Module):
    """1-D convolution over ``(N, C_in, L)`` inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Width of the convolution kernel.
    stride:
        Step between output positions.
    padding:
        Zero padding applied to both ends, or ``"same"`` to keep
        ``L_out == ceil(L / stride)`` (the TSC-ResNet convention).
    dilation:
        Spacing between kernel taps (dilated/atrous convolution); the
        receptive span becomes ``(K - 1) * dilation + 1``.
    bias:
        Whether to learn an additive bias per output channel.
    rng:
        Generator used for He-uniform weight init.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | str = "same",
        dilation: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if kernel_size < 1 or stride < 1 or dilation < 1:
            raise ValueError("kernel_size, stride and dilation must be >= 1")
        if isinstance(padding, str):
            if padding != "same":
                raise ValueError(f"unknown padding mode {padding!r}")
            if stride != 1:
                raise ValueError("'same' padding requires stride == 1")
        elif padding < 0:
            raise ValueError("padding must be >= 0")
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        fan_in = in_channels * kernel_size
        self.weight = Parameter(
            he_uniform((out_channels, in_channels, kernel_size), fan_in, rng),
            name="weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="bias") if bias else None
        self._cache: tuple | None = None

    @property
    def span(self) -> int:
        """Receptive span of the (possibly dilated) kernel."""
        return (self.kernel_size - 1) * self.dilation + 1

    def _pad_amounts(self, length: int) -> tuple[int, int]:
        if self.padding == "same":
            total = max(self.span - 1, 0)
            left = total // 2
            return left, total - left
        return self.padding, self.padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (N, {self.in_channels}, L), got {x.shape}"
            )
        left, right = self._pad_amounts(x.shape[2])
        if left or right:
            # Hand-rolled zero padding: np.pad's generic machinery costs
            # ~100µs per call, which dominates short sub-sweeps (the
            # streaming tail re-sweeps of DESIGN.md §13). calloc + one
            # slice assign is bit-identical and near-free.
            padded = np.zeros(
                (x.shape[0], x.shape[1], left + x.shape[2] + right),
                dtype=x.dtype,
            )
            padded[:, :, left : left + x.shape[2]] = x
        else:
            padded = x
        if padded.shape[2] < self.span:
            raise ValueError(
                f"input length {x.shape[2]} too short for kernel span "
                f"{self.span} with padding {self.padding}"
            )
        cols = im2col1d(
            padded, self.kernel_size, self.stride, self.dilation
        )  # (N,C,L_out,K)
        # Batch- and length-invariant contraction (DESIGN.md §12/§13):
        # one GEMM *per window per time tile*, shaped
        # (≤TIME_TILE, C·K) @ (C·K, D) no matter how many windows are
        # stacked or how long the series is. The single-GEMM form
        # ``einsum("nclk,dck->ndl", optimize=True)`` folds the batch
        # into the M dimension, and BLAS picks ULP-different kernels
        # for different M — breaking the serve layer's batched-sweep ==
        # per-window-sweep contract; folding the *time* axis into one
        # GEMM breaks the streaming layer's suffix-reuse contract the
        # same way (results at position t would depend on L). Each
        # window's tile slice is a contiguous (tile, C·K) block of the
        # normalized ``lhs`` buffer, so per-tile results are exact.
        n, c_in, l_out, k = cols.shape
        lhs = np.ascontiguousarray(cols.transpose(0, 2, 1, 3)).reshape(
            n, l_out, c_in * k
        )
        rhs = self.weight.data.reshape(self.out_channels, c_in * k).T
        if l_out <= TIME_TILE:
            res = np.matmul(lhs, rhs)
        else:
            res = np.empty((n, l_out, self.out_channels), dtype=lhs.dtype)
            for start in range(0, l_out, TIME_TILE):
                stop = min(start + TIME_TILE, l_out)
                res[:, start:stop] = np.matmul(lhs[:, start:stop], rhs)
        out = res.transpose(0, 2, 1)
        if self.bias is not None:
            out += self.bias.data[None, :, None]
        if not is_inference():
            # The im2col tensor is K× the input size — never retain it
            # under inference_mode.
            self._cache = (cols, padded.shape[2], left, x.shape[2])
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, padded_len, left, in_len = self._cache
        self.weight.accumulate_grad(
            np.einsum("ndl,nclk->dck", grad_output, cols, optimize=True)
        )
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=(0, 2)))
        dcols = np.einsum(
            "ndl,dck->nclk", grad_output, self.weight.data, optimize=True
        )
        dpadded = col2im1d(
            dcols, padded_len, self.kernel_size, self.stride, self.dilation
        )
        self._cache = None
        return dpadded[:, :, left : left + in_len]
