"""1-D convolution layer: channels-last window rows, one GEMM per time tile.

The weight is stored K-major, ``(K, C, D)`` C-contiguous behind its public
``(D, C, K)`` view, so each GEMM's ``(K·C, D)`` right-hand side is a view.
"""

from __future__ import annotations

import numpy as np

from .init import he_uniform
from .module import Module, is_inference
from .parameter import Parameter

__all__ = ["Conv1d", "TIME_TILE"]

#: Fixed tile length along the output-time axis of every Conv1d GEMM.
#: Tiling makes the lowering *length-invariant* on top of its batch
#: invariance: every GEMM, the zero-extended last tile's included, has
#: the shape ``(TIME_TILE, K·C) @ (K·C, D)``, so output position ``t``
#: depends only on the input its row reads — never on the total window
#: length. A suffix recomputation that starts on a tile boundary
#: reproduces the full sweep's tail bit for bit, and so does a position
#: of a shorter sweep's last, partial tile (the streaming layer's reuse
#: contract, DESIGN.md §13). Must stay constant process-wide: results
#: for the same input differ at the ULP level across tile sizes.
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
        # The public (D, C, K) weight is a view of (K, C, D) C-contiguous
        # storage, so forward's K-major (K·C, D) right-hand side is a view
        # too, not a per-call copy. Optimizer steps, copy_ and
        # load_state_dict all write in place and keep that storage.
        weight = he_uniform((out_channels, in_channels, kernel_size), fan_in, rng)
        self.weight = Parameter(
            np.ascontiguousarray(weight.transpose(2, 1, 0)).transpose(2, 1, 0),
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
        n, c_in, length = x.shape
        left, right = self._pad_amounts(length)
        padded_len = left + length + right
        if padded_len < self.span:
            raise ValueError(
                f"input length {length} too short for kernel span "
                f"{self.span} with padding {self.padding}"
            )
        l_out = (padded_len - self.span) // self.stride + 1
        n_tiles = -(-l_out // TIME_TILE)
        k = self.kernel_size
        # Channels-last zero padding, extended on the right until the
        # last output tile is whole (a stride can leave the padded input
        # longer still). The output below is an (N, D, L) view of
        # (N, L, D) storage, so past the C = 1 stem x.transpose is a
        # contiguous read. calloc plus one slice assign is near-free;
        # np.pad costs ~100µs per call (DESIGN.md §13's tail re-sweeps).
        tiled_len = (n_tiles * TIME_TILE - 1) * self.stride + self.span
        padded = np.zeros((n, max(tiled_len, padded_len), c_in), dtype=x.dtype)
        padded[:, left : left + length] = x.transpose(0, 2, 1)
        s_n, s_l, s_c = padded.strides
        step = s_l * self.stride
        # The ndarray constructor builds the same view as as_strided at a
        # fraction of its per-call cost.
        windows = np.ndarray(
            (n, n_tiles, TIME_TILE, k, c_in),
            dtype=padded.dtype,
            buffer=padded,
            strides=(s_n, step * TIME_TILE, step, s_l * self.dilation, s_c),
        )
        # The one copy: each row is K runs of C contiguous doubles (one
        # run of K·C when dilation is 1), and BLAS needs disjoint rows.
        tiles = np.ascontiguousarray(windows).reshape(
            n, n_tiles, TIME_TILE, k * c_in
        )
        # Batch- and length-invariant contraction (DESIGN.md §12/§13):
        # one stacked matmul over (N, n_tiles, TIME_TILE, K·C) against
        # the weight's K-major view, which numpy runs as one BLAS GEMM
        # per window per tile, each shaped (TIME_TILE, K·C) @ (K·C, D)
        # whatever N and L are. Every tile, the last one included, is
        # whole, so output position t's bits depend only on the input
        # its tile reads. Folding the batch or the time axis into the
        # GEMM's M dimension would let BLAS pick ULP-different kernels
        # for different N or L, breaking the serve layer's batched ==
        # solo sweep contract and the streaming layer's suffix-reuse
        # contract. The rows past l_out read the right zero extension
        # and are dropped. rhs is a view of the weight's (K, C, D)
        # storage; it is a copy only if weight.data is rebound to an
        # array of another layout.
        rhs = self.weight.data.transpose(2, 1, 0).reshape(k * c_in, -1)
        res = np.matmul(tiles, rhs).reshape(n, n_tiles * TIME_TILE, -1)
        if self.bias is not None:
            # On the contiguous (N, T, D) result: the same sums, one pass.
            res += self.bias.data
        if not is_inference():
            # The rows are K× the input size — never retain them under
            # inference_mode.
            rows = tiles.reshape(n, n_tiles * TIME_TILE, k * c_in)
            self._cache = (rows[:, :l_out], padded_len, left, length)
        return res[:, :l_out].transpose(0, 2, 1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        rows, padded_len, left, in_len = self._cache
        n, l_out, _ = rows.shape
        k, c_in = self.kernel_size, self.in_channels
        # (D, K·C) back to the (D, C, K) weight layout.
        dweight = np.matmul(grad_output, rows).sum(axis=0)
        self.weight.accumulate_grad(
            dweight.reshape(-1, k, c_in).transpose(0, 2, 1)
        )
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=(0, 2)))
        # The rows' gradient, tap-major (N, K, L_out, C), scatter-added
        # one tap at a time: each tap reads one contiguous block, and its
        # strided slice never writes one position twice.
        drows = np.matmul(
            grad_output.transpose(0, 2, 1)[:, None],
            self.weight.data.transpose(2, 0, 1),
        )
        dpadded = np.zeros((n, padded_len, c_in))
        for tap in range(k):
            offset = tap * self.dilation
            dpadded[:, offset : offset + l_out * self.stride : self.stride] += (
                drows[:, tap]
            )
        self._cache = None
        return dpadded[:, left : left + in_len].transpose(0, 2, 1)
