"""Normalization layers."""

from __future__ import annotations

import numpy as np

from .module import Module, is_inference
from .parameter import Parameter

__all__ = ["BatchNorm1d", "LayerNorm"]


class BatchNorm1d(Module):
    """Batch normalization over ``(N, C, L)`` or ``(N, C)`` inputs.

    Statistics are computed per channel across the batch (and time, for 3-D
    inputs). Running estimates are kept as buffers and used in eval mode,
    so a trained classifier gives deterministic single-window predictions —
    which CamAL relies on when extracting activation maps.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if num_features < 1:
            raise ValueError("num_features must be >= 1")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self._cache: tuple | None = None

    def _axes(self, x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 3:
            return (0, 2)
        if x.ndim == 2:
            return (0,)
        raise ValueError(f"expected (N, C) or (N, C, L) input, got {x.shape}")

    def _expand(self, stat: np.ndarray, ndim: int) -> np.ndarray:
        return stat[None, :, None] if ndim == 3 else stat[None, :]

    def forward(self, x: np.ndarray) -> np.ndarray:
        axes = self._axes(x)
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels, got {x.shape[1]}"
            )
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = x.shape[0] if x.ndim == 2 else x.shape[0] * x.shape[2]
            if count > 1:
                unbiased = var * count / (count - 1)
            else:
                unbiased = var
            self.set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * mean,
            )
            self.set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased,
            )
        else:
            mean = self.running_mean
            var = self.running_var
        # One affine pass, x * scale + shift. Both are derived on every
        # call, never cached, so in-place updates of gamma, beta or the
        # running buffers can never leave them stale.
        std = np.sqrt(var + self.eps)
        scale = self.gamma.data / std
        shift = self.beta.data - mean * scale
        out = x * self._expand(scale, x.ndim)
        out += self._expand(shift, x.ndim)
        if not is_inference():
            inv_std = 1.0 / std
            x_hat = (x - self._expand(mean, x.ndim)) * self._expand(
                inv_std, x.ndim
            )
            self._cache = (x_hat, inv_std, axes, x.ndim, self.training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, axes, ndim, was_training = self._cache
        self._cache = None
        self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=axes))
        self.beta.accumulate_grad(grad_output.sum(axis=axes))
        dxhat = grad_output * self._expand(self.gamma.data, ndim)
        if not was_training:
            # Eval mode: mean/var are constants, the map is affine.
            return dxhat * self._expand(inv_std, ndim)
        count = np.prod([x_hat.shape[a] for a in axes])
        mean_dxhat = dxhat.mean(axis=axes)
        mean_dxhat_xhat = (dxhat * x_hat).mean(axis=axes)
        return (
            dxhat
            - self._expand(mean_dxhat, ndim)
            - x_hat * self._expand(mean_dxhat_xhat, ndim)
        ) * self._expand(inv_std, ndim)


class LayerNorm(Module):
    """Layer normalization over the last dimension of ``(..., F)`` inputs."""

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"expected trailing dim {self.num_features}, got {x.shape[-1]}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        if not is_inference():
            self._cache = (x_hat, inv_std)
        return self.gamma.data * x_hat + self.beta.data

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = self._cache
        self._cache = None
        reduce_axes = tuple(range(grad_output.ndim - 1))
        self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=reduce_axes))
        self.beta.accumulate_grad(grad_output.sum(axis=reduce_axes))
        dxhat = grad_output * self.gamma.data
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        mean_dxhat_xhat = (dxhat * x_hat).mean(axis=-1, keepdims=True)
        return (dxhat - mean_dxhat - x_hat * mean_dxhat_xhat) * inv_std
