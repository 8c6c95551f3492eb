"""Base class for layers and models in the numpy neural-network framework.

The framework uses explicit layer-wise backpropagation rather than a taped
autograd: every :class:`Module` implements ``forward`` (caching whatever it
needs) and ``backward`` (consuming the cached values, accumulating parameter
gradients, and returning the gradient with respect to its input). Composite
models chain their children's ``backward`` calls in reverse order.

This design keeps the math local and auditable — which matters here because
CamAL needs direct access to intermediate feature maps for Class Activation
Map extraction.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .parameter import Parameter

__all__ = ["Module", "inference_mode", "is_inference"]


# -- inference mode ----------------------------------------------------------
#
# Layers cache whatever their backward pass needs (conv window rows, ReLU
# masks, normalized activations, ...). On the inference hot path those
# caches are pure overhead: CamAL never backpropagates when localizing a
# window, yet every forward pass used to retain tensors several times the
# size of the input. ``inference_mode()`` is a per-thread flag — layers
# consult :func:`is_inference` and skip cache population while the
# calling thread holds the context open. A training step on another
# thread keeps its caches.


class _InferenceState(threading.local):
    depth = 0


_inference = _InferenceState()


def is_inference() -> bool:
    """True while this thread holds at least one :func:`inference_mode`."""
    return _inference.depth > 0


@contextmanager
def inference_mode():
    """Disable backward caches for every layer forward this thread runs
    inside.

    Re-entrant: nesting increments a depth counter, so helper APIs can
    wrap themselves defensively without fighting an outer context. Under
    inference mode a subsequent ``backward()`` raises the usual
    "backward called before forward" error, exactly as if no forward had
    happened.
    """
    _inference.depth += 1
    try:
        yield
    finally:
        _inference.depth -= 1


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration is automatic via ``__setattr__``, mirroring the
    familiar torch API. The training/eval flag propagates to children.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration ---------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (used for module lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal --------------------------------------------------------

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar trainable values in this module tree."""
        return sum(p.size for p in self.parameters() if p.requires_grad)

    # -- train/eval mode ---------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- gradients ----------------------------------------------------------

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- backward caches ---------------------------------------------------

    #: Attribute names layers use for forward-pass caches. ``clear_caches``
    #: resets any of these found on a module tree; layers also clear their
    #: own entry at the end of ``backward()`` so gradients never pin the
    #: (often input-sized) intermediates past their single use.
    _CACHE_ATTRS = (
        "_cache",
        "_mask",
        "_relu_mask",
        "_features",
        "_length",
        "_in_shape",
        "_in_length",
    )

    def clear_caches(self) -> "Module":
        """Drop every cached forward intermediate in this module tree.

        Useful after an eval-mode forward that will never be followed by
        ``backward()`` (prefer :func:`inference_mode`, which avoids the
        allocation in the first place).
        """
        for _, module in self.named_modules():
            for attr in self._CACHE_ATTRS:
                if getattr(module, attr, None) is not None:
                    object.__setattr__(module, attr, None)
        return self

    # -- forward / backward --------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- profiling -----------------------------------------------------------

    def profile(self, registry=None) -> "object":
        """Opt-in per-layer forward/backward timing (context manager).

        Returns a :class:`repro.obs.ModuleProfiler` that, while entered,
        shadows every submodule's ``forward``/``backward`` with timing
        wrappers — layer code is untouched and the wrappers are removed
        on exit::

            with model.profile() as prof:
                model(x)
            print(prof.table(top=5))
        """
        from ..obs.profiler import ModuleProfiler

        return ModuleProfiler(self, registry=registry)

    # -- (de)serialization -----------------------------------------------------

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Flat mapping of dotted parameter/buffer names to arrays."""
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for prefix, module in self.named_modules():
            for buf_name, buf in getattr(module, "_buffers", {}).items():
                key = f"{prefix}.{buf_name}" if prefix else buf_name
                state[key] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Load arrays produced by :meth:`state_dict`, validating shapes."""
        params = dict(self.named_parameters())
        buffers: dict[str, tuple[Module, str]] = {}
        for prefix, module in self.named_modules():
            for buf_name in getattr(module, "_buffers", {}):
                key = f"{prefix}.{buf_name}" if prefix else buf_name
                buffers[key] = (module, buf_name)
        missing = (set(params) | set(buffers)) - set(state)
        unexpected = set(state) - (set(params) | set(buffers))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            if name in params:
                params[name].copy_(value)
            else:
                module, buf_name = buffers[name]
                current = module._buffers[buf_name]
                value = np.asarray(value, dtype=np.float64)
                if value.shape != np.shape(current):
                    raise ValueError(
                        f"buffer {name} shape mismatch: "
                        f"{value.shape} vs {np.shape(current)}"
                    )
                module._buffers[buf_name] = value.copy()
                object.__setattr__(module, buf_name, module._buffers[buf_name])

    # -- buffers (non-trainable state such as BN running stats) -----------

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        if not hasattr(self, "_buffers"):
            object.__setattr__(self, "_buffers", OrderedDict())
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace a registered buffer's contents."""
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"
