"""Generic training loop with early stopping and best-weights restore.

The loop is instrumented through :mod:`repro.obs`: every epoch emits a
structured ``trainer.epoch`` event (loss, lr, gradient norm, wall time)
and the run closes with a ``trainer.fit.done`` event carrying the stop
reason. Events are only *written* anywhere when the trainer is verbose
(they go to stderr, never stdout) and only *recorded* when observability
is enabled — the default path costs nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from .data import DataLoader
from .losses import Loss
from .module import Module
from .optim import Optimizer, clip_grad_norm, global_grad_norm

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-epoch traces collected during :meth:`Trainer.fit`."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    grad_norm: list[float] = field(default_factory=list)
    # mean per-batch global gradient L2 norm (pre-clipping), one per epoch
    epoch_seconds: list[float] = field(default_factory=list)
    stopped_early: bool = False
    diverged: bool = False
    best_epoch: int = -1

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    @property
    def stop_reason(self) -> str:
        """Why training ended: ``diverged``/``early_stopping``/``max_epochs``."""
        if self.diverged:
            return "diverged"
        if self.stopped_early:
            return "early_stopping"
        return "max_epochs"


class Trainer:
    """Trains a :class:`Module` against a loss with mini-batch SGD.

    Parameters
    ----------
    model, loss, optimizer:
        The pieces to wire together. The model must map a batch ``x`` to
        predictions accepted by ``loss``.
    max_epochs:
        Upper bound on epochs.
    patience:
        Early-stopping patience on validation loss; ``None`` disables
        early stopping (runs all epochs).
    grad_clip:
        Optional global-norm gradient clipping.
    target_transform:
        Optional callable applied to the raw batch target before the loss
        (e.g. reshaping labels for seq2seq heads).
    input_transform:
        Optional callable applied to the batch input **during training
        only** (e.g. data augmentation); evaluation always sees the raw
        inputs.
    verbose:
        Write per-epoch progress lines (to stderr via ``repro.obs.log``).
    """

    def __init__(
        self,
        model: Module,
        loss: Loss,
        optimizer: Optimizer,
        max_epochs: int = 50,
        patience: int | None = 5,
        grad_clip: float | None = 5.0,
        target_transform=None,
        input_transform=None,
        verbose: bool = False,
    ):
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if patience is not None and patience < 1:
            raise ValueError("patience must be >= 1 or None")
        self.model = model
        self.loss = loss
        self.optimizer = optimizer
        self.max_epochs = max_epochs
        self.patience = patience
        self.grad_clip = grad_clip
        self.target_transform = target_transform
        self.input_transform = input_transform
        self.verbose = verbose

    def _run_batch(
        self, x: np.ndarray, y: np.ndarray, train: bool
    ) -> tuple[float, float | None]:
        """One batch; returns (loss value, pre-clip grad norm or None)."""
        if self.target_transform is not None:
            y = self.target_transform(y)
        if train and self.input_transform is not None:
            x = self.input_transform(x)
        prediction = self.model(x)
        value = self.loss(prediction, y)
        grad_norm: float | None = None
        if train:
            self.optimizer.zero_grad()
            self.model.backward(self.loss.backward())
            if self.grad_clip is not None:
                grad_norm = clip_grad_norm(self.model.parameters(), self.grad_clip)
            else:
                grad_norm = global_grad_norm(self.model.parameters())
            self.optimizer.step()
        return value, grad_norm

    def _evaluate(self, loader: DataLoader) -> float:
        self.model.eval()
        total, count = 0.0, 0
        with obs.span("trainer.evaluate"):
            for x, y in loader:
                value, _ = self._run_batch(x, y, train=False)
                total += value * len(x)
                count += len(x)
        return total / max(count, 1)

    def _emit_epoch(self, epoch: int, history: TrainingHistory) -> None:
        fields = {
            "epoch": epoch,
            "train_loss": history.train_loss[-1],
            "grad_norm": history.grad_norm[-1],
            "seconds": history.epoch_seconds[-1],
        }
        if history.lr:
            fields["lr"] = history.lr[-1]
        if history.val_loss:
            fields["val_loss"] = history.val_loss[-1]
        obs.log.event("trainer.epoch", _force=self.verbose, **fields)

    def fit(
        self, train_loader: DataLoader, val_loader: DataLoader | None = None
    ) -> TrainingHistory:
        """Run the training loop; restores best-validation weights."""
        history = TrainingHistory()
        best_val = np.inf
        best_state = None
        bad_epochs = 0
        with obs.span(
            "trainer.fit",
            model=type(self.model).__name__,
            max_epochs=self.max_epochs,
        ) as fit_span:
            for epoch in range(self.max_epochs):
                epoch_start = time.perf_counter()
                self.model.train()
                total, count = 0.0, 0
                norm_total, norm_count = 0.0, 0
                with obs.span("trainer.epoch", epoch=epoch):
                    for x, y in train_loader:
                        value, grad_norm = self._run_batch(x, y, train=True)
                        total += value * len(x)
                        count += len(x)
                        if grad_norm is not None:
                            norm_total += grad_norm
                            norm_count += 1
                    train_loss = total / max(count, 1)
                    history.train_loss.append(train_loss)
                    history.grad_norm.append(norm_total / max(norm_count, 1))
                    if not np.isfinite(train_loss):
                        # A NaN/inf loss never recovers under plain
                        # SGD/Adam — stop, flag it, and fall back to the
                        # best known weights.
                        history.diverged = True
                        history.epoch_seconds.append(
                            time.perf_counter() - epoch_start
                        )
                        self._emit_epoch(epoch, history)
                        break
                    history.lr.append(self.optimizer.lr)
                    stop = False
                    if val_loader is not None:
                        val_loss = self._evaluate(val_loader)
                        history.val_loss.append(val_loss)
                        if val_loss < best_val - 1e-12:
                            best_val = val_loss
                            best_state = self.model.state_dict()
                            history.best_epoch = epoch
                            bad_epochs = 0
                        else:
                            bad_epochs += 1
                            if (
                                self.patience is not None
                                and bad_epochs >= self.patience
                            ):
                                history.stopped_early = True
                                stop = True
                    history.epoch_seconds.append(time.perf_counter() - epoch_start)
                    self._emit_epoch(epoch, history)
                    if stop:
                        break
            if best_state is not None:
                self.model.load_state_dict(best_state)
            self.model.eval()
            fit_span.set(epochs=history.epochs_run, reason=history.stop_reason)
        if obs.enabled():
            obs.registry.histogram(
                "trainer.epoch_seconds", help="wall time per training epoch"
            ).observe_many(np.asarray(history.epoch_seconds))
            obs.registry.counter(
                "trainer.epochs_total", help="epochs run across all fits"
            ).inc(history.epochs_run)
        obs.log.event(
            "trainer.fit.done",
            _force=self.verbose,
            epochs=history.epochs_run,
            reason=history.stop_reason,
            best_epoch=history.best_epoch,
        )
        return history
