"""A from-scratch numpy deep-learning framework.

This is the substrate that replaces PyTorch in the DeviceScope/CamAL
reproduction (DESIGN.md §2): explicit layer-wise backpropagation, 1-D
convolutions as channels-last tiled GEMMs, batch normalization with
running statistics, GRUs with full BPTT, Adam/SGD optimizers, a mini
DataLoader, and a training loop with early stopping.

The public surface mirrors the familiar torch naming so the model code in
:mod:`repro.models` reads like standard deep-learning code.
"""

from . import functional
from .activations import ReLU
from .attention import MultiHeadSelfAttention, TransformerEncoderBlock
from .container import ModuleList, Sequential
from .conv import Conv1d
from .data import ArrayDataset, DataLoader, train_val_split
from .gradcheck import check_module_gradients
from .linear import Linear
from .losses import BCEWithLogitsLoss, CrossEntropyLoss, Loss, MSELoss
from .module import Module, inference_mode, is_inference
from .norm import BatchNorm1d, LayerNorm
from .optim import SGD, Adam, Optimizer, clip_grad_norm, global_grad_norm
from .parameter import Parameter
from .pooling import Flatten, GlobalAvgPool1d, MaxPool1d, Upsample1d
from .rnn import GRU, LSTM, BiGRU, BiLSTM
from .serialization import load_into_module, load_state, save_module, save_state
from .trainer import Trainer, TrainingHistory

__all__ = [
    "functional",
    "Parameter",
    "Module",
    "inference_mode",
    "is_inference",
    "Sequential",
    "ModuleList",
    "Conv1d",
    "MultiHeadSelfAttention",
    "TransformerEncoderBlock",
    "Linear",
    "BatchNorm1d",
    "LayerNorm",
    "ReLU",
    "GlobalAvgPool1d",
    "MaxPool1d",
    "Upsample1d",
    "Flatten",
    "GRU",
    "BiGRU",
    "LSTM",
    "BiLSTM",
    "Loss",
    "MSELoss",
    "BCEWithLogitsLoss",
    "CrossEntropyLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
    "ArrayDataset",
    "DataLoader",
    "train_val_split",
    "Trainer",
    "TrainingHistory",
    "save_state",
    "load_state",
    "save_module",
    "load_into_module",
    "check_module_gradients",
]
