"""Layer objects for the numpy CNN substrate.

Layers are small immutable-ish containers around parameters plus a
``forward`` method.  There is no autograd: GOGGLES only needs forward
passes through a *frozen* backbone; trainable heads live in
``repro.endmodel`` where gradients are derived in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn import functional as F

__all__ = ["Layer", "Conv2d", "ReLU", "MaxPool2d", "Linear", "Flatten", "Sequential"]


class Layer:
    """Base class: a named, parameterised forward transformation."""

    name: str = "layer"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def n_parameters(self) -> int:
        """Number of scalar parameters held by this layer."""
        return 0


@dataclass
class Conv2d(Layer):
    """3x3-style convolution layer with explicit weights.

    ``weight`` has shape ``(out_channels, in_channels, k, k)``.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 1
    name: str = "conv"

    def __post_init__(self) -> None:
        if self.weight.ndim != 4:
            raise ValueError(f"Conv2d weight must be 4-D, got shape {self.weight.shape}")
        if self.bias is not None and self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"Conv2d bias shape {self.bias.shape} does not match "
                f"out_channels {self.weight.shape[0]}"
            )

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weight.shape[2]

    def forward(self, x: np.ndarray) -> np.ndarray:
        weight, bias = _params_as(x.dtype, self.weight, self.bias)
        return F.conv2d(x, weight, bias, stride=self.stride, padding=self.padding)

    def n_parameters(self) -> int:
        return self.weight.size + (self.bias.size if self.bias is not None else 0)


def _params_as(
    dtype: np.dtype, weight: np.ndarray, bias: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Parameters cast to the activation dtype, so the compute precision
    follows the input batch: the affinity engine's default float32
    batches keep the whole forward pass in float32 instead of silently
    promoting at the first matmul, and float64 inputs
    (``precision="float64"``) see the stored float64 parameters
    unchanged."""
    if weight.dtype == dtype:
        return weight, bias
    return weight.astype(dtype), None if bias is None else bias.astype(dtype)


@dataclass
class ReLU(Layer):
    name: str = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.relu(x)


@dataclass
class MaxPool2d(Layer):
    kernel: int = 2
    stride: int | None = None
    name: str = "maxpool"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.maxpool2d(x, kernel=self.kernel, stride=self.stride)


@dataclass
class Linear(Layer):
    """Fully connected layer; ``weight`` has shape ``(out, in)``."""

    weight: np.ndarray
    bias: np.ndarray | None = None
    name: str = "linear"

    def __post_init__(self) -> None:
        if self.weight.ndim != 2:
            raise ValueError(f"Linear weight must be 2-D, got shape {self.weight.shape}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        weight, bias = _params_as(x.dtype, self.weight, self.bias)
        return F.linear(x, weight, bias)

    def n_parameters(self) -> int:
        return self.weight.size + (self.bias.size if self.bias is not None else 0)


@dataclass
class Flatten(Layer):
    name: str = "flatten"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return F.flatten(x)


@dataclass
class Sequential(Layer):
    """A simple forward-only container of layers."""

    layers: list[Layer] = field(default_factory=list)
    name: str = "sequential"

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def n_parameters(self) -> int:
        return sum(layer.n_parameters() for layer in self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)
