"""Path-length network: a small MLP predicting ray path lengths.

Inputs are (x_s, z_s, z_r, n_surface, n_bottom), affinely normalized to roughly
[-1, 1]; the output head is length_scale * softplus(.), which keeps predicted
lengths positive at any weight setting. One network serves all three paths,
distinguished only by the bounce-count inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Layout
from .environment import Environment, Region, THREE_PATHS, path_geometry
from .signals import at_least, require_finite, whole_number

N_INPUTS = 5
DEFAULT_HIDDEN = (64, 64, 64)
REDUCED_HIDDEN = (8,)  # keeps the adaptation vector small for theorem studies
DEFAULT_LENGTH_SCALE = 500.0
ERROR_GRID = 20  # points per axis of the in-region grid that pln_error_grid checks


@dataclass(frozen=True)
class PlnArchitecture:
    """Hidden widths and the softplus output scale (meters)."""

    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    length_scale: float = DEFAULT_LENGTH_SCALE

    def __post_init__(self) -> None:
        if len(self.hidden) == 0:
            raise ValueError("at least one hidden layer is required")
        widths = tuple(at_least("hidden width", h, whole_number, 1) for h in self.hidden)
        object.__setattr__(self, "hidden", widths)
        require_finite("architecture", length_scale=self.length_scale)
        if self.length_scale <= 0.0:
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [N_INPUTS, *self.hidden, 1]
        return list(zip(dims[:-1], dims[1:]))

    def layout(self) -> Layout:
        names: list[str] = []
        shapes: list[tuple[int, ...]] = []
        for i, (n_in, n_out) in enumerate(self.layer_dims()):
            names.append(f"W{i}")
            shapes.append((n_in, n_out))
            names.append(f"b{i}")
            shapes.append((n_out,))
        return Layout(tuple(names), tuple(shapes))


@dataclass(frozen=True)
class InputNormalization:
    """Per-input affine normalization (value - shift) / scale."""

    shift: tuple[float, ...]
    scale: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.shift) != N_INPUTS or len(self.scale) != N_INPUTS:
            raise ValueError(f"need {N_INPUTS} shifts and scales")
        for name in ("shift", "scale"):
            require_finite("normalization", **{
                f"{name}[{i}]": v for i, v in enumerate(getattr(self, name))
            })
        if any(s <= 0.0 for s in self.scale):
            raise ValueError("scales must be positive")

    @staticmethod
    def from_region(region: Region, env: Environment) -> "InputNormalization":
        return InputNormalization(
            shift=(
                0.5 * (region.x_min + region.x_max),
                0.5 * (region.z_min + region.z_max),
                0.5 * env.depth,
                0.5,
                0.5,
            ),
            scale=(
                0.5 * (region.x_max - region.x_min),
                0.5 * (region.z_max - region.z_min),
                0.5 * env.depth,
                0.5,
                0.5,
            ),
        )


@dataclass
class PlnParams:
    """Architecture, input normalization, and one flat weight vector."""

    arch: PlnArchitecture
    norm: InputNormalization
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = self.arch.layout().size
        if self.values.shape != (expected,):
            raise ValueError(
                f"flat weight vector has size {self.values.shape}, expected ({expected},)"
            )

    @property
    def layout(self) -> Layout:
        return self.arch.layout()

    @property
    def n_weights(self) -> int:
        return self.values.size


def pln_init(arch: PlnArchitecture, norm: InputNormalization, seed: int) -> PlnParams:
    """Glorot-uniform weights, zero hidden biases.

    The output bias is set to softplus^{-1}(1) so untrained predictions start
    near length_scale, inside the span of plausible path lengths, where the
    peaks training stage starts.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    layout = arch.layout()
    segments: dict[str, np.ndarray] = {}
    dims = arch.layer_dims()
    for i, (n_in, n_out) in enumerate(dims):
        limit = np.sqrt(6.0 / (n_in + n_out))
        segments[f"W{i}"] = rng.uniform(-limit, limit, (n_in, n_out))
        segments[f"b{i}"] = np.zeros(n_out)
    segments[f"b{len(dims) - 1}"] = np.full(1, math.log(math.e - 1.0))
    return PlnParams(arch, norm, layout.pack(segments))


def path_features(
    x: np.ndarray, z: np.ndarray, receiver_depth: float, norm: InputNormalization
) -> np.ndarray:
    """Normalized (..., 3, 5) feature block for the three paths at (x, z)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    base_shape = np.broadcast(x, z).shape
    feats = np.empty(base_shape + (len(THREE_PATHS), N_INPUTS))
    for i, p in enumerate(THREE_PATHS):
        feats[..., i, 0] = x
        feats[..., i, 1] = z
        feats[..., i, 2] = receiver_depth
        feats[..., i, 3] = p.n_surface
        feats[..., i, 4] = p.n_bottom
    shift = np.asarray(norm.shift)
    scale = np.asarray(norm.scale)
    return (feats - shift) / scale


def length_forward(params: PlnParams, w: np.ndarray, feats: np.ndarray):
    """Predicted lengths for a (rows, 5) feature matrix, and their backward pass.

    Returns (lengths, backward). backward() gives the per-layer factors of
    the lengths' weight Jacobian: row r's length depends on layer i's weights
    only through the pre-activation z_i = a_i W_i + b_i, so its gradient
    there is the outer product of the layer input a_i[r] with
    delta_i[r] = d length / d z_i (and delta_i[r] alone for the bias).
    backward() returns (inputs, deltas): per layer one (rows, fan_in) input
    block and one (rows, fan_out) delta.
    """
    seg = params.layout.unpack(w)
    n_layers = len(params.arch.hidden)
    inputs = [feats]
    for i in range(n_layers):
        inputs.append(np.tanh(inputs[-1] @ seg[f"W{i}"] + seg[f"b{i}"]))
    head = (inputs[-1] @ seg[f"W{n_layers}"] + seg[f"b{n_layers}"])[:, 0]
    scale = params.arch.length_scale
    lengths = scale * np.logaddexp(0.0, head)

    def backward() -> tuple[list[np.ndarray], list[np.ndarray]]:
        # softplus' = sigmoid, via tanh so both saturation tails stay stable
        deltas = [scale * 0.5 * (1.0 + np.tanh(0.5 * head))[:, None]]
        for i in range(n_layers, 0, -1):
            deltas.append((deltas[-1] @ seg[f"W{i}"].T) * (1.0 - inputs[i] * inputs[i]))
        deltas.reverse()
        return inputs, deltas

    return lengths, backward


def length_vjp(layout: Layout, inputs, deltas, v: np.ndarray) -> np.ndarray:
    """J^T v for the lengths' weight Jacobian J, as one backprop with per-row weights v."""
    segments = {}
    for i, (a, d) in enumerate(zip(inputs, deltas)):
        dv = d * v[:, None]
        segments[f"W{i}"] = a.T @ dv
        segments[f"b{i}"] = dv.sum(axis=0)
    return layout.pack(segments)


def length_jacobian(inputs, deltas) -> np.ndarray:
    """The lengths' weight Jacobian J, (rows, n_weights) in layout order, from the factors:
    row r holds the outer product a_i[r] delta_i[r] and then delta_i[r], layer by layer."""
    rows = len(inputs[0])
    return np.hstack([part for a, d in zip(inputs, deltas)
                      for part in ((a[:, :, None] * d[:, None, :]).reshape(rows, -1), d)])


def length_position_jacobian(params: PlnParams, w: np.ndarray, deltas) -> np.ndarray:
    """d length / d(x, z) per row, (rows, 2), from the first layer's deltas."""
    w0 = params.layout.unpack(w)["W0"]
    return (deltas[0] @ w0.T)[:, :2] / np.asarray(params.norm.scale[:2])


def pln_lengths(
    params: PlnParams, x: np.ndarray, z: np.ndarray, receiver_depth: float
) -> np.ndarray:
    """Predicted lengths at positions (x, z), shape (..., 3)."""
    feats = path_features(x, z, receiver_depth, params.norm)
    lengths, _ = length_forward(params, params.values, feats.reshape(-1, N_INPUTS))
    return lengths.reshape(feats.shape[:-1])


def pln_error_grid(params: PlnParams, env: Environment, region: Region) -> float:
    """Worst relative path-length error over an ERROR_GRID-square grid spanning the region."""
    xs = np.linspace(region.x_min, region.x_max, ERROR_GRID)
    zs = np.linspace(region.z_min, region.z_max, ERROR_GRID)
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    predicted = pln_lengths(params, gx, gz, env.receiver_depth)
    truth, _ = path_geometry(env, gx, gz)
    return float(np.max(np.abs(predicted - truth) / truth))
