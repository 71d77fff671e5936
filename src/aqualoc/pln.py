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

from .autodiff import Layout, Tensor
from .environment import Environment, Region, THREE_PATHS, path_geometry

N_INPUTS = 5
DEFAULT_HIDDEN = (64, 64, 64)
REDUCED_HIDDEN = (8,)  # keeps the adaptation vector small for theorem studies
DEFAULT_LENGTH_SCALE = 500.0


@dataclass(frozen=True)
class PlnArchitecture:
    """Hidden widths and the softplus output scale (meters)."""

    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    length_scale: float = DEFAULT_LENGTH_SCALE

    def __post_init__(self) -> None:
        if len(self.hidden) == 0:
            raise ValueError("at least one hidden layer is required")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")
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
    near length_scale, inside the span of plausible path lengths; that keeps
    the initial arrivals within pull range of the coarse training stages.
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


def path_features_t(
    x: Tensor, z: Tensor, receiver_depth: float, norm: InputNormalization
) -> Tensor:
    """Differentiable (3, 5) feature block for scalar position tensors."""
    shift = np.asarray(norm.shift)
    scale = np.asarray(norm.scale)
    const = path_features(1.0, 1.0, receiver_depth, norm)  # placeholder x, z
    const[:, 0] = 0.0
    const[:, 1] = 0.0
    ex = np.zeros((len(THREE_PATHS), N_INPUTS))
    ez = np.zeros((len(THREE_PATHS), N_INPUTS))
    ex[:, 0] = 1.0
    ez[:, 1] = 1.0
    xn = (x - shift[0]) / scale[0]
    zn = (z - shift[1]) / scale[1]
    return xn * ex + zn * ez + const


def pln_lengths_t(flat: Tensor, params: PlnParams, feats: Tensor | np.ndarray) -> Tensor:
    """Predicted path lengths for a (rows, 5) feature matrix; returns (rows,)."""
    a = feats if isinstance(feats, Tensor) else Tensor(feats, needs_grad=False)
    layout = params.layout
    n_layers = len(params.arch.hidden)
    for i in range(n_layers):
        w = layout.segment(flat, f"W{i}")
        b = layout.segment(flat, f"b{i}")
        a = (a @ w + b).tanh()
    w = layout.segment(flat, f"W{n_layers}")
    b = layout.segment(flat, f"b{n_layers}")
    head = (a @ w + b)[:, 0]
    return params.arch.length_scale * head.softplus()


def pln_lengths(
    params: PlnParams, x: np.ndarray, z: np.ndarray, receiver_depth: float
) -> np.ndarray:
    """Plain-numpy convenience: predicted lengths, shape (..., 3)."""
    feats = path_features(x, z, receiver_depth, params.norm)
    lead = feats.shape[:-1]
    flat = Tensor(params.values, needs_grad=False)
    out = pln_lengths_t(flat, params, feats.reshape(-1, N_INPUTS))
    return out.value.reshape(lead)


def pln_error_grid(
    params: PlnParams,
    env: Environment,
    region: Region,
    nx: int = 20,
    nz: int = 20,
) -> float:
    """Worst relative path-length error over an nx-by-nz grid spanning the region."""
    xs = np.linspace(region.x_min, region.x_max, nx)
    zs = np.linspace(region.z_min, region.z_max, nz)
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    predicted = pln_lengths(params, gx, gz, env.receiver_depth)
    truth, _ = path_geometry(env, gx, gz)
    return float(np.max(np.abs(predicted - truth) / truth))
