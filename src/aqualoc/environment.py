"""Isovelocity waveguide geometry, three-ray synthesis, and dataset generation.

The water column is a constant-sound-speed layer bounded by a pressure-release
surface at z = 0 and a rigid bottom at z = depth. Only the three earliest ray
paths are modeled: the direct path, the single surface bounce, and the single
bottom bounce. Path lengths come from the image-source construction, the
surface bounce flips polarity, and amplitudes follow spherical spreading 1/l.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .signals import (
    AnalyticPulse,
    NoiseSpec,
    SampledSignal,
    TimeGrid,
    WINDOW_SIGMAS,
    add_awgn,
    finite_float,
    keep_floats,
    require_finite,
    snr_to_n0,
    superpose_windows,
    whole_number,
)


class UnsupportedPathError(ValueError):
    """Raised for bounce combinations outside the three modeled paths."""


class ObservationWindowError(ValueError):
    """Raised when an arrival (including pulse support) falls outside the grid."""


@dataclass(frozen=True)
class Environment:
    """Isovelocity waveguide parameters.

    Parameters
    ----------
    depth : float
        Water depth in meters; the rigid bottom sits at z = depth.
    sound_speed : float
        Constant sound speed in m/s.
    receiver_depth : float
        Receiver depth in meters, strictly inside the water column.
    """

    depth: float
    sound_speed: float
    receiver_depth: float

    def __post_init__(self) -> None:
        keep_floats(self, "environment")
        if self.depth <= 0.0:
            raise ValueError(f"depth must be positive, got {self.depth}")
        if self.sound_speed <= 0.0:
            raise ValueError(f"sound_speed must be positive, got {self.sound_speed}")
        if not 0.0 < self.receiver_depth < self.depth:
            raise ValueError(
                f"receiver_depth must lie inside (0, {self.depth}), "
                f"got {self.receiver_depth}"
            )

    @cached_property
    def image_offsets(self) -> np.ndarray:
        """Constant part (-z_r, z_r, 2 depth - z_r) of each path's image offset (IMAGE_SIGNS)."""
        zr = self.receiver_depth
        return np.array([-zr, zr, 2.0 * self.depth - zr])


@dataclass(frozen=True)
class SourceLocation:
    """Source position: horizontal range x > 0 and depth z, both in meters."""

    x: float
    z: float

    def __post_init__(self) -> None:
        keep_floats(self, "source")
        if self.x <= 0.0:
            raise ValueError(f"source range must be positive, got {self.x}")
        if self.z <= 0.0:
            raise ValueError(f"source depth must be positive, got {self.z}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.z], dtype=np.float64)


@dataclass(frozen=True)
class PathSpec:
    """Bounce counts (n_surface, n_bottom) identifying one ray path."""

    n_surface: int
    n_bottom: int

    def __post_init__(self) -> None:
        if (self.n_surface, self.n_bottom) not in {(0, 0), (1, 0), (0, 1)}:
            raise UnsupportedPathError(
                f"unsupported path (n_surface={self.n_surface}, "
                f"n_bottom={self.n_bottom}); only the direct, single-surface, "
                f"and single-bottom paths are modeled"
            )


DIRECT = PathSpec(0, 0)
SURFACE = PathSpec(1, 0)
BOTTOM = PathSpec(0, 1)
THREE_PATHS: tuple[PathSpec, ...] = (DIRECT, SURFACE, BOTTOM)

# Reference scenario used throughout the docs, defaults, and experiments.
DEFAULT_ENVIRONMENT = Environment(depth=200.0, sound_speed=1500.0, receiver_depth=120.0)
DEFAULT_SOURCE = SourceLocation(x=610.0, z=20.0)


# Image source of each path in THREE_PATHS order: its vertical offset from the
# receiver is env.image_offsets + IMAGE_SIGNS * z, so IMAGE_SIGNS = d(offset)/dz
IMAGE_SIGNS = np.array([1.0, 1.0, -1.0])


def path_geometry(env: Environment, x, z):
    """Image-method path lengths, shape (..., 3), and a closure giving their gradient.

    Broadcasts over x and z. Returns (lengths, jacobian): jacobian() gives
    d length / d(x, z) = (x, IMAGE_SIGNS * dz) / length, C-ordered with
    shape (..., 3, 2), computed only when called. Lengths are
    sqrt(x*x + dz*dz), not hypot, so that synthesis stays bit-identical to
    the differentiable model when the analytic lengths are plugged in.
    """
    x = np.asarray(x, dtype=np.float64)[..., np.newaxis]
    dz = env.image_offsets + IMAGE_SIGNS * np.asarray(z, dtype=np.float64)[..., np.newaxis]
    lengths = np.sqrt(x * x + dz * dz)

    def jacobian() -> np.ndarray:
        out = np.empty(lengths.shape + (2,))
        np.divide(x, lengths, out=out[..., 0])
        np.divide(IMAGE_SIGNS * dz, lengths, out=out[..., 1])
        return out

    return lengths, jacobian


def reflection_coeff(path: PathSpec) -> float:
    """Cumulative boundary reflection coefficient (-1)^n_surface."""
    return -1.0 if path.n_surface % 2 else 1.0


RHOS = np.array([reflection_coeff(p) for p in THREE_PATHS])


def alpha_tau(lengths, sound_speed):
    """Amplitudes rho_i / l_i and delays l_i / c for the three paths' lengths (last axis)."""
    return RHOS / lengths, lengths / sound_speed


def arrival_params(env: Environment, src: SourceLocation):
    """Amplitudes rho_i / l_i and delays l_i / c for the three paths."""
    lengths, _ = path_geometry(env, src.x, src.z)
    return alpha_tau(lengths, env.sound_speed)


def synthesize_received(
    env: Environment,
    src: SourceLocation,
    pulse: AnalyticPulse,
    grid: TimeGrid,
) -> SampledSignal:
    """Simulate the noiseless received signal r(t) = sum_i (rho_i / l_i) s(t - l_i / c).

    Parameters
    ----------
    env, src, pulse, grid
        Waveguide, true source position, transmit pulse, and sampling grid.

    Returns
    -------
    SampledSignal

    Raises
    ------
    ObservationWindowError
        If any arrival, including the pulse support, extends past the grid.
    """
    alphas, taus = arrival_params(env, src)
    support = pulse.center_time + WINDOW_SIGMAS * pulse.sigma
    latest = max(taus.tolist()) + support
    if latest > grid.duration:
        raise ObservationWindowError(
            f"latest arrival support ends at {latest:.6f} s, past the "
            f"{grid.duration:.6f} s observation window"
        )
    if not all(map(math.isfinite, alphas.tolist())):  # a path of length 0
        raise ValueError("non-finite arrival amplitude or delay")
    return SampledSignal(grid, superpose_windows(alphas, taus, pulse, grid)[0])


@dataclass(frozen=True)
class Region:
    """Axis-aligned source search/training region in the (x, z) plane."""

    x_min: float
    x_max: float
    z_min: float
    z_max: float

    def __post_init__(self) -> None:
        keep_floats(self, "region")
        if not (0.0 < self.x_min < self.x_max):
            raise ValueError(f"need 0 < x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if not (0.0 < self.z_min < self.z_max):
            raise ValueError(f"need 0 < z_min < z_max, got [{self.z_min}, {self.z_max}]")

    def contains(self, x: float, z: float) -> bool:
        return self.x_min <= x <= self.x_max and self.z_min <= z <= self.z_max

    def clip(self, x: float, z: float) -> tuple[float, float]:
        return (
            float(np.clip(x, self.x_min, self.x_max)),
            float(np.clip(z, self.z_min, self.z_max)),
        )


DEFAULT_REGION = Region(300.0, 900.0, 5.0, 100.0)

# The scene sections of a config, dataset manifest or checkpoint, each one dataclass.
SCENE_TYPES = {
    "environment": Environment,
    "source": SourceLocation,
    "pulse": AnalyticPulse,
    "grid": TimeGrid,
    "region": Region,
}


def scene_from_dict(section: str, doc):
    """Scene section `section` (a SCENE_TYPES key) built from its JSON object `doc`.

    Every file reader builds its scene through here. A non-object, a missing or unknown key,
    or a value that is not a finite number (bools and strings included) is a ValueError naming
    the section and the key; a field with a default may be left out.
    """
    cls = SCENE_TYPES[section]
    if not isinstance(doc, dict):
        raise ValueError(f"{section} must be a JSON object, got {doc!r}")
    fields = cls.__dataclass_fields__
    for key in doc:
        if key not in fields:
            raise ValueError(f"{section} has unknown key {key!r}; known: {list(fields)}")
    for key, spec in fields.items():
        if key not in doc and spec.default is MISSING:
            raise ValueError(f"{section} lacks key {key!r}")
    return cls(**doc)


@dataclass
class Dataset:
    """Received signals at known source locations, with full provenance."""

    environment: Environment
    pulse: AnalyticPulse
    grid: TimeGrid
    seed: int
    locations: np.ndarray = field(repr=False)  # (count, 2) columns x_s, z_s
    signals: np.ndarray = field(repr=False)  # (count, n_samples)
    snr_db: float | None = None

    def __post_init__(self) -> None:
        self.locations = np.asarray(self.locations, dtype=np.float64)
        self.signals = np.asarray(self.signals, dtype=np.float64)
        if self.locations.ndim != 2 or self.locations.shape[1] != 2:
            raise ValueError(f"locations must be (count, 2), got {self.locations.shape}")
        if self.signals.shape != (len(self.locations), self.grid.n_samples):
            raise ValueError(
                f"signals shape {self.signals.shape} does not match "
                f"{len(self.locations)} locations on a {self.grid.n_samples}-sample grid"
            )

    @property
    def count(self) -> int:
        return len(self.locations)


def stratified_locations(region: Region, count: int, seed: int) -> np.ndarray:
    """Jittered stratified sample of `count` locations covering the region.

    The region is tiled by a near-square cell grid and one point is drawn
    uniformly inside each of the first `count` cells, which covers the region
    far more evenly than i.i.d. uniform sampling at the same budget.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty((0, 2))
    nx = int(math.ceil(math.sqrt(count)))
    nz = int(math.ceil(count / nx))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    cells = np.arange(count)
    ix = cells % nx
    iz = cells // nx
    jitter = rng.random((count, 2))
    x = region.x_min + (ix + jitter[:, 0]) * (region.x_max - region.x_min) / nx
    z = region.z_min + (iz + jitter[:, 1]) * (region.z_max - region.z_min) / nz
    return np.column_stack([x, z])


def gen_dataset(
    env: Environment,
    region: Region,
    count: int,
    pulse: AnalyticPulse,
    grid: TimeGrid,
    seed: int,
    snr_db: float | None = None,
) -> Dataset:
    """Generate a training dataset of received signals.

    Parameters
    ----------
    env, region, count, pulse, grid, seed
        Waveguide, sampling region, dataset size, waveform, grid, master seed.
    snr_db : float, optional
        None (default) produces noiseless signals. Otherwise a finite number:
        each signal gets white noise at this SNR relative to its own clean
        energy, with the per-item noise seed derived from (seed, item index).

    Returns
    -------
    Dataset
    """
    if snr_db is not None:
        require_finite("dataset", snr_db=snr_db)
    locations = stratified_locations(region, count, seed)
    signals = np.empty((count, grid.n_samples))
    for k, (x, z) in enumerate(locations.tolist()):
        src = SourceLocation(x, z)
        clean = synthesize_received(env, src, pulse, grid)
        if snr_db is None:
            signals[k] = clean.values
        else:
            n0 = snr_to_n0(clean, snr_db, pulse.bandwidth)
            item_seed = int(np.random.SeedSequence([seed, 1, k]).generate_state(1)[0])
            signals[k] = add_awgn(clean, NoiseSpec(n0, item_seed)).values
    return Dataset(env, pulse, grid, seed, locations, signals, snr_db)


DATASET_FORMAT_VERSION = 2
SIGNALS_FILE = "signals.f64"


def save_dataset(ds: Dataset, directory: str | Path) -> Path:
    """Write a dataset directory: manifest.json and SIGNALS_FILE. Round-trips exactly.

    The manifest records the scene, seed, snr_db and each item's [x, z] location; SIGNALS_FILE
    holds the (count, n_samples) signal block as little-endian float64, row by row.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "count": ds.count,
        "seed": ds.seed,
        "snr_db": ds.snr_db,
        "environment": asdict(ds.environment),
        "pulse": asdict(ds.pulse),
        "grid": asdict(ds.grid),
        "locations": ds.locations.tolist(),
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (directory / SIGNALS_FILE).write_bytes(ds.signals.astype("<f8").tobytes())
    return directory


def load_dataset(directory: str | Path) -> Dataset:
    """Load a dataset directory written by save_dataset.

    Raises ValueError, naming the cause, for a manifest of another format version (a version-1
    directory must be written again by gen-data), a bad scene section (scene_from_dict), a
    `seed` or `count` not a whole number, an `snr_db` neither null nor finite, a locations
    list of another length than count or with a row that is not two finite numbers, or a
    signals file of the wrong size.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt dataset manifest in {directory}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"dataset manifest in {directory} is not a JSON object")
    version = manifest.get("format_version")
    if version != DATASET_FORMAT_VERSION:
        raise ValueError(
            f"dataset format version {version} not supported (expected "
            f"{DATASET_FORMAT_VERSION}); write the dataset again with gen-data"
        )
    try:
        env, pulse, grid = (scene_from_dict(key, manifest.get(key))
                            for key in ("environment", "pulse", "grid"))
    except ValueError as exc:
        raise ValueError(f"bad dataset manifest in {directory}: {exc}") from exc
    checked = {}
    for key, check in (("seed", whole_number), ("count", whole_number),
                       ("snr_db", lambda v: v if v is None else finite_float(v))):
        try:
            checked[key] = check(manifest.get(key))
        except ValueError as exc:
            raise ValueError(f"dataset manifest in {directory} has a bad {key}: {exc}") from None
    count, rows = checked["count"], manifest.get("locations")
    if not (isinstance(rows, list) and len(rows) == count):
        raise ValueError(
            f"dataset manifest in {directory} gives count {count} but not that many locations"
        )
    locations = np.empty((count, 2))
    for k, row in enumerate(rows):
        try:
            if not (isinstance(row, list) and len(row) == 2):
                raise ValueError(f"{row!r} is not an [x, z] pair")
            locations[k] = [finite_float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"malformed row {k} of the locations in {directory}: {exc}") from None
    path = directory / SIGNALS_FILE
    size, expected = path.stat().st_size, 8 * count * grid.n_samples
    if size != expected:
        raise ValueError(f"{path} holds {size} bytes, expected {expected} "
                         f"({count} signals of {grid.n_samples} float64 samples)")
    signals = np.fromfile(path, dtype="<f8").reshape(count, grid.n_samples)
    return Dataset(env, pulse, grid, checked["seed"], locations, signals, checked["snr_db"])
