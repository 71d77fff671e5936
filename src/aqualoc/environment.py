"""Isovelocity waveguide geometry, three-ray synthesis, and dataset generation.

The water column is a constant-sound-speed layer bounded by a pressure-release
surface at z = 0 and a rigid bottom at z = depth. Only the three earliest ray
paths are modeled: the direct path, the single surface bounce, and the single
bottom bounce. Path lengths come from the image-source construction, the
surface bounce flips polarity, and amplitudes follow spherical spreading 1/l.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .signals import (
    AnalyticPulse,
    NoiseSpec,
    SampledSignal,
    TimeGrid,
    WINDOW_SIGMAS,
    add_awgn,
    require_finite,
    snr_to_n0,
    superpose_arrivals,
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
        require_finite(
            "environment", depth=self.depth, sound_speed=self.sound_speed,
            receiver_depth=self.receiver_depth,
        )
        if self.depth <= 0.0:
            raise ValueError(f"depth must be positive, got {self.depth}")
        if self.sound_speed <= 0.0:
            raise ValueError(f"sound_speed must be positive, got {self.sound_speed}")
        if not 0.0 < self.receiver_depth < self.depth:
            raise ValueError(
                f"receiver_depth must lie inside (0, {self.depth}), "
                f"got {self.receiver_depth}"
            )


@dataclass(frozen=True)
class SourceLocation:
    """Source position: horizontal range x > 0 and depth z, both in meters."""

    x: float
    z: float

    def __post_init__(self) -> None:
        require_finite("source", x=self.x, z=self.z)
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
# receiver is image_offsets(env) + IMAGE_SIGNS * z, so IMAGE_SIGNS = d(offset)/dz
IMAGE_SIGNS = np.array([1.0, 1.0, -1.0])


def image_offsets(env: Environment) -> np.ndarray:
    """Constant part (-z_r, z_r, 2 depth - z_r) of each path's image offset."""
    zr = env.receiver_depth
    return np.array([-zr, zr, 2.0 * env.depth - zr])


def path_geometry(env: Environment, x, z) -> tuple[np.ndarray, np.ndarray]:
    """Image-method path lengths and signed image offsets, shape (..., 3).

    Broadcasts over x and z. Returns (lengths, s_dz) with s_dz the offset
    times IMAGE_SIGNS, so d length / d(x, z) = (x, s_dz) / length. Lengths are
    sqrt(x*x + dz*dz), not hypot, so that synthesis stays bit-identical to
    the differentiable model when the analytic lengths are plugged in.
    """
    x = np.asarray(x, dtype=np.float64)[..., np.newaxis]
    dz = image_offsets(env) + IMAGE_SIGNS * np.asarray(z, dtype=np.float64)[..., np.newaxis]
    return np.sqrt(x * x + dz * dz), IMAGE_SIGNS * dz


def reflection_coeff(path: PathSpec) -> float:
    """Cumulative boundary reflection coefficient (-1)^n_surface."""
    return -1.0 if path.n_surface % 2 else 1.0


RHOS = np.array([reflection_coeff(p) for p in THREE_PATHS])


def arrival_params(env: Environment, src: SourceLocation):
    """Amplitudes rho_i / l_i and delays l_i / c for the three paths."""
    lengths, _ = path_geometry(env, src.x, src.z)
    return RHOS / lengths, lengths / env.sound_speed


def synthesize_received(
    env: Environment,
    src: SourceLocation,
    pulse: AnalyticPulse,
    grid: TimeGrid,
    noise: NoiseSpec | None = None,
) -> SampledSignal:
    """Simulate the received signal r(t) = sum_i (rho_i / l_i) s(t - l_i / c) + noise.

    Parameters
    ----------
    env, src, pulse, grid
        Waveguide, true source position, transmit pulse, and sampling grid.
    noise : NoiseSpec, optional
        When given, white Gaussian noise of density n0 is added.

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
    latest = float(np.max(taus)) + support
    if latest > grid.duration:
        raise ObservationWindowError(
            f"latest arrival support ends at {latest:.6f} s, past the "
            f"{grid.duration:.6f} s observation window"
        )
    values = superpose_arrivals(alphas, taus, pulse, grid)
    clean = SampledSignal(grid, values)
    if noise is None:
        return clean
    return add_awgn(clean, noise)


@dataclass(frozen=True)
class Region:
    """Axis-aligned source search/training region in the (x, z) plane."""

    x_min: float
    x_max: float
    z_min: float
    z_max: float

    def __post_init__(self) -> None:
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
        None (default) produces noiseless signals. Otherwise each signal gets
        white noise at this SNR relative to its own clean energy, with the
        per-item noise seed derived from (seed, item index).

    Returns
    -------
    Dataset
    """
    locations = stratified_locations(region, count, seed)
    signals = np.empty((count, grid.n_samples))
    for k in range(count):
        src = SourceLocation(*locations[k])
        clean = synthesize_received(env, src, pulse, grid)
        if snr_db is None:
            signals[k] = clean.values
        else:
            n0 = snr_to_n0(clean, snr_db, pulse.bandwidth)
            item_seed = int(np.random.SeedSequence([seed, 1, k]).generate_state(1)[0])
            signals[k] = add_awgn(clean, NoiseSpec(n0, item_seed)).values
    return Dataset(env, pulse, grid, seed, locations, signals, snr_db)


DATASET_FORMAT_VERSION = 1


def save_dataset(ds: Dataset, directory: str | Path) -> Path:
    """Write a dataset directory: JSON manifest, locations CSV, raw signals.

    Each signal is one little-endian float64 binary file; the manifest records
    environment, waveform, grid, seed, and the file list. Round-trips exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = [f"sig_{k:05d}.f64" for k in range(ds.count)]
    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "count": ds.count,
        "seed": ds.seed,
        "snr_db": ds.snr_db,
        "environment": asdict(ds.environment),
        "pulse": asdict(ds.pulse),
        "grid": asdict(ds.grid),
        "signal_files": files,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    with open(directory / "locations.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x_s", "z_s"])
        for k, (x, z) in enumerate(ds.locations):
            writer.writerow([k, repr(float(x)), repr(float(z))])
    for k, name in enumerate(files):
        (directory / name).write_bytes(ds.signals[k].astype("<f8").tobytes())
    return directory


def load_dataset(directory: str | Path) -> Dataset:
    """Load a dataset directory written by save_dataset.

    Raises ValueError, naming the cause, for a malformed manifest, a count
    that differs from the number of signal files, a malformed or non-finite
    location row, a locations table without exactly the indices 0..count-1
    once each, or a signal file of the wrong length.
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
            f"dataset format version {version} not supported "
            f"(expected {DATASET_FORMAT_VERSION})"
        )
    try:
        env = Environment(**manifest["environment"])
        pulse = AnalyticPulse(**manifest["pulse"])
        grid = TimeGrid(**manifest["grid"])
        files = manifest["signal_files"]
        seed = manifest["seed"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad dataset manifest in {directory}: {exc!r}") from exc
    if not (isinstance(files, list) and all(isinstance(f, str) for f in files)
            and manifest.get("count") == len(files)):
        raise ValueError(
            f"dataset manifest in {directory} gives count {manifest.get('count')!r} "
            f"but does not list that many signal file names"
        )
    count = len(files)
    table = directory / "locations.csv"
    with open(table, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["index", "x_s", "z_s"]:
            raise ValueError(f"unexpected locations header {header}")
        try:
            rows = [(int(k), float(x), float(z)) for k, x, z in reader]
        except ValueError as exc:
            raise ValueError(f"malformed row in {table}: {exc}") from exc
    if not all(math.isfinite(x) and math.isfinite(z) for _, x, z in rows):
        raise ValueError(f"non-finite location in {table}")
    if sorted(k for k, _, _ in rows) != list(range(count)):
        raise ValueError(f"{table} must list the indices 0..{count - 1} once each")
    locations = np.empty((count, 2))
    for k, x, z in rows:
        locations[k] = (x, z)
    signals = np.empty((count, grid.n_samples))
    for k, name in enumerate(files):
        raw = (directory / name).read_bytes()
        vals = np.frombuffer(raw, dtype="<f8")
        if len(vals) != grid.n_samples:
            raise ValueError(
                f"signal file {name} holds {len(vals)} samples, "
                f"expected {grid.n_samples}"
            )
        signals[k] = vals
    return Dataset(env, pulse, grid, seed, locations, signals, manifest.get("snr_db"))
