"""Pulse waveforms, sampling grids, signal containers, and additive noise.

Everything downstream (synthesis, training, localization) works on the same
Gaussian-windowed cosine pulse and uniform time grid defined here, so the
defaults below are the single source of truth for the waveform geometry.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_CENTER_FREQ = 750.0  # Hz
DEFAULT_BANDWIDTH = 500.0  # Hz
DEFAULT_CENTER_TIME = 0.05  # s
DEFAULT_SAMPLE_RATE = 4000.0  # Hz
DEFAULT_DURATION = 2.0  # s

# Arrival windows are truncated at this many envelope sigmas on each side;
# exp(-0.5 * 12**2) ~ 5e-32, far below every tolerance used in this project.
WINDOW_SIGMAS = 12.0


def finite_float(value) -> float:
    """`value` as a float; ValueError unless it is a finite real number (bools excluded)."""
    if type(value) is float and math.isfinite(value):  # the common case, without the ABC check
        return value
    try:
        finite = (not isinstance(value, bool) and isinstance(value, numbers.Real)
                  and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def whole_number(value) -> int:
    """`value` as an int; ValueError unless it is a whole number (bools excluded)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def require_finite(owner: str, **values) -> None:
    """Raise ValueError unless every value is a finite real number (bools excluded)."""
    for name, value in values.items():
        _finite_field(owner, name, value)


def keep_floats(obj, owner: str) -> None:
    """Check each field of the frozen dataclass `obj` as require_finite does and keep the float
    finite_float gives, so that 200 and 200.0 make one object."""
    for name in obj.__dataclass_fields__:
        object.__setattr__(obj, name, _finite_field(owner, name, getattr(obj, name)))


def _finite_field(owner: str, name: str, value) -> float:
    try:
        return finite_float(value)
    except ValueError:
        raise ValueError(f"{owner} {name} must be a finite number, got {value!r}") from None


def at_least(name: str, value, cast, low):
    """`cast(value)` (`whole_number` or `finite_float`); ValueError naming `name` unless it is >= low."""
    try:
        out = cast(value)
    except ValueError:
        out = math.nan
    if not out >= low:
        kind = cast.__name__.replace("_", " ")  # "whole number" or "finite float"
        raise ValueError(f"{name} must be a {kind} >= {low}, got {value!r}")
    return out


@dataclass(frozen=True)
class AnalyticPulse:
    """Gaussian-windowed cosine s(t) = A exp(-(t-t_c)^2 / (2 sigma^2)) cos(2 pi f0 (t-t_c)).

    The envelope width is tied to the nominal bandwidth by sigma = 1 / (pi * B).
    """

    center_freq: float
    bandwidth: float
    center_time: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        keep_floats(self, "pulse")
        if self.center_freq < 0.0:
            raise ValueError(f"pulse center_freq must be >= 0, got {self.center_freq}")
        if self.bandwidth <= 0.0:
            raise ValueError(f"pulse bandwidth must be positive, got {self.bandwidth}")

    @property
    def sigma(self) -> float:
        """Envelope standard deviation in seconds."""
        return 1.0 / (math.pi * self.bandwidth)


def make_pulse() -> AnalyticPulse:
    """The default transmit pulse, with unit peak amplitude."""
    return AnalyticPulse(DEFAULT_CENTER_FREQ, DEFAULT_BANDWIDTH, DEFAULT_CENTER_TIME)


def eval_pulse(pulse: AnalyticPulse, t: np.ndarray | float) -> np.ndarray:
    """Evaluate s(t) elementwise."""
    u = np.asarray(t, dtype=np.float64) - pulse.center_time
    envelope = np.exp(-(u * u) / (2.0 * pulse.sigma**2))
    return pulse.amplitude * envelope * np.cos(2.0 * np.pi * pulse.center_freq * u)


def eval_pulse_dt(pulse: AnalyticPulse, t: np.ndarray | float) -> np.ndarray:
    """Evaluate ds/dt elementwise."""
    u = np.asarray(t, dtype=np.float64) - pulse.center_time
    omega = 2.0 * np.pi * pulse.center_freq
    envelope = np.exp(-(u * u) / (2.0 * pulse.sigma**2))
    return pulse.amplitude * envelope * (
        -(u / pulse.sigma**2) * np.cos(omega * u) - omega * np.sin(omega * u)
    )


def gaussian_kernel(sigma: float, dt: float) -> np.ndarray:
    """Sampled unit-sum Gaussian kernel for discrete smoothing at step dt."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    half = int(math.ceil(6.0 * sigma / dt))
    u = np.arange(-half, half + 1, dtype=np.float64) * dt
    w = np.exp(-(u * u) / (2.0 * sigma**2))
    return w / w.sum()


def smooth_rows(signals: np.ndarray, sigma: float, dt: float) -> np.ndarray:
    """Row-wise zero-extended Gaussian smoothing, via FFT for wide kernels."""
    if sigma == 0.0:
        return signals
    kernel = gaussian_kernel(sigma, dt)
    n = signals.shape[1]
    half = (len(kernel) - 1) // 2
    n_fft = 1 << (n + len(kernel) - 1).bit_length()
    spectra = np.fft.rfft(signals, n_fft, axis=1) * np.fft.rfft(kernel, n_fft)
    full = np.fft.irfft(spectra, n_fft, axis=1)
    return full[:, half : half + n]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: n_samples = round(sample_rate * duration), t[0] = 0."""

    sample_rate: float = DEFAULT_SAMPLE_RATE
    duration: float = DEFAULT_DURATION

    def __post_init__(self) -> None:
        keep_floats(self, "grid")
        if self.sample_rate <= 0.0:
            raise ValueError(f"grid sample_rate must be positive, got {self.sample_rate}")
        if self.duration <= 0.0:
            raise ValueError(f"grid duration must be positive, got {self.duration}")
        if self.n_samples < 1:
            raise ValueError("grid must contain at least one sample")

    @cached_property
    def n_samples(self) -> int:
        return int(round(self.sample_rate * self.duration))

    @cached_property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    def windows(self, pulse: AnalyticPulse) -> "WindowLayout":
        """`pulse`'s arrival-window layout on this grid, built on first use and kept."""
        layouts = self.__dict__.setdefault("_windows", {})
        return layouts.get(pulse) or layouts.setdefault(pulse, WindowLayout(pulse, self))

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples, dtype=np.float64) / self.sample_rate


@dataclass
class SampledSignal:
    """A real signal sampled on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n_samples,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_samples} samples)"
            )


@dataclass(frozen=True)
class NoiseSpec:
    """White Gaussian noise of one-sided spectral density n0 (finite, >= 0), seeded
    by `seed` (a whole number >= 0)."""

    n0: float
    seed: int

    def __post_init__(self) -> None:
        at_least("n0", self.n0, finite_float, 0.0)
        object.__setattr__(self, "seed", at_least("seed", self.seed, whole_number, 0))


def energy(sig: SampledSignal) -> float:
    """Riemann-sum signal energy dt * sum(values^2)."""
    return float(sig.grid.dt * np.dot(sig.values, sig.values))


def snr_to_n0(reference: SampledSignal, snr_db: float, bandwidth: float) -> float:
    """Noise density giving the requested SNR = energy / (bandwidth * n0)."""
    if bandwidth <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    return energy(reference) / (bandwidth * 10.0 ** (snr_db / 10.0))


def add_awgn(sig: SampledSignal, noise: NoiseSpec) -> SampledSignal:
    """Add white Gaussian noise with per-sample variance n0 * sample_rate / 2."""
    sd = math.sqrt(noise.n0 * sig.grid.sample_rate / 2.0)
    rng = np.random.default_rng(noise.seed)
    return SampledSignal(sig.grid, sig.values + rng.normal(0.0, sd, sig.values.shape))


class WindowLayout:
    """What every arrival window of a pulse on a grid shares (TimeGrid.windows): w_len =
    2 half + 1 samples, +/- WINDOW_SIGMAS * sigma around the envelope peak, and the
    synthesis buffer's padding of pad samples (one window) on each side of the grid's n."""

    def __init__(self, pulse: AnalyticPulse, grid: TimeGrid):
        self.n, self.fs = grid.n_samples, grid.sample_rate
        self.two_sigma_sq, self.omega = 2.0 * pulse.sigma**2, 2.0 * np.pi * pulse.center_freq
        self.half = int(math.ceil(WINDOW_SIGMAS * pulse.sigma * self.fs))
        self.w_len = self.pad = 2 * self.half + 1
        self.offsets = np.arange(self.w_len, dtype=np.int64)  # a sample's place in its window
        self.rel = self.offsets - self.pad  # its grid index less its window's padded start


def arrival_windows(taus: np.ndarray, pulse: AnalyticPulse, grid: TimeGrid):
    """Where superpose_windows places each arrival, and the pulse samples there.

    taus is (batch, paths). Returns (pad, start, u, window): `start` indexes a
    buffer padded by `pad` samples on each side of the grid, `u` is time
    relative to the envelope center, and `window` holds the unscaled pulse
    samples of each arrival's +/- WINDOW_SIGMAS * sigma window.
    """
    lay = grid.windows(pulse)
    # Integer start of each arrival's window in padded-buffer coordinates.
    centers = np.rint((taus + pulse.center_time) * lay.fs).astype(np.int64)
    start = np.minimum(np.maximum(centers + (lay.pad - lay.half), 0), lay.n + 2 * lay.pad - lay.w_len)
    k = start[:, :, None] + lay.rel  # unpadded sample index
    u = k / lay.fs - taus[:, :, None] - pulse.center_time
    envelope = np.exp(-(u * u) / lay.two_sigma_sq)
    window = pulse.amplitude * envelope * np.cos(lay.omega * u)
    return lay.pad, start, u, window


def superpose_windows(alphas: np.ndarray, taus: np.ndarray, pulse: AnalyticPulse, grid: TimeGrid):
    """Sum of delayed scaled pulse copies out[.., n] = sum_i a[.., i] s(t_n - tau[.., i]) over
    float64 alphas and taus of one shape, unchecked, and its arrival windows: (out, (pad,
    start, u, window)). Each arrival touches only its window, scattered into a padded buffer,
    so the part of an arrival outside [0, duration) is dropped, never wrapped or clipped
    inward. Synthesis and the differentiable front end share its arithmetic bit for bit."""
    a2 = alphas if alphas.ndim == 2 else alphas.reshape(1, -1)
    pad, start, u, window = arrival_windows(taus.reshape(a2.shape), pulse, grid)
    n, w_len = grid.n_samples, window.shape[-1]
    scaled = a2[:, :, None] * window
    # one add per path over all rows (a window repeats no index, so each sample
    # still sums its arrivals in path order); one row takes cheaper slices
    if len(a2) > 1:
        buf = np.zeros((len(a2), n + 2 * pad))
        rows, cols = np.arange(len(a2))[:, None], start.T[:, :, None] + grid.windows(pulse).offsets
        for i, col in enumerate(cols):
            buf[rows, col] += scaled[:, i]
        return buf[:, pad : pad + n], (pad, start, u, window)
    buf = np.zeros(n + 2 * pad)
    for s0, part in zip(start[0].tolist(), scaled[0]):
        buf[s0 : s0 + w_len] += part
    return buf[pad : pad + n] if alphas.ndim == 1 else buf[None, pad : pad + n], (pad, start, u, window)


def correlation_envelope(
    values: np.ndarray,
    pulse: AnalyticPulse,
    sample_rate: float,
):
    """Matched-filter envelope, per-sample arrival times and the raw correlation.

    values is a (rows, samples) block of recordings; the envelope and the
    correlation come back one row per recording. The correlation is computed
    directly, row by row, its envelope by a real-FFT Hilbert transform at the
    correlation's own length, all rows at once. Full correlation index j pairs
    values[n] with template sample m at n = j - (w - 1) + m, so an arrival at
    time tau (values[n] ~ s(n/fs - tau)) peaks at j = tau*fs + (kc - half) +
    (w - 1); the returned times invert that mapping. The correlation's sign at
    an isolated arrival's envelope peak is the arrival's polarity.
    """
    fs = sample_rate
    half = int(math.ceil(WINDOW_SIGMAS * pulse.sigma * fs))
    kc = int(round(pulse.center_time * fs))
    ks = np.arange(kc - half, kc + half + 1)
    template = eval_pulse(pulse, ks / fs)
    corr = np.stack([np.correlate(row, template, mode="full") for row in values])
    w = len(template)
    lag0 = -(w - 1) - (kc - half)
    envelope = analytic_envelope(corr)
    times = (np.arange(corr.shape[-1]) + lag0) / fs
    return envelope, times, corr


def pick_envelope_peaks(
    envelope: np.ndarray, min_sep: int, threshold: float, max_peaks: int
) -> list[int]:
    """Indices of the tallest local maxima above threshold, kept >= min_sep apart."""
    inner = (envelope[1:-1] >= envelope[:-2]) & (envelope[1:-1] >= envelope[2:])
    candidates = np.nonzero(inner)[0] + 1
    candidates = candidates[envelope[candidates] > threshold]
    order = candidates[np.argsort(envelope[candidates])[::-1]]
    kept: list[int] = []
    for idx in order:
        if all(abs(idx - k) >= min_sep for k in kept):
            kept.append(int(idx))
        if len(kept) == max_peaks:
            break
    return sorted(kept)


def refine_envelope_peak(envelope: np.ndarray, idx: int) -> float:
    """Sub-sample peak position by a log-parabolic fit (exact for Gaussians)."""
    if idx < 1 or idx > len(envelope) - 2:
        return float(idx)
    y = envelope[idx - 1 : idx + 2]
    if np.any(y <= 0.0):
        return float(idx)
    ly = np.log(y)
    denom = ly[0] - 2.0 * ly[1] + ly[2]
    if denom >= 0.0:
        return float(idx)
    delta = 0.5 * (ly[0] - ly[2]) / denom
    return float(idx) + float(np.clip(delta, -1.0, 1.0))


def analytic_envelope(values: np.ndarray) -> np.ndarray:
    """Analytic-signal magnitude |values + i H(values)| along the last axis, H by real FFT
    at the rows' own length."""
    n = values.shape[-1]
    spectrum = -1j * np.fft.rfft(values)
    spectrum[..., 0] = 0.0
    if n % 2 == 0:
        spectrum[..., -1] = 0.0
    return np.hypot(values, np.fft.irfft(spectrum, n))
