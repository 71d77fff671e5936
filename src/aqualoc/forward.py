"""Differentiable forward model, end-to-end pretraining, and checkpoints.

The model maps a candidate source position p = (x, z) through per-path lengths
(network-predicted or analytic), the amplitude/delay laws alpha = rho / l and
tau = l / c, and the pulse superposition, producing a full received waveform.
Training fits the network weights so the synthesized waveform matches recorded
signals; the loss never sees per-path labels, only whole waveforms.
"""

from __future__ import annotations

import base64
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff
from .autodiff import value_and_grad
from .environment import (
    RHOS, THREE_PATHS, Dataset, Environment, SourceLocation, path_geometry,
)
from .localize import detect_arrivals
from .pln import (
    InputNormalization,
    PlnArchitecture,
    PlnParams,
    length_forward,
    length_position_jacobian,
    length_vjp,
    path_features,
    pln_error_grid,
    pln_init,
)
from .signals import (
    AnalyticPulse,
    SampledSignal,
    TimeGrid,
    arrival_windows,
    correlation_envelope,  # not called here; kept as a global the bench tracer patches
    lowpassed_pulse,
    require_finite,
    smooth_rows,
)

# One unit of the adaptable sound-speed coordinate equals this many m/s, which
# keeps that coordinate commensurate with the O(1) network weights.
SOUND_SPEED_SCALE = 100.0

PLN_ERROR_TARGET = 0.005  # worst in-region relative path-length error


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, or wrong-version checkpoints."""


class GridMismatchError(ValueError):
    """Raised when a signal's grid does not match the model's expectation."""


@dataclass
class ModelParams:
    """Everything the forward model needs: network, medium, waveform."""

    pln: PlnParams
    sound_speed: float
    receiver_depth: float
    pulse: AnalyticPulse
    adapt_sound_speed: bool = False

    def __post_init__(self) -> None:
        require_finite("model", sound_speed=self.sound_speed, receiver_depth=self.receiver_depth)
        if self.sound_speed <= 0.0:
            raise ValueError(f"sound_speed must be positive, got {self.sound_speed}")
        if self.receiver_depth <= 0.0:
            raise ValueError(f"receiver_depth must be positive, got {self.receiver_depth}")


def alpha_tau(lengths, rhos, sound_speed):
    """Amplitude rho / l and delay l / c for path lengths."""
    return rhos / lengths, lengths / sound_speed


def alpha_tau_vjp(lengths, rhos, sound_speed, g_alpha, g_tau):
    """Cotangents of (alpha, tau) pulled back to the lengths and the sound speed."""
    g_lengths = -g_alpha * rhos / lengths**2 + g_tau / sound_speed
    return g_lengths, float(np.sum(-g_tau * lengths / sound_speed**2))


class NetworkModel:
    """Adapter exposing the trained network as a differentiable signal model.

    The adaptable weight vector is the flat network weights, plus one trailing
    sound-speed coordinate (c / SOUND_SPEED_SCALE) when adapt_sound_speed is on.
    signal_t(w, x, z, grid) returns the model signal and its vjp, which maps
    a signal cotangent to (weights, x, z) cotangents; w = None means w_train.
    """

    def __init__(self, model: ModelParams):
        self.model = model
        if model.adapt_sound_speed:
            self.w_train = np.append(model.pln.values, model.sound_speed / SOUND_SPEED_SCALE)
        else:
            self.w_train = model.pln.values.copy()

    @property
    def n_weights(self) -> int:
        return self.w_train.size

    @property
    def pulse(self) -> AnalyticPulse:
        return self.model.pulse

    def with_pulse(self, pulse: AnalyticPulse) -> "NetworkModel":
        """Same network and medium, different source waveform."""
        return NetworkModel(replace(self.model, pulse=pulse))

    def signal_t(self, w: np.ndarray | None, x, z, grid: TimeGrid):
        pln = self.model.pln
        w = self.w_train if w is None else w
        w_pln = w[: pln.n_weights]
        feats = path_features(x, z, self.model.receiver_depth, pln.norm)
        lengths, backward = length_forward(pln, w_pln, feats)
        adapt_c = self.model.adapt_sound_speed
        c = w[pln.n_weights] * SOUND_SPEED_SCALE if adapt_c else self.model.sound_speed
        alphas, taus = alpha_tau(lengths, RHOS, c)
        f, superpose_vjp = autodiff.superpose(alphas, taus, self.model.pulse, grid)

        def vjp(g_f: np.ndarray):
            g_l, g_c = alpha_tau_vjp(lengths, RHOS, c, *superpose_vjp(g_f))
            inputs, deltas = backward()
            g_w = length_vjp(pln.layout, inputs, deltas, g_l)
            if adapt_c:
                g_w = np.append(g_w, g_c * SOUND_SPEED_SCALE)
            g_x, g_z = g_l @ length_position_jacobian(pln, w_pln, deltas)
            return g_w, g_x, g_z

        return f, vjp


class MatchedModel:
    """Analytic image-method lengths in a known environment; no weights.

    Plugging this in place of the network reproduces the synthesis oracle
    bit-for-bit (identical floating-point operations throughout). signal_t
    has NetworkModel's signature; its vjp gives an empty weight cotangent.
    """

    def __init__(self, env: Environment, pulse: AnalyticPulse):
        self.env = env
        self.pulse = pulse
        self.w_train = np.empty(0)

    @property
    def n_weights(self) -> int:
        return 0

    def with_pulse(self, pulse: AnalyticPulse) -> "MatchedModel":
        """Same environment, different source waveform."""
        return MatchedModel(self.env, pulse)

    def signal_t(self, w, x, z, grid: TimeGrid):
        c = self.env.sound_speed
        lengths, s_dz = path_geometry(self.env, x, z)
        alphas, taus = alpha_tau(lengths, RHOS, c)
        f, superpose_vjp = autodiff.superpose(alphas, taus, self.pulse, grid)

        def vjp(g_f: np.ndarray):
            g_l, _ = alpha_tau_vjp(lengths, RHOS, c, *superpose_vjp(g_f))
            return self.w_train, g_l @ (x / lengths), g_l @ (s_dz / lengths)

        return f, vjp


def model_output(model: ModelParams, src: SourceLocation, grid: TimeGrid) -> SampledSignal:
    """Noiseless model waveform at a source hypothesis."""
    values, _ = NetworkModel(model).signal_t(None, src.x, src.z, grid)
    return SampledSignal(grid, values)


def make_train_loss_fn(
    model: ModelParams,
    dataset: Dataset,
    indices: np.ndarray | None = None,
    pulse: AnalyticPulse | None = None,
    signals: np.ndarray | None = None,
):
    """Build w -> (mean integrated squared residual over the chosen items, gradient).

    `pulse` and `signals` exist so the pretraining schedule can substitute the
    lowpassed pulse and correspondingly smoothed recordings; by default the
    exact dataset and transmit pulse are used.
    """
    if dataset.grid.n_samples != (signals.shape[1] if signals is not None
                                  else dataset.signals.shape[1]):
        raise GridMismatchError("signals do not match the dataset grid")
    pulse = pulse if pulse is not None else dataset.pulse
    signals = signals if signals is not None else dataset.signals
    idx = np.arange(dataset.count) if indices is None else np.asarray(indices)
    batch = len(idx)
    if batch == 0:
        raise ValueError("empty batch")
    feats = path_features(
        dataset.locations[idx, 0], dataset.locations[idx, 1],
        model.receiver_depth, model.pln.norm,
    ).reshape(batch * len(THREE_PATHS), -1)
    r = signals[idx]
    grid = dataset.grid
    scale = grid.dt / batch
    c = model.sound_speed

    def loss_fn(w: np.ndarray):
        flat, backward = length_forward(model.pln, w, feats)
        lengths = flat.reshape(batch, len(THREE_PATHS))
        alphas, taus = alpha_tau(lengths, RHOS, c)
        f, superpose_vjp = autodiff.superpose(alphas, taus, pulse, grid)
        resid = r - f
        del f  # a whole-dataset batch holds 16 MB here; free it before resid * resid

        def grad() -> np.ndarray:
            g_l, _ = alpha_tau_vjp(lengths, RHOS, c, *superpose_vjp(-2.0 * scale * resid))
            return length_vjp(model.pln.layout, *backward(), g_l.ravel())

        return (resid * resid).sum() * scale, grad

    return loss_fn


def _peak_length_targets(dataset: Dataset) -> np.ndarray:
    """Per-item path-length targets from matched-filter peaks, NaN where unsettled.

    Up to three arrivals of each recording come from detect_arrivals, the
    detector the localizer's initializer uses, and their times scale to path
    lengths by the sound speed. The earliest arrival is always the direct
    path. The later two swap order across z = depth - z_r, but the surface
    bounce flips polarity (rho = -1), so of the two later peaks the one whose
    correlation is negative is the surface arrival. Entries one waveform does
    not settle are NaN: surface and bottom when both later peaks share a sign;
    the surface when only two peaks survive (it merges with the direct
    arrival for shallow sources and with the bottom one near z = depth - z_r,
    and the merged peak stands in for its other member); all but the direct
    when one peak survives; all three when none clears the floor. Returns
    (count, 3) in the direct/surface/bottom column order the network predicts.
    """
    fs = dataset.grid.sample_rate
    c = dataset.environment.sound_speed
    targets = np.full((dataset.count, len(THREE_PATHS)), np.nan)
    for k in range(dataset.count):
        # one carrier-free cycle of separation: training recordings are
        # noiseless, so peaks may be split more aggressively than on field
        # data, which keeps the merged bands (where the stand-in targets are
        # biased) narrow; the relative floor rejects spectral-leakage local
        # maxima that clear a pure median threshold on noiseless recordings
        times, polarity = detect_arrivals(dataset.signals[k], dataset.pulse, fs, 1.0, 1e-3)
        lens = c * times
        targets[k, :1] = lens[:1]
        if len(lens) == 3 and polarity[1] != polarity[2]:
            surface = 1 if polarity[1] < 0.0 else 2
            targets[k, 1] = lens[surface]
            targets[k, 2] = lens[3 - surface]
        elif len(lens) == 2:
            targets[k, 2] = lens[1]
    return targets


def _make_peaks_loss_fn(
    model: ModelParams,
    dataset: Dataset,
    indices: np.ndarray,
    targets: np.ndarray,
):
    """Build w -> (mean squared length error against the settled peak targets, gradient).

    A plain smooth regression with unlimited capture range: it never compares
    waveforms, so it pulls arbitrarily misplaced predictions straight to the
    observed arrival structure. NaN targets (see _peak_length_targets) drop
    out of the sum; the mean still divides by every predicted length.
    """
    idx = np.asarray(indices)
    batch = len(idx)
    feats = path_features(
        dataset.locations[idx, 0], dataset.locations[idx, 1],
        model.receiver_depth, model.pln.norm,
    ).reshape(batch * len(THREE_PATHS), -1)
    settled = np.isfinite(targets[idx])
    t = np.where(settled, targets[idx], 0.0)
    weight = settled.astype(float)
    scale = 1.0 / (batch * len(THREE_PATHS))

    def loss_fn(w: np.ndarray):
        lengths, backward = length_forward(model.pln, w, feats)
        r = (lengths.reshape(batch, len(THREE_PATHS)) - t) * weight

        def grad() -> np.ndarray:
            return length_vjp(model.pln.layout, *backward(), (2.0 * scale * r * weight).ravel())

        return (r * r).sum() * scale, grad

    return loss_fn


def train_loss(model: ModelParams, dataset: Dataset) -> float:
    """Mean integrated squared residual of the model over a whole dataset."""
    return float(make_train_loss_fn(model, dataset)(model.pln.values)[0])


def _length_gram(inputs: list[np.ndarray], deltas: list[np.ndarray]) -> np.ndarray:
    """J J^T of the lengths' weight Jacobian J, without forming J.

    By pln.length_forward, rows r and s of J meet in layer i's weights
    as (a_r . a_s) (delta_r . delta_s) and in its bias as delta_r . delta_s,
    so J J^T = sum over layers of (A A^T + 1) * (D D^T), elementwise. The
    bias enters as one more constant input; a one-column D (the output
    layer) makes D D^T rank one, which just scales the rows of A.
    """
    rows = len(inputs[0])
    blocks = []
    for a, d in zip(inputs, deltas):
        a = np.hstack([a, np.ones((rows, 1))])
        blocks.append((a * d, None) if d.shape[1] == 1 else (a, d))
    out = np.empty((rows, rows))
    # a band of rows at a time keeps the elementwise work in cache
    for lo in range(0, rows, 128):
        band = slice(lo, lo + 128)
        acc = 0.0
        for a, d in blocks:
            g = a[band] @ a.T
            if d is not None:
                g *= d[band] @ d.T
            acc = acc + g
        out[band] = acc
    return out


def _on_windows(x: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Each item's window samples x[k, j] read on the samples of its window i.

    x is (count, paths, w_len) with window j starting at start[k, j]; entry
    [k, i, j, m] is x[k, j] at window i's sample m, zero where the windows do
    not overlap (the zero padding absorbs offsets of a whole window or more).
    """
    count, n_paths, w_len = x.shape
    padded = np.zeros((count, n_paths, 3 * w_len))
    padded[:, :, w_len : 2 * w_len] = x
    offset = start[:, None, :] - start[:, :, None]  # window j's lag after window i
    shifted = np.clip(np.arange(w_len) - offset[..., None] + w_len, 0, 3 * w_len - 1)
    items = np.arange(count)[:, None, None, None]
    return padded[items, np.arange(n_paths)[:, None], shifted]


class _ExactFit:
    """Levenberg-Marquardt on the exact waveform loss, through the lengths.

    Item k's residual e_k = r_k - f_k depends on the weights only through
    its 3 predicted lengths, so Gauss-Newton needs only the waveform's
    length Jacobian G_k = df_k / dl (nonzero only on the 3 arrival windows,
    63 samples each at the default pulse and grid) and the network's length
    Jacobian J. With the 3x3 metric H_k = G_k^T G_k = R_k^T R_k, the
    linearized misfit is ||e_k||^2 - ||b_k||^2 + ||b_k - R_k J_k dw||^2 with
    b_k = R_k^{-T} G_k^T e_k: 3 weighted residuals per item in place of the
    recording's samples (Schraudolph 2002). The Levenberg-Marquardt step
    (Levenberg 1944; Marquardt 1963) dw = M^T (M M^T + mu I)^{-1} b, with
    M = R J, is solved multiplied through by R^{-1}: dw = J^T z with
    (J J^T + mu H^{-1}) z = H^{-1} G^T e. That is 3 * count rows whatever
    the network's size, J J^T comes from _length_gram, and R is never formed.
    """

    # damping mu = lam * mean diagonal of M M^T; above LAM_MAX a step is a
    # vanishing gradient step, and _lm_stage stops when one fails there
    LAM_INIT = 1e-3
    LAM_MAX = 1e8

    def __init__(self, model: ModelParams, dataset: Dataset):
        self.model = model
        self.pulse = dataset.pulse
        self.grid = dataset.grid
        self.signals = dataset.signals
        self.energy = np.einsum("ij,ij->", self.signals, self.signals)
        self.count = dataset.count
        self.feats = path_features(
            dataset.locations[:, 0], dataset.locations[:, 1],
            model.receiver_depth, model.pln.norm,
        ).reshape(self.count * len(THREE_PATHS), -1)
        self.scale = self.grid.dt / self.count

    def evaluate(self, w: np.ndarray) -> dict:
        """The exact training loss (make_train_loss_fn over every item) at w.

        Returns it as point["loss"], inf if a length is not finite, with what
        linearize needs. Only the arrival windows are touched: with f_i the
        samples of the whole model signal on arrival i's window,
        ||r - f||^2 = ||r||^2 - sum_i alpha_i <s_i, r_i + (r_i - f_i)>, where
        s_i is the arrival's pulse window.
        """
        n_paths = len(THREE_PATHS)
        n = self.grid.n_samples
        lengths, backward = length_forward(self.model.pln, w, self.feats)
        point = {"w": w, "loss": math.inf, "backward": backward}
        if not np.all(np.isfinite(lengths)):
            return point
        lengths = lengths.reshape(self.count, n_paths)
        alphas, taus = alpha_tau(lengths, RHOS, self.model.sound_speed)
        pad, start, u, window = arrival_windows(taus, self.pulse, self.grid)
        # window samples off the recording are dropped, as superpose does
        w_len = window.shape[-1]
        at = start[:, :, None] + np.arange(w_len) - pad
        inside = (at >= 0) & (at < n)
        window = window * inside
        items = np.arange(self.count)[:, None, None]
        r_win = self.signals[items, np.clip(at, 0, n - 1)] * inside
        e_win = r_win - np.einsum("kj,kijm->kim", alphas, _on_windows(window, start))
        loss = self.energy - np.einsum("ki,kim,kim->", alphas, window, r_win + e_win)
        point.update(
            loss=float(loss) * self.scale, lengths=lengths, alphas=alphas, u=u,
            start=start, window=window, inside=inside, e_win=e_win,
        )
        return point

    def linearize(self, point: dict) -> dict:
        """Add J's factors, J J^T, H^{-1}, H^{-1} G^T e and the damping scale to a point.

        The factors come from the point's backward pass, which evaluate
        leaves to here so that a rejected trial step never runs it.
        """
        n_paths = len(THREE_PATHS)
        lengths, alphas = point["lengths"], point["alphas"]
        # G on the arrival windows: d(alpha s(t - tau)) / dl
        dwindow = autodiff.window_dt(self.pulse, point["u"])
        g_win = -(alphas / lengths)[:, :, None] * point["window"]
        g_win -= (alphas / self.model.sound_speed)[:, :, None] * dwindow
        g_win *= point["inside"]
        gte = np.einsum("kim,kim->ki", g_win, point["e_win"])
        gtg = np.einsum("kim,kijm->kij", g_win, _on_windows(g_win, point["start"]))
        # merged arrivals make G^T G near singular; the relative jitter keeps
        # it invertible without moving the well-posed directions
        gtg += 1e-12 * np.trace(gtg, axis1=1, axis2=2)[:, None, None] * np.eye(n_paths)
        h_inv = np.linalg.inv(gtg)
        inputs, deltas = point["backward"]()
        kk = _length_gram(inputs, deltas)
        # mean diagonal of M M^T: tr(R_k K_kk R_k^T) = tr(H_k K_kk)
        items = np.arange(self.count)
        diag_blocks = kk.reshape(self.count, n_paths, self.count, n_paths)[items, :, items, :]
        mean_diag = np.einsum("kij,kji->", gtg, diag_blocks) / len(kk)
        return {**point, "inputs": inputs, "deltas": deltas, "kk": kk, "h_inv": h_inv,
                "gte": gte, "rhs": np.einsum("kij,kj->ki", h_inv, gte), "mean_diag": mean_diag}

    def step(self, lin: dict, lam: float) -> tuple[np.ndarray, float]:
        """Damped step at relative damping lam, and the loss drop it predicts."""
        n_paths = len(THREE_PATHS)
        mu = lam * lin["mean_diag"]
        damped = lin["kk"].copy()
        items = np.arange(self.count)
        damped.reshape(self.count, n_paths, self.count, n_paths)[items, :, items, :] += (
            mu * lin["h_inv"]
        )
        z = np.linalg.solve(damped, lin["rhs"].ravel())
        dw = length_vjp(self.model.pln.layout, lin["inputs"], lin["deltas"], z)
        # ||b||^2 = e^T G H^{-1} G^T e and b - M dw = mu R^{-T} z
        z = z.reshape(self.count, n_paths)
        predicted = float(np.einsum("ki,ki->", lin["gte"], lin["rhs"]))
        predicted -= mu * mu * float(np.einsum("ki,kij,kj->", z, lin["h_inv"], z))
        return dw, predicted * self.scale


def _lm_stage(fit: _ExactFit, w: np.ndarray, n_iter: int) -> tuple[np.ndarray, list[float]]:
    """Up to n_iter Levenberg-Marquardt trial steps; the loss after each.

    Damping follows the gain ratio of actual to predicted loss drop
    (Nielsen 1999). The stage ends early once a step is rejected with the
    damping above its ceiling, where not even a vanishing gradient step
    lowers the loss.
    """
    lin = fit.linearize(fit.evaluate(w))
    lam, nu = fit.LAM_INIT, 2.0
    losses: list[float] = []
    for _ in range(n_iter):
        dw, predicted = fit.step(lin, lam)
        trial = fit.evaluate(lin["w"] + dw)
        gain = (lin["loss"] - trial["loss"]) / predicted if predicted > 0.0 else -1.0
        if gain > 0.0:
            lin = fit.linearize(trial)
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            lam *= nu
            nu *= 2.0
        losses.append(lin["loss"])
        if lam > fit.LAM_MAX:
            break
    return lin["w"], losses


# Coarse-to-fine pretraining schedule: (stage kind, smoothing kernel sigma in
# seconds, fraction of the epoch budget, learning-rate scale). Random init
# puts predicted arrivals up to ~0.2 s from the recorded ones, far outside the
# correlation basin of any waveform misfit (smoothing the bandpass waveform
# cannot widen it: a kernel wide enough to matter just annihilates the
# carrier), so the schedule works in three regimes:
#   peaks - regress predicted lengths onto matched-filter peak times of each
#     recording, waveform statistics with global capture range. The direct
#     arrival comes first, and the sign of the correlation tells the surface
#     bounce (rho = -1) from the bottom one, so the targets come in path
#     order; the entries a recording leaves unsettled (merged arrivals) drop
#     out of the loss.
#   lowpass - fit the Gaussian-smoothed waveform quadratically: smoothing
#     pulls the effective carrier down to f0 sigma_p^2 / (sigma_p^2 + k^2),
#     widening the cycle basin so the phase locks onto the right carrier
#     cycle and the reflection signs calibrate.
#   exact - the true training loss, minimized by Levenberg-Marquardt over the
#     whole dataset (one trial step per epoch, see _ExactFit) rather than by
#     Adam: once every arrival sits in its basin, minibatch Adam stalls with
#     lengths about 0.1 m off, 20 times what a 2% waveform error allows.
# The Adam stages run at scaled-down rates: the lowpass basins span about
# +/- one effective carrier cycle, and Adam steps at the peaks-stage rate
# move predictions by meters, which would throw every item off its basin.
# The exact stage takes no rate; its damping adapts to each step's outcome.
STAGE_PEAKS = "peaks"
STAGE_LOWPASS = "lowpass"
STAGE_EXACT = "exact"

DEFAULT_SMOOTHING: tuple[tuple[str, float, float, float], ...] = (
    (STAGE_PEAKS, 0.0, 0.625, 1.0),
    (STAGE_LOWPASS, 2e-3, 0.0625, 0.2),
    (STAGE_LOWPASS, 1e-3, 0.09375, 0.1),
    (STAGE_EXACT, 0.0, 0.21875, 0.03),
)


@dataclass(frozen=True)
class TrainConfig:
    """Pretraining settings.

    lr is the peaks-stage Adam rate; each schedule entry scales it for the
    peaks and lowpass stages. Within such a stage the rate holds for the
    first half of the epochs, then follows a cosine decay to 1% so the
    minibatch noise floor drops as the stage settles. The exact stage runs
    full-batch Levenberg-Marquardt, one trial step per epoch, so it uses
    neither its rate scale nor batch_size; lr = 0 still freezes it along
    with every other stage.
    """

    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 12800
    seed: int = 0
    smoothing: tuple[tuple[str, float, float, float], ...] = DEFAULT_SMOOTHING

    def __post_init__(self) -> None:
        if self.lr < 0.0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        kinds = {STAGE_PEAKS, STAGE_LOWPASS, STAGE_EXACT}
        for kind, sigma, _frac, lr_scale in self.smoothing:
            if kind not in kinds:
                raise ValueError(f"unknown stage kind {kind!r}")
            if kind in (STAGE_PEAKS, STAGE_EXACT) and sigma != 0.0:
                raise ValueError(f"{kind} stages must use sigma 0")
            if kind == STAGE_LOWPASS and sigma <= 0.0:
                raise ValueError(f"{kind} stages need sigma > 0, got {sigma}")
            if lr_scale <= 0.0:
                raise ValueError(f"lr_scale must be positive, got {lr_scale}")
        if abs(sum(f for _, _, f, _ in self.smoothing) - 1.0) > 1e-9:
            raise ValueError("smoothing stage fractions must sum to 1")
        if self.smoothing[-1][0] != STAGE_EXACT:
            raise ValueError("the last smoothing stage must be exact")

    def stage_epochs(self) -> list[tuple[str, float, int, float]]:
        out = []
        used = 0
        for i, (kind, sigma, frac, lr_scale) in enumerate(self.smoothing):
            if i == len(self.smoothing) - 1:
                n = self.epochs - used
            else:
                n = int(round(frac * self.epochs))
            out.append((kind, sigma, n, lr_scale))
            used += n
        return out


@dataclass
class Checkpoint:
    """A trained model plus provenance metadata."""

    model: ModelParams
    metadata: dict = field(default_factory=dict)


def _stage_pulse(pulse: AnalyticPulse, kind: str, sigma: float) -> AnalyticPulse:
    """The model-side pulse whose superposition matches the stage's targets."""
    if kind == STAGE_LOWPASS:
        return lowpassed_pulse(pulse, sigma)
    return pulse


def _stage_signals(signals: np.ndarray, kind: str, sigma: float, dt: float) -> np.ndarray:
    """The data-side targets transformed to match _stage_pulse's domain."""
    if kind == STAGE_LOWPASS:
        return smooth_rows(signals, sigma, dt)
    return signals


def _stage_lr(epoch: int, n_epochs: int, lr0: float) -> float:
    """Hold lr0 for the first half of a stage, then cosine-decay to 1%."""
    half = n_epochs // 2
    if epoch < half or n_epochs <= 1:
        return lr0
    ramp = 0.5 * (1.0 + math.cos(math.pi * (epoch - half) / (n_epochs - half)))
    return lr0 * (0.01 + 0.99 * ramp)


def _adam_stage(
    model: ModelParams,
    dataset: Dataset,
    w: np.ndarray,
    kind: str,
    sigma: float,
    n_epochs: int,
    lr0: float,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[float]]:
    """Minibatch Adam over a peaks or lowpass stage; the mean loss of each epoch.

    Moments start from zero; the rate follows _stage_lr from lr0.
    """
    if kind == STAGE_PEAKS:
        targets = _peak_length_targets(dataset)
    else:
        stage_pulse = _stage_pulse(dataset.pulse, kind, sigma)
        stage_signals = _stage_signals(dataset.signals, kind, sigma, dataset.grid.dt)
    w = w.copy()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    step = 0
    curve = []
    for stage_epoch in range(n_epochs):
        lr = _stage_lr(stage_epoch, n_epochs, lr0)
        perm = rng.permutation(dataset.count)
        losses = []
        for lo in range(0, dataset.count, batch_size):
            idx = perm[lo : lo + batch_size]
            if kind == STAGE_PEAKS:
                loss_fn = _make_peaks_loss_fn(model, dataset, idx, targets)
            else:
                loss_fn = make_train_loss_fn(
                    model, dataset, indices=idx, pulse=stage_pulse, signals=stage_signals,
                )
            loss, g = value_and_grad(loss_fn, w)
            losses.append(loss)
            step += 1
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g * g
            mhat = m / (1.0 - beta1**step)
            vhat = v / (1.0 - beta2**step)
            w -= lr * mhat / (np.sqrt(vhat) + eps)
        curve.append(float(np.mean(losses)))
    return w, curve


def pretrain(
    dataset: Dataset,
    arch: PlnArchitecture,
    cfg: TrainConfig,
    region=None,
) -> Checkpoint:
    """Fit the network end to end on recorded waveforms.

    Follows the coarse-to-fine schedule in cfg.smoothing: minibatch Adam for
    the peaks and lowpass stages (moments reset at stage boundaries, each
    stage at its own scaled, hold-then-decay learning rate), then
    Levenberg-Marquardt on the exact loss, which stops before its epoch
    budget once no step lowers the loss. Logs one loss value per epoch run
    (the minibatch mean for Adam, the whole-dataset loss for the exact
    stage) plus the in-region path-length error at each stage end, and
    warns if the trained network misses the in-region accuracy target.
    """
    from .environment import DEFAULT_REGION

    region = region if region is not None else DEFAULT_REGION
    norm = InputNormalization.from_region(region, dataset.environment)
    params = pln_init(arch, norm, cfg.seed)
    model = ModelParams(
        pln=params,
        sound_speed=dataset.environment.sound_speed,
        receiver_depth=dataset.environment.receiver_depth,
        pulse=dataset.pulse,
    )
    initial_loss = train_loss(model, dataset)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    w = params.values.copy()
    curve: list[tuple[int, str, float, float]] = []  # epoch, kind, sigma, loss
    stage_errors: list[tuple[str, float, float]] = []  # kind, sigma, grid error
    epoch = 0
    for kind, sigma, n_epochs, lr_scale in cfg.stage_epochs():
        if n_epochs <= 0:
            continue
        if kind == STAGE_EXACT:
            # a zero rate freezes every stage, this one included
            n_iter = n_epochs if cfg.lr > 0.0 else 0
            w, losses = _lm_stage(_ExactFit(model, dataset), w, n_iter)
        else:
            w, losses = _adam_stage(
                model, dataset, w, kind, sigma, n_epochs, cfg.lr * lr_scale,
                cfg.batch_size, rng,
            )
        for loss in losses:
            curve.append((epoch, kind, sigma, loss))
            epoch += 1
        stage_params = PlnParams(arch, norm, w.copy())
        stage_errors.append(
            (kind, sigma, pln_error_grid(stage_params, dataset.environment, region))
        )
        model = replace(model, pln=stage_params)
    trained = replace(
        model, pln=PlnParams(arch, norm, w.copy())
    )
    final_loss = train_loss(trained, dataset)
    err = pln_error_grid(trained.pln, dataset.environment, region)
    if err > PLN_ERROR_TARGET:
        warnings.warn(
            f"trained network path-length error {err:.4%} misses the "
            f"{PLN_ERROR_TARGET:.1%} in-region target",
            stacklevel=2,
        )
    metadata = {
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "lr": cfg.lr,
        "batch_size": cfg.batch_size,
        "smoothing": [list(s) for s in cfg.smoothing],
        "dataset_count": dataset.count,
        "dataset_seed": dataset.seed,
        "initial_loss": initial_loss,
        "final_loss": final_loss,
        "pln_error": err,
        "pln_error_target": PLN_ERROR_TARGET,
        "region": [region.x_min, region.x_max, region.z_min, region.z_max],
        "loss_curve": [[e, k, s, l] for e, k, s, l in curve],
        "stage_errors": [[k, s, e] for k, s, e in stage_errors],
    }
    return Checkpoint(trained, metadata)


CHECKPOINT_FORMAT_VERSION = 1


def _encode(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode()


def _decode(entry: dict, shape: tuple[int, ...]) -> np.ndarray:
    """One saved weight segment, whose recorded shape must be `shape`."""
    if tuple(entry["shape"]) != shape:
        raise CheckpointError(f"weight shape {entry['shape']} does not match {shape}")
    raw = base64.b64decode(entry["data"], validate=True)
    expected = int(np.prod(shape)) * 8 if shape else 8
    if len(raw) != expected:
        raise CheckpointError(
            f"weight payload holds {len(raw)} bytes, expected {expected}"
        )
    values = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if not np.all(np.isfinite(values)):
        raise CheckpointError("non-finite weight in checkpoint")
    return values


def save_checkpoint(ck: Checkpoint, path: str | Path) -> Path:
    """Serialize a checkpoint as versioned JSON with binary64 weight payloads."""
    model = ck.model
    layout = model.pln.layout
    segments = layout.unpack(model.pln.values)
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "architecture": asdict(model.pln.arch),
        "normalization": asdict(model.pln.norm),
        "weights": {
            name: {"shape": list(segments[name].shape), "data": _encode(segments[name])}
            for name in layout.names
        },
        "sound_speed": model.sound_speed,
        "receiver_depth": model.receiver_depth,
        "adapt_sound_speed": model.adapt_sound_speed,
        "pulse": asdict(model.pulse),
        "metadata": ck.metadata,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2))
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint written by save_checkpoint; round-trips bit-exactly."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} not supported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        arch = PlnArchitecture(
            hidden=tuple(doc["architecture"]["hidden"]),
            length_scale=doc["architecture"]["length_scale"],
        )
        norm = InputNormalization(
            shift=tuple(doc["normalization"]["shift"]),
            scale=tuple(doc["normalization"]["scale"]),
        )
        layout = arch.layout()
        segments = {name: _decode(doc["weights"][name], layout.shape_of(name))
                    for name in layout.names}
        params = PlnParams(arch, norm, layout.pack(segments))
        model = ModelParams(
            pln=params,
            sound_speed=doc["sound_speed"],
            receiver_depth=doc["receiver_depth"],
            pulse=AnalyticPulse(**doc["pulse"]),
            adapt_sound_speed=doc["adapt_sound_speed"],
        )
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    return Checkpoint(model, doc.get("metadata", {}))
