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
from .autodiff import (
    arrival_signal,
    length_normal_equations,
    lm_fit,
    on_windows,
    value_and_grad,
    window_index,
)
from .environment import (
    DEFAULT_REGION, THREE_PATHS, Dataset, Environment, alpha_tau, path_geometry, scene_from_dict,
)
from .localize import detect_arrivals
from .pln import (
    InputNormalization,
    PlnArchitecture,
    PlnParams,
    length_forward,
    length_jacobian,
    length_position_jacobian,
    length_vjp,
    path_features,
    pln_error_grid,
    pln_init,
)
from .signals import (
    AnalyticPulse,
    TimeGrid,
    arrival_windows,
    at_least,
    correlation_envelope,  # not called here; kept as a global the bench tracer patches
    require_finite,
    smooth_rows,  # not called here; kept as a global the bench tracer patches
    whole_number,
)

PLN_ERROR_TARGET = 0.005  # worst in-region relative path-length error


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, or wrong-version checkpoints."""


@dataclass
class ModelParams:
    """Everything the forward model needs: network, medium, waveform."""

    pln: PlnParams
    sound_speed: float
    receiver_depth: float
    pulse: AnalyticPulse

    def __post_init__(self) -> None:
        require_finite("model", sound_speed=self.sound_speed, receiver_depth=self.receiver_depth)
        if self.sound_speed <= 0.0:
            raise ValueError(f"sound_speed must be positive, got {self.sound_speed}")
        if self.receiver_depth <= 0.0:
            raise ValueError(f"receiver_depth must be positive, got {self.receiver_depth}")


class _LengthModel:
    """A signal model through its three path lengths; subclasses give `lengths`.

    lengths(w, x, z) returns the path lengths at (x, z) under weights w
    (None means w_train) and a closure giving their Jacobian: d l / d(x, z)
    as (3, 2) and d l / dw as (3, n_weights), or (3, 0) when called with
    weights=False. signal_t(w, x, z, grid) runs the lengths through the
    lengths -> (alpha, tau) -> waveform chain and returns the model signal
    and what it was made from: (lengths, their Jacobian closure, the
    superposed arrivals of autodiff.arrival_signal).
    """

    @property
    def n_weights(self) -> int:
        return self.w_train.size

    def signal_t(self, w: np.ndarray | None, x, z, grid: TimeGrid):
        lengths, jacobian = self.lengths(w, x, z)
        f, arrivals = arrival_signal(lengths, self.sound_speed, self.pulse, grid)
        return f, (lengths, jacobian, arrivals)


class NetworkModel(_LengthModel):
    """The trained network as a signal model; its weights are the flat network weights."""

    def __init__(self, model: ModelParams):
        self.model, self.pulse, self.sound_speed = model, model.pulse, model.sound_speed
        self.w_train = model.pln.values.copy()

    # not called here; kept because the bench tracer's instrument_adapter requires it
    def with_pulse(self, pulse: AnalyticPulse) -> "NetworkModel":
        """Same network and medium, different source waveform."""
        return NetworkModel(replace(self.model, pulse=pulse))

    def lengths(self, w: np.ndarray | None, x, z):
        pln = self.model.pln
        w = self.w_train if w is None else w
        feats = path_features(x, z, self.model.receiver_depth, pln.norm)
        lengths, backward = length_forward(pln, w, feats)

        def jacobian(weights: bool = True):
            inputs, deltas = backward()
            d_p = length_position_jacobian(pln, w, deltas)
            if not weights:
                return d_p, np.empty((len(lengths), 0))
            return d_p, length_jacobian(inputs, deltas)

        return lengths, jacobian


class MatchedModel(_LengthModel):
    """Analytic image-method lengths in a known environment; no weights.

    Plugging this in place of the network reproduces the synthesis oracle
    bit-for-bit (identical floating-point operations throughout). Its
    weight Jacobian has no columns.
    """

    def __init__(self, env: Environment, pulse: AnalyticPulse):
        self.env, self.pulse, self.sound_speed = env, pulse, env.sound_speed
        self.w_train = np.empty(0)

    # not called here; kept because the bench tracer's instrument_adapter requires it
    def with_pulse(self, pulse: AnalyticPulse) -> "MatchedModel":
        """Same environment, different source waveform."""
        return MatchedModel(self.env, pulse)

    def lengths(self, w, x, z):
        lengths, d_p = path_geometry(self.env, x, z)
        return lengths, lambda weights=True: (d_p(), np.empty((len(lengths), 0)))


def _item_features(model: ModelParams, locations: np.ndarray) -> np.ndarray:
    """The network's feature rows for items at locations (x, z): 3 per item, path by path."""
    feats = path_features(locations[:, 0], locations[:, 1], model.receiver_depth, model.pln.norm)
    return feats.reshape(-1, feats.shape[-1])


def _peak_length_targets(dataset: Dataset) -> np.ndarray:
    """Per-item path-length targets from matched-filter peaks, NaN where unsettled.

    Up to three arrivals of each recording come from detect_arrivals, the
    detector the localizer's initializer uses, run on BATCH_SIZE recordings
    at a time (a block's envelopes share one FFT call); their times scale to path
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
    # one carrier-free cycle of separation: training recordings are
    # noiseless, so peaks may be split more aggressively than on field
    # data, which keeps the merged bands (where the stand-in targets are
    # biased) narrow; the relative floor rejects spectral-leakage local
    # maxima that clear a pure median threshold on noiseless recordings
    found = []
    for lo in range(0, dataset.count, BATCH_SIZE):
        found += detect_arrivals(dataset.signals[lo : lo + BATCH_SIZE], dataset.pulse, fs, 1.0, 1e-3)
    for k, (times, polarity) in enumerate(found):
        lens = c * times
        targets[k, :1] = lens[:1]
        if len(lens) == 3 and polarity[1] != polarity[2]:
            surface = 1 if polarity[1] < 0.0 else 2
            targets[k, 1] = lens[surface]
            targets[k, 2] = lens[3 - surface]
        elif len(lens) == 2:
            targets[k, 2] = lens[1]
    return targets


def _make_peaks_loss_fn(model: ModelParams, feats: np.ndarray, targets: np.ndarray):
    """Build w -> (mean squared length error against the settled peak targets, gradient).

    feats holds the batch's item features (_item_features, 3 rows per item)
    and targets its (batch, 3) peak targets. A plain smooth regression with
    unlimited capture range: it never compares waveforms, so it pulls
    arbitrarily misplaced predictions straight to the observed arrival
    structure. NaN targets (see _peak_length_targets) drop out of the sum;
    the mean still divides by every predicted length.
    """
    batch = len(targets)
    settled = np.isfinite(targets)
    t = np.where(settled, targets, 0.0)
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
    """Mean integrated squared residual of the model over a whole dataset.

    The lengths come from one network pass over every item (a per-block pass
    would run other matmul kernels and move them in the last bits); the
    waveforms are synthesized and compared BATCH_SIZE items at a time, so
    the working memory does not grow with the dataset.
    """
    count = dataset.count
    if count == 0:
        raise ValueError("empty dataset")
    feats = _item_features(model, dataset.locations)
    lengths = length_forward(model.pln, model.pln.values, feats)[0]
    alphas, taus = alpha_tau(lengths.reshape(count, len(THREE_PATHS)), model.sound_speed)
    total = 0.0
    for lo in range(0, count, BATCH_SIZE):
        block = slice(lo, lo + BATCH_SIZE)
        f = autodiff.superpose(alphas[block], taus[block], dataset.pulse, dataset.grid)[0]
        resid = dataset.signals[block] - f
        total += float((resid * resid).sum())
    return total * (dataset.grid.dt / count)


def _length_gram(inputs: list[np.ndarray], deltas: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """J J^T of the lengths' weight Jacobian J, without forming J, written into out.

    By pln.length_forward, rows r and s of J meet in layer i's weights
    as (a_r . a_s) (delta_r . delta_s) and in its bias as delta_r . delta_s,
    so J J^T = sum over layers of (A A^T + 1) * (D D^T), elementwise. The
    bias enters as one more constant input; a one-column D (the output
    layer) makes D D^T rank one, which just scales the rows of A. out is
    (rows, rows); it is returned.

    Only the bands on and above the diagonal are computed; each band's part
    right of its diagonal block is mirrored below it. The products are
    symmetric bit for bit, so the mirror writes what the lower bands would
    have computed.
    """
    rows = len(inputs[0])
    blocks = []
    for a, d in zip(inputs, deltas):
        a = np.hstack([a, np.ones((rows, 1))])
        blocks.append((a * d, None) if d.shape[1] == 1 else (a, d))
    # a band of rows at a time keeps the elementwise work in cache
    gram, dd = np.empty((2, min(rows, 128) * rows))
    for lo in range(0, rows, 128):
        hi = min(lo + 128, rows)
        band, shape = slice(lo, hi), (hi - lo, rows - lo)
        g, h = gram[: shape[0] * shape[1]].reshape(shape), dd[: shape[0] * shape[1]].reshape(shape)
        upper = out[band, lo:]
        upper[...] = 0.0
        for a, d in blocks:
            np.matmul(a[band], a[lo:].T, out=g)
            if d is not None:
                g *= np.matmul(d[band], d[lo:].T, out=h)
            upper += g
        out[hi:, band] = upper[:, hi - lo :].T
    return out


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
    (Levenberg 1944; Marquardt 1963) is dw = M^T (M M^T + mu I)^{-1} b =
    (M^T M + mu I)^{-1} M^T b with M = R J, and the fit solves it in the
    smaller of two spaces; R is never formed in either:
      - length space, 3 * count rows, multiplied through by R^{-1}:
        dw = J^T z with (J J^T + mu H^{-1}) z = H^{-1} G^T e, J J^T from
        _length_gram;
      - weight space, when the network has fewer weights than 3 * count
        (Hagan & Menhaj 1994): (J^T H J + mu I) dw = J^T G^T e, J formed
        from the backward pass's factors (pln.length_jacobian).
    Both share the damping mu = lam * tr(M M^T) / (3 * count), the mean
    diagonal of M M^T, as tr(M M^T) = tr(M^T M).

    In length space the fit owns the one J J^T buffer, which every linearize
    overwrites: autodiff.lm_fit only steps from the newest linearized point,
    so no earlier point's J J^T is read again. Training's policy: the fit has
    no crawl exit, and it measures an accepted step in metres of predicted
    length against a step tolerance of 0, which no step is below, so it ends
    at its epoch budget unless its gradient vanishes or it stalls.
    """

    crawls = False  # lm_fit's crawl exit does not apply

    def __init__(self, model: ModelParams, dataset: Dataset):
        self.model = model
        self.pulse = dataset.pulse
        self.grid = dataset.grid
        self.signals = dataset.signals
        self.energy = np.einsum("ij,ij->", self.signals, self.signals)
        self.count = dataset.count
        self.feats = _item_features(model, dataset.locations)
        self.scale = self.grid.dt / self.count
        rows = len(self.feats)
        self.weight_space = model.pln.n_weights < rows
        self.kk = None if self.weight_space else np.empty((rows, rows))

    def evaluate(self, w: np.ndarray) -> dict:
        """The exact training loss (train_loss) at w.

        Returns it as point["loss"], inf if a length is not finite, with what
        linearize needs. Only the arrival windows are touched: with f_i the
        samples of the whole model signal on arrival i's window,
        ||r - f||^2 = ||r||^2 - sum_i alpha_i <s_i, r_i + (r_i - f_i)>, where
        s_i is the arrival's pulse window.
        """
        n_paths = len(THREE_PATHS)
        lengths, backward = length_forward(self.model.pln, w, self.feats)
        point = {"v": w, "loss": math.inf, "backward": backward}
        if not np.all(np.isfinite(lengths)):
            return point
        lengths = lengths.reshape(self.count, n_paths)
        alphas, taus = alpha_tau(lengths, self.model.sound_speed)
        _, start, u, window = arrival_windows(taus, self.pulse, self.grid)
        # window samples off the recording are dropped, as superpose does
        at, inside = window_index(start, self.pulse, self.grid)
        window = window * inside
        items = np.arange(self.count)[:, None, None]
        r_win = self.signals[items, at] * inside
        e_win = r_win - np.einsum("kj,kijm->kim", alphas, on_windows(window, start))
        loss = self.energy - np.einsum("ki,kim,kim->", alphas, window, r_win + e_win)
        point.update(
            loss=float(loss) * self.scale, lengths=lengths, alphas=alphas, u=u,
            start=start, window=window, inside=inside, e_win=e_win,
        )
        return point

    def linearize(self, point: dict) -> dict:
        """Add G^T e, J^T G^T e, the gradient, the damping scale and the step's system.

        The system is J^T H J (weight space) or J's factors, J J^T, H^{-1}
        and H^{-1} G^T e (length space). The factors come from the point's
        backward pass, which evaluate leaves to here so that a rejected trial
        step never runs it.
        """
        n_paths = len(THREE_PATHS)
        gte, gtg = length_normal_equations(
            self.pulse, self.model.sound_speed, point["lengths"], point["alphas"],
            point["u"], point["window"], point["inside"], point["e_win"], point["start"],
        )
        # merged arrivals make G^T G near singular; the relative jitter keeps
        # it invertible without moving the well-posed directions
        gtg += 1e-12 * np.trace(gtg, axis1=1, axis2=2)[:, None, None] * np.eye(n_paths)
        inputs, deltas = point["backward"]()
        jtg = length_vjp(self.model.pln.layout, inputs, deltas, gte.ravel())
        # the loss's gradient -2 scale J^T G^T e
        grad = (-2.0 * self.scale) * jtg
        lin = {**point, "gte": gte, "jtg": jtg, "grad": grad, "grad_norm": math.sqrt(grad @ grad)}
        if self.weight_space:
            jac = length_jacobian(inputs, deltas)
            h_jac = np.einsum("kij,kjw->kiw", gtg, jac.reshape(self.count, n_paths, -1))
            jhj = jac.T @ h_jac.reshape(jac.shape)
            return {**lin, "jhj": jhj, "mean_diag": np.trace(jhj) / len(jac)}
        h_inv = np.linalg.inv(gtg)
        kk = _length_gram(inputs, deltas, self.kk)
        # mean diagonal of M M^T: tr(R_k K_kk R_k^T) = tr(H_k K_kk)
        items = np.arange(self.count)
        diag_blocks = kk.reshape(self.count, n_paths, self.count, n_paths)[items, :, items, :]
        mean_diag = np.einsum("kij,kji->", gtg, diag_blocks) / len(kk)
        return {**lin, "inputs": inputs, "deltas": deltas, "kk": kk, "h_inv": h_inv,
                "rhs": np.einsum("kij,kj->ki", h_inv, gte), "mean_diag": mean_diag}

    def moved(self, old: dict, new: dict) -> float:
        """An accepted step's size: the largest change of a predicted length, in metres."""
        return float(np.abs(new["lengths"] - old["lengths"]).max())

    def step(self, lin: dict, lam: float) -> tuple[np.ndarray, float]:
        """Damped step at relative damping lam, and the loss drop it predicts.

        In weight space the drop is 2 dw . J^T G^T e - dw . J^T H J dw. In
        length space the damping goes onto lin["kk"]'s diagonal 3x3 blocks in
        place and comes off again exactly, from a copy of those blocks.
        """
        n_paths = len(THREE_PATHS)
        mu = lam * lin["mean_diag"]
        if self.weight_space:
            jhj = lin["jhj"]
            dw = np.linalg.solve(jhj + mu * np.eye(len(jhj)), lin["jtg"])
            return dw, float(2.0 * (dw @ lin["jtg"]) - dw @ (jhj @ dw)) * self.scale
        items = np.arange(self.count)
        blocks = lin["kk"].reshape(self.count, n_paths, self.count, n_paths)
        undamped = blocks[items, :, items, :]
        blocks[items, :, items, :] = undamped + mu * lin["h_inv"]
        try:
            z = np.linalg.solve(lin["kk"], lin["rhs"].ravel())
        finally:
            blocks[items, :, items, :] = undamped
        dw = length_vjp(self.model.pln.layout, lin["inputs"], lin["deltas"], z)
        # ||b||^2 = e^T G H^{-1} G^T e and b - M dw = mu R^{-T} z
        z = z.reshape(self.count, n_paths)
        predicted = float(np.einsum("ki,ki->", lin["gte"], lin["rhs"]))
        predicted -= mu * mu * float(np.einsum("ki,kij,kj->", z, lin["h_inv"], z))
        return dw, predicted * self.scale


# Two-stage pretraining. Random init puts predicted arrivals up to ~0.2 s from
# the recorded ones, far outside the correlation basin of any waveform misfit,
# so training works in two regimes:
#   peaks - regress predicted lengths onto matched-filter peak times of each
#     recording, waveform statistics with global capture range. The direct
#     arrival comes first, and the sign of the correlation tells the surface
#     bounce (rho = -1) from the bottom one, so the targets come in path
#     order; the entries a recording leaves unsettled (merged arrivals) drop
#     out of the loss. It leaves every arrival inside its carrier-cycle
#     basin (full network: RMS length misfit about 0.2 m against a 1 m
#     half-wavelength), so the exact stage follows directly.
#   exact - the true training loss, minimized by Levenberg-Marquardt over the
#     whole dataset (one trial step per epoch, see _ExactFit) rather than by
#     Adam: once every arrival sits in its basin, minibatch Adam stalls with
#     lengths about 0.1 m off, 20 times what a 2% waveform error allows.
# The peaks stage takes PEAKS_SHARE of the epoch budget, on minibatches of
# BATCH_SIZE at the Adam rate PEAKS_LR, which decays over the stage's second
# half (_stage_lr) so the minibatch noise floor drops as the stage settles. The
# exact stage takes no rate; its damping adapts to each step's outcome.
STAGE_PEAKS = "peaks"
STAGE_EXACT = "exact"
PEAKS_SHARE = 8000 / 10800
PEAKS_LR = 1e-3
BATCH_SIZE = 32


@dataclass(frozen=True)
class TrainConfig:
    """Pretraining settings: the epoch budget `epochs` (a whole number >= 1),
    split over the two stages by stage_epochs, and the `seed` (a whole number
    >= 0) of the initial weights and the minibatch order."""

    epochs: int = 10800
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("epochs", 1), ("seed", 0)):
            object.__setattr__(self, name, at_least(name, getattr(self, name), whole_number, low))

    def stage_epochs(self) -> list[tuple[str, float, int, float]]:
        """The epoch budget split over the stages: (kind, sigma, epochs, lr scale) rows.

        Neither stage smooths or scales its rate, so sigma is 0 and the
        scale 1; the rows keep four fields because the benchmark's
        metrics.step_stages unpacks them.
        """
        n_peaks = int(round(PEAKS_SHARE * self.epochs))
        return [(STAGE_PEAKS, 0.0, n_peaks, 1.0), (STAGE_EXACT, 0.0, self.epochs - n_peaks, 1.0)]


@dataclass
class Checkpoint:
    """A trained model plus provenance metadata."""

    model: ModelParams
    metadata: dict = field(default_factory=dict)


def _stage_lr(epoch: int, n_epochs: int, lr0: float) -> float:
    """Hold lr0 for the first half of a stage, then cosine-decay to 1%."""
    half = n_epochs // 2
    if epoch < half or n_epochs <= 1:
        return lr0
    ramp = 0.5 * (1.0 + math.cos(math.pi * (epoch - half) / (n_epochs - half)))
    return lr0 * (0.01 + 0.99 * ramp)


def _peaks_stage(
    model: ModelParams,
    dataset: Dataset,
    w: np.ndarray,
    n_epochs: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[float]]:
    """Minibatch Adam on the peaks loss; the mean loss of each epoch.

    Moments start from zero; the rate follows _stage_lr from PEAKS_LR.
    """
    targets = _peak_length_targets(dataset)
    feats = _item_features(model, dataset.locations).reshape(dataset.count, len(THREE_PATHS), -1)
    w = w.copy()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    step = 0
    curve = []
    for stage_epoch in range(n_epochs):
        lr = _stage_lr(stage_epoch, n_epochs, PEAKS_LR)
        perm = rng.permutation(dataset.count)
        losses = []
        for lo in range(0, dataset.count, BATCH_SIZE):
            idx = perm[lo : lo + BATCH_SIZE]
            batch_feats = feats[idx].reshape(-1, feats.shape[-1])
            loss, g = value_and_grad(_make_peaks_loss_fn(model, batch_feats, targets[idx]), w)
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

    Runs the two stages of TrainConfig.stage_epochs: minibatch Adam on the
    peaks loss at a hold-then-decay learning rate, then Levenberg-Marquardt
    on the exact loss, which stops before its epoch budget once no step
    lowers the loss. Logs one loss value per epoch run (the minibatch mean
    for Adam, the whole-dataset loss for the exact stage) plus the in-region
    path-length error at each stage end, and warns if the trained network
    misses the in-region accuracy target.

    The metadata's initial_loss is train_loss, whose sum runs over the
    whole synthesized waveforms. final_loss is the exact stage's loss at the
    returned weights, its last logged loss, summed on the arrival windows
    only (_ExactFit.evaluate): the reference wherever the stage ran. The two
    sums agree up to rounding, which the windowed one's cancellation against
    the recordings' energy makes larger once the loss is tiny. Only when the
    stage got no epochs is final_loss train_loss too.
    """
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
    curve: list[tuple[int, str, float]] = []  # epoch, kind, loss
    stage_errors: list[tuple[str, float]] = []  # kind, grid error
    final_loss = None
    for kind, _, n_epochs, _ in cfg.stage_epochs():
        if n_epochs <= 0:
            continue
        if kind == STAGE_EXACT:
            last, _, _, losses = lm_fit(_ExactFit(model, dataset), w, n_epochs, 0.0)
            w, final_loss = last["v"], last["loss"]
            del last  # it holds the fit's linear system and backward pass, not needed from here on
        else:
            w, losses = _peaks_stage(model, dataset, w, n_epochs, rng)
        for loss in losses:
            curve.append((len(curve), kind, loss))
        model = replace(model, pln=PlnParams(arch, norm, w.copy()))
        stage_errors.append((kind, pln_error_grid(model.pln, dataset.environment, region)))
    if final_loss is None:  # the exact stage got no epochs
        final_loss = train_loss(model, dataset)
    err = stage_errors[-1][1]
    if err > PLN_ERROR_TARGET:
        warnings.warn(
            f"trained network path-length error {err:.4%} misses the "
            f"{PLN_ERROR_TARGET:.1%} in-region target",
            stacklevel=2,
        )
    metadata = {
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "dataset_count": dataset.count,
        "dataset_seed": dataset.seed,
        "initial_loss": initial_loss,
        "final_loss": final_loss,
        "pln_error": err,
        "pln_error_target": PLN_ERROR_TARGET,
        "region": [region.x_min, region.x_max, region.z_min, region.z_max],
        "loss_curve": [list(c) for c in curve],
        "stage_errors": [list(e) for e in stage_errors],
    }
    return Checkpoint(model, metadata)


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
        # the format keeps this key; only False (no sound-speed coordinate) loads
        "adapt_sound_speed": False,
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
        if doc["adapt_sound_speed"] is not False:
            raise CheckpointError(
                f"adapt_sound_speed is {doc['adapt_sound_speed']!r}; "
                "sound-speed adaptation is not supported"
            )
        model = ModelParams(
            pln=params,
            sound_speed=doc["sound_speed"],
            receiver_depth=doc["receiver_depth"],
            pulse=scene_from_dict("pulse", doc["pulse"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    return Checkpoint(model, doc.get("metadata", {}))
