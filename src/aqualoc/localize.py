"""Source localization: TOA initializer, gradient refinement, adaptation, CRLB.

The TOA front end matched-filters the recording, picks arrival-time peaks, and
inverts the image-method delay equations; it only needs an assumed (possibly
wrong) environment. Gradient-based localization then fits the integrated
squared waveform residual; the adapted variant also lets the model weights
move against a quadratic prior anchored at their trained values. The seed's
delay fit and the waveform fits all run in the one Levenberg-Marquardt driver,
autodiff.lm_fit, which holds their exits; a fit here gives its step, measures
an accepted step in metres of position, and has the crawl exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import (
    NumericOverflowError,
    finite_arrivals,
    length_normal_equations,
    lm_fit,
    value_and_grad,
    window_index,
)
from .environment import (
    BOTTOM,
    DEFAULT_REGION,
    DIRECT,
    Environment,
    PathSpec,
    Region,
    SURFACE,
    THREE_PATHS,
    alpha_tau,
    path_geometry,
)
from .signals import (
    AnalyticPulse,
    SampledSignal,
    arrival_windows,
    at_least,
    correlation_envelope,
    finite_float,
    pick_envelope_peaks,
    refine_envelope_peak,
    smooth_rows,  # not called here; kept as a global the bench tracer patches
    whole_number,
)


class ToaInitError(RuntimeError):
    """Raised when too few arrivals can be detected to seed an estimate."""


class SingularFisherError(ValueError):
    """Raised when the Fisher information matrix is not invertible."""


# ---------------------------------------------------------------------------
# TOA initialization
# ---------------------------------------------------------------------------

TOA_MAX_ITER = 60  # the TOA delay fit's budget of trial steps
TOA_STEP_TOL_M = 1e-10  # and its step exit: an accepted step shorter in each coordinate


@dataclass
class ToaEstimate:
    """Detected arrival times (ascending) and the geometric seed they imply."""

    times: np.ndarray
    p0: np.ndarray
    n_peaks: int
    residual: float  # RMS delay misfit (s) where the delay fit ends, before p0's region clip
    assignment: tuple[PathSpec, ...]


def _closed_form_seed(t_d: float, t_s: float, env: Environment, region: Region):
    """Invert the direct+surface delay pair; falls back to the region center."""
    zr, ell_d, ell_s = env.receiver_depth, env.sound_speed * t_d, env.sound_speed * t_s
    z = (ell_s * ell_s - ell_d * ell_d) / (4.0 * zr)
    x_sq = ell_d * ell_d - (z - zr) ** 2
    if x_sq <= 0.0 or not np.isfinite(z):
        return 0.5 * np.array([region.x_min + region.x_max, region.z_min + region.z_max])
    return np.array(region.clip(math.sqrt(x_sq), z))


def peak_threshold(envelope: np.ndarray, rel_floor: float) -> float:
    """max(median + 3 * 1.4826 MAD, rel_floor * max) of one envelope row.

    The medians are skipped when the relative floor provably wins: if more
    than n // 2 samples are at most tau = rel_floor * max / 8, the median and
    the MAD are both at most tau, so the noise floor is at most 5.45 tau,
    below rel_floor * max, which is then the threshold bit for bit. The count
    compares 8 * sample (exact) with the floor, so tau is never rounded. A
    zero rel_floor (the TOA seed's) never takes the shortcut, so nothing is
    counted.
    """
    floor = rel_floor * float(envelope.max())
    if rel_floor > 0.0 and np.count_nonzero(8.0 * envelope <= floor) > len(envelope) // 2:
        return floor
    med = float(np.median(envelope))
    mad = float(np.median(np.abs(envelope - med)))
    return max(med + 3.0 * 1.4826 * mad, floor)


def detect_arrivals(
    values: np.ndarray, pulse: AnalyticPulse, fs: float, sep_cycles: float, rel_floor: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Up to three matched-filter arrivals per row of a block of recordings.

    values is (rows, samples); one (ascending times, polarities) pair comes
    back per row. Envelope peaks of the correlation with the pulse must clear
    the row's peak_threshold (the larger of a median + 3 MAD noise floor and
    rel_floor times the envelope maximum), and stand at least sep_cycles /
    bandwidth apart. Each is refined to sub-sample precision; its polarity
    (+1 or -1) is the sign of the raw correlation at the picked sample. Fewer
    than three (possibly none) come back when fewer clear the floor.
    """
    envelopes, lag_times, corrs = correlation_envelope(values, pulse, fs)
    min_sep = max(1, int(round(sep_cycles / pulse.bandwidth * fs)))
    found = []
    for envelope, corr in zip(envelopes, corrs):
        threshold = peak_threshold(envelope, rel_floor)
        peaks = np.array(pick_envelope_peaks(envelope, min_sep, threshold, max_peaks=3), dtype=int)
        refined = np.array([refine_envelope_peak(envelope, i) for i in peaks])
        order = np.argsort(refined)
        polarity = np.where(corr[peaks[order]] < 0.0, -1.0, 1.0)
        found.append((lag_times[0] + refined[order] / fs, polarity))
    return found


def toa_init(
    received: SampledSignal,
    pulse: AnalyticPulse,
    assumed_env: Environment,
    region: Region = DEFAULT_REGION,
) -> ToaEstimate:
    """Seed a source estimate from matched-filter arrival times.

    Picks up to three envelope peaks (needing at least two), refines them to
    sub-sample precision, and inverts the image-method delay equations under
    the assumed environment: autodiff.lm_fit refines a closed-form seed on the
    delay misfit (_DelayFit). With three peaks both orderings of the later
    two arrivals are tried (surface and bottom swap order across z + z_r =
    depth); the lower-residual one wins. Two peaks are direct plus surface.

    Raises
    ------
    ToaInitError
        If fewer than two sufficiently separated peaks clear the noise floor.
    """
    times, _ = detect_arrivals(received.values[None], pulse, received.grid.sample_rate, 2.0, 0.0)[0]
    if len(times) < 2:
        raise ToaInitError(
            f"only {len(times)} arrival peak(s) above the noise floor; "
            "need at least 2 to seed a location"
        )
    assignments = ([(DIRECT, SURFACE, BOTTOM), (DIRECT, BOTTOM, SURFACE)] if len(times) == 3
                   else [(DIRECT, SURFACE)])
    fits = []
    for paths in assignments:
        seed = _closed_form_seed(times[0], times[paths.index(SURFACE)], assumed_env, region)
        fit = lm_fit(_DelayFit(times, paths, assumed_env), seed, TOA_MAX_ITER, TOA_STEP_TOL_M)[0]
        fits.append((math.sqrt(fit["loss"] / len(paths)), fit["v"], paths))
    residual, p, assignment = min(fits, key=lambda f: f[0])  # the first on a tie
    return ToaEstimate(times, np.array(region.clip(*p.tolist())), len(times), residual, assignment)


# ---------------------------------------------------------------------------
# Gradient-based localization
# ---------------------------------------------------------------------------

def require_gamma(gamma, error: type[Exception] = ValueError) -> float:
    """The anchor weight gamma as a float; raises `error` unless it is a finite number >= 0."""
    try:
        value = finite_float(gamma)
    except ValueError:
        value = math.nan
    if not value >= 0.0:
        raise error(f"gamma must be finite and >= 0, got {gamma!r}")
    return value


@dataclass(frozen=True)
class GblConfig:
    """Settings for the Levenberg-Marquardt localization fit (see _WaveformFit).

    The fit runs in autodiff.lm_fit, where its other exit constants live
    (GRAD_TOL_REL, LAM_MAX, CRAWL_STEPS). It ends once the gradient norm
    falls to GRAD_TOL_REL times its starting value, once an accepted step
    moves the position by less than `step_tol_m` in each coordinate, once a
    step fails with the damping above LAM_MAX, once an accepted point's
    gradient norm is still above half its value CRAWL_STEPS accepted steps
    earlier (a crawl), or after `max_iter` trial steps.

    The misfit oscillates at the carrier scale, so the fit's attraction
    basin is only about half a carrier wavelength wide: the seed must lie
    within it. `max_iter` is a whole number >= 1, `step_tol_m` finite and >= 0.
    """

    max_iter: int = 500
    step_tol_m: float = 1e-4

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_iter", at_least("max_iter", self.max_iter, whole_number, 1))
        at_least("step_tol_m", self.step_tol_m, finite_float, 0.0)


@dataclass
class LocalizeResult:
    """Outcome of a localization.

    All fields describe the one Levenberg-Marquardt fit from the seed.
    `n_iter` counts its trial steps, accepted or not;
    `grad_norm` is the Euclidean norm of the objective's gradient over
    [w; x; z] ([x; z] without adaptation) at the estimate. `converged`
    means the fit met a tolerance: the gradient norm fell to `grad_tol`,
    or an accepted position step was shorter than `step_tol_m` (the usual
    exit, as float64 loss differences cannot resolve a 1e-8 gradient
    ratio). A stall (the damping above its cap, or a crawl: the gradient
    norm not halved over CRAWL_STEPS accepted steps) or the iteration cap
    gives `converged=False`; the trigger is always in `exit_reason`. The
    exit constants (GRAD_TOL_REL, LAM_MAX, CRAWL_STEPS) live in
    autodiff, beside the driver lm_fit that applies them.
    """

    p_hat: np.ndarray
    w_hat: np.ndarray | None
    converged: bool
    n_iter: int
    loss: float
    grad_norm: float
    grad_tol: float
    exit_reason: str
    gamma: float = 0.0


class _WaveformFit:
    """Levenberg-Marquardt on the localization objective, through the 3 path lengths.

    The objective dt ||r - f||^2 + (gamma / 2) ||w - w_train||^2 runs over
    v = [w; x; z] ([x; z] unless adapting); f depends on v only through
    the lengths l, whose Jacobian [L_w, L_p] the adapter gives. With G =
    df/dl on the arrival windows, A = 2 dt G^T G and b = 2 dt G^T (r - f),
    the data term's Gauss-Newton model is -b.dl + dl.A.dl / 2, dl = L_w dw
    + L_p dp. Each position coordinate is damped by lam times its own
    curvature (Marquardt), every weight by lam mu, mu their mean curvature,
    plus the anchor's gamma. With beta = gamma + lam mu, Woodbury eliminates
    the weights through the 3x3 Q = (beta I + A L_w L_w^T)^-1, whatever n_w
    is, and leaves 2 position equations.
    """

    crawls = True  # lm_fit's crawl exit applies

    def __init__(self, adapter, received: SampledSignal, gamma: float, adapt: bool):
        self.adapter, self.r, self.grid, self.gamma = adapter, received.values, received.grid, gamma
        self.nw = adapter.n_weights if adapt else 0

    def __call__(self, v: np.ndarray):
        """The objective as v -> (value, gradient closure), the form value_and_grad takes."""
        return self._objective(self.evaluate(np.asarray(v, dtype=np.float64)))

    def _objective(self, point: dict):
        """(value, gradient closure) of an evaluated point; the closure linearizes it in place."""
        def grad() -> np.ndarray:
            self._linearize(point)
            return point["grad"]

        return point["loss"], grad

    def evaluate(self, v: np.ndarray) -> dict:
        """The objective at v through the adapter's signal_t.

        The loss is inf where the model's lengths are not finite and positive.
        """
        nw = self.nw
        point = {"v": v, "loss": math.inf}
        try:
            f, (lengths, jacobian, arrivals) = self.adapter.signal_t(
                v[:nw] if nw else None, v[nw], v[nw + 1], self.grid)
        except NumericOverflowError:
            return point
        if not all(0.0 < length < math.inf for length in lengths.tolist()):
            return point
        e = np.subtract(self.r, f, out=f)  # f is a fresh buffer, not needed again
        loss = (e @ e) * self.grid.dt
        if nw and self.gamma != 0.0:
            a = v[:nw] - self.adapter.w_train
            loss += (0.5 * self.gamma) * (a @ a)
        point.update(loss=float(loss), e=e, lengths=lengths, jacobian=jacobian, arrivals=arrivals)
        return point

    def linearize(self, point: dict) -> dict:
        """Linearize an evaluated point, its value and gradient checked by value_and_grad."""
        value_and_grad(lambda _: self._objective(point), point["v"])
        return point

    def moved(self, old: dict, new: dict) -> float:
        """An accepted step's size: the larger position move of x and z, in metres."""
        return max(abs(a - b) for a, b in zip(new["v"][-2:].tolist(), old["v"][-2:].tolist()))

    def _data_term(self, point: dict) -> tuple[np.ndarray, np.ndarray]:
        """The data term's b = 2 dt G^T e and A = 2 dt G^T G over the 3 lengths."""
        alphas, _, start, u, window = point["arrivals"]
        at, inside = window_index(start, self.adapter.pulse, self.grid)
        # G is zero on window samples off the grid, so e's clipped samples there add nothing
        gte, gtg = length_normal_equations(
            self.adapter.pulse, self.adapter.sound_speed, point["lengths"][None],
            alphas[None], u, window, inside, point["e"][at], start,
        )
        return 2.0 * self.grid.dt * gte[0], 2.0 * self.grid.dt * gtg[0]

    def _linearize(self, point: dict) -> None:
        """Add A, b, the length Jacobian, the gradient and the damping scales to a point."""
        b, a_len = self._data_term(point)
        d_p, d_w = point["jacobian"](weights=self.nw > 0)
        grad, s_pp = -(b @ d_p), d_p.T @ a_len @ d_p
        point.update(b=b, a_len=a_len, d_p=d_p, s_pp=s_pp, curv_p=np.diag(s_pp))
        if self.nw:
            anchor = point["v"][:self.nw] - self.adapter.w_train
            gram = d_w @ d_w.T
            point.update(d_w=d_w, anchor=anchor, gram=gram, anchor_lengths=d_w @ anchor,
                         mu=float((a_len * gram).sum()) / self.nw)
            grad = np.concatenate([self.gamma * anchor - b @ d_w, grad])
        point.update(grad=grad, grad_norm=math.sqrt(grad @ grad))

    def step(self, lin: dict, lam: float) -> tuple[np.ndarray, float]:
        """Damped step at relative damping lam, and the drop the Gauss-Newton model predicts.

        A singular system gives no step and no drop, which is rejected.
        """
        nw, gamma = self.nw, self.gamma
        a_len, b, d_p = lin["a_len"], lin["b"], lin["d_p"]
        s_pp, r_p = lin["s_pp"], lin["grad"][nw:]
        if nw:
            beta = gamma + lam * lin["mu"]
            q = np.linalg.inv(beta * np.eye(len(b)) + a_len @ lin["gram"])
            s_pp = d_p.T @ (beta * a_len @ q.T) @ d_p
            r_p = -(beta * (q @ b) + gamma * (a_len @ q.T @ lin["anchor_lengths"])) @ d_p
        # the 2 position equations (s_pp + lam diag(curv_p)) dp = -r_p, by Cramer's rule
        (s_xx, s_xz), (s_zx, s_zz) = s_pp.tolist()
        s_xx, s_zz = s_xx + lam * lin["curv_p"][0], s_zz + lam * lin["curv_p"][1]
        det = s_xx * s_zz - s_xz * s_zx
        if det == 0.0 or not math.isfinite(det):
            return np.zeros_like(lin["v"]), 0.0
        r_x, r_z = r_p.tolist()
        dp = np.array([s_xz * r_z - s_zz * r_x, s_zx * r_x - s_xx * r_z]) / det
        dl = d_p @ dp
        predicted = 0.0
        if nw:
            y = q @ (b - a_len @ (d_p @ dp) + (gamma / beta) * (a_len @ lin["anchor_lengths"]))
            dw = y @ lin["d_w"] - (gamma / beta) * lin["anchor"]
            dl = dl + lin["gram"] @ y - (gamma / beta) * lin["anchor_lengths"]
            predicted = -gamma * (lin["anchor"] @ dw + 0.5 * (dw @ dw))
            dp = np.concatenate([dw, dp])
        return dp, float(predicted + b @ dl - 0.5 * (dl @ a_len @ dl))


class _DelayFit(_WaveformFit):
    """The same fit over [x; z] on the delay misfit sum_k (l_k / c - t_k)^2, k detected.

    With image-method lengths l and arrival times t, the data term on the 3
    lengths is b = -(2 / c) r and A = (2 / c^2) diag(detected), r the delay
    residual (zero on an undetected path). The loss is inf for x <= 0.
    """

    def __init__(self, times: np.ndarray, paths: Sequence[PathSpec], env: Environment):
        self.env, self.nw, self.gamma = env, 0, 0.0
        self.detected = np.array([float(path in paths) for path in THREE_PATHS])
        self.a_len = np.diag((2.0 / (env.sound_speed * env.sound_speed)) * self.detected)
        self.times = np.array([times[paths.index(p)] if p in paths else 0.0 for p in THREE_PATHS])

    def evaluate(self, v: np.ndarray) -> dict:
        """The delay misfit at v = [x; z] and the lengths' Jacobian."""
        point = {"v": v, "loss": math.inf}
        if not v[0] > 0.0:
            return point
        lengths, d_p = path_geometry(self.env, v[0], v[1])
        r = (lengths / self.env.sound_speed - self.times) * self.detected
        point.update(loss=float(r @ r), r=r, lengths=lengths, jacobian=lambda weights: (d_p(), None))
        return point

    def _data_term(self, point: dict) -> tuple[np.ndarray, np.ndarray]:
        return (-2.0 / self.env.sound_speed) * point["r"], self.a_len


def _localize(
    received: SampledSignal, adapter, p0: np.ndarray, gamma: float | None, cfg: GblConfig
) -> LocalizeResult:
    """One Levenberg-Marquardt fit from the seed p0 (and the trained weights when adapting)."""
    p = np.asarray(p0, dtype=np.float64)
    fit = _WaveformFit(adapter, received, gamma or 0.0, gamma is not None)
    nw = fit.nw
    v = np.concatenate([adapter.w_train, p]) if nw else p
    lin, exit_reason, tol, losses = lm_fit(fit, v, cfg.max_iter, cfg.step_tol_m)
    return LocalizeResult(
        p_hat=lin["v"][nw:].copy(), w_hat=lin["v"][:nw].copy() if nw else None,
        converged=exit_reason in ("gradient", "step"), n_iter=len(losses), loss=lin["loss"],
        grad_norm=lin["grad_norm"], grad_tol=tol, exit_reason=exit_reason,
        gamma=0.0 if gamma is None else gamma,
    )


def gbl(
    received: SampledSignal,
    adapter,
    p0: np.ndarray,
    cfg: GblConfig = GblConfig(),
) -> LocalizeResult:
    """Fit the waveform misfit over source position only, from the seed p0.

    One Levenberg-Marquardt fit; it reaches the optimum from a seed within
    about half a carrier wavelength of it (see GblConfig).
    """
    return _localize(received, adapter, p0, None, cfg)


def da_gbl(
    received: SampledSignal,
    adapter,
    p0: np.ndarray,
    gamma: float,
    cfg: GblConfig = GblConfig(),
) -> LocalizeResult:
    """Jointly fit model weights and position, anchored at training with weight gamma.

    One Levenberg-Marquardt fit over [w; x; z] from the trained weights
    and the seed p0. An adapter without weights fits position only, as
    `gbl` does. gamma must be finite and >= 0.
    """
    return _localize(received, adapter, p0, require_gamma(gamma), cfg)


# ---------------------------------------------------------------------------
# Cramer-Rao lower bound
# ---------------------------------------------------------------------------


@dataclass
class CrlbResult:
    """Fisher information and the implied positional error floor (meters)."""

    fim: np.ndarray
    covariance: np.ndarray
    rmse_bound: float
    per_coord: np.ndarray


def crlb(
    env: Environment,
    x: float,
    z: float,
    pulse: AnalyticPulse,
    grid,
    n0: float,
) -> CrlbResult:
    """Position CRLB for the three-path model in white noise of density n0.

    The Fisher information is (2 / n0) dt (df/dp)^T (df/dp), with df/dp the
    waveform's length Jacobian G on the arrival windows (as the fits use it)
    times the image-method d l / d(x, z); the bound is the root of the trace
    of its inverse.
    """
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"noise density n0 must be finite and positive, got {n0!r}")
    lengths, jacobian = path_geometry(env, x, z)
    alphas, taus = finite_arrivals(*alpha_tau(lengths, env.sound_speed))
    _, start, u, window = arrival_windows(taus[None], pulse, grid)
    _, inside = window_index(start, pulse, grid)
    _, gtg = length_normal_equations(
        pulse, env.sound_speed, lengths[None], alphas[None], u, window, inside, None, start
    )
    d_p = jacobian()
    fim = (2.0 / n0) * grid.dt * (d_p.T @ gtg[0] @ d_p)
    fim = 0.5 * (fim + fim.T)
    det = fim[0, 0] * fim[1, 1] - fim[0, 1] * fim[1, 0]
    if not np.isfinite(det) or abs(det) < 1e-300 or fim[0, 0] <= 0.0 or fim[1, 1] <= 0.0:
        raise SingularFisherError("Fisher information is singular for this geometry")
    covariance = np.linalg.inv(fim)
    per_coord = np.sqrt(np.diag(covariance))
    rmse_bound = float(np.sqrt(np.trace(covariance)))
    return CrlbResult(fim=fim, covariance=covariance, rmse_bound=rmse_bound, per_coord=per_coord)

