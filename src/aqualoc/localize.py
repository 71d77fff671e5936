"""Source localization: TOA initializer, gradient refinement, adaptation, CRLB.

The TOA front end matched-filters the recording, picks arrival-time peaks, and
inverts the image-method delay equations; it only needs an assumed (possibly
wrong) environment. Gradient-based localization then descends the integrated
squared waveform residual; the adapted variant also lets the model weights move
against a quadratic prior anchored at their trained values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import value_and_grad
from .environment import (
    BOTTOM,
    DEFAULT_REGION,
    DIRECT,
    RHOS,
    Environment,
    PathSpec,
    Region,
    SURFACE,
    THREE_PATHS,
    path_geometry,
)
from .signals import (
    AnalyticPulse,
    SampledSignal,
    correlation_envelope,
    eval_pulse,
    eval_pulse_dt,
    lowpassed_pulse,
    pick_envelope_peaks,
    refine_envelope_peak,
    smooth_rows,
)


class ToaInitError(RuntimeError):
    """Raised when too few arrivals can be detected to seed an estimate."""


class SingularFisherError(ValueError):
    """Raised when the Fisher information matrix is not invertible."""


# ---------------------------------------------------------------------------
# TOA initialization
# ---------------------------------------------------------------------------


@dataclass
class ToaEstimate:
    """Detected arrival times (ascending) and the geometric seed they imply."""

    times: np.ndarray
    p0: np.ndarray
    n_peaks: int
    residual: float
    assignment: tuple[PathSpec, ...]


def _tau_and_jac(env: Environment, x: float, z: float, cols: list[int]):
    lengths, s_dz = path_geometry(env, x, z)
    ell, c = lengths[cols], env.sound_speed
    return ell / c, np.column_stack([x / (ell * c), s_dz[cols] / (ell * c)])


def _lm_refine(
    times: np.ndarray,
    paths: Sequence[PathSpec],
    env: Environment,
    p_init: np.ndarray,
    region: Region,
    n_iter: int = 60,
):
    """Equal-weight nonlinear least squares on the delay equations."""
    p = p_init.astype(np.float64).copy()
    lam = 1e-3
    cols = [THREE_PATHS.index(path) for path in paths]
    taus, jac = _tau_and_jac(env, p[0], p[1], cols)
    res = taus - times
    cost = float(res @ res)
    for _ in range(n_iter):
        jtj = jac.T @ jac
        damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-18))
        try:
            step = np.linalg.solve(damped, -(jac.T @ res))
        except np.linalg.LinAlgError:
            break
        cand = p + step
        taus_c, jac_c = _tau_and_jac(env, max(cand[0], 1e-3), cand[1], cols)
        res_c = taus_c - times
        cost_c = float(res_c @ res_c)
        if cost_c < cost:
            p = np.array([max(cand[0], 1e-3), cand[1]])
            taus, jac, res, cost = taus_c, jac_c, res_c, cost_c
            lam = max(lam / 3.0, 1e-12)
            if float(np.max(np.abs(step))) < 1e-10:
                break
        else:
            lam *= 5.0
            if lam > 1e12:
                break
    p = np.array(region.clip(p[0], p[1]))
    return p, math.sqrt(cost / len(paths))


def _closed_form_seed(ell_d: float, ell_s: float, env: Environment, region: Region):
    """Invert the direct+surface delay pair; falls back to the region center."""
    zr = env.receiver_depth
    z = (ell_s * ell_s - ell_d * ell_d) / (4.0 * zr)
    x_sq = ell_d * ell_d - (z - zr) ** 2
    if x_sq <= 0.0 or not np.isfinite(z):
        return np.array(
            [0.5 * (region.x_min + region.x_max), 0.5 * (region.z_min + region.z_max)]
        )
    return np.array(region.clip(math.sqrt(x_sq), z))


def detect_arrivals(
    values: np.ndarray, pulse: AnalyticPulse, fs: float, sep_cycles: float, rel_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Up to three matched-filter arrivals: ascending times and their polarities.

    Envelope peaks of the correlation with the pulse must clear the larger of
    a median + 3 MAD noise floor and rel_floor times the envelope maximum,
    and stand at least sep_cycles / bandwidth apart. Each is refined to
    sub-sample precision; its polarity (+1 or -1) is the sign of the raw
    correlation at the picked sample. Fewer than three (possibly none) come
    back when fewer clear the floor.
    """
    envelope, lag_times, corr = correlation_envelope(values, pulse, fs, with_correlation=True)
    med = float(np.median(envelope))
    mad = float(np.median(np.abs(envelope - med)))
    threshold = max(med + 3.0 * 1.4826 * mad, rel_floor * float(envelope.max()))
    min_sep = max(1, int(round(sep_cycles / pulse.bandwidth * fs)))
    peaks = np.array(pick_envelope_peaks(envelope, min_sep, threshold, max_peaks=3), dtype=int)
    refined = np.array([refine_envelope_peak(envelope, i) for i in peaks])
    order = np.argsort(refined)
    polarity = np.where(corr[peaks[order]] < 0.0, -1.0, 1.0)
    return lag_times[0] + refined[order] / fs, polarity


def toa_init(
    received: SampledSignal,
    pulse: AnalyticPulse,
    assumed_env: Environment,
    region: Region = DEFAULT_REGION,
) -> ToaEstimate:
    """Seed a source estimate from matched-filter arrival times.

    Picks up to three envelope peaks (needing at least two), refines them to
    sub-sample precision, and inverts the image-method delay equations under
    the assumed environment. With three peaks both orderings of the later two
    arrivals are tried (surface and bottom swap order across z + z_r = depth)
    and the lower-residual assignment wins; with two peaks they are taken as
    direct plus surface.

    Raises
    ------
    ToaInitError
        If fewer than two sufficiently separated peaks clear the noise floor.
    """
    times, _ = detect_arrivals(received.values, pulse, received.grid.sample_rate, 2.0, 0.0)
    if len(times) < 2:
        raise ToaInitError(
            f"only {len(times)} arrival peak(s) above the noise floor; "
            "need at least 2 to seed a location"
        )
    c = assumed_env.sound_speed
    if len(times) == 3:
        assignments = [
            (DIRECT, SURFACE, BOTTOM),
            (DIRECT, BOTTOM, SURFACE),
        ]
    else:
        assignments = [(DIRECT, SURFACE)]
    best = None
    for paths in assignments:
        surface_time = times[list(paths).index(SURFACE)]
        seed = _closed_form_seed(c * times[0], c * surface_time, assumed_env, region)
        p, resid = _lm_refine(times, paths, assumed_env, seed, region)
        if best is None or resid < best[1]:
            best = (p, resid, paths)
    p0, residual, assignment = best
    return ToaEstimate(times, p0, len(times), residual, assignment)


# ---------------------------------------------------------------------------
# Gradient-based localization
# ---------------------------------------------------------------------------

# Descent constants: the gradient exit (relative to the initial norm), the
# base position and weight steps, and the Armijo backtracking line search.
# Capture passes stop after CAPTURE_MAX_ITER iterations: the smoothed
# landscapes contract in tens.
GRAD_TOL_REL = 1e-8
BASE_STEP_P = 0.1
BASE_STEP_W = 1e-3
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 30
CAPTURE_MAX_ITER = 100


@dataclass(frozen=True)
class GblConfig:
    """Settings for the projected backtracking descent.

    Every phase calibrates its position preconditioning at its starting
    point: each coordinate's step is scaled by the inverse square root of
    its Gauss-Newton curvature, so `BASE_STEP_P` acts on coordinates with
    comparable curvature. A phase ends after `max_iter` iterations or once
    an accepted position step is shorter than `step_tol_m`; with `region`
    set, every candidate position is clipped into it.

    The exact misfit oscillates at the carrier scale, so its attraction
    basin is only about half a wavelength wide. Before the exact descent,
    the solvers run one short capture pass per entry of `smooth_sigmas`
    (widest kernel first), descending the same misfit with the recording
    and the model pulse both lowpassed; each pass widens the basin to the
    smoothed carrier's half wavelength and hands its endpoint to the next.
    Set `smooth_sigmas=()` to descend the exact objective directly.
    """

    max_iter: int = 500
    step_tol_m: float = 1e-4
    region: Region | None = None
    smooth_sigmas: tuple[float, ...] = (2e-3, 1e-3, 5e-4)

    def __post_init__(self) -> None:
        if any(s <= 0.0 for s in self.smooth_sigmas):
            raise ValueError("smooth_sigmas must be positive")
        if any(
            a <= b for a, b in zip(self.smooth_sigmas, self.smooth_sigmas[1:])
        ):
            raise ValueError("smooth_sigmas must be strictly decreasing")


@dataclass
class LocalizeResult:
    """Outcome of a descent run.

    All fields describe the final exact-objective descent (capture passes
    only move the starting point). `converged` means that descent ended by
    meeting a tolerance: either the preconditioned gradient norm
    fell below `GRAD_TOL_REL` times its initial value, or the accepted
    position step shrank below `step_tol_m` (the natural endpoint of a
    contracting iteration; the loss landscape's curvature puts the 1e-8
    gradient ratio below what float64 loss differences can resolve, so the
    step floor is the usual exit). Runs stopped by a failed line search or
    the iteration cap report `converged=False`; the trigger is always in
    `exit_reason`. `p_scales` records the preconditioning calibrated at the
    start of the exact descent, so the reported `grad_norm` can be
    recomputed from `p_hat`/`w_hat`.
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
    p_scales: tuple[float, float] = (1.0, 1.0)


def _make_objective(adapter, received: SampledSignal, gamma: float, adapt_weights: bool):
    """Integrated squared residual, plus the weight anchor when adapting.

    The objective maps v = [w; x; z] (just [x; z] unless adapting) to its
    value and a gradient closure.
    """
    rv = received.values
    grid = received.grid
    dt = grid.dt
    nw = adapter.n_weights if adapt_weights else 0
    w_train = adapter.w_train if nw else None

    def objective(v: np.ndarray):
        w = v[:nw] if nw else None
        f, vjp = adapter.signal_t(w, v[nw], v[nw + 1], grid)
        resid = f - rv
        total = (resid * resid).sum() * dt
        anchored = nw > 0 and gamma != 0.0
        if anchored:
            dw = w - w_train
            total = total + (0.5 * gamma) * (dw * dw).sum()

        def grad() -> np.ndarray:
            g_w, g_x, g_z = vjp(2.0 * dt * resid)
            if not nw:
                return np.array([g_x, g_z])
            if anchored:
                g_w = g_w + gamma * dw
            return np.concatenate([g_w, [g_x, g_z]])

        return total, grad

    return objective, nw


def da_loss(
    adapter,
    received: SampledSignal,
    w: np.ndarray | None,
    p: np.ndarray,
    gamma: float,
) -> float:
    """Adaptation objective value at weights `w` and position `p`."""
    adapt = w is not None
    objective, nw = _make_objective(adapter, received, gamma, adapt)
    v = np.concatenate([np.asarray(w, dtype=np.float64), np.asarray(p, dtype=np.float64)]) if adapt else np.asarray(p, dtype=np.float64)
    return float(objective(v)[0])


def _p_curvature(adapter, w, p, grid) -> np.ndarray:
    """Gauss-Newton data curvature 2 dt |df/dp_j|^2 per raw position coordinate."""
    curv = np.empty(2)
    for j, h in ((0, 1e-2), (1, 1e-2)):
        hi = p.copy()
        lo = p.copy()
        hi[j] += h
        lo[j] -= h
        f_hi = _signal_values(adapter, w, hi, grid)
        f_lo = _signal_values(adapter, w, lo, grid)
        dfdp = (f_hi - f_lo) / (2.0 * h)
        curv[j] = 2.0 * grid.dt * float(dfdp @ dfdp)
    return curv


def _calibrate_p_scales(adapter, p, grid) -> tuple[float, float]:
    """Per-coordinate 1/sqrt(Gauss-Newton curvature) of the model signal."""
    return tuple(1.0 / math.sqrt(c) if c > 0.0 else 1.0 for c in _p_curvature(adapter, None, p, grid))


def _signal_values(adapter, w: np.ndarray | None, p: np.ndarray, grid) -> np.ndarray:
    return adapter.signal_t(w, p[0], p[1], grid)[0]


def _descend(
    adapter, received: SampledSignal, p0: np.ndarray, gamma: float | None, max_iter: int,
    cfg: GblConfig,
) -> LocalizeResult:
    """One projected backtracking descent from p0.

    It moves the position only, or with `gamma` given the adapter's weights
    too, anchored at their trained values. The line search evaluates each
    candidate once; the accepted one's gradient comes from that same
    forward pass.
    """
    objective, nw = _make_objective(adapter, received, gamma or 0.0, gamma is not None)
    p_scales = _calibrate_p_scales(adapter, p0, received.grid)
    scales = np.ones(nw + 2)
    scales[nw:] = p_scales

    v = np.concatenate([adapter.w_train, p0]) if nw else p0.astype(np.float64)
    loss, g = value_and_grad(objective, v)
    tol = GRAD_TOL_REL * float(np.linalg.norm(scales * g))
    eta_w = 0.0
    if nw:
        gw_inf = float(np.max(np.abs(g[:nw])))
        eta_w = BASE_STEP_W / gw_inf if gw_inf > 0.0 else 0.0
        if gamma > 0.0:
            # the anchor term alone has curvature gamma, so steps beyond
            # ~1/gamma only burn line-search halvings
            eta_w = min(eta_w, 0.9 / gamma)

    exit_reason = "max_iter"
    n_iter = 0
    for _ in range(max_iter):
        gn = float(np.linalg.norm(scales * g))
        if gn <= tol:
            exit_reason = "gradient"
            break
        d = np.empty_like(v)
        if nw:
            d[:nw] = -eta_w * g[:nw]
        d[nw] = -BASE_STEP_P * p_scales[0] ** 2 * g[nw]
        d[nw + 1] = -BASE_STEP_P * p_scales[1] ** 2 * g[nw + 1]
        g_dot_d = float(g @ d)
        if g_dot_d >= 0.0:
            exit_reason = "stall"
            break
        t = 1.0
        for _bt in range(MAX_BACKTRACKS + 1):
            cand = v + t * d
            if cfg.region is not None:
                cand[nw], cand[nw + 1] = cfg.region.clip(cand[nw], cand[nw + 1])
            evaluated = objective(cand)
            if float(evaluated[0]) <= loss + ARMIJO_C1 * t * g_dot_d:
                break
            t *= BACKTRACK
        else:
            exit_reason = "stall"
            break
        step_p = float(np.max(np.abs(cand[nw:] - v[nw:])))
        v = cand
        # reuse the candidate's forward pass: only the backward pass runs here
        loss, g = value_and_grad(lambda _: evaluated, v)
        n_iter += 1
        if step_p < cfg.step_tol_m:
            exit_reason = "step"
            break

    gn = float(np.linalg.norm(scales * g))
    if exit_reason == "max_iter" and gn <= tol:
        exit_reason = "gradient"
    return LocalizeResult(
        p_hat=v[nw:].copy(),
        w_hat=v[:nw].copy() if nw else None,
        converged=exit_reason in ("gradient", "step"),
        n_iter=n_iter,
        loss=loss,
        grad_norm=gn,
        grad_tol=tol,
        exit_reason=exit_reason,
        gamma=0.0 if gamma is None else gamma,
        p_scales=(float(p_scales[0]), float(p_scales[1])),
    )


def _localize(
    received: SampledSignal, adapter, p0: np.ndarray, gamma: float | None, cfg: GblConfig
) -> LocalizeResult:
    """The capture passes, then the exact descent that gives every diagnostic.

    Each capture pass is a position-only descent of the misfit between the
    lowpassed recording and the adapter driven by the matching lowpassed
    pulse. The weights stay at their trained values there: weight
    corrections are a fine-scale refinement and belong to the exact phase.
    """
    p = np.asarray(p0, dtype=np.float64)
    for sigma in cfg.smooth_sigmas:
        rows = smooth_rows(received.values[np.newaxis, :], sigma, received.grid.dt)
        smoothed = adapter.with_pulse(lowpassed_pulse(adapter.pulse, sigma))
        p = _descend(
            smoothed, SampledSignal(received.grid, rows[0]), p, None,
            min(cfg.max_iter, CAPTURE_MAX_ITER), cfg,
        ).p_hat
    return _descend(adapter, received, p, gamma, cfg.max_iter, cfg)


def gbl(
    received: SampledSignal,
    adapter,
    p0: np.ndarray,
    cfg: GblConfig = GblConfig(),
) -> LocalizeResult:
    """Descend the waveform misfit over source position only.

    Seeds more than about half a wavelength out sit among carrier-scale
    ripples of the misfit, so the descent first runs the coarse-to-fine
    capture passes (see GblConfig) and then descends the exact objective,
    which produces every reported diagnostic.
    """
    return _localize(received, adapter, p0, None, cfg)


def da_gbl(
    received: SampledSignal,
    adapter,
    p0: np.ndarray,
    gamma: float,
    cfg: GblConfig = GblConfig(),
) -> LocalizeResult:
    """Jointly descend over model weights and position, anchored at training.

    The position seed goes through the same capture passes as `gbl` (with
    the weights frozen) before the joint exact descent starts from the
    trained weights and the captured position. An adapter without weights
    descends over position only, as `gbl` does.
    """
    return _localize(received, adapter, p0, gamma, cfg)


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

    Uses the analytic sensitivity of each arrival's amplitude and delay to the
    source coordinates; the bound is the root of the trace of the inverse
    Fisher information.
    """
    if n0 <= 0.0:
        raise ValueError("noise density must be positive")
    c = env.sound_speed
    lengths, s_dz = path_geometry(env, x, z)
    ell = lengths[:, np.newaxis]
    rho = RHOS[:, np.newaxis]
    u = grid.times() - ell / c
    s, s_dot = eval_pulse(pulse, u), eval_pulse_dt(pulse, u)
    # df/dl through both the amplitude (-rho/l^2) and the delay (1/c), per path
    df_dl = (-rho / (ell * ell)) * s - (rho / ell) * s_dot / c
    dfdx = np.sum(df_dl * (x / ell), axis=0)
    dfdz = np.sum(df_dl * (s_dz[:, np.newaxis] / ell), axis=0)
    dt = grid.dt
    fim = (2.0 / n0) * dt * np.array(
        [
            [dfdx @ dfdx, dfdx @ dfdz],
            [dfdz @ dfdx, dfdz @ dfdz],
        ]
    )
    det = fim[0, 0] * fim[1, 1] - fim[0, 1] * fim[1, 0]
    if not np.isfinite(det) or abs(det) < 1e-300 or fim[0, 0] <= 0.0 or fim[1, 1] <= 0.0:
        raise SingularFisherError("Fisher information is singular for this geometry")
    covariance = np.linalg.inv(fim)
    per_coord = np.sqrt(np.diag(covariance))
    rmse_bound = float(np.sqrt(np.trace(covariance)))
    return CrlbResult(fim=fim, covariance=covariance, rmse_bound=rmse_bound, per_coord=per_coord)

