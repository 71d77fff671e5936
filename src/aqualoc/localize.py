"""Source localization: TOA initializer, gradient refinement, adaptation, CRLB.

The TOA front end matched-filters the recording, picks arrival-time peaks, and
inverts the image-method delay equations; it only needs an assumed (possibly
wrong) environment. Gradient-based localization then descends the integrated
squared waveform residual; the adapted variant also lets the model weights move
against a quadratic prior anchored at their trained values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .autodiff import Tensor, value_and_grad
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


@dataclass(frozen=True)
class GblConfig:
    """Settings for the projected backtracking descent.

    Position steps are preconditioned by the inverse square root of the
    Gauss-Newton curvature of each coordinate (calibrated once at the start
    unless `p_scales` is given), so `base_step_p` acts on coordinates with
    comparable curvature. The weight step is normalized once by the initial
    weight-gradient sup norm.

    The exact misfit oscillates at the carrier scale, so its attraction
    basin is only about half a wavelength wide. Before the exact descent,
    the solvers run one short capture pass per entry of `smooth_sigmas`
    (widest kernel first), descending the same misfit with the recording
    and the model pulse both lowpassed; each pass widens the basin to the
    smoothed carrier's half wavelength and hands its endpoint to the next.
    Set `smooth_sigmas=()` to descend the exact objective directly.
    """

    max_iter: int = 500
    grad_tol_rel: float = 1e-8
    step_tol_m: float = 1e-4
    base_step_p: float = 0.1
    base_step_w: float = 1e-3
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 30
    p_scales: tuple[float, float] | None = None
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
    meeting a configured tolerance: either the preconditioned gradient norm
    fell below `grad_tol_rel` times its initial value, or the accepted
    position step shrank below `step_tol_m` (the natural endpoint of a
    contracting iteration; the loss landscape's curvature puts the 1e-8
    gradient ratio below what float64 loss differences can resolve, so the
    step floor is the usual exit). Runs stopped by a failed line search or
    the iteration cap report `converged=False`; the trigger is always in
    `exit_reason`. `p_scales` records the preconditioning actually used,
    so the reported `grad_norm` can be recomputed from `p_hat`/`w_hat`.
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
    """Integrated squared residual, plus the weight anchor when adapting."""
    rv = received.values
    grid = received.grid
    dt = grid.dt
    nw = adapter.n_weights if adapt_weights else 0
    w_train = adapter.w_train if nw else None

    def objective(v_t: Tensor) -> Tensor:
        if nw:
            w_t = v_t[:nw]
            x_t = v_t[nw]
            z_t = v_t[nw + 1]
        else:
            w_t = None
            x_t = v_t[0]
            z_t = v_t[1]
        f_t = adapter.signal_t(w_t, x_t, z_t, grid)
        resid = f_t - rv
        total = (resid * resid).sum() * dt
        if nw and gamma != 0.0:
            dw = w_t - w_train
            total = total + (0.5 * gamma) * (dw * dw).sum()
        return total

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
    return float(objective(Tensor(v, needs_grad=False)).value)


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


def _calibrate_p_scales(adapter, w, p, grid) -> tuple[float, float]:
    """Per-coordinate 1/sqrt(Gauss-Newton curvature) of the model signal."""
    return tuple(1.0 / math.sqrt(c) if c > 0.0 else 1.0 for c in _p_curvature(adapter, w, p, grid))


def _signal_values(adapter, w: np.ndarray | None, p: np.ndarray, grid) -> np.ndarray:
    w_t = Tensor(w, needs_grad=False) if w is not None else None
    out = adapter.signal_t(
        w_t, Tensor(np.float64(p[0]), needs_grad=False), Tensor(np.float64(p[1]), needs_grad=False), grid
    )
    return out.value


def _descend(
    objective, v0: np.ndarray, nw: int, cfg: GblConfig, p_scales, w_step_cap: float = math.inf
) -> LocalizeResult:
    scales = np.ones_like(v0)
    scales[nw] = p_scales[0]
    scales[nw + 1] = p_scales[1]

    def value_at(v: np.ndarray) -> float:
        return float(objective(Tensor(v, needs_grad=False)).value)

    v = v0.astype(np.float64).copy()
    loss, g = value_and_grad(objective, v)
    g0 = float(np.linalg.norm(scales * g))
    tol = cfg.grad_tol_rel * g0
    eta_w = 0.0
    if nw:
        gw_inf = float(np.max(np.abs(g[:nw])))
        eta_w = cfg.base_step_w / gw_inf if gw_inf > 0.0 else 0.0
        # the anchor term alone has curvature gamma, so steps beyond ~1/gamma
        # only burn line-search halvings
        eta_w = min(eta_w, w_step_cap)

    exit_reason = "max_iter"
    n_iter = 0
    for _ in range(cfg.max_iter):
        gn = float(np.linalg.norm(scales * g))
        if gn <= tol:
            exit_reason = "gradient"
            break
        d = np.empty_like(v)
        if nw:
            d[:nw] = -eta_w * g[:nw]
        d[nw] = -cfg.base_step_p * p_scales[0] ** 2 * g[nw]
        d[nw + 1] = -cfg.base_step_p * p_scales[1] ** 2 * g[nw + 1]
        g_dot_d = float(g @ d)
        if g_dot_d >= 0.0:
            exit_reason = "stall"
            break
        t = 1.0
        accepted = None
        for _bt in range(cfg.max_backtracks + 1):
            cand = v + t * d
            if cfg.region is not None:
                cand[nw], cand[nw + 1] = cfg.region.clip(cand[nw], cand[nw + 1])
            cand_loss = value_at(cand)
            if cand_loss <= loss + cfg.armijo_c1 * t * g_dot_d:
                accepted = (cand, cand_loss)
                break
            t *= cfg.backtrack
        if accepted is None:
            exit_reason = "stall"
            break
        step_p = float(np.max(np.abs(accepted[0][nw:] - v[nw:])))
        v, loss = accepted
        loss, g = value_and_grad(objective, v)
        n_iter += 1
        if step_p < cfg.step_tol_m:
            exit_reason = "step"
            break

    gn = float(np.linalg.norm(scales * g))
    if exit_reason == "max_iter" and gn <= tol:
        exit_reason = "gradient"
    converged = exit_reason in ("gradient", "step")
    return LocalizeResult(
        p_hat=v[nw:].copy(),
        w_hat=v[:nw].copy() if nw else None,
        converged=converged,
        n_iter=n_iter,
        loss=loss,
        grad_norm=gn,
        grad_tol=tol,
        exit_reason=exit_reason,
        p_scales=(float(p_scales[0]), float(p_scales[1])),
    )


def _capture_seed(received: SampledSignal, adapter, p0: np.ndarray, cfg: GblConfig) -> np.ndarray:
    """Walk the seed into the exact objective's carrier-scale basin.

    Runs one position-only descent per smoothing width, on the misfit
    between the lowpassed recording and the adapter driven by the matching
    lowpassed pulse. The weights stay at their trained values: weight
    corrections are a fine-scale refinement and belong to the exact phase.
    Each pass is capped well below the exact descent's budget because the
    smoothed landscapes contract in tens of iterations.
    """
    p = p0
    if not cfg.smooth_sigmas:
        return p
    phase_cfg = replace(cfg, max_iter=min(cfg.max_iter, 100))
    for sigma in cfg.smooth_sigmas:
        rows = smooth_rows(received.values[np.newaxis, :], sigma, received.grid.dt)
        r_s = SampledSignal(received.grid, rows[0])
        a_s = adapter.with_pulse(lowpassed_pulse(adapter.pulse, sigma))
        objective, _ = _make_objective(a_s, r_s, 0.0, adapt_weights=False)
        w_ref = a_s.w_train if a_s.n_weights else None
        scales = cfg.p_scales or _calibrate_p_scales(a_s, w_ref, p, received.grid)
        p = _descend(objective, p, 0, phase_cfg, scales).p_hat
    return p


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
    p0 = np.asarray(p0, dtype=np.float64)
    p_start = _capture_seed(received, adapter, p0, cfg)
    objective, _ = _make_objective(adapter, received, 0.0, adapt_weights=False)
    w_ref = adapter.w_train if adapter.n_weights else None
    p_scales = cfg.p_scales or _calibrate_p_scales(adapter, w_ref, p_start, received.grid)
    return _descend(objective, p_start, 0, cfg, p_scales)


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
    trained weights and the captured position.
    """
    if adapter.n_weights == 0:
        result = gbl(received, adapter, p0, cfg)
        result.gamma = gamma
        return result
    p0 = np.asarray(p0, dtype=np.float64)
    p_start = _capture_seed(received, adapter, p0, cfg)
    objective, nw = _make_objective(adapter, received, gamma, adapt_weights=True)
    v0 = np.concatenate([adapter.w_train, p_start])
    p_scales = cfg.p_scales or _calibrate_p_scales(adapter, adapter.w_train, p_start, received.grid)
    w_step_cap = 0.9 / gamma if gamma > 0.0 else math.inf
    result = _descend(objective, v0, nw, cfg, p_scales, w_step_cap)
    result.gamma = gamma
    return result


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

