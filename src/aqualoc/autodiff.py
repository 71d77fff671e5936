"""Explicit derivatives for the forward model's one fixed chain.

Position -> path lengths -> (alpha, tau) -> pulse superposition -> loss is
differentiated only as far as the lengths. On one side the network's
backward pass (or the image-method geometry) gives the lengths' Jacobian;
on the other, length_normal_equations takes the waveform's length Jacobian
G on the three arrival windows. A loss function takes a flat parameter
vector and returns its value and a closure computing the gradient, so
value-only callers (finite differences) never run the backward part. Every
fit (training's exact stage, the TOA seed's delay fit, GBL and DA-GBL) runs
through the lengths in the one Levenberg-Marquardt driver `lm_fit`, which
holds the damping loop and every exit; each fit gives its own step, units
and crawl policy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .environment import alpha_tau
from .signals import AnalyticPulse, TimeGrid, eval_pulse_dt, superpose_windows

# Levenberg-Marquardt relative damping: where every fit starts, and the
# ceiling above which a step is a vanishing gradient step (a fit failing there has stalled)
LAM_INIT = 1e-3
LAM_MAX = 1e8
# The gradient exit, relative to the gradient norm where the fit starts.
GRAD_TOL_REL = 1e-8
# The crawl exit of a fit that has one: it stalls once its gradient norm is
# still above half its value this many accepted steps earlier.
CRAWL_STEPS = 10
# The largest relative gradient error a finite-difference audit passes.
FD_REL_TOL = 1e-5


class NumericOverflowError(ArithmeticError):
    """A non-finite value appeared while evaluating or differentiating."""


def finite_arrivals(alpha, tau) -> tuple[np.ndarray, np.ndarray]:
    """alpha and tau as float64 arrays of one shape; NumericOverflowError unless all finite."""
    alpha = np.asarray(alpha, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if alpha.shape != tau.shape:
        raise ValueError(f"alpha shape {alpha.shape} != tau shape {tau.shape}")
    if not (np.isfinite(alpha).all() and np.isfinite(tau).all()):
        raise NumericOverflowError("non-finite arrival parameters entering superpose")
    return alpha, tau


def superpose(alpha: np.ndarray, tau: np.ndarray, pulse: AnalyticPulse, grid: TimeGrid):
    """signals.superpose_windows on checked float64 input: (out, (pad, start, u, window)).

    Forward arithmetic is shared bit-for-bit with the plain synthesis kernel;
    the arrival windows come back with the waveform.
    """
    return superpose_windows(*finite_arrivals(alpha, tau), pulse, grid)


def arrival_signal(lengths: np.ndarray, sound_speed: float, pulse: AnalyticPulse, grid: TimeGrid):
    """The chain lengths -> (alpha, tau) -> waveform: (f, (alphas, pad, start, u, window))."""
    alphas, taus = alpha_tau(lengths, sound_speed)
    f, parts = superpose(alphas, taus, pulse, grid)
    return f, (alphas, *parts)


def window_index(start: np.ndarray, pulse: AnalyticPulse, grid: TimeGrid):
    """Grid index of every arrival-window sample, clipped into the grid, and whether it is on it."""
    lay = grid.windows(pulse)
    at = start[:, :, None] + lay.rel
    inside = (at >= 0) & (at < lay.n)
    # np.minimum/np.maximum rather than np.clip, whose wrapper costs more than this work
    return np.minimum(np.maximum(at, 0), lay.n - 1), inside


def on_windows(x: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Each item's window samples x[k, j] read on the samples of its window i.

    x is (count, paths, w_len) with window j starting at start[k, j]; entry
    [k, i, j, m] is x[k, j] at window i's sample m, zero where the windows do
    not overlap (the zero padding absorbs offsets of a whole window or more).
    """
    count, n_paths, w_len = x.shape
    padded = np.zeros((count * n_paths, 3 * w_len))
    padded[:, w_len : 2 * w_len] = x.reshape(count * n_paths, w_len)
    # window j's lag after window i; a lag of a whole window or more reads only padding
    offset = np.minimum(np.maximum(start[:, None, :] - start[:, :, None], -w_len), w_len)
    shifted = np.arange(w_len) - offset[..., None] + w_len
    rows = np.arange(count * n_paths).reshape(count, 1, n_paths, 1) * (3 * w_len)
    return padded.ravel()[rows + shifted]


def length_normal_equations(pulse, sound_speed, lengths, alphas, u, window, inside, e_win, start):
    """G^T e (count, 3; None without e_win) and G^T G (count, 3, 3) per item, e on the windows.

    G = df / dl on the arrival windows, d(alpha s(t - tau)) / dl through
    alpha = rho / l and tau = l / c, zero on window samples off the grid.
    """
    dwindow = eval_pulse_dt(pulse, u + pulse.center_time)  # ds/dt on the windows
    g_win = -(alphas / lengths)[:, :, None] * window
    g_win -= (alphas / sound_speed)[:, :, None] * dwindow
    g_win *= inside
    gte = None if e_win is None else np.einsum("kim,kim->ki", g_win, e_win)
    return gte, np.einsum("kim,kijm->kij", g_win, on_windows(g_win, start))


def lm_fit(fit, v: np.ndarray, max_iter: int, step_tol: float):
    """The Levenberg-Marquardt fit from v: (last point, exit reason, gradient tolerance, losses).

    fit.evaluate(v) gives a point (its vector point["v"] and loss),
    fit.linearize(point) adds what a step needs and the gradient norm
    point["grad_norm"], fit.step(lin, lam) gives the step at relative
    damping lam and its predicted loss drop, and fit.moved(old, new) the
    size of an accepted step in the fit's own units. Each trial point is
    evaluated once, the start and each accepted point linearized once. The
    damping follows the gain ratio (Marquardt 1963; Nielsen 1999). `losses`
    holds the loss after each trial step, accepted or not: one per step.

    The exits (Madsen, Nielsen & Tingleff 2004, section 3.2), in `exit reason`:
    "gradient" once the gradient norm is at most GRAD_TOL_REL times its
    start value, checked before every step, so a stationary start exits at
    once; "max_iter" after max_iter trial steps; "step" once an accepted
    step moves less than step_tol; "stall" once a step fails with the
    damping above LAM_MAX, or, if fit.crawls, once an accepted point's
    gradient norm is still above half its value CRAWL_STEPS accepted steps
    earlier, the start counting as accepted. A converging fit's gradient
    falls geometrically; a crawl's holds flat while the damping underflows
    and each step stays above step_tol.
    """
    lin = fit.linearize(fit.evaluate(v))
    tol = GRAD_TOL_REL * lin["grad_norm"]
    norms = [lin["grad_norm"]]  # at the start and each accepted point
    losses: list[float] = []
    lam, nu = LAM_INIT, 2.0
    while lin["grad_norm"] > tol:
        if len(losses) == max_iter:
            return lin, "max_iter", tol, losses
        dv, predicted = fit.step(lin, lam)
        trial = fit.evaluate(lin["v"] + dv)
        gain = (lin["loss"] - trial["loss"]) / predicted if predicted > 0.0 else -1.0
        if not gain > 0.0:
            losses.append(lin["loss"])
            lam *= nu
            nu *= 2.0
            if lam > LAM_MAX:
                return lin, "stall", tol, losses
            continue
        trial = fit.linearize(trial)
        moved, lin = fit.moved(lin, trial), trial  # the old point is freed before the next step
        losses.append(lin["loss"])
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        nu = 2.0
        if moved < step_tol:
            return lin, "step", tol, losses
        norms.append(lin["grad_norm"])
        crawled = len(norms) > CRAWL_STEPS and norms[-1] > max(tol, 0.5 * norms[-1 - CRAWL_STEPS])
        if fit.crawls and crawled:
            return lin, "stall", tol, losses
    return lin, "gradient", tol, losses


@dataclass(frozen=True)
class Layout:
    """Named contiguous segments of a flat parameter vector."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(math.prod(s) for s in self.shapes)

    @property
    def size(self) -> int:
        return sum(self.sizes)

    def slices(self) -> list[slice]:
        """Each segment's slice of the flat vector, in order."""
        ends = list(itertools.accumulate(self.sizes, initial=0))
        return [slice(a, b) for a, b in zip(ends, ends[1:])]

    def shape_of(self, name: str) -> tuple[int, ...]:
        return self.shapes[self.names.index(name)]

    def pack(self, segments: dict[str, np.ndarray]) -> np.ndarray:
        flat = np.empty(self.size)
        for name, part in zip(self.names, self.slices()):
            flat[part] = np.asarray(segments[name]).reshape(-1)
        return flat

    def unpack(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {
            name: flat[part].reshape(shape)
            for name, shape, part in zip(self.names, self.shapes, self.slices())
        }


def value_and_grad(loss_fn, at: np.ndarray) -> tuple[float, np.ndarray]:
    """Evaluate a scalar loss and its gradient at a flat parameter vector.

    loss_fn(x) returns (value, grad) with grad() the gradient at x. Raises
    NumericOverflowError, saying which pass it came from, if the value or
    the gradient is not finite.
    """
    value, grad = loss_fn(np.array(at, dtype=np.float64, copy=True))
    value = float(value)
    if not math.isfinite(value):
        raise NumericOverflowError("non-finite value during forward pass")
    g = grad()
    if not np.isfinite(g).all():
        raise NumericOverflowError("non-finite gradient during backward pass")
    return value, g


@dataclass
class GradReport:
    """Outcome of a finite-difference gradient audit."""

    analytic: np.ndarray
    fd: np.ndarray  # NaN at coordinates that were not checked
    checked: np.ndarray
    max_rel_error: float

    def ok(self) -> bool:
        return self.max_rel_error <= FD_REL_TOL


def fd_check(
    loss_fn,
    at: np.ndarray,
    h: float = 1e-5,
    n_coords: int | None = 50,
    seed: int = 0,
) -> GradReport:
    """Compare the analytic gradient against central finite differences.

    Per-coordinate step h_j = h * max(1, |x_j|); relative error uses
    |a - b| / max(|a|, |b|, 1e-12). With n_coords set, only a random coordinate
    subset is probed (2 evaluations per coordinate).
    """
    at = np.asarray(at, dtype=np.float64)
    analytic = value_and_grad(loss_fn, at)[1]
    size = at.size
    if n_coords is None or n_coords >= size:
        checked = np.arange(size)
    else:
        rng = np.random.default_rng(seed)
        checked = np.sort(rng.choice(size, size=n_coords, replace=False))
    fd = np.full(size, np.nan)
    for j in checked:
        hj = h * max(1.0, abs(at[j]))
        xp = at.copy()
        xm = at.copy()
        xp[j] += hj
        xm[j] -= hj
        fd[j] = (float(loss_fn(xp)[0]) - float(loss_fn(xm)[0])) / (2.0 * hj)
    a = analytic[checked]
    b = fd[checked]
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    max_rel = float(np.max(np.abs(a - b) / denom)) if len(checked) else 0.0
    return GradReport(analytic, fd, checked, max_rel)
