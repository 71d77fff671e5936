"""Explicit derivatives for the forward model's one fixed chain.

Position -> path lengths -> (alpha, tau) -> pulse superposition -> loss is
differentiated link by link: each link returns its value together with a
vector-Jacobian product (vjp) that maps a cotangent of its output back to its
inputs. A loss function takes a flat parameter vector and returns its value
and a closure computing the gradient, so value-only callers (line searches,
finite differences) never run the backward part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .signals import AnalyticPulse, TimeGrid, eval_pulse_dt, superpose_arrivals


class NumericOverflowError(ArithmeticError):
    """A non-finite value appeared while evaluating or differentiating."""


def window_dt(pulse: AnalyticPulse, u: np.ndarray) -> np.ndarray:
    """ds/dt on arrival windows, at times u relative to the envelope center."""
    return eval_pulse_dt(pulse, u + pulse.center_time)


def superpose(alpha: np.ndarray, tau: np.ndarray, pulse: AnalyticPulse, grid: TimeGrid):
    """signals.superpose_arrivals plus its vjp to (alpha, tau).

    Forward arithmetic is shared bit-for-bit with the plain synthesis kernel.
    The vjp reads the output cotangent on each arrival's window: its dot
    product with the pulse window gives d/d alpha, and with the analytic
    pulse derivative (times -alpha) gives d/d tau.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    tau = np.asarray(tau, dtype=np.float64)
    if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(tau))):
        raise NumericOverflowError("non-finite arrival parameters entering superpose")
    out, (pad, start, u, window) = superpose_arrivals(
        alpha, tau, pulse, grid, return_parts=True
    )
    n = grid.n_samples

    def vjp(g_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g2 = np.atleast_2d(g_out)
        gpad = np.zeros((len(g2), n + 2 * pad))
        gpad[:, pad : pad + n] = g2
        at = start[:, :, None] + np.arange(window.shape[-1])
        g_win = gpad[np.arange(len(g2))[:, None, None], at]
        g_alpha = np.einsum("bim,bim->bi", g_win, window)
        g_tau = -np.atleast_2d(alpha) * np.einsum("bim,bim->bi", g_win, window_dt(pulse, u))
        return g_alpha.reshape(alpha.shape), g_tau.reshape(tau.shape)

    return out, vjp


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

    def slice_of(self, name: str) -> slice:
        if name not in self.names:
            raise KeyError(f"no segment named {name!r}")
        return self.slices()[self.names.index(name)]

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
    if not np.all(np.isfinite(g)):
        raise NumericOverflowError("non-finite gradient during backward pass")
    return value, g


@dataclass
class GradReport:
    """Outcome of a finite-difference gradient audit."""

    analytic: np.ndarray
    fd: np.ndarray  # NaN at coordinates that were not checked
    checked: np.ndarray
    max_rel_error: float

    def ok(self, tol: float = 1e-5) -> bool:
        return self.max_rel_error <= tol


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
