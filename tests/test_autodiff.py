"""Explicit-chain plumbing: value/gradient protocol, FD audits, superposition vjp."""

import numpy as np
import pytest

from aqualoc.autodiff import (
    GradReport,
    Layout,
    NumericOverflowError,
    fd_check,
    superpose,
    value_and_grad,
)
from aqualoc.signals import superpose_arrivals


def test_nonfinite_forward_detected():
    def loss(x):
        return np.log(x - 2.0).sum(), lambda: 1.0 / (x - 2.0)

    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericOverflowError, match="forward"):
            value_and_grad(loss, np.ones(2))


def test_nonfinite_gradient_detected():
    # sqrt(0) is finite but its derivative divides by zero
    def loss(x):
        return np.sqrt(x).sum(), lambda: 0.5 / np.sqrt(x)

    with np.errstate(divide="ignore"):
        with pytest.raises(NumericOverflowError, match="backward"):
            value_and_grad(loss, np.zeros(2))


def test_fd_check_smooth_program(rng):
    x0 = rng.uniform(0.5, 1.5, size=20)

    def f(x):
        value = np.sqrt((x * x).sum() + np.exp(x).sum() * 0.01)
        return value, lambda: (x + 0.005 * np.exp(x)) / value

    report = fd_check(f, x0, n_coords=None)
    assert isinstance(report, GradReport)
    assert report.max_rel_error < 1e-8
    assert report.ok()
    assert np.all(np.isfinite(report.fd))


def test_fd_check_subset_marks_unchecked(rng):
    x0 = rng.normal(size=30)
    report = fd_check(lambda x: ((x * x).sum(), lambda: 2.0 * x), x0, n_coords=5, seed=1)
    assert len(report.checked) == 5
    assert np.isnan(report.fd).sum() == 25


def _misfit(target, pulse, grid, alpha=None, tau=None):
    """Squared misfit of superpose as a loss of whichever of alpha, tau is None."""
    def loss(x):
        a = x.reshape(target.shape[:-1] + (3,)) if alpha is None else alpha
        t = x.reshape(target.shape[:-1] + (3,)) if tau is None else tau
        y, vjp = superpose(a, t, pulse, grid)
        r = y - target
        return (r * r).sum(), lambda: vjp(2.0 * r)[0 if alpha is None else 1].reshape(-1)

    return loss


def test_superpose_forward_matches_plain_kernel(pulse, grid):
    alpha = np.array([1.6e-3, -1.5e-3, 1.4e-3])
    tau = np.array([0.41209, 0.41724, 0.44207])
    plain = superpose_arrivals(alpha, tau, pulse, grid)
    y, _ = superpose(alpha, tau, pulse, grid)
    np.testing.assert_array_equal(y, plain)


def test_superpose_gradients_match_fd(pulse, grid):
    alpha = np.array([1.6e-3, -1.5e-3, 1.4e-3])
    tau = np.array([0.41209, 0.41724, 0.44207])
    target = superpose_arrivals(alpha, tau * 1.0005, pulse, grid)

    rep = fd_check(_misfit(target, pulse, grid, tau=tau), alpha, h=1e-4, n_coords=None)
    assert rep.max_rel_error < 1e-7

    # carrier period 1/750 s: steps must stay well inside a cycle
    rep = fd_check(_misfit(target, pulse, grid, alpha=alpha), tau, h=1e-8, n_coords=None)
    assert rep.max_rel_error < 1e-5


def test_superpose_batched_gradient(pulse, grid):
    alpha = np.array([[1.6e-3, -1.5e-3, 1.4e-3], [1.2e-3, -1.1e-3, 1.0e-3]])
    tau = np.array([[0.41209, 0.41724, 0.44207], [0.3, 0.31, 0.33]])
    target = superpose_arrivals(alpha, tau * 1.0005, pulse, grid)

    loss = _misfit(target, pulse, grid, tau=tau)
    rep = fd_check(loss, alpha.reshape(-1), h=1e-4, n_coords=None)
    assert rep.max_rel_error < 1e-7


def test_superpose_rejects_nonfinite(pulse, grid):
    with pytest.raises(NumericOverflowError):
        superpose(
            np.array([np.inf, 1.0, 1.0]),
            np.array([0.1, 0.2, 0.3]),
            pulse,
            grid,
        )


def test_layout_roundtrip(rng):
    layout = Layout(("a", "b", "c"), ((2, 3), (4,), ()))
    assert layout.size == 11
    segs = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4), "c": 7.0}
    flat = layout.pack(segs)
    back = layout.unpack(flat)
    np.testing.assert_array_equal(back["a"], segs["a"])
    np.testing.assert_array_equal(back["b"], segs["b"])
    assert back["c"] == 7.0
    with pytest.raises(KeyError):
        layout.slice_of("missing")
