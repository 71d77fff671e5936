"""Explicit-chain plumbing: value/gradient protocol, FD audits, checked superposition."""

import numpy as np
import pytest

from aqualoc.autodiff import (
    GradReport,
    Layout,
    NumericOverflowError,
    fd_check,
    on_windows,
    superpose,
    value_and_grad,
)
from aqualoc.signals import superpose_windows


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


def test_superpose_forward_matches_plain_kernel(pulse, grid):
    alpha = np.array([1.6e-3, -1.5e-3, 1.4e-3])
    tau = np.array([0.41209, 0.41724, 0.44207])
    plain = superpose_windows(alpha, tau, pulse, grid)[0]
    y, _ = superpose(alpha, tau, pulse, grid)
    np.testing.assert_array_equal(y, plain)


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


def test_on_windows_matches_loop(rng):
    # window j read on window i's samples, against a per-sample loop; the
    # starts give overlaps by part of a window, none, and exactly a window
    w_len = 7
    x = rng.normal(size=(2, 3, w_len))
    start = np.array([[10, 13, 40], [5, 5 + w_len, 2]])
    got = on_windows(x, start)
    want = np.zeros((2, 3, 3, w_len))
    for k in range(2):
        for i in range(3):
            for j in range(3):
                for m in range(w_len):
                    lag = start[k, i] + m - start[k, j]
                    if 0 <= lag < w_len:
                        want[k, i, j, m] = x[k, j, lag]
    np.testing.assert_array_equal(got, want)
