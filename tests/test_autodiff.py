"""Reverse-mode engine: op-level gradients and FD audits."""

import numpy as np
import pytest

from aqualoc.autodiff import (
    GradReport,
    Layout,
    NumericOverflowError,
    Tensor,
    fd_check,
    grad,
    superpose,
    value_and_grad,
)
from aqualoc.signals import AnalyticPulse, TimeGrid, superpose_arrivals


def test_constant_function_zero_grad():
    val, g = value_and_grad(lambda x: Tensor(3.0) * Tensor(2.0), np.ones(4))
    assert val == 6.0
    np.testing.assert_array_equal(g, np.zeros(4))


def test_quadratic_gradient_closed_form(rng):
    a = rng.normal(size=7)
    x0 = rng.normal(size=7)
    val, g = value_and_grad(lambda x: (x * x * a).sum(), x0)
    assert val == pytest.approx(float(np.sum(a * x0 * x0)))
    np.testing.assert_allclose(g, 2.0 * a * x0, rtol=1e-14)


def test_gradient_linearity(rng):
    x0 = rng.normal(size=5)

    def f(x):
        return (x * x).sum()

    def h(x):
        return x.sum() * 2.0

    gf = grad(f, x0)
    gh = grad(h, x0)
    gsum = grad(lambda x: f(x) + 3.0 * h(x), x0)
    np.testing.assert_allclose(gsum, gf + 3.0 * gh, rtol=1e-14)


@pytest.mark.parametrize(
    "name,fn,deriv",
    [
        ("exp", lambda t: t.exp(), np.exp),
        ("log", lambda t: t.log(), lambda v: 1.0 / v),
        ("sqrt", lambda t: t.sqrt(), lambda v: 0.5 / np.sqrt(v)),
        ("tanh", lambda t: t.tanh(), lambda v: 1.0 - np.tanh(v) ** 2),
        ("sin", lambda t: t.sin(), np.cos),
        ("cos", lambda t: t.cos(), lambda v: -np.sin(v)),
        (
            "softplus",
            lambda t: t.softplus(),
            lambda v: 1.0 / (1.0 + np.exp(-v)),
        ),
    ],
)
def test_elementwise_derivatives(name, fn, deriv, rng):
    x0 = rng.uniform(0.1, 2.0, size=6)
    g = grad(lambda x: fn(x).sum(), x0)
    np.testing.assert_allclose(g, deriv(x0), rtol=1e-12)


def test_division_both_sides(rng):
    x0 = rng.uniform(0.5, 2.0, size=4)
    g_num = grad(lambda x: (x / 3.0).sum(), x0)
    np.testing.assert_allclose(g_num, np.full(4, 1.0 / 3.0), rtol=1e-15)
    g_den = grad(lambda x: (2.0 / x).sum(), x0)
    np.testing.assert_allclose(g_den, -2.0 / x0**2, rtol=1e-14)


def test_pow_and_neg(rng):
    x0 = rng.uniform(0.5, 2.0, size=4)
    g = grad(lambda x: (-(x**3)).sum(), x0)
    np.testing.assert_allclose(g, -3.0 * x0**2, rtol=1e-14)
    with pytest.raises(TypeError):
        x = Tensor(x0, needs_grad=True)
        _ = x ** Tensor(2.0)


def test_broadcast_add_mul_unbroadcasts(rng):
    x0 = rng.normal(size=3)

    def f(x):
        col = x.reshape(3, 1)
        row = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        return ((col + row) * row).sum()

    g = grad(f, x0)
    # d/dx_i sum_j (x_i + r_j) r_j = sum_j r_j = 10
    np.testing.assert_allclose(g, np.full(3, 10.0), rtol=1e-15)


def test_sum_axis_gradients(rng):
    x0 = rng.normal(size=12)
    for axis in (0, 1, None):
        g = grad(lambda x: (x.reshape(3, 4).sum(axis=axis) ** 2).sum()
                 if axis is not None
                 else x.reshape(3, 4).sum(axis=None) ** 2, x0)
        m = x0.reshape(3, 4)
        if axis is None:
            want = np.full((3, 4), 2.0 * m.sum())
        else:
            s = m.sum(axis=axis)
            want = 2.0 * np.expand_dims(s, axis) * np.ones((3, 4))
        np.testing.assert_allclose(g, want.reshape(-1), rtol=1e-13)


def test_matmul_gradient(rng):
    a0 = rng.normal(size=6)
    b = rng.normal(size=(3, 2))
    c = rng.normal(size=2)

    def f(x):
        return ((x.reshape(2, 3) @ b) * c).sum()

    g = grad(f, a0)
    want = (np.outer(np.ones(2), c) @ b.T).reshape(-1)
    np.testing.assert_allclose(g, want, rtol=1e-13)


def test_getitem_scatters_gradient(rng):
    x0 = rng.normal(size=5)
    g = grad(lambda x: x[1:3].sum() * 4.0, x0)
    np.testing.assert_array_equal(g, [0.0, 4.0, 4.0, 0.0, 0.0])


def test_reused_node_accumulates(rng):
    x0 = rng.normal(size=3)

    def f(x):
        y = x * 2.0
        return (y * y).sum() + y.sum()

    g = grad(f, x0)
    np.testing.assert_allclose(g, 8.0 * x0 + 2.0, rtol=1e-13)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), needs_grad=True) * 2.0
    with pytest.raises(ValueError):
        t.backward()


def test_nonfinite_forward_detected():
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericOverflowError, match="forward"):
            value_and_grad(lambda x: (x - 2.0).log().sum(), np.ones(2))


def test_nonfinite_gradient_detected():
    # sqrt(0) is finite but its derivative divides by zero
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericOverflowError, match="backward"):
            value_and_grad(lambda x: x.sqrt().sum(), np.zeros(2))


def test_fd_check_smooth_program(rng):
    x0 = rng.uniform(0.5, 1.5, size=20)

    def f(x):
        return ((x * x).sum() + x.exp().sum() * 0.01).sqrt()

    report = fd_check(f, x0, n_coords=None)
    assert isinstance(report, GradReport)
    assert report.max_rel_error < 1e-8
    assert report.ok()
    assert np.all(np.isfinite(report.fd))


def test_fd_check_subset_marks_unchecked(rng):
    x0 = rng.normal(size=30)
    report = fd_check(lambda x: (x * x).sum(), x0, n_coords=5, seed=1)
    assert len(report.checked) == 5
    assert np.isnan(report.fd).sum() == 25


def test_superpose_forward_matches_plain_kernel(pulse, grid):
    alpha = np.array([1.6e-3, -1.5e-3, 1.4e-3])
    tau = np.array([0.41209, 0.41724, 0.44207])
    plain = superpose_arrivals(alpha, tau, pulse, grid)
    t = superpose(Tensor(alpha), Tensor(tau), pulse, grid)
    np.testing.assert_array_equal(t.value, plain)


def test_superpose_gradients_match_fd(pulse, grid):
    alpha = np.array([1.6e-3, -1.5e-3, 1.4e-3])
    tau = np.array([0.41209, 0.41724, 0.44207])
    target = superpose_arrivals(alpha, tau * 1.0005, pulse, grid)

    def loss_alpha(a):
        y = superpose(a, Tensor(tau), pulse, grid)
        r = y - target
        return (r * r).sum()

    rep = fd_check(loss_alpha, alpha, h=1e-4, n_coords=None)
    assert rep.max_rel_error < 1e-7

    def loss_tau(t):
        y = superpose(Tensor(alpha), t, pulse, grid)
        r = y - target
        return (r * r).sum()

    # carrier period 1/750 s: steps must stay well inside a cycle
    rep = fd_check(loss_tau, tau, h=1e-8, n_coords=None)
    assert rep.max_rel_error < 1e-5


def test_superpose_batched_gradient(pulse, grid):
    alpha = np.array([[1.6e-3, -1.5e-3, 1.4e-3], [1.2e-3, -1.1e-3, 1.0e-3]])
    tau = np.array([[0.41209, 0.41724, 0.44207], [0.3, 0.31, 0.33]])
    target = superpose_arrivals(alpha, tau * 1.0005, pulse, grid)

    def loss(a):
        y = superpose(a.reshape(2, 3), Tensor(tau), pulse, grid)
        r = y - target
        return (r * r).sum()

    rep = fd_check(loss, alpha.reshape(-1), h=1e-4, n_coords=None)
    assert rep.max_rel_error < 1e-7


def test_superpose_rejects_nonfinite(pulse, grid):
    with pytest.raises(NumericOverflowError):
        superpose(
            Tensor(np.array([np.inf, 1.0, 1.0])),
            Tensor(np.array([0.1, 0.2, 0.3])),
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


def test_layout_segment_gradient(rng):
    layout = Layout(("w", "b"), ((3, 2), (2,)))
    flat0 = rng.normal(size=layout.size)

    def f(x):
        w = layout.segment(x, "w")
        b = layout.segment(x, "b").reshape(2, 1)
        return ((w @ b) ** 2).sum()

    rep = fd_check(f, flat0, n_coords=None)
    assert rep.max_rel_error < 1e-7


def test_rayleigh_quotient_stationary_at_eigvec():
    a = np.diag([3.0, 1.0, 0.5])

    def f(x):
        num = ((x @ a) * x).sum()
        den = (x * x).sum()
        return num / den

    g = grad(f, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(g, np.zeros(3), atol=1e-14)
