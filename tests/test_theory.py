"""Adaptation-robustness verification: gradients, constants, end-to-end report."""

import json
import math

import numpy as np
import pytest

from aqualoc.autodiff import value_and_grad
from aqualoc.environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    synthesize_received,
)
from aqualoc.forward import ModelParams, NetworkModel
from aqualoc.localize import _make_objective
from aqualoc.pln import InputNormalization, PlnArchitecture, pln_init
from aqualoc.signals import SampledSignal, TimeGrid, make_pulse
from aqualoc.theory import (
    EnvPerturbation,
    TheoremConfig,
    estimate_lambda,
    estimate_lipschitz,
    estimate_xi,
    fd_hessian,
    grad_G,
    make_grad_fn,
    verify_theorem,
)

TRUE_P = np.array([DEFAULT_SOURCE.x, DEFAULT_SOURCE.z])


@pytest.fixture(scope="module")
def small_model(pulse):
    norm = InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)
    params = pln_init(PlnArchitecture(hidden=(8,)), norm, 0)
    return ModelParams(params, 1500.0, 120.0, pulse)


@pytest.fixture(scope="module")
def small_adapter(small_model):
    return NetworkModel(small_model)


# -- perturbation type ---------------------------------------------------------


def test_perturbation_norm_and_apply():
    eps = EnvPerturbation(depth_m=-3.0, sound_speed_ms=4.0)
    assert eps.norm == pytest.approx(5.0)
    shifted = eps.applied_to(DEFAULT_ENVIRONMENT)
    assert shifted.depth == DEFAULT_ENVIRONMENT.depth - 3.0
    assert shifted.sound_speed == DEFAULT_ENVIRONMENT.sound_speed + 4.0
    assert shifted.receiver_depth == DEFAULT_ENVIRONMENT.receiver_depth


def test_perturbation_rejects_nonfinite():
    with pytest.raises(ValueError):
        EnvPerturbation(depth_m=math.nan)


def test_config_validation():
    with pytest.raises(ValueError):
        TheoremConfig(sigma=0.0)
    with pytest.raises(ValueError):
        TheoremConfig(kappa_points=4)
    with pytest.raises(ValueError):
        TheoremConfig(cube_samples=4)


# -- gradient of the adaptation objective --------------------------------------


def test_grad_regularizer_only(small_adapter, grid, rng):
    # data generated by the model at v itself: zero residual kills the data
    # term's gradient exactly, leaving the quadratic anchor alone
    nw = small_adapter.n_weights
    w = small_adapter.w_train + 0.01 * rng.normal(size=nw)
    v = np.concatenate([w, TRUE_P])
    made, _ = small_adapter.signal_t(w, TRUE_P[0], TRUE_P[1], grid)
    received = SampledSignal(grid, made)
    gamma = 7.0
    g = make_grad_fn(small_adapter, received, gamma)(v)
    expect_w = gamma * (w - small_adapter.w_train)
    assert np.allclose(g[:nw], expect_w, rtol=0.0, atol=1e-12)
    assert np.allclose(g[nw:], 0.0, atol=1e-12)


def test_grad_matches_double_evaluation(small_adapter, oracle_received):
    nw = small_adapter.n_weights
    v = np.concatenate([small_adapter.w_train, TRUE_P + [0.3, -0.2]])
    gamma = 2.5
    g_theory = make_grad_fn(small_adapter, oracle_received, gamma)(v)
    objective, _ = _make_objective(small_adapter, oracle_received, gamma, adapt_weights=True)
    _, g_localize = value_and_grad(objective, v)
    assert np.allclose(g_theory, g_localize, rtol=1e-10, atol=1e-14)


def test_grad_G_entry_point(small_model, grid):
    nw = small_model.pln.values.size
    v = np.concatenate([small_model.pln.values, TRUE_P])
    g = grad_G(v, DEFAULT_ENVIRONMENT, DEFAULT_SOURCE, small_model, 0.0)
    assert g.shape == (nw + 2,)
    assert np.all(np.isfinite(g))


# -- strong convexity estimate --------------------------------------------------


def quad_grad(h_matrix, center):
    return lambda v: h_matrix @ (np.asarray(v) - center)


def test_lambda_pure_quadratic_with_flat_block(rng):
    # anchor-only objective: gamma on the weight block, nothing on position
    n = 6
    gamma = 3.0
    h_matrix = np.diag([gamma] * (n - 2) + [0.0, 0.0])
    est = estimate_lambda(
        quad_grad(h_matrix, np.zeros(n)), np.zeros(n), 0.1, 1e-4, 8, rng
    )
    assert abs(est.lambda_hat) <= 1e-8
    assert est.asym_max <= 1e-9


def test_lambda_recovers_spd_spectrum(rng):
    a = rng.normal(size=(5, 5))
    h_matrix = a @ a.T + 0.5 * np.eye(5)
    want = float(np.linalg.eigvalsh(h_matrix)[0])
    est = estimate_lambda(quad_grad(h_matrix, np.zeros(5)), np.zeros(5), 0.05, 1e-4, 8, rng)
    assert est.lambda_hat == pytest.approx(want, rel=1e-8)


def test_lambda_below_rayleigh_quotient(rng):
    a = rng.normal(size=(5, 5))
    h_matrix = a @ a.T + 0.5 * np.eye(5)
    est = estimate_lambda(quad_grad(h_matrix, np.zeros(5)), np.zeros(5), 0.05, 1e-4, 8, rng)
    for _ in range(10):
        d = rng.normal(size=5)
        rayleigh = float(d @ est.hessian_center @ d) / float(d @ d)
        assert est.lambda_hat <= rayleigh + 1e-10


def test_fd_hessian_symmetry_gate_on_smooth_gradient(rng):
    a = rng.normal(size=(4, 4))

    def grad_fn(v):
        return np.tanh(a @ v) @ a + v

    _, asym = fd_hessian(grad_fn, rng.normal(size=4), 1e-4)
    assert asym <= 1e-3


# -- environment Lipschitz estimate ---------------------------------------------


def test_lipschitz_environment_independent_loss():
    def grad_fn_for_depth(d):
        return lambda v: np.asarray(v) ** 2

    est = estimate_lipschitz(grad_fn_for_depth, [np.ones(3)], (0.5, -0.5, 2.0))
    assert est.l_hat == 0.0


def test_lipschitz_linear_dependence_two_scale():
    # gradient shifts linearly with depth: every probe sees the same ratio
    def grad_fn_for_depth(d):
        return lambda v: np.asarray(v) + d * np.array([2.0, 0.0, 0.0])

    est = estimate_lipschitz(grad_fn_for_depth, [np.zeros(3)], (0.5, 1.0))
    assert est.l_hat == pytest.approx(2.0, rel=1e-12)
    ratios = [r for _, _, r in est.rows]
    assert max(ratios) <= 2.0 * min(ratios)


def test_lipschitz_max_over_supersets_monotone(rng):
    def grad_fn_for_depth(d):
        return lambda v: np.sin(np.asarray(v) * (1.0 + d))

    samples = [rng.normal(size=3) for _ in range(4)]
    small = estimate_lipschitz(grad_fn_for_depth, samples[:2], (0.5, 1.0))
    large = estimate_lipschitz(grad_fn_for_depth, samples, (0.5, 1.0))
    assert large.l_hat >= small.l_hat


def test_lipschitz_rejects_zero_step():
    def grad_fn_for_depth(d):
        return lambda v: np.asarray(v)

    with pytest.raises(ValueError):
        estimate_lipschitz(grad_fn_for_depth, [np.zeros(2)], (0.0, 1.0))


# -- ray curvature estimate ------------------------------------------------------


def test_xi_exactly_quadratic(rng):
    a = rng.normal(size=(5, 5))
    h_matrix = a @ a.T + 0.5 * np.eye(5)
    v0 = rng.normal(size=5)
    direction = np.linalg.solve(h_matrix, np.ones(5))
    est = estimate_xi(quad_grad(h_matrix, v0), v0, direction, 0.1, 33)
    # g(kappa) = kappa * 1 for a quadratic: zero curvature, unit slope
    assert est.g0_norm == 0.0
    assert est.gprime_max_err <= 1e-9
    assert est.xi_hat <= 1e-6
    assert np.allclose(est.g_values[-1], est.kappas[-1], rtol=0.0, atol=1e-9)


def test_xi_detects_cubic_curvature():
    # g(kappa) = kappa + kappa^2 along the probe ray: second derivative 2
    def grad_fn(v):
        t = float(v[0])
        return np.array([t + t * t, 0.0])

    est = estimate_xi(grad_fn, np.zeros(2), np.array([1.0, 0.0]), 0.2, 33)
    assert est.xi_hat == pytest.approx(2.0, rel=1e-6)


# -- end-to-end verification -----------------------------------------------------


@pytest.fixture(scope="session")
def theorem_zero(reduced_checkpoint):
    return verify_theorem(
        reduced_checkpoint.model,
        DEFAULT_ENVIRONMENT,
        DEFAULT_SOURCE,
        EnvPerturbation(0.0, 0.0),
        TheoremConfig(),
    )


def test_verify_zero_perturbation_displacement(theorem_zero):
    rep = theorem_zero
    assert rep.convexity_ok
    assert rep.budget_ok
    # same data, same init: the two fits land on the same stationary point
    assert rep.displacement <= 1e-3 * rep.bound
    assert rep.displacement_ok


def test_verify_zero_perturbation_diagnostics(theorem_zero):
    rep = theorem_zero
    assert rep.hessian_asym <= 1e-3
    assert rep.g0_norm <= 1e-4
    assert rep.gprime_max_err <= 1e-2
    assert rep.rho_ok
    assert rep.rho_cube <= rep.theta / math.sqrt(rep.lambda_hat) * 1.01


def test_verify_reference_perturbation_passes(theorem_report):
    rep = theorem_report
    assert rep.verdict == "pass"
    assert rep.passed
    assert rep.budget_ok and rep.displacement_ok and rep.signs_ok
    assert rep.displacement <= rep.bound
    assert rep.sign_pos_min > 0.0
    assert rep.sign_neg_max < 0.0


def test_verify_big_perturbation_reports_budget_exceeded(reduced_checkpoint):
    rep = verify_theorem(
        reduced_checkpoint.model,
        DEFAULT_ENVIRONMENT,
        DEFAULT_SOURCE,
        EnvPerturbation(-10.0, 0.0),
        TheoremConfig(),
    )
    assert rep.verdict == "budget-exceeded"
    assert not rep.passed
    assert not rep.budget_ok
    # no displacement claim is asserted for an out-of-budget perturbation
    assert not rep.displacement_ok


def test_report_round_trips_as_json(theorem_report, tmp_path):
    path = theorem_report.save(tmp_path / "report.json")
    doc = json.loads(path.read_text())
    assert doc["verdict"] == theorem_report.verdict
    assert doc["lambda_hat"] == theorem_report.lambda_hat
    assert doc["seed"] == theorem_report.seed
    assert len(doc["p_scales"]) == 2
