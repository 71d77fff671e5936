"""Adaptation-robustness verification: gradients, constants, end-to-end report."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from aqualoc.autodiff import value_and_grad
from aqualoc.environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    RHOS,
    path_geometry,
    synthesize_received,
)
from aqualoc.forward import ModelParams, NetworkModel, _LengthModel
from aqualoc.localize import GblConfig, _WaveformFit, da_gbl, toa_init
from aqualoc.pln import InputNormalization, PlnArchitecture, pln_init
from aqualoc.signals import SampledSignal, eval_pulse, eval_pulse_dt
from aqualoc.theory import (
    TheoremConfig,
    estimate_lambda,
    estimate_lipschitz,
    estimate_xi,
    fd_hessian,
    make_grad_fn,
    verify_theorem,
)

TRUE_P = np.array([DEFAULT_SOURCE.x, DEFAULT_SOURCE.z])


@pytest.fixture(scope="module")
def small_adapter(pulse):
    norm = InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)
    params = pln_init(PlnArchitecture(hidden=(8,)), norm, 0)
    return NetworkModel(ModelParams(params, 1500.0, 120.0, pulse))


# -- inputs --------------------------------------------------------------------


# -90 m puts the bottom at 110 m, above the 120 m receiver
@pytest.mark.parametrize("eps_depth_m", [math.nan, math.inf, True, -90.0])
def test_verify_rejects_bad_depth_offset_before_any_fit(small_adapter, monkeypatch, eps_depth_m):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the depth offset was checked")

    monkeypatch.setattr("aqualoc.theory.toa_init", no_fit)  # the first fit verify_theorem runs
    with pytest.raises(ValueError, match="eps_depth_m"):
        verify_theorem(small_adapter, DEFAULT_ENVIRONMENT, DEFAULT_SOURCE, eps_depth_m)


def test_config_validation():
    for value in (1.5, True, -1):
        with pytest.raises(ValueError, match="seed"):
            TheoremConfig(seed=value)
    seed = TheoremConfig(seed=2.0).seed
    assert seed == 2 and type(seed) is int


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
    objective = _WaveformFit(small_adapter, oracle_received, gamma, True)
    _, g_localize = value_and_grad(objective, v)
    assert np.allclose(g_theory, g_localize, rtol=1e-10, atol=1e-14)


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
        NetworkModel(reduced_checkpoint.model),
        DEFAULT_ENVIRONMENT,
        DEFAULT_SOURCE,
        0.0,
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
        NetworkModel(reduced_checkpoint.model),
        DEFAULT_ENVIRONMENT,
        DEFAULT_SOURCE,
        -10.0,
        TheoremConfig(),
    )
    assert rep.verdict == "budget-exceeded"
    assert not rep.passed
    assert not rep.budget_ok
    # no displacement claim is asserted for an out-of-budget perturbation
    assert not rep.displacement_ok


CLAIM_FLAGS = {"rho_ok", "gprime_ok", "budget_ok", "displacement_ok", "signs_ok", "passed"}


def test_not_applicable_report_defaults_every_later_field(small_adapter, tmp_path):
    # the untrained network's fit is not strongly convex on the sampled cube
    rep = verify_theorem(small_adapter, DEFAULT_ENVIRONMENT, DEFAULT_SOURCE, -0.05)
    assert rep.verdict.startswith("not-applicable")
    assert rep.convexity_ok is False
    names = [f.name for f in fields(rep)]
    later = names[names.index("convexity_ok") + 1:]
    assert CLAIM_FLAGS <= set(later)
    doc = json.loads(rep.save(tmp_path / "report.json").read_text())
    for name in later:
        for value in (getattr(rep, name), doc[name]):
            if name in CLAIM_FLAGS:
                assert value is False, name
            else:
                assert np.all(np.isnan(value)), name


def test_report_round_trips_as_json(theorem_report, tmp_path):
    path = theorem_report.save(tmp_path / "report.json")
    doc = json.loads(path.read_text())
    assert doc["verdict"] == theorem_report.verdict
    assert doc["lambda_hat"] == theorem_report.lambda_hat
    assert doc["seed"] == theorem_report.seed
    assert len(doc["p_scales"]) == 2


# -- known answers: a signal model whose one weight is the water depth -----------------


class DepthModel(_LengthModel):
    """Image-method lengths whose one weight is the water depth D, all else as in `env`.

    Only the bottom path moves with D: its weight Jacobian column is
    dl_b/dD = 2 (2D - z_r - z) / l_b. A depth at or above the receiver has
    no geometry; its lengths are NaN, so the fit's loss there is inf.
    """

    def __init__(self, env, pulse):
        self.env, self.pulse, self.sound_speed = env, pulse, env.sound_speed
        self.w_train = np.array([env.depth])

    def lengths(self, w, x, z):
        depth = self.env.depth if w is None else float(w[0])
        if not depth > self.env.receiver_depth:  # the fit's loss is inf and needs no Jacobian
            return np.full(3, math.nan), None
        lengths, d_p = path_geometry(replace(self.env, depth=depth), x, z)

        def jacobian(weights: bool = True):
            d_w = np.zeros((3, 1 if weights else 0))
            if weights:
                d_w[2, 0] = 2.0 * (2.0 * depth - self.env.receiver_depth - z) / lengths[2]
            return d_p(), d_w

        return lengths, jacobian


def gn_hessian(env, pulse, grid, gamma):
    """The Gauss-Newton Hessian of dt ||r - f||^2 + (gamma / 2) (D - D_train)^2 over
    (D, x, z) at the reference source, in closed form: 2 dt L^T G^T G L + gamma e_D e_D^T,
    with G = df/dl from the pulse and its derivative on the whole grid and L = dl/d(D, x, z)."""
    lengths, d_p = path_geometry(env, DEFAULT_SOURCE.x, DEFAULT_SOURCE.z)
    t = grid.times()[:, None] - lengths / env.sound_speed
    g = (-(RHOS / lengths**2) * eval_pulse(pulse, t)
         - (RHOS / (lengths * env.sound_speed)) * eval_pulse_dt(pulse, t))
    l_v = np.zeros((3, 3))
    l_v[2, 0] = 2.0 * (2.0 * env.depth - env.receiver_depth - DEFAULT_SOURCE.z) / lengths[2]
    l_v[:, 1:] = d_p()
    return 2.0 * grid.dt * l_v.T @ (g.T @ g) @ l_v + np.diag([gamma, 0.0, 0.0])


@pytest.fixture(scope="module")
def depth_model(pulse):
    return DepthModel(DEFAULT_ENVIRONMENT, pulse)


@pytest.fixture(scope="module")
def depth_reports(depth_model):
    """The depth model's reports at gamma = 10, by depth offset."""
    return {eps: verify_theorem(depth_model, DEFAULT_ENVIRONMENT, DEFAULT_SOURCE, eps)
            for eps in (0.0, -0.05, -1.0, -10.0)}


def test_depth_model_lengths_and_jacobian(depth_model, grid, pulse):
    # at the training depth it is the matched model; its depth column matches central differences
    x, z = DEFAULT_SOURCE.x, DEFAULT_SOURCE.z
    lengths, jacobian = depth_model.lengths(None, x, z)
    assert np.array_equal(lengths, path_geometry(DEFAULT_ENVIRONMENT, x, z)[0])
    h = 1e-4
    hi, _ = depth_model.lengths(np.array([DEFAULT_ENVIRONMENT.depth + h]), x, z)
    lo, _ = depth_model.lengths(np.array([DEFAULT_ENVIRONMENT.depth - h]), x, z)
    assert np.allclose(jacobian()[1][:, 0], (hi - lo) / (2.0 * h), rtol=1e-6, atol=0.0)
    # a depth at or above the receiver is an infinite loss, not an error
    fit = _WaveformFit(depth_model, synthesize_received(DEFAULT_ENVIRONMENT, DEFAULT_SOURCE, pulse,
                                                        grid), 10.0, True)
    for depth in (DEFAULT_ENVIRONMENT.receiver_depth, 100.0, math.nan):
        assert fit.evaluate(np.array([depth, x, z]))["loss"] == math.inf


def test_depth_model_verdicts(depth_reports):
    verdicts = {eps: rep.verdict for eps, rep in depth_reports.items()}
    assert verdicts == {0.0: "pass", -0.05: "pass", -1.0: "budget-exceeded",
                        -10.0: "budget-exceeded"}


def test_depth_model_probe_past_the_finite_loss_is_not_applicable(depth_model):
    # at gamma = 1e-10, H^-1 1 is so long along the depth that the xi probe's point at
    # -h lifts the bottom above the receiver, where the loss is inf
    rep = verify_theorem(depth_model, DEFAULT_ENVIRONMENT, DEFAULT_SOURCE, 0.0,
                         TheoremConfig(gamma=1e-10))
    assert rep.convexity_ok
    assert rep.verdict == ("not-applicable: the xi probe along H^-1 1 leaves the region where "
                           "the loss is finite")
    assert not rep.passed and math.isnan(rep.xi_hat)


@pytest.mark.parametrize("gamma", [10.0, 1e-3, 1e-6])
def test_depth_model_lambda_center_is_the_closed_form_hessians(depth_model, depth_reports,
                                                               pulse, grid, gamma):
    # noiseless data at the training depth: the fit lands on the truth, where the
    # loss Hessian is the Gauss-Newton one; the report's coordinates rescale x and z
    rep = depth_reports[0.0] if gamma == 10.0 else verify_theorem(
        depth_model, DEFAULT_ENVIRONMENT, DEFAULT_SOURCE, 0.0, TheoremConfig(gamma=gamma))
    scales = np.diag([1.0, *rep.p_scales])
    want = np.linalg.eigvalsh(scales @ gn_hessian(DEFAULT_ENVIRONMENT, pulse, grid, gamma)
                             @ scales)[0]
    assert rep.lambda_center == pytest.approx(want, rel=1e-5)


# the depth offsets of the recordings the adapting fit recovers, and its settings
RECOVERY_OFFSETS = (-0.5, 0.05, 1.0)
THEOREM_FIT = GblConfig(max_iter=800, step_tol_m=1e-7)


def _adapted_fits(depth_model, pulse, grid, gamma):
    """(offset, da_gbl result, true depth) from the TOA seed, noiseless, per recovery offset."""
    for offset in RECOVERY_OFFSETS:
        env_true = replace(DEFAULT_ENVIRONMENT, depth=DEFAULT_ENVIRONMENT.depth + offset)
        received = synthesize_received(env_true, DEFAULT_SOURCE, pulse, grid)
        p0 = toa_init(received, pulse, DEFAULT_ENVIRONMENT).p0
        yield offset, da_gbl(received, depth_model, p0, gamma, THEOREM_FIT), env_true.depth


def test_depth_model_unanchored_fit_recovers_depth_and_position(depth_model, pulse, grid):
    for _, result, depth in _adapted_fits(depth_model, pulse, grid, 0.0):
        assert np.abs(result.p_hat - TRUE_P).max() <= 1e-9
        assert abs(result.w_hat[0] - depth) <= 1e-9


@pytest.mark.parametrize("gamma", [1e-10, 1e-12])
def test_depth_model_anchor_shrinks_depth_by_ridge_factor(depth_model, pulse, grid, gamma):
    # the anchor pulls the depth back toward training by gamma / (gamma + kappa) of the
    # offset, kappa the depth's Schur complement in the Gauss-Newton Hessian
    h = gn_hessian(DEFAULT_ENVIRONMENT, pulse, grid, 0.0)
    kappa = h[0, 0] - h[0, 1:] @ np.linalg.solve(h[1:, 1:], h[1:, 0])
    for offset, result, depth in _adapted_fits(depth_model, pulse, grid, gamma):
        want = -offset * gamma / (gamma + kappa)
        assert result.w_hat[0] - depth == pytest.approx(want, rel=1e-2)
