"""TOA seeding, gradient localization, adaptation, and the position CRLB."""

import numpy as np
import pytest

from aqualoc.autodiff import fd_check, value_and_grad
from aqualoc.environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    DIRECT,
    Environment,
    SURFACE,
    SourceLocation,
    arrival_params,
    synthesize_received,
)
from aqualoc.forward import MatchedModel, ModelParams, NetworkModel
from aqualoc.localize import (
    CrlbResult,
    GblConfig,
    SingularFisherError,
    ToaInitError,
    _make_objective,
    crlb,
    da_gbl,
    da_loss,
    gbl,
    toa_init,
)
from aqualoc.pln import InputNormalization, PlnArchitecture, pln_init
from aqualoc.signals import (
    NoiseSpec,
    SampledSignal,
    add_awgn,
    snr_to_n0,
    superpose_arrivals,
)

TRUE_P = np.array([DEFAULT_SOURCE.x, DEFAULT_SOURCE.z])


@pytest.fixture(scope="module")
def matched(env, pulse):
    return MatchedModel(env, pulse)


@pytest.fixture(scope="module")
def reduced_adapter(pulse):
    norm = InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)
    params = pln_init(PlnArchitecture(hidden=(8,)), norm, 0)
    return NetworkModel(ModelParams(params, 1500.0, 120.0, pulse))


# -- TOA initialization -------------------------------------------------------


def test_toa_noiseless_reference(env, pulse, oracle_received):
    est = toa_init(oracle_received, pulse, env)
    assert est.n_peaks == 3
    assert np.all(np.diff(est.times) > 0)
    _, taus = arrival_params(env, DEFAULT_SOURCE)
    np.testing.assert_allclose(est.times, taus, atol=2e-5)
    assert np.linalg.norm(est.p0 - TRUE_P) <= 1.0
    assert DEFAULT_REGION.contains(est.p0[0], est.p0[1])


def test_toa_peak_separation_floor(env, pulse, oracle_received):
    est = toa_init(oracle_received, pulse, env)
    # integer-lag enforcement minus at most one sample of refinement each side
    fs = oracle_received.grid.sample_rate
    assert np.min(np.diff(est.times)) >= 2.0 / pulse.bandwidth - 2.0 / fs


def test_toa_noisy_rmse(env, pulse, oracle_received):
    n0 = snr_to_n0(oracle_received, 20.0, pulse.bandwidth)
    errs = []
    for trial in range(100):
        noisy = add_awgn(oracle_received, NoiseSpec(n0, trial))
        est = toa_init(noisy, pulse, env)
        errs.append(np.linalg.norm(est.p0 - TRUE_P))
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    assert rmse <= 15.0


def test_toa_two_peak_fallback(env, pulse, grid):
    src = SourceLocation(500.0, 40.0)
    _, taus = arrival_params(env, src)
    lengths = taus * env.sound_speed
    alphas = np.array([1.0 / lengths[0], -1.0 / lengths[1]])
    values = superpose_arrivals(alphas, taus[:2], pulse, grid)
    est = toa_init(SampledSignal(grid, values), pulse, env)
    assert est.n_peaks == 2
    assert est.assignment == (DIRECT, SURFACE)
    assert np.linalg.norm(est.p0 - [500.0, 40.0]) <= 1.0


def test_toa_rejects_silence(env, pulse, grid):
    silent = SampledSignal(grid, np.zeros(grid.n_samples))
    with pytest.raises(ToaInitError):
        toa_init(silent, pulse, env)


def test_toa_rejects_single_arrival(env, pulse, grid):
    src = SourceLocation(500.0, 40.0)
    _, taus = arrival_params(env, src)
    values = superpose_arrivals(
        np.array([2e-3]), taus[:1], pulse, grid
    )
    with pytest.raises(ToaInitError):
        toa_init(SampledSignal(grid, values), pulse, env)


def test_toa_wrong_environment_still_seeds(env, pulse, oracle_received):
    # a 2 m deeper assumed water column shifts the inversion but not fatally
    wrong = Environment(202.0, env.sound_speed, env.receiver_depth)
    est = toa_init(oracle_received, pulse, wrong)
    assert np.linalg.norm(est.p0 - TRUE_P) <= 20.0


# -- gradient-based localization ----------------------------------------------


def test_gbl_converges_from_offset_seed(matched, oracle_received):
    res = gbl(oracle_received, matched, TRUE_P + [5.0, 2.0])
    assert res.converged
    assert np.linalg.norm(res.p_hat - TRUE_P) <= 0.05
    assert res.w_hat is None


def test_gbl_immediate_at_truth(matched, oracle_received):
    res = gbl(oracle_received, matched, TRUE_P.copy())
    assert res.converged
    assert res.n_iter <= 1
    assert np.linalg.norm(res.p_hat - TRUE_P) <= 1e-3


def test_gbl_gradient_exit_meets_tolerance(matched, oracle_received):
    res = gbl(oracle_received, matched, TRUE_P + [5.0, 2.0])
    if res.exit_reason == "gradient":
        assert res.grad_norm <= res.grad_tol


def test_gbl_loss_not_above_seed_loss(matched, oracle_received):
    p0 = TRUE_P + [8.0, -4.0]
    seed_loss = da_loss(matched, oracle_received, None, p0, 0.0)
    res = gbl(oracle_received, matched, p0)
    assert res.loss <= seed_loss


def test_gbl_reports_iteration_cap(matched, oracle_received):
    # an in-basin seed needs several contraction steps, so one is not enough
    res = gbl(oracle_received, matched, TRUE_P + [0.4, 0.15], GblConfig(max_iter=1))
    assert not res.converged
    assert res.exit_reason == "max_iter"


def test_gbl_region_clip(matched, oracle_received):
    cfg = GblConfig(region=DEFAULT_REGION)
    res = gbl(oracle_received, matched, np.array([890.0, 95.0]), cfg)
    assert DEFAULT_REGION.contains(res.p_hat[0], res.p_hat[1])


def test_gbl_recomputed_gradient_consistent(matched, oracle_received):
    res = gbl(oracle_received, matched, TRUE_P + [5.0, 2.0])
    assert res.converged
    objective, _ = _make_objective(matched, oracle_received, 0.0, False)
    _, g = value_and_grad(objective, res.p_hat)
    recomputed = float(np.linalg.norm(np.array(res.p_scales) * g))
    assert recomputed == pytest.approx(res.grad_norm, rel=0.01)


def test_gbl_without_capture_passes_stalls_off_basin(matched, oracle_received):
    # the exact objective's basin is about half a carrier wavelength wide;
    # from 5 m out a single-scale descent cannot cross the ripples between
    res = gbl(
        oracle_received, matched, TRUE_P + [5.0, 2.0], GblConfig(smooth_sigmas=())
    )
    assert np.linalg.norm(res.p_hat - TRUE_P) > 1.0


def test_gbl_config_rejects_bad_smoothing():
    with pytest.raises(ValueError):
        GblConfig(smooth_sigmas=(0.0,))
    with pytest.raises(ValueError):
        GblConfig(smooth_sigmas=(1e-3, 2e-3))


def test_gbl_argmin_consistency(matched, oracle_received, rng):
    res = gbl(oracle_received, matched, TRUE_P + [5.0, 2.0])
    best = da_loss(matched, oracle_received, None, res.p_hat, 0.0)
    for _ in range(100):
        d = rng.normal(size=2)
        d *= rng.uniform(0.5, 20.0) / np.linalg.norm(d)
        probe = DEFAULT_REGION.clip(*(res.p_hat + d))
        assert best <= da_loss(matched, oracle_received, None, np.array(probe), 0.0) + 1e-18


# -- adaptation objective ------------------------------------------------------


def test_da_loss_zero_regularizer_at_anchor(reduced_adapter, oracle_received):
    w = reduced_adapter.w_train.copy()
    with_reg = da_loss(reduced_adapter, oracle_received, w, TRUE_P, 7.0)
    data_only = da_loss(reduced_adapter, oracle_received, w, TRUE_P, 0.0)
    assert with_reg == pytest.approx(data_only, rel=1e-14)


def test_da_loss_hand_case(reduced_adapter, oracle_received):
    from aqualoc.localize import _signal_values

    w = reduced_adapter.w_train.copy()
    w[5] += 2.0  # ||w - w_tr||^2 = 4, gamma = 3 -> regularizer 6
    f = _signal_values(reduced_adapter, w, TRUE_P, oracle_received.grid)
    data = oracle_received.grid.dt * float(
        np.sum((f - oracle_received.values) ** 2)
    )
    got = da_loss(reduced_adapter, oracle_received, w, TRUE_P, 3.0)
    assert got == pytest.approx(data + 6.0, rel=1e-12)


def test_da_loss_gamma_zero_ignores_anchor(reduced_adapter, oracle_received, rng):
    w = reduced_adapter.w_train + rng.normal(scale=0.1, size=reduced_adapter.n_weights)
    from aqualoc.localize import _signal_values

    f = _signal_values(reduced_adapter, w, TRUE_P, oracle_received.grid)
    data = oracle_received.grid.dt * float(np.sum((f - oracle_received.values) ** 2))
    assert da_loss(reduced_adapter, oracle_received, w, TRUE_P, 0.0) == pytest.approx(
        data, rel=1e-12
    )


def test_da_objective_with_sound_speed_matches_fd(pulse, oracle_received):
    # every coordinate of [weights; c / SOUND_SPEED_SCALE; x; z] on an
    # untrained network, with the selftest's step and tolerance
    norm = InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)
    params = pln_init(PlnArchitecture(hidden=(3,)), norm, 0)
    adapter = NetworkModel(ModelParams(params, 1500.0, 120.0, pulse, adapt_sound_speed=True))
    objective, nw = _make_objective(adapter, oracle_received, gamma=1.0, adapt_weights=True)
    assert nw == params.values.size + 1
    v = np.concatenate([adapter.w_train, TRUE_P + [0.2, -0.1]])
    report = fd_check(objective, v, h=1e-6, n_coords=None)
    assert len(report.checked) == v.size
    assert report.ok(1e-5), f"max rel error {report.max_rel_error:.2e}"


# -- adapted localization -------------------------------------------------------


def test_da_gbl_weightless_adapter_reduces_to_gbl(matched, oracle_received):
    p0 = TRUE_P + [5.0, 2.0]
    plain = gbl(oracle_received, matched, p0.copy())
    da = da_gbl(oracle_received, matched, p0.copy(), gamma=1.0)
    np.testing.assert_array_equal(da.p_hat, plain.p_hat)
    assert da.gamma == 1.0
    assert da.w_hat is None


def test_da_gbl_huge_gamma_freezes_weights(trained_checkpoint, oracle_received):
    adapter = NetworkModel(trained_checkpoint.model)
    p0 = TRUE_P + [3.0, 1.0]
    da = da_gbl(oracle_received, adapter, p0.copy(), gamma=1e9)
    rel = np.linalg.norm(da.w_hat - adapter.w_train) / np.linalg.norm(adapter.w_train)
    assert rel <= 1e-6
    plain = gbl(oracle_received, adapter, p0.copy())
    assert np.linalg.norm(da.p_hat - plain.p_hat) <= 0.05


def test_da_gbl_matched_env_stays_anchored(trained_checkpoint, oracle_received):
    adapter = NetworkModel(trained_checkpoint.model)
    est = toa_init(oracle_received, trained_checkpoint.model.pulse, DEFAULT_ENVIRONMENT)
    da = da_gbl(oracle_received, adapter, est.p0.copy(), gamma=1.0)
    assert np.linalg.norm(da.p_hat - TRUE_P) <= 0.5
    rel = np.linalg.norm(da.w_hat - adapter.w_train) / np.linalg.norm(adapter.w_train)
    assert rel <= 1e-2


# -- Cramer-Rao bound -----------------------------------------------------------


def test_crlb_reference_value(env, pulse, grid, oracle_received):
    n0 = snr_to_n0(oracle_received, 20.0, pulse.bandwidth)
    res = crlb(env, 610.0, 20.0, pulse, grid, n0)
    assert isinstance(res, CrlbResult)
    assert res.rmse_bound == pytest.approx(0.004014381764703076, rel=1e-10)


def test_crlb_noise_scaling(env, pulse, grid, oracle_received):
    n0 = snr_to_n0(oracle_received, 20.0, pulse.bandwidth)
    base = crlb(env, 610.0, 20.0, pulse, grid, n0)
    worse = crlb(env, 610.0, 20.0, pulse, grid, 4.0 * n0)
    assert worse.rmse_bound == pytest.approx(2.0 * base.rmse_bound, rel=1e-12)


def test_crlb_fim_symmetric_positive_definite(env, pulse, grid, oracle_received):
    n0 = snr_to_n0(oracle_received, 20.0, pulse.bandwidth)
    res = crlb(env, 610.0, 20.0, pulse, grid, n0)
    np.testing.assert_allclose(res.fim, res.fim.T, rtol=1e-15)
    eig = np.linalg.eigvalsh(res.fim)
    assert np.all(eig > 0.0)
    np.testing.assert_allclose(
        res.per_coord, np.sqrt(np.diag(res.covariance)), rtol=1e-15
    )


def test_crlb_matches_fd_sensitivities(env, pulse, grid, oracle_received):
    n0 = snr_to_n0(oracle_received, 20.0, pulse.bandwidth)
    res = crlb(env, 610.0, 20.0, pulse, grid, n0)
    h = 1e-3

    def field(x, z):
        return synthesize_received(env, SourceLocation(x, z), pulse, grid).values

    dfdx = (field(610.0 + h, 20.0) - field(610.0 - h, 20.0)) / (2.0 * h)
    dfdz = (field(610.0, 20.0 + h) - field(610.0, 20.0 - h)) / (2.0 * h)
    fd_fim = (2.0 / n0) * grid.dt * np.array(
        [[dfdx @ dfdx, dfdx @ dfdz], [dfdz @ dfdx, dfdz @ dfdz]]
    )
    np.testing.assert_allclose(fd_fim, res.fim, rtol=5e-3)


def test_crlb_rejects_bad_noise(env, pulse, grid):
    with pytest.raises(ValueError):
        crlb(env, 610.0, 20.0, pulse, grid, 0.0)


def test_crlb_singular_geometry(env, pulse, grid):
    # x -> 0 kills every d(tau)/dx: the range coordinate is unidentifiable
    with pytest.raises(SingularFisherError):
        crlb(env, 1e-160, 20.0, pulse, grid, 1e-10)
