"""Pulse, grid, energy, SNR, and noise primitives."""

import math

import numpy as np
import pytest

from aqualoc.environment import DEFAULT_SOURCE, arrival_params
from aqualoc.signals import (
    AnalyticPulse,
    NoiseSpec,
    SampledSignal,
    TimeGrid,
    add_awgn,
    analytic_envelope,
    energy,
    eval_pulse,
    eval_pulse_dt,
    make_pulse,
    snr_to_n0,
    superpose_arrivals,
)

SIGMA_P = 1.0 / (math.pi * 500.0)


def reference_pulse(t, f0=750.0, bandwidth=500.0, t_c=0.05):
    """Independent closed form used as the oracle for the shipped pulse."""
    t = np.asarray(t, dtype=float)
    sigma = 1.0 / (math.pi * bandwidth)
    return np.exp(-((t - t_c) ** 2) / (2 * sigma**2)) * np.cos(
        2 * math.pi * f0 * (t - t_c)
    )


def test_pulse_peaks_at_center_time(pulse):
    assert eval_pulse(pulse, pulse.center_time) == 1.0


def test_pulse_decays_ten_sigmas_out(pulse):
    t = pulse.center_time + 10.0 * pulse.sigma
    assert abs(eval_pulse(pulse, t)) < 1e-20


def test_pulse_sigma_matches_bandwidth_convention(pulse):
    assert pulse.sigma == pytest.approx(SIGMA_P, rel=0, abs=0)


def test_pulse_energy_matches_oversampled_riemann(pulse, grid):
    sig = SampledSignal(grid, eval_pulse(pulse, grid.times()))
    fine = np.arange(10 * grid.n_samples) / (10.0 * grid.sample_rate)
    oracle = np.sum(reference_pulse(fine) ** 2) / (10.0 * grid.sample_rate)
    assert energy(sig) == pytest.approx(oracle, rel=1e-3)


def test_pulse_rejects_bad_parameters():
    with pytest.raises(ValueError):
        AnalyticPulse(-1.0, 500.0, 0.05)
    with pytest.raises(ValueError):
        AnalyticPulse(750.0, 0.0, 0.05)


def test_eval_pulse_is_even_about_center(pulse, rng):
    deltas = rng.uniform(-5 * pulse.sigma, 5 * pulse.sigma, 50)
    left = eval_pulse(pulse, pulse.center_time - deltas)
    right = eval_pulse(pulse, pulse.center_time + deltas)
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-15)


def test_eval_pulse_dt_zero_at_peak(pulse):
    assert eval_pulse_dt(pulse, pulse.center_time) == 0.0


def test_eval_pulse_dt_matches_central_difference(pulse):
    t = pulse.center_time + 1e-3
    h = 1e-7
    fd = (eval_pulse(pulse, t + h) - eval_pulse(pulse, t - h)) / (2 * h)
    assert eval_pulse_dt(pulse, t) == pytest.approx(fd, rel=1e-6)


def test_eval_pulse_dt_matches_fd_at_random_points(pulse, rng):
    t = pulse.center_time + rng.uniform(-4 * pulse.sigma, 4 * pulse.sigma, 100)
    h = 1e-8
    fd = (eval_pulse(pulse, t + h) - eval_pulse(pulse, t - h)) / (2 * h)
    an = eval_pulse_dt(pulse, t)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-6)
    assert np.max(np.abs(an - fd) / denom) <= 1e-6


def test_pulse_bounded_by_amplitude(pulse, rng):
    t = rng.uniform(-1.0, 1.0, 10000)
    assert np.max(np.abs(eval_pulse(pulse, t))) <= 1.0


def test_energy_zero_signal(grid):
    assert energy(SampledSignal(grid, np.zeros(grid.n_samples))) == 0.0


def test_energy_constant_signal(grid):
    sig = SampledSignal(grid, np.ones(grid.n_samples))
    assert energy(sig) == pytest.approx(2.0, abs=grid.dt)


def test_energy_received_signal_matches_oversampled_riemann(env, grid, oracle_received):
    alphas, taus = arrival_params(env, DEFAULT_SOURCE)
    fine_fs = 10.0 * grid.sample_rate
    t = np.arange(int(fine_fs * grid.duration)) / fine_fs
    f = sum(a * reference_pulse(t - tau) for a, tau in zip(alphas, taus))
    oracle = np.sum(f * f) / fine_fs
    assert energy(oracle_received) == pytest.approx(oracle, rel=5e-3)


def test_energy_additive_over_disjoint_supports(grid):
    a = np.zeros(grid.n_samples)
    b = np.zeros(grid.n_samples)
    a[:100] = 1.5
    b[200:300] = -2.0
    ea = energy(SampledSignal(grid, a))
    eb = energy(SampledSignal(grid, b))
    eab = energy(SampledSignal(grid, a + b))
    assert eab == pytest.approx(ea + eb, rel=1e-12)


def test_snr_to_n0_unit_case(grid):
    values = np.zeros(grid.n_samples)
    values[0] = math.sqrt(grid.sample_rate)  # energy dt * fs = 1
    sig = SampledSignal(grid, values)
    assert snr_to_n0(sig, 0.0, 1.0) == pytest.approx(1.0)


def test_snr_to_n0_inverse_in_snr(oracle_received):
    n0_lo = snr_to_n0(oracle_received, 10.0, 500.0)
    n0_hi = snr_to_n0(oracle_received, 10.0 + 10.0 * math.log10(2.0), 500.0)
    assert n0_lo == pytest.approx(2.0 * n0_hi, rel=1e-12)


def test_snr_to_n0_paper_point(oracle_received):
    expected = energy(oracle_received) / (500.0 * 100.0)
    assert snr_to_n0(oracle_received, 20.0, 500.0) == pytest.approx(expected, rel=1e-12)


def test_add_awgn_zero_density_is_identity(oracle_received):
    out = add_awgn(oracle_received, NoiseSpec(0.0, 3))
    np.testing.assert_array_equal(out.values, oracle_received.values)


def test_add_awgn_sample_variance():
    grid = TimeGrid(1000.0, 1000.0)  # 1e6 samples
    sig = SampledSignal(grid, np.zeros(grid.n_samples))
    out = add_awgn(sig, NoiseSpec(2.0, 7))
    # variance n0 * fs / 2 = 1000
    assert np.var(out.values) == pytest.approx(1000.0, rel=0.01)


def test_add_awgn_deterministic(oracle_received):
    a = add_awgn(oracle_received, NoiseSpec(1e-10, 42))
    b = add_awgn(oracle_received, NoiseSpec(1e-10, 42))
    np.testing.assert_array_equal(a.values, b.values)


def test_add_awgn_independent_seeds_uncorrelated():
    grid = TimeGrid(1000.0, 100.0)  # 1e5 samples
    sig = SampledSignal(grid, np.zeros(grid.n_samples))
    na = add_awgn(sig, NoiseSpec(1.0, 1)).values
    nb = add_awgn(sig, NoiseSpec(1.0, 2)).values
    r = np.corrcoef(na, nb)[0, 1]
    assert abs(r) < 0.01


def test_time_grid_shape_and_mapping():
    grid = TimeGrid(4000.0, 2.0)
    assert grid.n_samples == 8000
    assert grid.times()[5] == pytest.approx(5 / 4000.0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 2.0)


def test_sampled_signal_length_checked(grid):
    with pytest.raises(ValueError):
        SampledSignal(grid, np.zeros(grid.n_samples - 1))


def test_superpose_matches_direct_evaluation(pulse, grid):
    alphas = np.array([1.0 / 618.0, -1.0 / 626.0, 1.0 / 663.0])
    taus = np.array([0.412, 0.417, 0.442])
    out = superpose_arrivals(alphas, taus, pulse, grid)
    t = grid.times()
    direct = sum(a * eval_pulse(pulse, t - tau) for a, tau in zip(alphas, taus))
    # windowing truncates at 12 sigma: error floor ~exp(-72)
    np.testing.assert_allclose(out, direct, atol=1e-25)


def test_analytic_envelope_of_cosine_burst(grid):
    t = grid.times()
    env_true = np.exp(-((t - 1.0) ** 2) / (2 * 0.01**2))
    values = env_true * np.cos(2 * np.pi * 750.0 * (t - 1.0))
    est = analytic_envelope(values)
    assert np.max(np.abs(est - env_true)) < 5e-3
