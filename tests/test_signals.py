"""Pulse, grid, energy, SNR, and noise primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqualoc import signals
from aqualoc.environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    SourceLocation,
    arrival_params,
    stratified_locations,
    synthesize_received,
)
from aqualoc.forward import _peak_length_targets
from aqualoc.localize import detect_arrivals
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


@pytest.mark.parametrize("n0", [math.nan, math.inf, -1.0])
def test_noise_spec_rejects_bad_density(n0):
    with pytest.raises(ValueError, match="n0"):
        NoiseSpec(n0, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_noise_spec_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        NoiseSpec(1.0, seed)


def test_noise_spec_stores_whole_seed():
    assert type(NoiseSpec(1.0, 2.0).seed) is int


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


def test_superpose_matches_per_arrival_loop(pulse, grid):
    # overlapping arrivals within a row, and windows falling partly off both
    # ends of the grid; every row adds its arrivals in path order
    taus = np.array([
        [0.412, 0.4125, 0.413],
        [-0.05, -0.052, 0.3],
        [1.948, 1.95, 1.9501],
        [-0.06, 1.949, 0.7],
        [0.2, 0.2, 0.2],
    ])
    alphas = np.random.default_rng(5).normal(size=taus.shape) * 1e-3
    out = superpose_arrivals(alphas, taus, pulse, grid)
    pad, start, _, window = signals.arrival_windows(taus, pulse, grid)
    buf = np.zeros((len(taus), grid.n_samples + 2 * pad))
    for b in range(taus.shape[0]):
        for i in range(taus.shape[1]):
            buf[b, start[b, i] : start[b, i] + window.shape[-1]] += alphas[b, i] * window[b, i]
    assert np.array_equal(out, buf[:, pad : pad + grid.n_samples])
    assert np.array_equal(superpose_arrivals(alphas[1], taus[1], pulse, grid), out[1])


def complex_fft_envelope(values):
    """|ifft(fft(values) * h)| with the one-sided weights h: the textbook definition."""
    n = len(values)
    h = np.zeros(n)
    h[0] = 1.0
    if n % 2 == 0:
        h[n // 2] = 1.0
        h[1 : n // 2] = 2.0
    else:
        h[1 : (n + 1) // 2] = 2.0
    return np.abs(np.fft.ifft(np.fft.fft(values) * h))


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 8), st.integers(9, 3000), st.sampled_from([8062, 8063])),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-9, 1.0, 1e6]),
)
def test_analytic_envelope_matches_complex_fft_definition(n, seed, scale):
    values = scale * np.random.default_rng(seed).normal(size=n)
    est = analytic_envelope(values)
    assert est.shape == (n,)
    assert np.max(np.abs(est - complex_fft_envelope(values))) <= 1e-12 * np.max(np.abs(values))


def test_detect_arrivals_pinned_to_complex_fft_envelope(monkeypatch, pulse, grid):
    # noisy recordings over the region at 0-30 dB, detected with the TOA
    # seed's settings under both envelopes
    snrs = [0.0, 10.0, 20.0, 30.0]
    recordings = []
    for k, (x, z) in enumerate(stratified_locations(DEFAULT_REGION, 40, seed=21)):
        clean = synthesize_received(DEFAULT_ENVIRONMENT, SourceLocation(x, z), pulse, grid)
        n0 = snr_to_n0(clean, snrs[k % 4], pulse.bandwidth)
        recordings.append(add_awgn(clean, NoiseSpec(n0, 500 + k)).values)

    def detect_all():
        return [detect_arrivals(v, pulse, grid.sample_rate, 2.0, 0.0) for v in recordings]

    new = detect_all()
    monkeypatch.setattr(signals, "analytic_envelope", complex_fft_envelope)
    old = detect_all()
    for (t_new, pol_new), (t_old, pol_old) in zip(new, old):
        assert np.array_equal(pol_new, pol_old)
        np.testing.assert_allclose(t_new, t_old, rtol=0, atol=1e-9)


def test_peak_targets_pinned_to_complex_fft_envelope(monkeypatch, train_dataset):
    new = _peak_length_targets(train_dataset)
    monkeypatch.setattr(signals, "analytic_envelope", complex_fft_envelope)
    old = _peak_length_targets(train_dataset)
    assert np.array_equal(np.isnan(new), np.isnan(old))
    np.testing.assert_allclose(new, old, rtol=0, atol=1e-9)
