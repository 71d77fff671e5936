"""Path-length network: initialization, feature maps, prediction quality."""

import numpy as np
import pytest

from aqualoc.autodiff import fd_check
from aqualoc.environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    SourceLocation,
    path_geometry,
)
from aqualoc.forward import load_checkpoint
from aqualoc.pln import (
    DEFAULT_LENGTH_SCALE,
    InputNormalization,
    N_INPUTS,
    PlnArchitecture,
    PlnParams,
    length_forward,
    length_position_jacobian,
    length_vjp,
    path_features,
    pln_error_grid,
    pln_init,
    pln_lengths,
)


@pytest.fixture(scope="module")
def norm():
    return InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)


def test_architecture_validation():
    with pytest.raises(ValueError):
        PlnArchitecture(hidden=())
    with pytest.raises(ValueError):
        PlnArchitecture(hidden=(8, 0))
    with pytest.raises(ValueError):
        PlnArchitecture(length_scale=0.0)


def test_layout_counts_weights():
    arch = PlnArchitecture(hidden=(8,))
    # 5*8 + 8 + 8*1 + 1
    assert arch.layout().size == 57


def test_init_deterministic(norm):
    arch = PlnArchitecture(hidden=(8,))
    a = pln_init(arch, norm, 3)
    b = pln_init(arch, norm, 3)
    c = pln_init(arch, norm, 4)
    np.testing.assert_array_equal(a.values, b.values)
    assert np.any(a.values != c.values)


def test_init_predictions_near_length_scale(norm):
    # zero hidden biases + tanh keep the head near softplus^{-1}(1)
    arch = PlnArchitecture()
    params = pln_init(arch, norm, 0)
    lens = pln_lengths(params, 610.0, 20.0, 120.0)
    assert lens.shape == (3,)
    assert np.all(lens > 0.0)
    assert np.all(lens < 10.0 * DEFAULT_LENGTH_SCALE)
    assert np.all(np.abs(lens - DEFAULT_LENGTH_SCALE) < DEFAULT_LENGTH_SCALE)


def test_predictions_positive_for_random_weights(norm, rng):
    arch = PlnArchitecture(hidden=(8,))
    for _ in range(10):
        params = PlnParams(arch, norm, rng.normal(scale=3.0, size=57))
        lens = pln_lengths(params, 610.0, 20.0, 120.0)
        assert np.all(lens > 0.0)


def test_params_size_checked(norm):
    arch = PlnArchitecture(hidden=(8,))
    with pytest.raises(ValueError):
        PlnParams(arch, norm, np.zeros(56))


def test_normalization_from_region_centers(norm):
    feats = path_features(600.0, 52.5, 100.0, norm)
    # x=600, z=52.5, z_r=100 are the region/env midpoints: zero after shift
    np.testing.assert_allclose(feats[:, :3], 0.0, atol=1e-15)
    # bounce counts normalize to +/-1
    np.testing.assert_array_equal(feats[:, 3], [-1.0, 1.0, -1.0])
    np.testing.assert_array_equal(feats[:, 4], [-1.0, -1.0, 1.0])


def test_features_batched_shape(norm):
    feats = path_features(np.ones((4, 2)) * 610.0, np.ones((4, 2)) * 20.0, 120.0, norm)
    assert feats.shape == (4, 2, 3, N_INPUTS)


def test_features_scalar_matches_batched(norm):
    # the (3, 5) block the localization adapters build at one position is the
    # same as that position's rows of a batched training feature matrix
    batched = path_features(np.array([617.0, 300.0]), np.array([43.0, 5.0]), 120.0, norm)
    one = path_features(617.0, 43.0, 120.0, norm)
    np.testing.assert_allclose(one, batched[0], rtol=1e-15)


def test_length_forward_matches_plain_eval(norm, rng):
    arch = PlnArchitecture(hidden=(8,))
    params = pln_init(arch, norm, 1)
    x = rng.uniform(300.0, 900.0, size=6)
    z = rng.uniform(5.0, 100.0, size=6)
    plain = pln_lengths(params, x, z, 120.0)
    feats = path_features(x, z, 120.0, norm).reshape(-1, N_INPUTS)
    lengths, _ = length_forward(params, params.values, feats)
    np.testing.assert_allclose(lengths.reshape(6, 3), plain, rtol=1e-15)


def test_length_gradient_wrt_weights(norm):
    arch = PlnArchitecture(hidden=(8,))
    params = pln_init(arch, norm, 2)
    feats = path_features(610.0, 20.0, 120.0, norm)

    def f(w):
        lengths, backward = length_forward(params, w, feats)
        return lengths.sum(), lambda: length_vjp(params.layout, *backward(), np.ones(3))

    rep = fd_check(f, params.values, n_coords=None)
    assert rep.max_rel_error < 1e-6


def test_length_gradient_wrt_position(norm):
    arch = PlnArchitecture(hidden=(8,))
    params = pln_init(arch, norm, 2)

    def f(pos):
        feats = path_features(pos[0], pos[1], 120.0, params.norm)
        lengths, backward = length_forward(params, params.values, feats)

        def grad():
            _, deltas = backward()
            return length_position_jacobian(params, params.values, deltas).sum(axis=0)

        return lengths.sum(), grad

    rep = fd_check(f, np.array([610.0, 20.0]), n_coords=None)
    assert rep.max_rel_error < 1e-6


def test_error_grid_zero_for_perfect_table(norm):
    # a params object whose predictions we bypass: check the metric itself
    # by feeding the trained checkpoint if present, else skip
    arch = PlnArchitecture(hidden=(8,))
    params = pln_init(arch, norm, 0)
    err = pln_error_grid(params, DEFAULT_ENVIRONMENT, DEFAULT_REGION, nx=4, nz=4)
    # untrained network is far off but the metric must be finite and positive
    assert np.isfinite(err)
    assert err > 0.0


def test_trained_network_accuracy(trained_checkpoint):
    params = trained_checkpoint.model.pln
    err = pln_error_grid(params, DEFAULT_ENVIRONMENT, DEFAULT_REGION)
    assert err <= 0.005

    # the reference geometry: direct path within 0.5% of 618.142 m
    lens = pln_lengths(params, 610.0, 20.0, 120.0)
    assert abs(lens[0] - 618.1423784210236) <= 3.1

    # distinct paths stay well separated where the true spread is wide
    src = SourceLocation(400.0, 30.0)
    true, _ = path_geometry(DEFAULT_ENVIRONMENT, src.x, src.z)
    got = pln_lengths(params, 400.0, 30.0, 120.0)
    assert np.all(np.diff(np.sort(got)) > 1.0)
    np.testing.assert_allclose(np.sort(got), np.sort(true), rtol=0.005)
