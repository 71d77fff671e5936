"""Forward model, waveform training loss, pretraining schedule, checkpoints."""

import copy
import json
import math
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aqualoc.autodiff import fd_check, value_and_grad
from aqualoc.environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    Dataset,
    SourceLocation,
    alpha_tau,
    arrival_params,
    gen_dataset,
    path_geometry,
    synthesize_received,
)
from aqualoc.forward import (
    Checkpoint,
    CheckpointError,
    MatchedModel,
    ModelParams,
    NetworkModel,
    STAGE_EXACT,
    STAGE_PEAKS,
    TrainConfig,
    _ExactFit,
    _length_gram,
    _lm_stage,
    _make_peaks_loss_fn,
    _peak_length_targets,
    _stage_lr,
    load_checkpoint,
    model_output,
    pretrain,
    save_checkpoint,
    train_loss,
)
from aqualoc.pln import (
    InputNormalization,
    PlnArchitecture,
    PlnParams,
    length_forward,
    length_vjp,
    path_features,
    pln_init,
    pln_lengths,
)
from aqualoc.signals import gaussian_kernel, smooth_rows


@pytest.fixture(scope="module")
def small_dataset(pulse, grid):
    return gen_dataset(DEFAULT_ENVIRONMENT, DEFAULT_REGION, 16, pulse, grid, seed=2)


@pytest.fixture(scope="module")
def init_model(pulse):
    norm = InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)
    params = pln_init(PlnArchitecture(hidden=(8,)), norm, 0)
    return ModelParams(params, 1500.0, 120.0, pulse)


def _subset(dataset: Dataset, idx) -> Dataset:
    """The dataset's items idx, in that order."""
    return replace(dataset, locations=dataset.locations[idx], signals=dataset.signals[idx])


def _with_weights(model: ModelParams, w: np.ndarray) -> ModelParams:
    return replace(model, pln=PlnParams(model.pln.arch, model.pln.norm, w))


def _exact_loss_fn(model: ModelParams, dataset: Dataset):
    """w -> (train_loss, gradient closure), the gradient -2 scale J^T (G^T e) of _ExactFit.

    G^T e is the waveform's length Jacobian against the residual on the
    arrival windows (_ExactFit.linearize); J^T pulls it back to the weights.
    """
    fit = _ExactFit(model, dataset)

    def loss_fn(w):
        def grad():
            lin = fit.linearize(fit.evaluate(w))
            g_l = lin["gte"].ravel()
            return -2.0 * fit.scale * length_vjp(model.pln.layout, lin["inputs"], lin["deltas"], g_l)

        return train_loss(_with_weights(model, w), dataset), grad

    return loss_fn


def test_alpha_tau_reference_values():
    lengths = np.array([618.1423784210236, 625.8594091327541, 663.0987860040161])
    rhos = np.array([1.0, -1.0, 1.0])
    alphas, taus = alpha_tau(lengths, 1500.0)
    np.testing.assert_allclose(alphas, rhos / lengths, rtol=1e-15)
    np.testing.assert_allclose(
        taus, [0.41209491894734905, 0.41723960608850273, 0.44206585733601075],
        rtol=1e-15,
    )


def test_matched_model_reproduces_synthesis(env, pulse, grid, oracle_received):
    matched = MatchedModel(env, pulse)
    out, _ = matched.signal_t(None, DEFAULT_SOURCE.x, DEFAULT_SOURCE.z, grid)
    np.testing.assert_array_equal(out, oracle_received.values)


def test_matched_model_lengths(env, pulse):
    matched = MatchedModel(env, pulse)
    lens, _ = path_geometry(matched.env, 610.0, 20.0)
    np.testing.assert_allclose(
        lens, [618.1423784210236, 625.8594091327541, 663.0987860040161], rtol=1e-15
    )


def test_model_output_grid_and_energy(init_model, grid):
    sig = model_output(init_model, DEFAULT_SOURCE, grid)
    assert sig.grid == grid
    assert sig.values.shape == (grid.n_samples,)
    assert np.max(np.abs(sig.values)) > 0.0


def test_train_loss_zero_for_self_consistent_signals(init_model, grid, small_dataset):
    ds = small_dataset
    signals = np.stack(
        [
            model_output(init_model, SourceLocation(x, z), grid).values
            for x, z in ds.locations
        ]
    )
    ds = Dataset(ds.environment, ds.pulse, grid, ds.seed, ds.locations, signals)
    loss, g = value_and_grad(_exact_loss_fn(init_model, ds), init_model.pln.values)
    # matmul kernels differ between the (3, 5) and batched feature shapes, so
    # the residual is zero only to rounding
    assert loss < 1e-28
    assert np.max(np.abs(g)) < 1e-12


def test_train_loss_hand_riemann(init_model, grid, small_dataset):
    ds = small_dataset
    idx = np.array([0, 3])
    total = 0.0
    for k in idx:
        f = model_output(init_model, SourceLocation(*ds.locations[k]), grid).values
        r = ds.signals[k]
        total += grid.dt * float(np.sum((r - f) ** 2))
    want = total / len(idx)
    assert train_loss(init_model, _subset(ds, idx)) == pytest.approx(want, rel=1e-12)


def test_train_loss_batch_order_invariant(init_model, small_dataset):
    a = train_loss(init_model, _subset(small_dataset, [1, 4, 7]))
    b = train_loss(init_model, _subset(small_dataset, [7, 1, 4]))
    assert a == pytest.approx(b, rel=1e-14)


def test_train_loss_rejects_bad_shapes(init_model, small_dataset):
    with pytest.raises(ValueError):
        train_loss(init_model, _subset(small_dataset, np.array([], dtype=int)))


def test_initial_loss_reference_dataset(train_dataset, init_model):
    # 256 noiseless recordings vs an untrained network: the residual energy is
    # essentially the recordings' own energy; frozen from the first run
    arch = PlnArchitecture()
    norm = InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)
    model = ModelParams(pln_init(arch, norm, 0), 1500.0, 120.0, train_dataset.pulse)
    assert train_loss(model, train_dataset) == pytest.approx(1.170889e-08, rel=1e-5)


def test_exact_fit_gradient_matches_fd(init_model, small_dataset):
    # the gradient training uses, through G on the arrival windows, against
    # central differences of the whole-waveform loss
    loss_fn = _exact_loss_fn(init_model, _subset(small_dataset, [0, 5]))
    # h = 1e-6: larger steps hit the carrier's cubic term, smaller ones noise
    rep = fd_check(loss_fn, init_model.pln.values, h=1e-6, n_coords=40, seed=3)
    assert rep.max_rel_error < 1e-5


def _true_lengths(dataset):
    env = dataset.environment
    return np.stack([
        arrival_params(env, SourceLocation(*loc))[1] * env.sound_speed
        for loc in dataset.locations
    ])


def test_peak_targets_bracket_truth(train_dataset):
    targets = _peak_length_targets(train_dataset)
    settled = np.isfinite(targets)
    # the direct arrival always comes first; polarity settles surface vs
    # bottom on all but a few items whose arrivals merge
    assert settled[:, 0].all()
    assert settled.all(axis=1).mean() >= 0.85
    err = np.where(settled, np.abs(_true_lengths(train_dataset) - targets), 0.0)
    worst = err.max(axis=1)
    assert np.median(worst) < 0.01
    assert worst.max() < 3.5


def test_peak_targets_resolve_polarity_both_sides(pulse, grid):
    # the surface bounce arrives before the bottom one for z < depth - z_r = 80 m
    # and after it for z > 80 m; the targets keep the network's column order
    env = DEFAULT_ENVIRONMENT
    locations = np.array([[450.0, 40.0], [700.0, 60.0], [450.0, 95.0], [700.0, 99.0]])
    signals = np.stack([
        synthesize_received(env, SourceLocation(*loc), pulse, grid).values
        for loc in locations
    ])
    ds = Dataset(env, pulse, grid, 0, locations, signals)
    targets = _peak_length_targets(ds)
    truth = _true_lengths(ds)
    assert np.all(np.isfinite(targets))
    np.testing.assert_allclose(targets, truth, atol=0.01)
    assert np.all(targets[:2, 1] < targets[:2, 2])
    assert np.all(targets[2:, 1] > targets[2:, 2])


def test_peaks_loss_gradient_and_floor(init_model, train_dataset):
    targets = _peak_length_targets(train_dataset)
    idx = np.arange(8)
    loss_fn = _make_peaks_loss_fn(init_model, train_dataset, idx, targets)
    rep = fd_check(loss_fn, init_model.pln.values, n_coords=30, seed=1)
    assert rep.max_rel_error < 1e-6
    val = float(loss_fn(init_model.pln.values)[0])
    assert val > 0.0
    # perfect predictions zero the loss: make the network's own lengths the
    # targets, with some left unsettled (NaN), which must drop out
    own = pln_lengths(
        init_model.pln, train_dataset.locations[:, 0], train_dataset.locations[:, 1],
        init_model.receiver_depth,
    )
    own[::3, 1:] = np.nan
    perfect = _make_peaks_loss_fn(init_model, train_dataset, idx, own)
    loss, g = value_and_grad(perfect, init_model.pln.values)
    assert loss == 0.0
    assert np.all(g == 0.0)


def test_length_gram_matches_autodiff_jacobian(pulse, small_dataset):
    # two hidden layers so the delta recursion runs past the output layer
    norm = InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)
    params = pln_init(PlnArchitecture(hidden=(6, 5)), norm, 1)
    feats = path_features(
        small_dataset.locations[:, 0], small_dataset.locations[:, 1], 120.0, norm
    ).reshape(-1, 5)
    w = params.values
    lengths, backward = length_forward(params, w, feats)
    inputs, deltas = backward()
    np.testing.assert_array_equal(lengths, pln_lengths(
        params, small_dataset.locations[:, 0], small_dataset.locations[:, 1], 120.0,
    ).reshape(-1))
    # the Jacobian row by row from the factors, anchored on central differences
    rows = np.eye(len(feats))
    jac = np.stack([length_vjp(params.layout, inputs, deltas, e) for e in rows])
    h = 1e-5
    fd = np.empty_like(jac)
    for j in range(w.size):
        step = np.zeros_like(w)
        step[j] = h
        fd[:, j] = (length_forward(params, w + step, feats)[0]
                    - length_forward(params, w - step, feats)[0]) / (2.0 * h)
    np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-9 * np.abs(jac).max())
    jjt = jac @ jac.T
    np.testing.assert_allclose(_length_gram(inputs, deltas), jjt, rtol=0.0,
                               atol=1e-12 * np.abs(jjt).max())
    v = np.random.default_rng(0).normal(size=len(feats))
    np.testing.assert_allclose(length_vjp(params.layout, inputs, deltas, v), jac.T @ v,
                               rtol=1e-12, atol=1e-12 * np.abs(jac).max())


def test_exact_fit_loss_matches_train_loss(init_model, small_dataset):
    fit = _ExactFit(init_model, small_dataset)
    want = train_loss(init_model, small_dataset)
    assert fit.evaluate(init_model.pln.values)["loss"] == pytest.approx(want, rel=1e-12)


def test_lm_iteration_lowers_train_loss(init_model, small_dataset, grid):
    # recordings made by the network itself at w_true, fit from a nearby start
    w_true = init_model.pln.values
    ds = small_dataset
    signals = np.stack([
        model_output(init_model, SourceLocation(x, z), grid).values for x, z in ds.locations
    ])
    ds = Dataset(ds.environment, ds.pulse, grid, ds.seed, ds.locations, signals)

    def loss_at(w):
        return train_loss(_with_weights(init_model, w), ds)

    w0 = w_true + 1e-3 * np.random.default_rng(1).normal(size=w_true.size)
    fit = _ExactFit(init_model, ds)
    lin = fit.linearize(fit.evaluate(w0))
    # a strongly damped step is a short gradient step: the Gauss-Newton
    # model's predicted drop must then match the actual one
    dw, predicted = fit.step(lin, 1e3)
    actual = loss_at(w0) - loss_at(w0 + dw)
    assert actual == pytest.approx(predicted, rel=0.05)
    w1, losses = _lm_stage(fit, w0, 1)
    before = loss_at(w0)
    after = loss_at(w1)
    assert after < 0.9 * before
    assert losses == [pytest.approx(after, rel=1e-12)]


def test_stage_lr_profile():
    assert _stage_lr(0, 100, 1e-3) == 1e-3
    assert _stage_lr(49, 100, 1e-3) == 1e-3
    assert _stage_lr(99, 100, 1e-3) < 2.5e-5
    mid = _stage_lr(75, 100, 1e-3)
    assert 1e-5 < mid < 1e-3
    assert _stage_lr(5, 10, 0.0) == 0.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    for name, value in (("epochs", 2.5), ("epochs", True), ("seed", -1)):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})
    cfg = TrainConfig(epochs=2.0, seed=3.0)
    assert (cfg.epochs, cfg.seed) == (2, 3) and type(cfg.epochs) is type(cfg.seed) is int


def test_train_config_fields():
    assert tuple(f.name for f in fields(TrainConfig)) == ("epochs", "seed")


def test_stage_epochs_partition():
    cfg = TrainConfig(epochs=10800)
    stages = cfg.stage_epochs()
    assert sum(n for _, _, n, _ in stages) == 10800
    assert [k for k, _, _, _ in stages] == [STAGE_PEAKS, STAGE_EXACT]
    assert stages[0][2] == 8000
    assert stages[-1][0] == STAGE_EXACT
    assert stages[-1][2] == 2800


def test_smooth_rows_matches_convolve(rng):
    sig = rng.normal(size=(3, 200))
    kernel = gaussian_kernel(2e-3, 1.0 / 4000.0)
    want = np.stack([np.convolve(row, kernel, mode="same") for row in sig])
    got = smooth_rows(sig, 2e-3, 1.0 / 4000.0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_pretrain_deterministic(pulse, grid):
    ds = gen_dataset(DEFAULT_ENVIRONMENT, DEFAULT_REGION, 4, pulse, grid, seed=4)
    arch = PlnArchitecture(hidden=(8,))
    cfg = TrainConfig(epochs=2)
    with pytest.warns(UserWarning):
        a = pretrain(ds, arch, cfg)
    with pytest.warns(UserWarning):
        b = pretrain(ds, arch, cfg)
    np.testing.assert_array_equal(a.model.pln.values, b.model.pln.values)


def test_pretrain_metadata_schema(pulse, grid):
    ds = gen_dataset(DEFAULT_ENVIRONMENT, DEFAULT_REGION, 4, pulse, grid, seed=4)
    cfg = TrainConfig(epochs=2)
    with pytest.warns(UserWarning):
        ck = pretrain(ds, PlnArchitecture(hidden=(8,)), cfg)
    meta = ck.metadata
    for key in (
        "seed", "epochs", "dataset_count", "dataset_seed", "initial_loss",
        "final_loss", "pln_error", "pln_error_target", "region", "loss_curve",
        "stage_errors",
    ):
        assert key in meta
    assert len(meta["loss_curve"]) == 2
    assert meta["dataset_count"] == 4


def test_checkpoint_roundtrip(tmp_path, init_model):
    ck = Checkpoint(init_model, {"note": "unit", "final_loss": 1.0})
    path = save_checkpoint(ck, tmp_path / "ck.json")
    back = load_checkpoint(path)
    np.testing.assert_array_equal(back.model.pln.values, init_model.pln.values)
    assert back.model.pln.arch == init_model.pln.arch
    assert back.model.pln.norm == init_model.pln.norm
    assert back.model.pulse == init_model.pulse
    assert back.model.sound_speed == init_model.sound_speed
    assert back.model.receiver_depth == init_model.receiver_depth
    assert back.metadata["note"] == "unit"


def test_checkpoint_rejects_corruption(tmp_path, init_model):
    path = save_checkpoint(Checkpoint(init_model, {}), tmp_path / "ck.json")
    doc = json.loads(path.read_text())

    bad = tmp_path / "bad.json"
    bad.write_text(path.read_text()[:100])
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(bad)

    doc_v = dict(doc)
    doc_v["format_version"] = 99
    bad.write_text(json.dumps(doc_v))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)

    doc_t = json.loads(path.read_text())
    payload = doc_t["weights"]["W0"]["data"]
    doc_t["weights"]["W0"]["data"] = payload[: len(payload) // 2]
    bad.write_text(json.dumps(doc_t))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


# numbers include NaN and +/-inf, which json writes as NaN and Infinity
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# where a value replaces part of a saved checkpoint; () is the whole document
CHECKPOINT_SECTIONS = (
    (), ("format_version",), ("architecture",), ("architecture", "hidden"),
    ("architecture", "length_scale"), ("normalization",), ("normalization", "scale"),
    ("normalization", "shift", 2), ("normalization", "scale", 4),
    ("weights",), ("weights", "W0"), ("weights", "W0", "shape"), ("weights", "b1", "data"),
    ("sound_speed",), ("receiver_depth",), ("adapt_sound_speed",), ("pulse",),
    ("pulse", "bandwidth"), ("pulse", "center_time"), ("pulse", "amplitude"), ("metadata",),
)


@pytest.fixture(scope="module")
def saved_checkpoint_doc(init_model):
    with tempfile.TemporaryDirectory() as d:
        return json.loads(save_checkpoint(Checkpoint(init_model, {}), Path(d) / "ck.json").read_text())


def _finite_numbers(model: ModelParams) -> bool:
    numbers = [
        model.sound_speed, model.receiver_depth, model.pln.arch.length_scale,
        *model.pln.norm.shift, *model.pln.norm.scale, *asdict(model.pulse).values(),
    ]
    return all(
        not isinstance(v, (bool, str)) and math.isfinite(float(v)) for v in numbers
    ) and bool(np.all(np.isfinite(model.pln.values)))


@settings(max_examples=200, deadline=None)
@example(section=(), value=[1, 2])
@example(section=("architecture", "hidden"), value=[10**12])
@example(section=("normalization", "shift"), value=["a", "b", "c", "d", "e"])
@example(section=("sound_speed",), value=math.nan)
@example(section=("pulse", "center_time"), value=math.inf)
@example(section=("weights", "b1", "data"), value="AAAAAAAA+H8=")  # NaN bytes
@given(section=st.sampled_from(CHECKPOINT_SECTIONS), value=JSON_VALUES)
def test_load_checkpoint_fails_only_with_checkpoint_error(saved_checkpoint_doc, section, value):
    """Any JSON value in place of a section loads with finite numbers or raises CheckpointError."""
    doc = copy.deepcopy(saved_checkpoint_doc)
    if section:
        parent = doc
        for key in section[:-1]:
            parent = parent[key]
        parent[section[-1]] = value
    else:
        doc = value
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ck.json"
        path.write_text(json.dumps(doc))
        if not isinstance(doc, dict):
            with pytest.raises(CheckpointError, match="not a JSON object"):
                load_checkpoint(path)
            return
        try:
            ck = load_checkpoint(path)
        except CheckpointError:
            return
        assert _finite_numbers(ck.model)


def test_load_checkpoint_rejects_sound_speed_adaptation(saved_checkpoint_doc, tmp_path):
    # the format keeps the key, always written false; no other value loads
    assert saved_checkpoint_doc["adapt_sound_speed"] is False
    doc = copy.deepcopy(saved_checkpoint_doc)
    doc["adapt_sound_speed"] = True
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="adapt_sound_speed"):
        load_checkpoint(path)


def test_network_model_weight_layouts(init_model):
    plain = NetworkModel(init_model)
    assert plain.n_weights == init_model.pln.values.size
    np.testing.assert_array_equal(plain.w_train, init_model.pln.values)


def test_trained_model_matches_oracle_waveform(trained_checkpoint, grid, oracle_received):
    sig = model_output(trained_checkpoint.model, DEFAULT_SOURCE, grid)
    num = np.linalg.norm(sig.values - oracle_received.values)
    den = np.linalg.norm(oracle_received.values)
    assert num / den <= 0.02


def test_trained_loss_ratio(trained_checkpoint):
    # Minibatch Adam on the exact loss plateaued near 5e-2 of the initial
    # value, with arrivals about a tenth of a meter off; the exact stage's
    # Levenberg-Marquardt fit now takes the loss orders of magnitude lower.
    # Pin only the order-of-magnitude drop; accuracy is asserted on the
    # length grid and the reference waveform, the quantities the
    # localization stages consume.
    meta = trained_checkpoint.metadata
    assert meta["final_loss"] <= 0.1 * meta["initial_loss"]
