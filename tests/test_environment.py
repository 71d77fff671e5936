"""Image-method propagation, received-signal synthesis, dataset generation."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aqualoc.environment import (
    BOTTOM,
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    DIRECT,
    SURFACE,
    THREE_PATHS,
    Dataset,
    Environment,
    ObservationWindowError,
    PathSpec,
    Region,
    SourceLocation,
    UnsupportedPathError,
    arrival_params,
    gen_dataset,
    load_dataset,
    path_geometry,
    reflection_coeff,
    save_dataset,
    synthesize_received,
)
from aqualoc.signals import AnalyticPulse, analytic_envelope, eval_pulse


def oracle_lengths(x, z, z_r=120.0, depth=200.0):
    """Independent image-source formula (direct, surface, bottom)."""
    return (
        math.hypot(x, z - z_r),
        math.hypot(x, z + z_r),
        math.hypot(x, 2.0 * depth - z - z_r),
    )


def path_length(env, src, path):
    """One path's length, read from the vectorized geometry."""
    lengths, _ = path_geometry(env, src.x, src.z)
    return lengths[THREE_PATHS.index(path)]


def test_path_geometry_broadcasts_and_gives_jacobian(env, rng):
    x = rng.uniform(300.0, 900.0, (4, 5))
    z = rng.uniform(5.0, 100.0, (4, 5))
    lengths, s_dz = path_geometry(env, x, z)
    assert lengths.shape == s_dz.shape == (4, 5, 3)
    for i, path in enumerate(THREE_PATHS):
        assert lengths[2, 3, i] == path_length(env, SourceLocation(x[2, 3], z[2, 3]), path)
    # d length / d(x, z) = (x, s_dz) / length, against central differences
    h = 1e-4
    dx = (path_geometry(env, x + h, z)[0] - path_geometry(env, x - h, z)[0]) / (2 * h)
    dz = (path_geometry(env, x, z + h)[0] - path_geometry(env, x, z - h)[0]) / (2 * h)
    np.testing.assert_allclose(dx, x[..., None] / lengths, rtol=1e-7)
    np.testing.assert_allclose(dz, s_dz / lengths, rtol=1e-6, atol=1e-9)


def test_direct_length_vertical_limit(env):
    # x -> 0 degenerates to the vertical separation |z - z_r| = 100
    src = SourceLocation(1e-9, 20.0)
    assert path_length(env, src, DIRECT) == pytest.approx(100.0, abs=1e-12)


def test_reference_geometry_lengths(env):
    want = oracle_lengths(610.0, 20.0)
    got = [path_length(env, DEFAULT_SOURCE, p) for p in THREE_PATHS]
    np.testing.assert_allclose(got, want, rtol=1e-15)
    # frozen values, meters
    np.testing.assert_allclose(
        got, [618.1423784210236, 625.8594091327541, 663.0987860040161], rtol=1e-15
    )


def test_bottom_length_shallower_column(env):
    shallow = Environment(198.0, env.sound_speed, env.receiver_depth)
    got = path_length(shallow, DEFAULT_SOURCE, BOTTOM)
    assert got == pytest.approx(math.hypot(610.0, 2 * 198.0 - 140.0), rel=1e-15)
    assert got == pytest.approx(661.541, abs=5e-4)


def test_unsupported_path_rejected():
    with pytest.raises(UnsupportedPathError):
        PathSpec(1, 1)
    with pytest.raises(UnsupportedPathError):
        PathSpec(2, 0)


def test_reflection_coefficients():
    assert reflection_coeff(DIRECT) == 1.0
    assert reflection_coeff(SURFACE) == -1.0
    assert reflection_coeff(BOTTOM) == 1.0


def test_path_length_monotone_in_range(env):
    xs = np.linspace(50.0, 2000.0, 40)
    for path in THREE_PATHS:
        lens = [path_length(env, SourceLocation(x, 20.0), path) for x in xs]
        assert np.all(np.diff(lens) > 0)


def test_reflected_paths_exceed_direct(env, rng):
    for _ in range(50):
        src = SourceLocation(rng.uniform(1.0, 2000.0), rng.uniform(1.0, 199.0))
        d = path_length(env, src, DIRECT)
        assert path_length(env, src, SURFACE) > d
        assert path_length(env, src, BOTTOM) > d


def test_path_lengths_reciprocal_in_depths(env, rng):
    for _ in range(20):
        z_s = rng.uniform(1.0, 199.0)
        z_r = rng.uniform(1.0, 199.0)
        env_a = Environment(200.0, 1500.0, z_r)
        env_b = Environment(200.0, 1500.0, z_s)
        for path in THREE_PATHS:
            la = path_length(env_a, SourceLocation(610.0, z_s), path)
            lb = path_length(env_b, SourceLocation(610.0, z_r), path)
            assert la == pytest.approx(lb, rel=1e-15)


def test_received_value_at_direct_arrival(env, pulse, grid, oracle_received):
    lengths = oracle_lengths(610.0, 20.0)
    rhos = (1.0, -1.0, 1.0)
    taus = [l / 1500.0 for l in lengths]
    t_probe = taus[0] + pulse.center_time
    k = int(round(t_probe * grid.sample_rate))
    t_k = k / grid.sample_rate
    want = sum(
        rho / l * eval_pulse(pulse, t_k - tau)
        for rho, l, tau in zip(rhos, lengths, taus)
    )
    assert oracle_received.values[k] == pytest.approx(want, rel=1e-12)


def test_received_silent_before_first_arrival(env, pulse, grid, oracle_received):
    _, taus = arrival_params(env, DEFAULT_SOURCE)
    cutoff = taus[0] + pulse.center_time - 10.0 * pulse.sigma
    early = oracle_received.values[grid.times() < cutoff]
    assert np.max(np.abs(early)) < 1e-15


def test_received_peak_ratio_direct_vs_surface(env, pulse, grid):
    # widely separated arrivals: envelope peak heights ~ 1/l each, surface inverted
    src = SourceLocation(200.0, 30.0)
    sig = synthesize_received(env, src, pulse, grid)
    lengths = [path_length(env, src, p) for p in THREE_PATHS]
    taus = [l / 1500.0 for l in lengths]
    envelope = analytic_envelope(sig.values)
    t = grid.times()

    def peak_near(tau):
        mask = np.abs(t - (tau + pulse.center_time)) < 2e-3
        return envelope[mask].max()

    ratio = peak_near(taus[1]) / peak_near(taus[0])
    assert ratio == pytest.approx(lengths[0] / lengths[1], rel=1e-2)
    k_s = int(round((taus[1] + pulse.center_time) * grid.sample_rate))
    assert sig.values[np.argmin(np.abs(t - t[k_s]))] < 0  # surface bounce inverted


def test_received_linear_in_pulse_amplitude(env, grid, pulse):
    scaled = AnalyticPulse(
        pulse.center_freq, pulse.bandwidth, pulse.center_time, 2.5
    )
    base = synthesize_received(env, DEFAULT_SOURCE, pulse, grid)
    big = synthesize_received(env, DEFAULT_SOURCE, scaled, grid)
    np.testing.assert_allclose(big.values, 2.5 * base.values, rtol=0, atol=1e-18)


def test_received_rejects_late_arrivals(env, pulse):
    from aqualoc.signals import TimeGrid

    short = TimeGrid(4000.0, 0.25)
    with pytest.raises(ObservationWindowError):
        synthesize_received(env, DEFAULT_SOURCE, pulse, short)


def test_gen_dataset_empty(env, pulse, grid):
    ds = gen_dataset(env, DEFAULT_REGION, 0, pulse, grid, seed=0)
    assert ds.count == 0


def test_gen_dataset_deterministic(env, pulse, grid):
    a = gen_dataset(env, DEFAULT_REGION, 16, pulse, grid, seed=5)
    b = gen_dataset(env, DEFAULT_REGION, 16, pulse, grid, seed=5)
    np.testing.assert_array_equal(a.locations, b.locations)
    np.testing.assert_array_equal(a.signals, b.signals)


def test_gen_dataset_lengths_inside_region_bracket(env, pulse, grid):
    ds = gen_dataset(env, DEFAULT_REGION, 64, pulse, grid, seed=1)
    corners = [
        (x, z)
        for x in (DEFAULT_REGION.x_min, DEFAULT_REGION.x_max)
        for z in (DEFAULT_REGION.z_min, DEFAULT_REGION.z_max)
    ]
    for path in THREE_PATHS:
        corner_lens = [
            path_length(env, SourceLocation(x, z), path) for (x, z) in corners
        ]
        lo, hi = min(corner_lens), max(corner_lens)
        for k in range(ds.count):
            l = path_length(
                env, SourceLocation(ds.locations[k, 0], ds.locations[k, 1]), path
            )
            # direct length is not monotone in z across the receiver depth,
            # but within this region (z < z_r) corner brackets hold
            assert lo - 1e-9 <= l <= hi + 1e-9


def test_gen_dataset_locations_cover_region(env, pulse, grid):
    ds = gen_dataset(env, DEFAULT_REGION, 256, pulse, grid, seed=0)
    assert all(
        DEFAULT_REGION.contains(x, z) for x, z in ds.locations
    )
    # stratification: every sixth of the x-range holds some samples
    edges = np.linspace(DEFAULT_REGION.x_min, DEFAULT_REGION.x_max, 7)
    counts, _ = np.histogram(ds.locations[:, 0], edges)
    assert counts.min() > 0


def test_gen_dataset_noisy_snr(env, pulse, grid):
    ds = gen_dataset(env, DEFAULT_REGION, 4, pulse, grid, seed=3, snr_db=20.0)
    clean = gen_dataset(env, DEFAULT_REGION, 4, pulse, grid, seed=3)
    resid = ds.signals - clean.signals
    assert np.all(np.std(resid, axis=1) > 0)
    # realized noise variance within 10% of the requested density
    for k in range(4):
        e = grid.dt * float(np.dot(clean.signals[k], clean.signals[k]))
        n0 = e / (pulse.bandwidth * 100.0)
        want_var = n0 * grid.sample_rate / 2.0
        assert np.var(resid[k]) == pytest.approx(want_var, rel=0.1)


def test_dataset_roundtrip(tmp_path, env, pulse, grid):
    ds = gen_dataset(env, DEFAULT_REGION, 6, pulse, grid, seed=9, snr_db=15.0)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.environment == ds.environment
    assert back.pulse == ds.pulse
    assert back.grid == ds.grid
    assert back.seed == ds.seed
    assert back.snr_db == ds.snr_db
    np.testing.assert_array_equal(back.locations, ds.locations)
    np.testing.assert_array_equal(back.signals, ds.signals)


# manifest.json of gen_dataset(env, DEFAULT_REGION, 2, pulse, grid, seed=5,
# snr_db=12.5) as save_dataset wrote it before the scene dicts came from
# dataclasses.asdict; any drift breaks datasets already on disk
MANIFEST_2_ITEMS = (
    '{\n  "format_version": 1,\n  "count": 2,\n  "seed": 5,\n  "snr_db": 12.5,\n'
    '  "environment": {\n    "depth": 200.0,\n    "sound_speed": 1500.0,\n'
    '    "receiver_depth": 120.0\n  },\n  "pulse": {\n    "center_freq": 750.0,\n'
    '    "bandwidth": 500.0,\n    "center_time": 0.05,\n    "amplitude": 1.0\n  },\n'
    '  "grid": {\n    "sample_rate": 4000.0,\n    "duration": 2.0\n  },\n'
    '  "signal_files": [\n    "sig_00000.f64",\n    "sig_00001.f64"\n  ]\n}'
)


def test_dataset_manifest_text_pinned(tmp_path, env, pulse, grid):
    ds = gen_dataset(env, DEFAULT_REGION, 2, pulse, grid, seed=5, snr_db=12.5)
    save_dataset(ds, tmp_path)
    assert (tmp_path / "manifest.json").read_text() == MANIFEST_2_ITEMS


@pytest.fixture(scope="module")
def three_items(env, pulse, grid):
    return gen_dataset(env, DEFAULT_REGION, 3, pulse, grid, seed=2)


# text written in place of a number: non-finite, or not a number at all
BAD_NUMBERS = ("nan", "inf", "-inf", "abc", "")


# rows of a rewritten locations.csv: (index written, item whose x, z it holds,
# text replacing its x or z, or None to keep both)
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(
    st.integers(-1, 4), st.integers(0, 2),
    st.none() | st.tuples(st.sampled_from(BAD_NUMBERS), st.integers(0, 1)),
), max_size=5))
def test_load_dataset_location_rows_exact_or_rejected(three_items, rows):
    """Dropped, duplicated, renumbered or non-numeric rows load as written or raise ValueError."""
    with tempfile.TemporaryDirectory() as d:
        save_dataset(three_items, d)
        loc = three_items.locations
        lines = ["index,x_s,z_s"]
        for k, j, bad in rows:
            xz = [repr(float(loc[j, 0])), repr(float(loc[j, 1]))]
            if bad is not None:
                xz[bad[1]] = bad[0]
            lines.append(f"{k},{xz[0]},{xz[1]}")
        (Path(d) / "locations.csv").write_text("\r\n".join(lines) + "\r\n")
        bad_text = {bad[0] for _, _, bad in rows if bad is not None}
        if bad_text - {"nan", "inf", "-inf"}:
            with pytest.raises(ValueError, match="malformed row"):
                load_dataset(d)
        elif bad_text:
            with pytest.raises(ValueError, match="non-finite location"):
                load_dataset(d)
        elif sorted(k for k, _, _ in rows) == [0, 1, 2]:
            # each index once: row k holds the item it names, so rows left
            # at their own index load equal to the original
            back = load_dataset(d)
            assert back.locations.dtype == np.float64
            assert np.all(np.isfinite(back.locations))
            np.testing.assert_array_equal(
                back.locations, loc[[j for _, j, _ in sorted(rows, key=lambda r: r[0])]]
            )
        else:
            with pytest.raises(ValueError, match="indices 0..2 once each"):
                load_dataset(d)


def _rewrite_manifest(d: Path, **changes) -> None:
    doc = json.loads((d / "manifest.json").read_text())
    doc.update(changes)
    (d / "manifest.json").write_text(json.dumps(doc))


def _cut_last_field(path: Path) -> None:
    text = path.read_text()
    path.write_text(text[: text.rindex(",")])


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda d: (d / "manifest.json").write_text("[1, 2]"), "not a JSON object"),
        (lambda d: _rewrite_manifest(d, signal_files=["sig_00000.f64", "sig_00001.f64"]),
         "count 3"),
        (lambda d: _rewrite_manifest(d, count=2), "count 2"),
        (lambda d: _rewrite_manifest(d, grid=[4000.0, 2.0]), "bad dataset manifest"),
        (lambda d: _rewrite_manifest(
            d, environment={"depth": 200.0, "sound_speed": math.nan, "receiver_depth": 120.0}
        ), "sound_speed must be a finite number"),
        (lambda d: _cut_last_field(d / "locations.csv"), "malformed row"),
    ],
    ids=["non-object", "fewer-files", "count-mismatch", "bad-section", "nan-sound-speed",
         "truncated-row"],
)
def test_load_dataset_rejects_malformed_directory(tmp_path, three_items, corrupt, match):
    d = save_dataset(three_items, tmp_path / "ds")
    corrupt(d)
    with pytest.raises(ValueError, match=match):
        load_dataset(d)


def test_region_validation_and_clip():
    with pytest.raises(ValueError):
        Region(900.0, 300.0, 5.0, 100.0)
    r = Region(300.0, 900.0, 5.0, 100.0)
    assert r.clip(1000.0, 1.0) == (900.0, 5.0)


def test_dataset_shape_validation(env, pulse, grid):
    with pytest.raises(ValueError):
        Dataset(env, pulse, grid, 0, np.zeros((3, 2)), np.zeros((2, grid.n_samples)))


def test_source_location_validation():
    with pytest.raises(ValueError):
        SourceLocation(-1.0, 20.0)
    with pytest.raises(ValueError):
        SourceLocation(610.0, 0.0)
