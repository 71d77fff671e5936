"""Sweep orchestration: statistics, seeding, CSV artifacts, determinism."""

import json
import math

import numpy as np
import pytest

from aqualoc.environment import DEFAULT_ENVIRONMENT, SourceLocation
from aqualoc.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    METHOD_CRLB,
    METHOD_DA_GBL,
    METHOD_GBL_MATCHED,
    METHOD_GBL_NN,
    SweepRow,
    _cell_stats,
    _crlb_row,
    _require_model,
    _trial_seed,
    config_from_dict,
    config_hash,
    rmse,
    run_and_write,
    run_cell,
    run_snr_sweep,
    run_mismatch_sweep,
    write_csv,
)
from aqualoc.localize import ToaInitError

TRUTH = SourceLocation(610.0, 20.0)


# -- rmse -----------------------------------------------------------------------


def test_rmse_zero_at_truth():
    assert rmse([TRUTH, TRUTH, TRUTH], TRUTH) == 0.0


def test_rmse_symmetric_pair():
    pair = [SourceLocation(613.0, 20.0), SourceLocation(607.0, 20.0)]
    assert rmse(pair, TRUTH) == pytest.approx(3.0, abs=1e-12)


def test_rmse_gaussian_cloud_matches_chi_mean_square(rng):
    # E||e||^2 = 2 sigma^2 for isotropic 2-D noise, so RMSE -> sigma * sqrt(2)
    draws = np.array([TRUTH.x, TRUTH.z]) + rng.normal(scale=2.0, size=(1000, 2))
    got = rmse([tuple(d) for d in draws], TRUTH)
    want = 2.0 * math.sqrt(2.0)
    assert abs(got - want) <= 0.05 * want


def test_rmse_accepts_arrays_and_locations():
    assert rmse([np.array([611.0, 20.0])], TRUTH) == pytest.approx(1.0)
    assert rmse([SourceLocation(611.0, 20.0)], np.array([610.0, 20.0])) == pytest.approx(1.0)


def test_rmse_rejects_empty():
    with pytest.raises(ValueError):
        rmse([], TRUTH)


# -- cell statistics --------------------------------------------------------------


def test_cell_stats_ci_formula():
    errors = [1.0, 2.0, 3.0, 4.0]
    rm, mean, ci, rate = _cell_stats(errors, 8)
    assert rm == pytest.approx(math.sqrt(np.mean(np.square(errors))))
    assert mean == pytest.approx(2.5)
    assert ci == pytest.approx(1.96 * np.std(errors, ddof=1) / math.sqrt(4))
    assert rate == pytest.approx(0.5)


def test_cell_stats_no_convergence():
    rm, mean, ci, rate = _cell_stats([], 5)
    assert math.isnan(rm) and math.isnan(mean) and math.isnan(ci)
    assert rate == 0.0


# -- configuration -----------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=("warp-drive",))
    with pytest.raises(ConfigError):
        ExperimentConfig(snr_db_list=())


@pytest.mark.parametrize("gamma", [-1.0, math.nan, math.inf])
def test_config_rejects_bad_gamma(gamma):
    with pytest.raises(ConfigError, match="gamma"):
        ExperimentConfig(gamma_list=(0.0, gamma))
    with pytest.raises(ConfigError, match="gamma"):
        config_from_dict({"gamma_list": [gamma]})


def test_config_accepts_zero_gamma():
    assert ExperimentConfig(gamma_list=(0.0,)).gamma_list == (0.0,)


def test_config_from_dict_unknown_key():
    with pytest.raises(ConfigError):
        config_from_dict({"snr_list": [20.0]})


def test_config_from_dict_bad_section():
    with pytest.raises(ConfigError):
        config_from_dict({"environment": {"depth": -5.0, "sound_speed": 1500.0, "receiver_depth": 120.0}})


def test_config_dict_round_trip():
    cfg = ExperimentConfig(trials=7, seed=3, snr_db_list=(10.0, 20.0), gamma_list=(0.5,))
    again = config_from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert config_hash(again) == config_hash(cfg)


def test_config_hash_pinned():
    # every sweep manifest records this hash of the default config's
    # canonical JSON; it must not drift with how to_dict builds that JSON
    assert config_hash(ExperimentConfig()) == "a46b4c28e58744c4"


def test_config_hash_sensitivity():
    a = ExperimentConfig(seed=0)
    b = ExperimentConfig(seed=1)
    assert config_hash(a) != config_hash(b)


def test_require_model_raises_without_checkpoint():
    cfg = ExperimentConfig(methods=(METHOD_GBL_NN,))
    with pytest.raises(ConfigError):
        _require_model(cfg, None)
    assert _require_model(ExperimentConfig(methods=(METHOD_GBL_MATCHED,)), None) is None


# -- seeding ------------------------------------------------------------------------


def test_trial_seed_deterministic_and_distinct():
    s = _trial_seed(0, METHOD_GBL_MATCHED, 20.0, 0.0, 0.0, 0)
    assert s == _trial_seed(0, METHOD_GBL_MATCHED, 20.0, 0.0, 0.0, 0)
    others = {
        _trial_seed(0, METHOD_GBL_MATCHED, 20.0, 0.0, 0.0, 1),
        _trial_seed(0, METHOD_GBL_NN, 20.0, 0.0, 0.0, 0),
        _trial_seed(0, METHOD_GBL_MATCHED, 25.0, 0.0, 0.0, 0),
        _trial_seed(0, METHOD_GBL_MATCHED, 20.0, -0.5, 0.0, 0),
        _trial_seed(1, METHOD_GBL_MATCHED, 20.0, 0.0, 0.0, 0),
    }
    assert s not in others and len(others) == 5


# -- CSV artifacts --------------------------------------------------------------------


def test_csv_header_frozen():
    assert CSV_HEADER == "method,snr_db,mismatch_m,gamma,trials,rmse_m,mean_err_m,ci_m,conv_rate,wall_s"


def test_csv_row_format_and_write(tmp_path):
    row = SweepRow("gbl-matched", 20.0, 0.0, 0.0, 4, 0.01234567891234, 0.01, 0.002, 1.0, 0.0)
    path = write_csv([row], tmp_path / "rows.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "gbl-matched"
    assert fields[4] == "4"
    assert float(fields[5]) == pytest.approx(0.01234567891234, rel=1e-9)


# -- cells and sweeps -----------------------------------------------------------------


def test_crlb_rows_monotone_in_snr():
    cfg = ExperimentConfig(trials=1)
    bounds = [
        _crlb_row(cfg, DEFAULT_ENVIRONMENT, snr).rmse_m for snr in (0.0, 10.0, 20.0, 30.0)
    ]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_run_cell_deterministic(env):
    cfg = ExperimentConfig(trials=2, methods=(METHOD_GBL_MATCHED,), snr_db_list=(20.0,))
    r1 = run_cell(METHOD_GBL_MATCHED, env, env, cfg, 20.0, 0.0, 0.0, None)
    r2 = run_cell(METHOD_GBL_MATCHED, env, env, cfg, 20.0, 0.0, 0.0, None)
    assert r1.to_csv_line() == r2.to_csv_line()
    assert r1.conv_rate == 1.0
    assert r1.rmse_m < 0.05


def test_failed_seeding_counted_not_averaged(monkeypatch):
    def boom(*args, **kwargs):
        raise ToaInitError("no peaks")

    monkeypatch.setattr("aqualoc.harness.toa_init", boom)
    cfg = ExperimentConfig(trials=2, methods=(METHOD_GBL_MATCHED,), snr_db_list=(20.0,))
    rows, flags = run_snr_sweep(cfg)
    assert rows[0].conv_rate == 0.0
    assert math.isnan(rows[0].rmse_m)
    assert flags and "convergence rate" in flags[0]["reason"]


def test_snr_sweep_crlb_only_deterministic_artifacts(tmp_path):
    rows_list = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            trials=1,
            methods=(METHOD_CRLB,),
            snr_db_list=(10.0, 20.0),
            out_dir=str(tmp_path / sub),
        )
        rows, flags, csv_path = run_and_write("snr", cfg)
        rows_list.append((csv_path.read_bytes(), rows, flags))
    assert rows_list[0][0] == rows_list[1][0]
    assert not rows_list[0][2]
    manifest = json.loads((tmp_path / "a" / "snr_sweep_manifest.json").read_text())
    assert manifest["rows"] == 2
    assert manifest["csv"] == "snr_sweep.csv"
    assert manifest["config_hash"] == config_hash(
        config_from_dict(manifest["config"])
    )


def test_mismatch_sweep_requires_localization_method():
    cfg = ExperimentConfig(methods=(METHOD_CRLB,), trials=1)
    with pytest.raises(ConfigError):
        run_mismatch_sweep(cfg)


def test_mismatch_sweep_matched_tracks_true_depth(env):
    # the matched rows re-derive the model from the offset environment, so a
    # 2 m depth error in the water column costs them nothing
    cfg = ExperimentConfig(
        trials=2,
        methods=(METHOD_GBL_MATCHED,),
        mismatch_m_list=(-2.0,),
        snr_db=20.0,
    )
    rows, flags = run_mismatch_sweep(cfg)
    assert len(rows) == 1
    assert rows[0].mismatch_m == -2.0
    assert rows[0].conv_rate == 1.0
    assert rows[0].rmse_m < 0.05
    assert not flags


def test_unknown_sweep_kind(tmp_path):
    cfg = ExperimentConfig(trials=1, out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_and_write("banana", cfg)
