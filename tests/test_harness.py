"""Sweep orchestration: statistics, seeding, CSV artifacts, determinism."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from aqualoc.environment import (
    DEFAULT_REGION, Environment, SourceLocation, synthesize_received,
)
from aqualoc.forward import MatchedModel, ModelParams, NetworkModel
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
    method_cell,
    run_and_write,
    run_cell,
    run_sweep,
    write_csv,
)
from aqualoc.localize import ToaInitError
from aqualoc.pln import REDUCED_HIDDEN, InputNormalization, PlnArchitecture, pln_init

TRUTH = SourceLocation(610.0, 20.0)


# -- cell RMSE ---------------------------------------------------------------------


def _cell_rmse(estimates) -> float:
    """_cell_stats's RMSE over estimates, all converged, from their distances to TRUTH."""
    truth = np.array([TRUTH.x, TRUTH.z])
    errors = [float(np.linalg.norm(np.asarray(e) - truth)) for e in estimates]
    return _cell_stats(errors, len(errors))[0]


def test_rmse_zero_at_truth():
    assert _cell_rmse([(TRUTH.x, TRUTH.z)] * 3) == 0.0


def test_rmse_symmetric_pair():
    pair = [(613.0, 20.0), (607.0, 20.0)]
    assert _cell_rmse(pair) == pytest.approx(3.0, abs=1e-12)


def test_rmse_gaussian_cloud_matches_chi_mean_square(rng):
    # E||e||^2 = 2 sigma^2 for isotropic 2-D noise, so RMSE -> sigma * sqrt(2)
    draws = np.array([TRUTH.x, TRUTH.z]) + rng.normal(scale=2.0, size=(1000, 2))
    got = _cell_rmse(draws)
    want = 2.0 * math.sqrt(2.0)
    assert abs(got - want) <= 0.05 * want


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
    again = config_from_dict(asdict(cfg))
    assert asdict(again) == asdict(cfg)
    assert config_hash(again) == config_hash(cfg)


def test_config_hash_pinned():
    # every sweep manifest records this hash of the default config's
    # canonical JSON; it must not drift with how that JSON is built
    assert config_hash(ExperimentConfig()) == "a46b4c28e58744c4"


def test_config_hash_reads_whole_numbers_as_floats():
    # a JSON list of whole numbers names the same config as its float spelling
    ints = config_from_dict(
        {"snr_db_list": [0, 20], "mismatch_m_list": [-1, 2], "gamma_list": [0, 1], "snr_db": 20})
    floats = config_from_dict({"snr_db_list": [0.0, 20.0], "mismatch_m_list": [-1.0, 2.0],
                               "gamma_list": [0.0, 1.0], "snr_db": 20.0})
    assert config_hash(ints) == config_hash(floats)
    assert config_hash(config_from_dict({"snr_db": 20})) == "a46b4c28e58744c4"  # the default
    # and so do scene sections: each is the default scene spelled in integers
    for scene in ({"environment": {"depth": 200, "sound_speed": 1500, "receiver_depth": 120}},
                  {"grid": {"sample_rate": 4000, "duration": 2}}):
        assert config_hash(config_from_dict(scene)) == "a46b4c28e58744c4"
    assert ints.snr_db_list == (0.0, 20.0) and all(type(v) is float for v in ints.gamma_list)
    for bad in ({"snr_db_list": ["x"]}, {"mismatch_m_list": [True]}, {"gamma_list": [None]}):
        with pytest.raises(ConfigError):
            config_from_dict(bad)


def test_config_hash_sensitivity():
    a = ExperimentConfig(seed=0)
    b = ExperimentConfig(seed=1)
    assert config_hash(a) != config_hash(b)


def test_require_model_raises_without_checkpoint():
    cfg = ExperimentConfig(methods=(METHOD_GBL_NN,))
    with pytest.raises(ConfigError):
        _require_model(cfg)
    assert _require_model(ExperimentConfig(methods=(METHOD_GBL_MATCHED,))) is None


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
        _crlb_row(cfg, snr).rmse_m for snr in (0.0, 10.0, 20.0, 30.0)
    ]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))


@pytest.mark.parametrize(
    "method, adapter_type, assumes_true_depth",
    [(METHOD_GBL_MATCHED, MatchedModel, True),
     (METHOD_GBL_NN, NetworkModel, False),
     (METHOD_DA_GBL, NetworkModel, False)],
)
def test_method_cell_rule_at_a_depth_offset(method, adapter_type, assumes_true_depth):
    # the recording comes from the training depth minus 2 m; only the matched
    # model knows that depth, the network methods assume the training one
    cfg = ExperimentConfig()
    norm = InputNormalization.from_region(DEFAULT_REGION, cfg.environment)
    model = NetworkModel(ModelParams(pln_init(PlnArchitecture(hidden=REDUCED_HIDDEN), norm, 0),
                                     cfg.environment.sound_speed, cfg.environment.receiver_depth,
                                     cfg.pulse))
    env_assumed, adapter, clean = method_cell(method, cfg, -2.0, model)
    true_depth = cfg.environment.depth - 2.0
    assert env_assumed.depth == (true_depth if assumes_true_depth else cfg.environment.depth)
    assert type(adapter) is adapter_type
    assert (adapter is model) == (adapter_type is NetworkModel)
    env_true = Environment(true_depth, cfg.environment.sound_speed, cfg.environment.receiver_depth)
    want = synthesize_received(env_true, cfg.source, cfg.pulse, cfg.grid)
    assert np.array_equal(clean.values, want.values)


def test_method_cell_config_errors():
    cfg = ExperimentConfig()
    with pytest.raises(ConfigError, match="unknown method"):
        method_cell("triangulate", cfg, -2.0, None)
    with pytest.raises(ConfigError, match="checkpoint"):
        method_cell(METHOD_GBL_NN, cfg, -2.0, None)


def test_run_cell_deterministic(env):
    cfg = ExperimentConfig(trials=2, methods=(METHOD_GBL_MATCHED,), snr_db_list=(20.0,))
    r1 = run_cell(METHOD_GBL_MATCHED, cfg, 20.0, 0.0, 0.0, None)
    r2 = run_cell(METHOD_GBL_MATCHED, cfg, 20.0, 0.0, 0.0, None)
    assert r1.to_csv_line() == r2.to_csv_line()
    assert r1.conv_rate == 1.0
    assert r1.rmse_m < 0.05


def test_failed_seeding_counted_not_averaged(monkeypatch):
    def boom(*args, **kwargs):
        raise ToaInitError("no peaks")

    monkeypatch.setattr("aqualoc.harness.toa_init", boom)
    cfg = ExperimentConfig(trials=2, methods=(METHOD_GBL_MATCHED,), snr_db_list=(20.0,))
    rows, flags = run_sweep("snr", cfg)
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
        run_sweep("mismatch", cfg)


def test_mismatch_sweep_matched_tracks_true_depth(env):
    # the matched rows re-derive the model from the offset environment, so a
    # 2 m depth error in the water column costs them nothing
    cfg = ExperimentConfig(
        trials=2,
        methods=(METHOD_GBL_MATCHED,),
        mismatch_m_list=(-2.0,),
        snr_db=20.0,
    )
    rows, flags = run_sweep("mismatch", cfg)
    assert len(rows) == 1
    assert rows[0].mismatch_m == -2.0
    assert rows[0].conv_rate == 1.0
    assert rows[0].rmse_m < 0.05
    assert not flags


# The untrained reduced network converges in some cells and not others, so
# both sweeps raise flags of every kind they can.
NETWORK_SWEEP = dict(methods=(METHOD_GBL_MATCHED, METHOD_GBL_NN, METHOD_DA_GBL),
                     gamma_list=(0.0, 1.0), trials=2, seed=5)
TRUST_BUDGET = "adaptation trust budget exceeded at this mismatch, no robustness claim"


def _flags_from_rows(kind, rows):
    """The sweep's flags, recomputed from its rows by its two rules."""
    def flag(row, reason):
        return {"method": row.method, "snr_db": row.snr_db, "mismatch_m": row.mismatch_m,
                "gamma": row.gamma, "reason": reason}

    suffix = f"; {TRUST_BUDGET}" if kind == "mismatch" else ""
    flags = [flag(r, f"convergence rate {r.conv_rate:.2f} below 0.9{suffix}")
             for r in rows if r.conv_rate < 0.9]
    if kind == "mismatch":
        matched = {r.mismatch_m: r.rmse_m for r in rows if r.method == METHOD_GBL_MATCHED}
        flags += [flag(r, f"rmse {r.rmse_m:.3g} m is >= 5.0 x matched reference "
                          f"{matched[r.mismatch_m]:.3g} m; {TRUST_BUDGET}")
                  for r in rows if r.method == METHOD_DA_GBL
                  and r.rmse_m >= 5.0 * matched[r.mismatch_m]]
    return flags


def test_sweep_row_order_and_flags(untrained_checkpoint):
    ck = str(untrained_checkpoint)
    snr_rows, snr_flags = run_sweep(
        "snr", ExperimentConfig(**NETWORK_SWEEP, snr_db_list=(0.0, 20.0), checkpoint=ck))
    mis_rows, mis_flags = run_sweep(
        "mismatch", ExperimentConfig(**NETWORK_SWEEP, mismatch_m_list=(-1.0, 0.5), checkpoint=ck))
    # the SNR sweep is method-major, the mismatch sweep mismatch-major;
    # da-gbl runs once per gamma
    assert [(r.method, r.snr_db, r.mismatch_m, r.gamma) for r in snr_rows] == [
        ("gbl-matched", 0.0, 0.0, 0.0), ("gbl-matched", 20.0, 0.0, 0.0),
        ("gbl-nn", 0.0, 0.0, 0.0), ("gbl-nn", 20.0, 0.0, 0.0),
        ("da-gbl", 0.0, 0.0, 0.0), ("da-gbl", 0.0, 0.0, 1.0),
        ("da-gbl", 20.0, 0.0, 0.0), ("da-gbl", 20.0, 0.0, 1.0),
    ]
    assert [(r.method, r.snr_db, r.mismatch_m, r.gamma) for r in mis_rows] == [
        (method, 20.0, mismatch, gamma) for mismatch in (-1.0, 0.5)
        for method, gamma in (("gbl-matched", 0.0), ("gbl-nn", 0.0),
                              ("da-gbl", 0.0), ("da-gbl", 1.0))
    ]
    assert snr_flags == _flags_from_rows("snr", snr_rows)
    assert mis_flags == _flags_from_rows("mismatch", mis_rows)
    assert any(f["reason"].startswith("convergence rate") for f in mis_flags)
    assert any(f["reason"].startswith("rmse") for f in mis_flags)
    assert snr_flags and not any(TRUST_BUDGET in f["reason"] for f in snr_flags)


def test_unknown_sweep_kind(tmp_path):
    cfg = ExperimentConfig(trials=1, out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_and_write("banana", cfg)
