"""Command line behavior: exit codes, config handling, artifacts."""

import argparse
import json
import math

import numpy as np
import pytest

from aqualoc.cli import main
from aqualoc.environment import load_dataset
from aqualoc.forward import load_checkpoint


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- parser-level behavior -------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("gen-data", "train", "localize", "sweep-snr", "sweep-mismatch",
                 "crlb", "verify-theorem", "selftest"):
        assert name in out


def test_invalid_json_config_exits_2_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,\n  "trials": }\n')
    assert main(["crlb", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["crlb", "--config", str(tmp_path / "absent.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_object_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "arr.json", [1, 2, 3])
    assert main(["crlb", "--config", path]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "extra.json", {"snr_bd_list": [20.0]})
    assert main(["crlb", "--config", path]) == 2
    assert "unknown config keys" in capsys.readouterr().err


SUBCOMMANDS = ("gen-data", "train", "localize", "sweep-snr", "sweep-mismatch", "crlb",
               "verify-theorem", "selftest")
# Settings come only from the config file, so no subcommand takes any of these flags.
RETIRED_FLAGS = (["--seed", "1"], ["--trials", "3"], ["--out", "x"], ["--dataset", "x"],
                 ["--checkpoint", "x"], ["--reduced"], ["--timing"])


@pytest.mark.parametrize("argv", [[c, *f] for c in SUBCOMMANDS for f in RETIRED_FLAGS])
def test_override_flag_the_subcommand_does_not_read_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a subcommand that ran would write its default outputs here
    assert main(argv) == 2
    assert argv[1] in capsys.readouterr().err


def test_selftest_takes_no_config(tmp_path, capsys):
    path = write_config(tmp_path, "empty.json", {})
    assert main(["selftest", "--config", path]) == 2
    assert "--config" in capsys.readouterr().err


def test_config_is_the_only_option():
    from aqualoc.cli import _build_parser

    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = [
        a.option_strings for p in [parser, *sub.choices.values()] for a in p._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    ]
    assert options == [["--config"]] * 7


@pytest.mark.parametrize(
    "command, doc",
    [("crlb", {"seed": 1}), ("crlb", {"out_dir": "x"}), ("localize", {"out_dir": "x"})],
)
def test_config_key_the_subcommand_does_not_read_exits_2(tmp_path, capsys, command, doc):
    path = write_config(tmp_path, "c.json", doc)
    assert main([command, "--config", path]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["localize", "gen-data"])
def test_infinite_region_bound_exits_2(tmp_path, capsys, command):
    region = {"x_min": 300.0, "x_max": math.inf, "z_min": 5.0, "z_max": 100.0}
    doc = {"region": region, **({"out_dir": str(tmp_path / "ds")} if command == "gen-data" else {})}
    path = write_config(tmp_path, "r.json", doc)
    assert main([command, "--config", path]) == 2
    assert "bad scene section" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("localize", {"snr_db": "loud"}, "snr_db"),
        ("localize", {"mismatch_m": "deep"}, "mismatch_m"),
        ("gen-data", {"count": "many"}, "count"),
        ("gen-data", {"snr_db": "x"}, "snr_db"),
        ("crlb", {"snr_db_list": ["x"]}, "snr_db_list"),
        ("sweep-snr", {"snr_db_list": ["x"], "methods": ["crlb"]}, "snr_db_list"),
        ("sweep-snr", {"snr_db_list": [math.nan], "methods": ["crlb"]}, "snr_db_list"),
        ("sweep-snr", {"snr_db_list": 5, "methods": ["crlb"]}, "snr_db_list"),
        ("sweep-mismatch", {"snr_db": "x", "methods": ["gbl-matched"]}, "snr_db"),
        ("sweep-mismatch", {"mismatch_m_list": [math.inf], "methods": ["gbl-matched"]},
         "mismatch_m_list"),
        ("sweep-snr", {"trials": 2.5, "methods": ["crlb"]}, "trials"),
        ("sweep-snr", {"trials": True, "methods": ["crlb"]}, "trials"),
        ("sweep-snr", {"seed": 1.5, "methods": ["crlb"]}, "seed"),
        ("sweep-snr", {"timing": "no", "methods": ["crlb"]}, "timing"),
        ("localize", {"seed": 1.5}, "seed"),
        ("gen-data", {"count": 2.5}, "count"),
        ("gen-data", {"seed": True}, "seed"),
        ("train", {"dataset": "absent", "batch_size": 2.5}, "batch_size"),
        ("train", {"dataset": "absent", "epochs": 2.5}, "epochs"),
        ("train", {"dataset": "absent", "seed": 1.5}, "seed"),
        ("train", {"dataset": "absent", "hidden": [8.5]}, "hidden"),
        ("verify-theorem", {"checkpoint": "absent.json", "seed": 1.5}, "seed"),
        ("localize", {"snr_db": True}, "snr_db"),
        ("localize", {"gamma": True}, "gamma"),
        ("localize", {"mismatch_m": True}, "mismatch_m"),
        ("localize", {"snr_db": 10**400}, "snr_db"),
        ("gen-data", {"snr_db": True}, "snr_db"),
        ("crlb", {"snr_db_list": [True]}, "snr_db_list"),
        ("sweep-snr", {"gamma_list": [True], "methods": ["crlb"]}, "gamma"),
        ("train", {"dataset": "absent", "lr": True}, "lr"),
        ("verify-theorem", {"checkpoint": "absent.json", "eps_depth_m": True}, "eps_depth_m"),
        ("verify-theorem", {"checkpoint": "absent.json", "eps_sound_speed_ms": True},
         "eps_sound_speed_ms"),
        ("verify-theorem", {"checkpoint": "absent.json", "sigma": True}, "sigma"),
        ("verify-theorem", {"checkpoint": "absent.json", "gamma": True}, "gamma"),
        ("verify-theorem", {"checkpoint": "absent.json", "curvature_target": True},
         "curvature_target"),
        ("verify-theorem", {"checkpoint": "absent.json", "path_shift_budget_m": True},
         "path_shift_budget_m"),
        # out of range: rejected before the absent dataset or checkpoint is read
        ("train", {"dataset": "absent", "lr": -1}, "lr"),
        ("train", {"dataset": "absent", "epochs": 0}, "epochs"),
        ("train", {"dataset": "absent", "batch_size": 0}, "batch_size"),
        ("train", {"dataset": "absent", "hidden": [0]}, "hidden"),
        ("train", {"dataset": "absent", "hidden": []}, "hidden"),
        ("gen-data", {"count": -1}, "count"),
        ("verify-theorem", {"checkpoint": "absent.json", "curvature_target": -1.0},
         "curvature_target"),
        ("verify-theorem", {"checkpoint": "absent.json", "path_shift_budget_m": 0.0},
         "path_shift_budget_m"),
        ("gen-data", {"seed": -1}, "seed"),
        ("localize", {"seed": -1}, "seed"),
        ("sweep-snr", {"seed": -1, "methods": ["crlb"]}, "seed"),
        ("sweep-mismatch", {"seed": -1, "methods": ["gbl-matched"]}, "seed"),
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, command, doc, key):
    if command not in ("localize", "crlb"):  # the others write under out_dir
        doc = {**doc, "out_dir": str(tmp_path / "out")}
    path = write_config(tmp_path, "v.json", doc)
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


# -- crlb ---------------------------------------------------------------------------


def test_crlb_prints_table(tmp_path, capsys):
    path = write_config(tmp_path, "crlb.json", {"snr_db_list": [10.0, 20.0]})
    assert main(["crlb", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "snr_db,rmse_bound_m"
    table = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert set(table) == {10.0, 20.0}
    assert table[20.0] == pytest.approx(0.004014381764703076, rel=1e-9)
    assert table[10.0] > table[20.0]


# -- gen-data / train / localize round trip -------------------------------------------


def test_gen_train_localize_round_trip(tmp_path, capsys):
    data_dir = tmp_path / "ds"
    gen_cfg = write_config(tmp_path, "gen.json", {"count": 16, "out_dir": str(data_dir)})
    assert main(["gen-data", "--config", gen_cfg]) == 0
    ds = load_dataset(data_dir)
    assert ds.locations.shape == (16, 2)

    ck_path = tmp_path / "ck.json"
    train_cfg = write_config(
        tmp_path,
        "train.json",
        {
            "dataset": str(data_dir),
            "epochs": 32,
            "hidden": [8],
            "out_dir": str(ck_path),
        },
    )
    assert main(["train", "--config", train_cfg]) == 0
    ck = load_checkpoint(ck_path)
    assert ck.metadata["epochs"] == 32
    assert ck.model.pln.arch.hidden == (8,)

    loc_cfg = write_config(tmp_path, "loc.json", {"method": "gbl-matched", "snr_db": 30.0})
    capsys.readouterr()
    assert main(["localize", "--config", loc_cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "gbl-matched"
    assert doc["converged"] is True
    assert doc["error_m"] < 0.5


def test_train_without_dataset_exits_2(capsys):
    assert main(["train"]) == 2
    assert "dataset" in capsys.readouterr().err


def test_train_missing_dataset_dir_is_runtime_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, "t.json", {"dataset": str(tmp_path / "nope")})
    assert main(["train", "--config", cfg]) == 3


def test_localize_nn_needs_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, "l.json", {"method": "gbl-nn"})
    assert main(["localize", "--config", cfg]) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_localize_unknown_method_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "l.json", {"method": "triangulate"})
    assert main(["localize", "--config", cfg]) == 2


# -- sweeps ------------------------------------------------------------------------


def sweep_config(tmp_path, sub):
    return write_config(
        tmp_path,
        f"sweep_{sub}.json",
        {
            "methods": ["crlb", "gbl-matched"],
            "snr_db_list": [20.0],
            "trials": 2,
            "out_dir": str(tmp_path / sub),
        },
    )


def test_sweep_snr_reruns_byte_identical(tmp_path, capsys):
    for sub in ("a", "b"):
        assert main(["sweep-snr", "--config", sweep_config(tmp_path, sub)]) == 0
    csv_a = (tmp_path / "a" / "snr_sweep.csv").read_bytes()
    csv_b = (tmp_path / "b" / "snr_sweep.csv").read_bytes()
    assert csv_a == csv_b
    lines = csv_a.decode().splitlines()
    assert len(lines) == 3  # header + crlb + gbl-matched


def test_sweep_trials_override(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "s.json",
        {
            "methods": ["gbl-matched"],
            "snr_db_list": [25.0],
            "trials": 1,
            "out_dir": str(tmp_path / "o"),
        },
    )
    assert main(["sweep-snr", "--config", cfg]) == 0
    line = (tmp_path / "o" / "snr_sweep.csv").read_text().splitlines()[1]
    assert line.split(",")[4] == "1"


def test_sweep_nn_without_checkpoint_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "s.json",
        {"methods": ["gbl-nn"], "snr_db_list": [20.0], "trials": 1, "out_dir": str(tmp_path)},
    )
    assert main(["sweep-snr", "--config", cfg]) == 2


def test_verify_theorem_needs_checkpoint(capsys):
    assert main(["verify-theorem"]) == 2
    assert "checkpoint" in capsys.readouterr().err


# -- the adaptation anchor gamma --------------------------------------------------------

BAD_GAMMAS = [-1.0, math.nan, math.inf]


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_sweep_bad_gamma_exits_2(tmp_path, capsys, gamma):
    cfg = write_config(
        tmp_path, "s.json",
        {"methods": ["crlb"], "snr_db_list": [20.0], "gamma_list": [gamma], "trials": 1,
         "out_dir": str(tmp_path / "o")},
    )
    assert main(["sweep-snr", "--config", cfg]) == 2
    assert "gamma" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_localize_bad_gamma_exits_2(tmp_path, capsys, gamma):
    cfg = write_config(tmp_path, "l.json", {"method": "gbl-matched", "gamma": gamma})
    assert main(["localize", "--config", cfg]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.fixture(scope="module")
def untrained_checkpoint(tmp_path_factory):
    from aqualoc.environment import DEFAULT_ENVIRONMENT, DEFAULT_REGION
    from aqualoc.forward import Checkpoint, ModelParams, save_checkpoint
    from aqualoc.pln import REDUCED_HIDDEN, InputNormalization, PlnArchitecture, pln_init
    from aqualoc.signals import make_pulse

    norm = InputNormalization.from_region(DEFAULT_REGION, DEFAULT_ENVIRONMENT)
    params = pln_init(PlnArchitecture(hidden=REDUCED_HIDDEN), norm, 0)
    model = ModelParams(params, DEFAULT_ENVIRONMENT.sound_speed,
                        DEFAULT_ENVIRONMENT.receiver_depth, make_pulse())
    return save_checkpoint(Checkpoint(model), tmp_path_factory.mktemp("ck") / "ck.json")


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_verify_theorem_bad_gamma_exits_2(tmp_path, capsys, untrained_checkpoint, gamma):
    cfg = write_config(tmp_path, "t.json", {"checkpoint": str(untrained_checkpoint), "gamma": gamma})
    assert main(["verify-theorem", "--config", cfg]) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_theorem_config_rejects_bad_gamma(gamma):
    from aqualoc.theory import TheoremConfig

    with pytest.raises(ValueError, match="gamma"):
        TheoremConfig(gamma=gamma)
    assert TheoremConfig(gamma=0.0).gamma == 0.0


# -- data dir resolution ---------------------------------------------------------------


def test_relative_paths_resolve_under_data_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AQUALOC_DATA_DIR", str(tmp_path))
    cfg = write_config(tmp_path, "g.json", {"count": 4, "out_dir": "nested/ds"})
    assert main(["gen-data", "--config", cfg]) == 0
    assert (tmp_path / "nested" / "ds").exists()


# -- selftest ----------------------------------------------------------------------------


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all selftests passed" in out
    assert "FAIL" not in out
