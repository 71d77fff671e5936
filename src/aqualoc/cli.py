"""Command line interface.

Subcommands: gen-data, train, localize, sweep-snr, sweep-mismatch, crlb,
verify-theorem, selftest. Every subcommand but selftest reads its settings
from one optional JSON config (--config), its only option; the keys it
recognizes depend on the subcommand, and an unknown key is an error.
Relative data paths resolve under AQUALOC_DATA_DIR when it is set. Exit
codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import fd_check
from .environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_SOURCE,
    SCENE_TYPES,
    gen_dataset,
    load_dataset,
    path_geometry,
    save_dataset,
    synthesize_received,
)
from .forward import MatchedModel, TrainConfig, pretrain, save_checkpoint
from .harness import (
    ConfigError,
    DEFAULT_SNR_GRID,
    METHOD_GBL_MATCHED,
    ExperimentConfig,
    _require_model,
    config_from_dict,
    load_model,
    method_cell,
    parse_scene,
    run_and_write,
    run_cell,
    seed_and_fit,
    true_environment,
)
from .localize import _WaveformFit, crlb, require_gamma, toa_init
from .pln import DEFAULT_HIDDEN, PlnArchitecture
from .signals import (
    NoiseSpec, TimeGrid, add_awgn, at_least, finite_float, make_pulse, snr_to_n0, whole_number,
)
from .theory import TheoremConfig, verify_theorem

_SCENE_KEYS = set(SCENE_TYPES)


def _data_dir() -> Path:
    return Path(os.environ.get("AQUALOC_DATA_DIR", "."))


def _resolve(path: str | Path) -> Path:
    path = Path(path)
    return path if path.is_absolute() else _data_dir() / path


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {p} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {p} must be a JSON object")
    return doc


def _check_keys(doc: dict, allowed: set, command: str) -> None:
    extra = set(doc) - allowed
    if extra:
        raise ConfigError(f"unknown config keys for {command}: {sorted(extra)}")


def _cast(key: str, value, cast):
    """`cast(value)`; a value it cannot convert is a ConfigError naming the config key."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: bad value {value!r} ({exc})") from exc


def _whole(doc: dict, key: str, default: int) -> int:
    """The config's `key` (default `default`), a whole number >= 0."""
    return _cast(key, doc.get(key, default), lambda v: at_least(key, v, whole_number, 0))


def _scene_from(doc: dict):
    """(environment, source, pulse, grid, region), defaulting as ExperimentConfig does."""
    cfg = ExperimentConfig(**parse_scene(doc))
    return cfg.environment, cfg.source, cfg.pulse, cfg.grid, cfg.region


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_data(doc: dict) -> int:
    _check_keys(doc, _SCENE_KEYS | {"count", "snr_db", "seed", "out_dir"}, "gen-data")
    env, _, pulse, grid, region = _scene_from(doc)
    count = _whole(doc, "count", 256)
    snr_db = doc.get("snr_db")
    if snr_db is not None:
        snr_db = _cast("snr_db", snr_db, finite_float)
    seed = _whole(doc, "seed", 0)
    out = _resolve(doc.get("out_dir", "dataset"))
    ds = gen_dataset(env, region, count, pulse, grid, seed, snr_db=snr_db)
    save_dataset(ds, out)
    print(f"wrote {count} signals to {out} (snr_db={snr_db}, seed={seed})")
    return 0


def _cmd_train(doc: dict) -> int:
    train_keys = {"epochs", "seed"}
    _check_keys(doc, _SCENE_KEYS | train_keys | {"dataset", "hidden", "out_dir"}, "train")
    if "dataset" not in doc:
        raise ConfigError("train needs a dataset path (config key 'dataset')")
    _, _, _, _, region = _scene_from(doc)
    hidden = _cast("hidden", doc.get("hidden", DEFAULT_HIDDEN), tuple)
    try:
        cfg = TrainConfig(**{key: doc[key] for key in train_keys & set(doc)})
        arch = PlnArchitecture(hidden=hidden)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ds = load_dataset(_resolve(doc["dataset"]))
    ck = pretrain(ds, arch, cfg, region=region)
    out = _resolve(doc.get("out_dir", "checkpoint.json"))
    save_checkpoint(ck, out)
    meta = ck.metadata
    print(
        f"wrote {out}: final loss {meta['final_loss']:.3e}, "
        f"worst path-length error {meta['pln_error']:.4%}"
    )
    return 0


def _cmd_localize(doc: dict) -> int:
    allowed = _SCENE_KEYS | {
        "checkpoint", "method", "gamma", "snr_db", "mismatch_m", "seed",
    }
    _check_keys(doc, allowed, "localize")
    method = doc.get("method", METHOD_GBL_MATCHED)
    checkpoint = str(_resolve(doc["checkpoint"])) if "checkpoint" in doc else None
    cfg = ExperimentConfig(**parse_scene(doc), methods=(method,), checkpoint=checkpoint)
    gamma = require_gamma(doc.get("gamma", 0.0), ConfigError)
    snr_db = doc.get("snr_db", 20.0)
    if snr_db is not None:
        snr_db = _cast("snr_db", snr_db, finite_float)
    mismatch = _cast("mismatch_m", doc.get("mismatch_m", 0.0), finite_float)
    seed = _whole(doc, "seed", 0)
    true_environment(cfg.environment, mismatch)  # a bad offset is a ConfigError before any load
    env_assumed, adapter, clean = method_cell(method, cfg, mismatch, _require_model(cfg))
    if snr_db is None:
        received = clean
    else:
        n0 = snr_to_n0(clean, snr_db, cfg.pulse.bandwidth)
        received = add_awgn(clean, NoiseSpec(n0, seed))
    estimate, result = seed_and_fit(method, cfg, received, adapter, env_assumed, gamma)
    err = float(np.linalg.norm(result.p_hat - np.array([cfg.source.x, cfg.source.z])))
    print(
        json.dumps(
            {
                "method": method,
                "p0": [float(estimate.p0[0]), float(estimate.p0[1])],
                "p_hat": [float(result.p_hat[0]), float(result.p_hat[1])],
                "converged": result.converged,
                "n_iter": result.n_iter,
                "error_m": err,
                "exit_reason": result.exit_reason,
            },
            sort_keys=True,
        )
    )
    return 0


def _sweep(kind: str, doc: dict) -> int:
    cfg = config_from_dict(doc)
    if cfg.checkpoint is not None:
        cfg.checkpoint = str(_resolve(cfg.checkpoint))
    cfg.out_dir = str(_resolve(cfg.out_dir))
    rows, flags, csv_path = run_and_write(kind, cfg)
    for flag in flags:
        print(f"FLAG {flag['method']} mismatch={flag['mismatch_m']} snr={flag['snr_db']}: {flag['reason']}")
    print(f"wrote {len(rows)} rows to {csv_path}")
    return 0


def _cmd_crlb(doc: dict) -> int:
    _check_keys(doc, _SCENE_KEYS | {"snr_db_list"}, "crlb")
    env, source, pulse, grid, _ = _scene_from(doc)
    snrs = _cast("snr_db_list", doc.get("snr_db_list", DEFAULT_SNR_GRID),
                 lambda values: [finite_float(v) for v in values])
    clean = synthesize_received(env, source, pulse, grid)
    print("snr_db,rmse_bound_m")
    for snr_db in snrs:
        n0 = snr_to_n0(clean, snr_db, pulse.bandwidth)
        bound = crlb(env, source.x, source.z, pulse, grid, n0).rmse_bound
        print(f"{snr_db:.10g},{bound:.10g}")
    return 0


def _cmd_verify_theorem(doc: dict) -> int:
    theorem_keys = {"gamma", "seed"}
    allowed = _SCENE_KEYS | theorem_keys | {
        "checkpoint", "eps_depth_m", "out_dir",
    }
    _check_keys(doc, allowed, "verify-theorem")
    if "checkpoint" not in doc:
        raise ConfigError("verify-theorem needs a reduced-model checkpoint")
    env, source, pulse, grid, _ = _scene_from(doc)
    eps_depth_m = _cast("eps_depth_m", doc.get("eps_depth_m", -0.05), finite_float)
    try:
        theorem_cfg = TheoremConfig(**{key: doc[key] for key in theorem_keys & set(doc)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    true_environment(env, eps_depth_m, "eps_depth_m")  # a bad offset is a ConfigError before any load
    report = verify_theorem(load_model(_resolve(doc["checkpoint"]), env, pulse), env, source,
                            eps_depth_m, theorem_cfg, grid=grid)
    out = _resolve(doc.get("out_dir", "theorem_report.json"))
    report.save(out)
    print(
        f"verdict: {report.verdict}; lambda={report.lambda_hat:.4g} "
        f"L={report.l_hat:.4g} xi={report.xi_hat:.4g} theta={report.theta:.4g} "
        f"budget={report.epsilon_budget:.4g} m, displacement {report.displacement:.4g} "
        f"<= bound {report.bound:.4g}: {report.displacement_ok}"
    )
    print(f"wrote {out}")
    return 0


def _cmd_selftest() -> int:
    failures = 0

    def check(name: str, fn) -> None:
        nonlocal failures
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")

    env = DEFAULT_ENVIRONMENT
    source = DEFAULT_SOURCE
    pulse = make_pulse()
    grid = TimeGrid()

    def oracle_lengths():
        got, _ = path_geometry(env, source.x, source.z)
        want = [618.1423784210236, 625.8594091327541, 663.0987860040161]
        assert np.allclose(got, want, rtol=0.0, atol=1e-9), f"{got} != {want}"

    def plugin_equivalence():
        oracle = synthesize_received(env, source, pulse, grid)
        matched, _ = MatchedModel(env, pulse).signal_t(None, source.x, source.z, grid)
        assert np.array_equal(oracle.values, matched), "matched synthesis differs from oracle"

    def gradient_check():
        clean = synthesize_received(env, source, pulse, grid)
        adapter = MatchedModel(env, pulse)
        objective = _WaveformFit(adapter, clean, 0.0, False)
        # h: small enough that central-difference curvature error stays below
        # tolerance on the carrier-oscillatory loss
        report = fd_check(objective, np.array([source.x + 0.2, source.z - 0.1]), h=1e-6)
        assert report.ok(), f"max rel error {report.max_rel_error:.2e}"

    def crlb_monotone():
        clean = synthesize_received(env, source, pulse, grid)
        bounds = []
        for snr_db in (10.0, 20.0):
            n0 = snr_to_n0(clean, snr_db, pulse.bandwidth)
            bounds.append(crlb(env, source.x, source.z, pulse, grid, n0).rmse_bound)
        assert bounds[1] < bounds[0], f"bound did not shrink: {bounds}"

    def toa_noiseless():
        clean = synthesize_received(env, source, pulse, grid)
        est = toa_init(clean, pulse, env)
        err = float(np.linalg.norm(est.p0 - np.array([source.x, source.z])))
        assert err < 0.5, f"TOA init off by {err:.3f} m"

    def determinism():
        cfg = ExperimentConfig(trials=2, snr_db_list=(20.0,), methods=(METHOD_GBL_MATCHED,))
        r1 = run_cell(METHOD_GBL_MATCHED, cfg, 20.0, 0.0, 0.0, None)
        r2 = run_cell(METHOD_GBL_MATCHED, cfg, 20.0, 0.0, 0.0, None)
        assert r1.to_csv_line() == r2.to_csv_line(), "repeated cell differs"

    check("oracle-path-lengths", oracle_lengths)
    check("matched-model-equivalence", plugin_equivalence)
    check("gradient-vs-finite-difference", gradient_check)
    check("crlb-monotone-in-snr", crlb_monotone)
    check("toa-init-noiseless", toa_noiseless)
    check("cell-determinism", determinism)
    if failures:
        print(f"{failures} selftest failure(s)")
        return 3
    print("all selftests passed")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# The subcommands that read a config; selftest reads none.
_CONFIGURED = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "localize": _cmd_localize,
    "sweep-snr": lambda doc: _sweep("snr", doc),
    "sweep-mismatch": lambda doc: _sweep("mismatch", doc),
    "crlb": _cmd_crlb,
    "verify-theorem": _cmd_verify_theorem,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqualoc",
        description="Differentiable three-ray underwater source localization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _CONFIGURED:
        sub.add_parser(name).add_argument("--config", default=None, help="JSON config file")
    sub.add_parser("selftest")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "selftest":
            return _cmd_selftest()
        return _CONFIGURED[args.command](_load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 3
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
