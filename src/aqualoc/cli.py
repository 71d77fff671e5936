"""Command line interface.

Subcommands: gen-data, train, localize, sweep-snr, sweep-mismatch, crlb,
verify-theorem, selftest. Each reads an optional JSON config (--config) whose
recognized keys depend on the subcommand; --seed, --trials, and --out override
the corresponding config entries. Relative data paths resolve under
AQUALOC_DATA_DIR when it is set. Exit codes: 0 success, 2 configuration
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_SOURCE,
    Environment,
    SourceLocation,
    gen_dataset,
    load_dataset,
    save_dataset,
    synthesize_received,
)
from .forward import (
    TrainConfig,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from .harness import (
    ConfigError,
    METHOD_DA_GBL,
    METHOD_GBL_MATCHED,
    METHOD_GBL_NN,
    SCENE_TYPES,
    ExperimentConfig,
    config_from_dict,
    parse_scene,
    run_and_write,
)
from .localize import ToaInitError, crlb, da_gbl, gbl, toa_init
from .pln import DEFAULT_HIDDEN, REDUCED_HIDDEN, PlnArchitecture
from .signals import NoiseSpec, TimeGrid, add_awgn, make_pulse, snr_to_n0
from .theory import EnvPerturbation, TheoremConfig, verify_theorem

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


def _scene_from(doc: dict):
    """(environment, source, pulse, grid, region), defaulting as ExperimentConfig does."""
    cfg = ExperimentConfig(**parse_scene(doc))
    return cfg.environment, cfg.source, cfg.pulse, cfg.grid, cfg.region


def _apply_overrides(doc: dict, args) -> dict:
    doc = dict(doc)
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        doc["trials"] = args.trials
    if getattr(args, "out", None) is not None:
        doc["out_dir"] = args.out
    return doc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen_data(args, doc: dict) -> int:
    _check_keys(doc, _SCENE_KEYS | {"count", "snr_db", "seed", "out_dir"}, "gen-data")
    doc = _apply_overrides(doc, args)
    env, _, pulse, grid, region = _scene_from(doc)
    count = int(doc.get("count", 256))
    snr_db = doc.get("snr_db")
    seed = int(doc.get("seed", 0))
    out = _resolve(doc.get("out_dir", "dataset"))
    ds = gen_dataset(env, region, count, pulse, grid, seed, snr_db=snr_db)
    save_dataset(ds, out)
    print(f"wrote {count} signals to {out} (snr_db={snr_db}, seed={seed})")
    return 0


def _cmd_train(args, doc: dict) -> int:
    allowed = _SCENE_KEYS | {
        "dataset", "preset", "hidden", "lr", "batch_size", "epochs", "seed", "out_dir",
    }
    _check_keys(doc, allowed, "train")
    doc = _apply_overrides(doc, args)
    if args.dataset is not None:
        doc["dataset"] = args.dataset
    if "dataset" not in doc:
        raise ConfigError("train needs a dataset path (config key 'dataset' or --dataset)")
    _, _, _, _, region = _scene_from(doc)
    ds = load_dataset(_resolve(doc["dataset"]))
    if args.reduced or doc.get("preset") == "reduced":
        hidden = REDUCED_HIDDEN
    elif "hidden" in doc:
        hidden = tuple(int(h) for h in doc["hidden"])
    else:
        hidden = DEFAULT_HIDDEN
    kw: dict = {}
    for key, cast in (("lr", float), ("batch_size", int), ("epochs", int), ("seed", int)):
        if key in doc:
            kw[key] = cast(doc[key])
    cfg = TrainConfig(**kw)
    ck = pretrain(ds, PlnArchitecture(hidden=hidden), cfg, region=region)
    out = _resolve(doc.get("out_dir", "checkpoint.json"))
    save_checkpoint(ck, out)
    meta = ck.metadata
    print(
        f"wrote {out}: final loss {meta['final_loss']:.3e}, "
        f"worst path-length error {meta['pln_error']:.4%}"
    )
    return 0


def _cmd_localize(args, doc: dict) -> int:
    allowed = _SCENE_KEYS | {
        "checkpoint", "method", "gamma", "snr_db", "mismatch_m", "seed", "out_dir",
    }
    _check_keys(doc, allowed, "localize")
    doc = _apply_overrides(doc, args)
    if args.checkpoint is not None:
        doc["checkpoint"] = args.checkpoint
    env_train, source, pulse, grid, region = _scene_from(doc)
    method = doc.get("method", METHOD_GBL_MATCHED)
    gamma = float(doc.get("gamma", 0.0))
    snr_db = doc.get("snr_db", 20.0)
    mismatch = float(doc.get("mismatch_m", 0.0))
    seed = int(doc.get("seed", 0))
    env_true = Environment(
        env_train.depth + mismatch, env_train.sound_speed, env_train.receiver_depth
    )
    clean = synthesize_received(env_true, source, pulse, grid)
    if snr_db is None:
        received = clean
    else:
        n0 = snr_to_n0(clean, float(snr_db), pulse.bandwidth)
        received = add_awgn(clean, NoiseSpec(n0, seed))
    env_assumed = env_true if method == METHOD_GBL_MATCHED else env_train
    if method == METHOD_GBL_MATCHED:
        from .forward import MatchedModel

        adapter = MatchedModel(env_assumed, pulse)
    elif method in (METHOD_GBL_NN, METHOD_DA_GBL):
        if "checkpoint" not in doc:
            raise ConfigError(f"method {method} needs a checkpoint")
        from .forward import NetworkModel

        adapter = NetworkModel(load_checkpoint(_resolve(doc["checkpoint"])).model)
    else:
        raise ConfigError(f"unknown method {method!r}")
    estimate = toa_init(received, pulse, env_assumed, region)
    if method == METHOD_DA_GBL:
        result = da_gbl(received, adapter, estimate.p0, gamma)
    else:
        result = gbl(received, adapter, estimate.p0)
    err = float(np.linalg.norm(result.p_hat - np.array([source.x, source.z])))
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


def _sweep(kind: str, args, doc: dict) -> int:
    doc = _apply_overrides(doc, args)
    if args.checkpoint is not None:
        doc["checkpoint"] = args.checkpoint
    if getattr(args, "timing", False):
        doc["timing"] = True
    cfg = config_from_dict(doc)
    if cfg.checkpoint is not None:
        cfg.checkpoint = str(_resolve(cfg.checkpoint))
    cfg.out_dir = str(_resolve(cfg.out_dir))
    rows, flags, csv_path = run_and_write(kind, cfg)
    for flag in flags:
        print(f"FLAG {flag['method']} mismatch={flag['mismatch_m']} snr={flag['snr_db']}: {flag['reason']}")
    print(f"wrote {len(rows)} rows to {csv_path}")
    return 0


def _cmd_sweep_snr(args, doc: dict) -> int:
    return _sweep("snr", args, doc)


def _cmd_sweep_mismatch(args, doc: dict) -> int:
    return _sweep("mismatch", args, doc)


def _cmd_crlb(args, doc: dict) -> int:
    _check_keys(doc, _SCENE_KEYS | {"snr_db_list", "seed", "out_dir"}, "crlb")
    doc = _apply_overrides(doc, args)
    env, source, pulse, grid, _ = _scene_from(doc)
    snrs = doc.get("snr_db_list", [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    clean = synthesize_received(env, source, pulse, grid)
    print("snr_db,rmse_bound_m")
    for snr_db in snrs:
        n0 = snr_to_n0(clean, float(snr_db), pulse.bandwidth)
        bound = crlb(env, source.x, source.z, pulse, grid, n0).rmse_bound
        print(f"{float(snr_db):.10g},{bound:.10g}")
    return 0


def _cmd_verify_theorem(args, doc: dict) -> int:
    allowed = _SCENE_KEYS | {
        "checkpoint", "eps_depth_m", "eps_sound_speed_ms", "gamma", "sigma",
        "curvature_target", "path_shift_budget_m", "seed", "out_dir",
    }
    _check_keys(doc, allowed, "verify-theorem")
    doc = _apply_overrides(doc, args)
    if args.checkpoint is not None:
        doc["checkpoint"] = args.checkpoint
    if "checkpoint" not in doc:
        raise ConfigError("verify-theorem needs a reduced-model checkpoint")
    env, source, pulse, grid, _ = _scene_from(doc)
    model = load_checkpoint(_resolve(doc["checkpoint"])).model
    if model.receiver_depth != env.receiver_depth:
        raise ConfigError(
            f"checkpoint receiver depth {model.receiver_depth} does not match "
            f"environment receiver depth {env.receiver_depth}"
        )
    eps = EnvPerturbation(
        depth_m=float(doc.get("eps_depth_m", -0.05)),
        sound_speed_ms=float(doc.get("eps_sound_speed_ms", 0.0)),
    )
    cfg_kwargs = {}
    for key in ("sigma", "gamma", "curvature_target", "path_shift_budget_m"):
        if key in doc:
            cfg_kwargs[key] = float(doc[key])
    if "seed" in doc:
        cfg_kwargs["seed"] = int(doc["seed"])
    report = verify_theorem(model, env, source, eps, TheoremConfig(**cfg_kwargs), grid=grid)
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


def _cmd_selftest(args, doc: dict) -> int:
    _check_keys(doc, set(), "selftest")
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
        from .environment import path_geometry

        got, _ = path_geometry(env, source.x, source.z)
        want = [618.1423784210236, 625.8594091327541, 663.0987860040161]
        assert np.allclose(got, want, rtol=0.0, atol=1e-9), f"{got} != {want}"

    def plugin_equivalence():
        from .forward import MatchedModel

        oracle = synthesize_received(env, source, pulse, grid)
        matched, _ = MatchedModel(env, pulse).signal_t(None, source.x, source.z, grid)
        assert np.array_equal(oracle.values, matched), "matched synthesis differs from oracle"

    def gradient_check():
        from .autodiff import fd_check
        from .forward import MatchedModel

        clean = synthesize_received(env, source, pulse, grid)
        adapter = MatchedModel(env, pulse)
        from .localize import _make_objective

        objective, _ = _make_objective(adapter, clean, 0.0, adapt_weights=False)
        # h: small enough that central-difference curvature error stays below
        # tolerance on the carrier-oscillatory loss
        report = fd_check(objective, np.array([source.x + 0.2, source.z - 0.1]), h=1e-6)
        assert report.ok(1e-5), f"max rel error {report.max_rel_error:.2e}"

    def rmse_examples():
        from .harness import rmse

        truth = SourceLocation(610.0, 20.0)
        assert rmse([truth, truth], truth) == 0.0
        pair = [SourceLocation(613.0, 20.0), SourceLocation(607.0, 20.0)]
        assert abs(rmse(pair, truth) - 3.0) < 1e-12

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
        from .harness import ExperimentConfig, run_cell

        cfg = ExperimentConfig(trials=2, snr_db_list=(20.0,), methods=(METHOD_GBL_MATCHED,))
        r1 = run_cell(METHOD_GBL_MATCHED, env, env, cfg, 20.0, 0.0, 0.0, None)
        r2 = run_cell(METHOD_GBL_MATCHED, env, env, cfg, 20.0, 0.0, 0.0, None)
        assert r1.to_csv_line() == r2.to_csv_line(), "repeated cell differs"

    check("oracle-path-lengths", oracle_lengths)
    check("matched-model-equivalence", plugin_equivalence)
    check("gradient-vs-finite-difference", gradient_check)
    check("rmse-examples", rmse_examples)
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


_DISPATCH = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "localize": _cmd_localize,
    "sweep-snr": _cmd_sweep_snr,
    "sweep-mismatch": _cmd_sweep_mismatch,
    "crlb": _cmd_crlb,
    "verify-theorem": _cmd_verify_theorem,
    "selftest": _cmd_selftest,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqualoc",
        description="Differentiable three-ray underwater source localization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)
        if name in ("train",):
            p.add_argument("--dataset", default=None)
            p.add_argument("--reduced", action="store_true")
        if name in ("localize", "sweep-snr", "sweep-mismatch", "verify-theorem"):
            p.add_argument("--checkpoint", default=None)
        if name in ("sweep-snr", "sweep-mismatch"):
            p.add_argument("--timing", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        doc = _load_config(args.config)
        return _DISPATCH[args.command](args, doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 3
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
