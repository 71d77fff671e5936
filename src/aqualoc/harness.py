"""Monte-Carlo experiment orchestration: SNR sweeps, mismatch sweeps, CRLB rows.

Every artifact is a pure function of (config, master seed): per-trial noise
seeds are derived by seed-sequence composition over the cell coordinates, and
wall-clock timing is off by default so re-runs are byte-identical. Cells whose
convergence rate drops below 0.9 are flagged in the manifest, never silently
averaged; non-converged trials are excluded from the error statistics and
counted in the rate.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    Environment,
    Region,
    SourceLocation,
    synthesize_received,
)
from .forward import Checkpoint, ModelParams, NetworkModel, MatchedModel, load_checkpoint
from .localize import (
    LocalizeResult, SingularFisherError, ToaEstimate, ToaInitError, crlb, da_gbl, gbl,
    require_gamma, toa_init,
)
from .signals import (
    AnalyticPulse, NoiseSpec, SampledSignal, TimeGrid, add_awgn, at_least, make_pulse,
    require_finite, snr_to_n0, whole_number,
)
from .theory import EnvPerturbation


class ConfigError(ValueError):
    """Raised for invalid or inconsistent experiment configuration."""


METHOD_CRLB = "crlb"
METHOD_GBL_MATCHED = "gbl-matched"
METHOD_GBL_NN = "gbl-nn"
METHOD_DA_GBL = "da-gbl"
KNOWN_METHODS = (METHOD_CRLB, METHOD_GBL_MATCHED, METHOD_GBL_NN, METHOD_DA_GBL)
NETWORK_METHODS = (METHOD_GBL_NN, METHOD_DA_GBL)

CSV_HEADER = "method,snr_db,mismatch_m,gamma,trials,rmse_m,mean_err_m,ci_m,conv_rate,wall_s"

DEFAULT_SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
DEFAULT_MISMATCH_GRID = (
    -20.0, -10.0, -5.0, -2.0, -1.0, -0.5, -0.25,
    0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
)
DEFAULT_GAMMA_GRID = (0.0, 0.1, 1.0, 10.0)
CONVERGENCE_FLAG_RATE = 0.9
MATCHED_REFERENCE_FACTOR = 5.0


@dataclass
class ExperimentConfig:
    """Everything a sweep needs; every field JSON-representable."""

    environment: Environment = DEFAULT_ENVIRONMENT
    source: SourceLocation = DEFAULT_SOURCE
    pulse: AnalyticPulse = field(default_factory=make_pulse)
    grid: TimeGrid = field(default_factory=TimeGrid)
    region: Region = DEFAULT_REGION
    snr_db_list: tuple = DEFAULT_SNR_GRID
    mismatch_m_list: tuple = DEFAULT_MISMATCH_GRID
    gamma_list: tuple = DEFAULT_GAMMA_GRID
    methods: tuple = (METHOD_CRLB, METHOD_GBL_MATCHED, METHOD_GBL_NN)
    trials: int = 100
    seed: int = 0
    snr_db: float = 20.0  # operating point for the mismatch sweep
    out_dir: str = "."
    checkpoint: str | None = None
    timing: bool = False

    def __post_init__(self) -> None:
        for name, low in (("trials", 1), ("seed", 0)):
            try:
                setattr(self, name, at_least(name, getattr(self, name), whole_number, low))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if not isinstance(self.timing, bool):
            raise ConfigError(f"timing must be true or false, got {self.timing!r}")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ConfigError(f"unknown method {m!r}; known: {KNOWN_METHODS}")
        for name in ("snr_db_list", "mismatch_m_list", "gamma_list", "methods"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
        for gamma in self.gamma_list:
            require_gamma(gamma, ConfigError)
        try:
            require_finite("config", snr_db=self.snr_db, **{
                f"{name}[{i}]": v for name in ("snr_db_list", "mismatch_m_list")
                for i, v in enumerate(getattr(self, name))})
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        """JSON form; each scene section is its dataclass's fields in order."""
        doc = asdict(self)
        for name in ("snr_db_list", "mismatch_m_list", "gamma_list", "methods"):
            doc[name] = list(doc[name])
        doc["out_dir"] = str(self.out_dir)
        doc["checkpoint"] = None if self.checkpoint is None else str(self.checkpoint)
        return doc


# The sections of a config document that hold one scene dataclass each.
SCENE_TYPES = {
    "environment": Environment,
    "source": SourceLocation,
    "pulse": AnalyticPulse,
    "grid": TimeGrid,
    "region": Region,
}


def parse_scene(doc: dict) -> dict:
    """The scene sections present in a config document, built and validated."""
    try:
        return {key: cls(**doc[key]) for key, cls in SCENE_TYPES.items() if key in doc}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scene section: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON document; unknown keys are errors."""
    extra = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    kwargs = parse_scene(doc)
    for name in ("snr_db_list", "mismatch_m_list", "gamma_list", "methods"):
        if name in doc:
            if not isinstance(doc[name], (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {doc[name]!r}")
            kwargs[name] = tuple(doc[name])
    for name in ("trials", "seed", "snr_db", "out_dir", "checkpoint", "timing"):
        if name in doc:
            kwargs[name] = doc[name]
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Row statistics
# ---------------------------------------------------------------------------


def rmse(estimates, truth) -> float:
    """Root mean squared Euclidean distance from truth."""
    pts = np.array(
        [[e.x, e.z] if isinstance(e, SourceLocation) else list(e) for e in estimates],
        dtype=np.float64,
    )
    if pts.size == 0:
        raise ValueError("need at least one estimate")
    t = np.array([truth.x, truth.z]) if isinstance(truth, SourceLocation) else np.asarray(truth)
    d = pts - t
    return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))


@dataclass
class SweepRow:
    method: str
    snr_db: float
    mismatch_m: float
    gamma: float
    trials: int
    rmse_m: float
    mean_err_m: float
    ci_m: float
    conv_rate: float
    wall_s: float

    def to_csv_line(self) -> str:
        return ",".join(
            [
                self.method,
                _fmt(self.snr_db),
                _fmt(self.mismatch_m),
                _fmt(self.gamma),
                str(self.trials),
                _fmt(self.rmse_m),
                _fmt(self.mean_err_m),
                _fmt(self.ci_m),
                _fmt(self.conv_rate),
                f"{self.wall_s:.3f}",
            ]
        )


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def write_csv(rows, path: str | Path) -> Path:
    path = Path(path)
    lines = [CSV_HEADER] + [r.to_csv_line() for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _trial_seed(master: int, method: str, snr_db: float, mismatch_m: float, gamma: float, trial: int) -> int:
    """Stable per-trial seed from the cell coordinates."""
    mask = (1 << 63) - 1

    def enc(x: float) -> int:
        return int(round(x * 1e6)) & mask

    ss = np.random.SeedSequence(
        [master, KNOWN_METHODS.index(method), enc(snr_db), enc(mismatch_m), enc(gamma), trial]
    )
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


def _cell_stats(errors: list, n_trials: int) -> tuple[float, float, float, float]:
    n_conv = len(errors)
    conv_rate = n_conv / n_trials
    if n_conv == 0:
        return math.nan, math.nan, math.nan, conv_rate
    arr = np.array(errors)
    rm = float(np.sqrt(np.mean(arr * arr)))
    mean = float(arr.mean())
    ci = 1.96 * float(arr.std(ddof=1)) / math.sqrt(n_conv) if n_conv > 1 else math.nan
    return rm, mean, ci, conv_rate


def method_adapter(method: str, env_assumed: Environment, pulse: AnalyticPulse,
                   model: ModelParams | None):
    """The signal model a localization method fits: the matched model in the
    assumed environment for gbl-matched, else the trained network `model`."""
    if method == METHOD_GBL_MATCHED:
        return MatchedModel(env_assumed, pulse)
    if method not in NETWORK_METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if model is None:
        raise ConfigError(f"method {method} needs a trained checkpoint")
    return NetworkModel(model)


def seed_and_fit(method: str, received: SampledSignal, adapter, pulse: AnalyticPulse,
                 env_assumed: Environment, region: Region,
                 gamma: float) -> tuple[ToaEstimate, LocalizeResult]:
    """The TOA seed under the assumed environment, then `da_gbl` at gamma for
    da-gbl or `gbl` otherwise. Raises ToaInitError where the seed does."""
    estimate = toa_init(received, pulse, env_assumed, region)
    if method == METHOD_DA_GBL:
        return estimate, da_gbl(received, adapter, estimate.p0, gamma)
    return estimate, gbl(received, adapter, estimate.p0)


def run_cell(
    method: str,
    env_true: Environment,
    env_assumed: Environment,
    cfg: ExperimentConfig,
    snr_db: float,
    mismatch_m: float,
    gamma: float,
    model: ModelParams | None,
) -> SweepRow:
    """Run M noise trials of one method in one environment cell."""
    t_start = time.perf_counter() if cfg.timing else 0.0
    truth = np.array([cfg.source.x, cfg.source.z])
    clean = synthesize_received(env_true, cfg.source, cfg.pulse, cfg.grid)
    n0 = snr_to_n0(clean, snr_db, cfg.pulse.bandwidth)
    adapter = method_adapter(method, env_assumed, cfg.pulse, model)
    errors = []
    for trial in range(cfg.trials):
        seed = _trial_seed(cfg.seed, method, snr_db, mismatch_m, gamma, trial)
        received = add_awgn(clean, NoiseSpec(n0, seed))
        try:
            _, result = seed_and_fit(
                method, received, adapter, cfg.pulse, env_assumed, cfg.region, gamma)
        except ToaInitError:
            continue
        if result.converged:
            errors.append(float(np.linalg.norm(result.p_hat - truth)))
    rm, mean, ci, conv_rate = _cell_stats(errors, cfg.trials)
    wall = time.perf_counter() - t_start if cfg.timing else 0.0
    return SweepRow(method, snr_db, mismatch_m, gamma, cfg.trials, rm, mean, ci, conv_rate, wall)


def _crlb_row(cfg: ExperimentConfig, env: Environment, snr_db: float) -> SweepRow:
    clean = synthesize_received(env, cfg.source, cfg.pulse, cfg.grid)
    n0 = snr_to_n0(clean, snr_db, cfg.pulse.bandwidth)
    try:
        bound = crlb(env, cfg.source.x, cfg.source.z, cfg.pulse, cfg.grid, n0).rmse_bound
    except SingularFisherError:
        bound = math.nan
    return SweepRow(METHOD_CRLB, snr_db, 0.0, 0.0, 0, bound, 0.0, 0.0, 1.0, 0.0)


def _require_model(cfg: ExperimentConfig, checkpoint: Checkpoint | None) -> ModelParams | None:
    needs_nn = any(m in cfg.methods for m in NETWORK_METHODS)
    if not needs_nn:
        return None
    if checkpoint is not None:
        return checkpoint.model
    if cfg.checkpoint is None:
        raise ConfigError("methods gbl-nn/da-gbl need a checkpoint (config key 'checkpoint')")
    return load_checkpoint(cfg.checkpoint).model


def _flag(flags: list, row: SweepRow, reason: str) -> None:
    flags.append(
        {
            "method": row.method,
            "snr_db": row.snr_db,
            "mismatch_m": row.mismatch_m,
            "gamma": row.gamma,
            "reason": reason,
        }
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def run_snr_sweep(cfg: ExperimentConfig, checkpoint: Checkpoint | None = None):
    """RMSE vs SNR in the true training environment; returns (rows, flags)."""
    model = _require_model(cfg, checkpoint)
    env = cfg.environment
    rows = []
    flags = []
    for method in cfg.methods:
        for snr_db in cfg.snr_db_list:
            if method == METHOD_CRLB:
                rows.append(_crlb_row(cfg, env, snr_db))
                continue
            gammas = cfg.gamma_list if method == METHOD_DA_GBL else (0.0,)
            for gamma in gammas:
                row = run_cell(method, env, env, cfg, snr_db, 0.0, gamma, model)
                if row.conv_rate < CONVERGENCE_FLAG_RATE:
                    _flag(flags, row, f"convergence rate {row.conv_rate:.2f} below {CONVERGENCE_FLAG_RATE}")
                rows.append(row)
    return rows, flags


def run_mismatch_sweep(cfg: ExperimentConfig, checkpoint: Checkpoint | None = None):
    """RMSE vs water-depth mismatch at the configured SNR; returns (rows, flags).

    gbl-nn and da-gbl assume the training environment while the data comes
    from a depth-offset one; gbl-matched rows use the true (offset) depth and
    serve as the in-environment reference for the large-mismatch flag.
    """
    methods = [m for m in cfg.methods if m != METHOD_CRLB]
    if not methods:
        raise ConfigError("mismatch sweep needs at least one localization method")
    model = _require_model(cfg, checkpoint)
    env_train = cfg.environment
    rows = []
    flags = []
    matched_ref = {}
    for mismatch in cfg.mismatch_m_list:
        env_true = EnvPerturbation(depth_m=mismatch).applied_to(env_train)
        for method in methods:
            env_assumed = env_true if method == METHOD_GBL_MATCHED else env_train
            gammas = cfg.gamma_list if method == METHOD_DA_GBL else (0.0,)
            for gamma in gammas:
                row = run_cell(method, env_true, env_assumed, cfg, cfg.snr_db, mismatch, gamma, model)
                rows.append(row)
                if method == METHOD_GBL_MATCHED:
                    matched_ref[mismatch] = row.rmse_m
                if row.conv_rate < CONVERGENCE_FLAG_RATE:
                    _flag(
                        flags, row,
                        f"convergence rate {row.conv_rate:.2f} below {CONVERGENCE_FLAG_RATE}; "
                        "adaptation trust budget exceeded at this mismatch, no robustness claim",
                    )
    for row in rows:
        ref = matched_ref.get(row.mismatch_m)
        if (
            row.method == METHOD_DA_GBL
            and ref is not None
            and np.isfinite(row.rmse_m)
            and np.isfinite(ref)
            and row.rmse_m >= MATCHED_REFERENCE_FACTOR * ref
        ):
            _flag(
                flags, row,
                f"rmse {row.rmse_m:.3g} m is >= {MATCHED_REFERENCE_FACTOR} x matched reference "
                f"{ref:.3g} m; adaptation trust budget exceeded at this mismatch, no robustness claim",
            )
    return rows, flags


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_manifest(cfg: ExperimentConfig, flags, csv_path: Path, n_rows: int, path: str | Path) -> Path:
    doc = {
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "csv": csv_path.name,
        "rows": n_rows,
        "flags": flags,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def run_and_write(kind: str, cfg: ExperimentConfig, checkpoint: Checkpoint | None = None):
    """Run one sweep and write its CSV and manifest; returns (rows, flags, csv_path)."""
    if kind == "snr":
        rows, flags = run_snr_sweep(cfg, checkpoint)
        stem = "snr_sweep"
    elif kind == "mismatch":
        rows, flags = run_mismatch_sweep(cfg, checkpoint)
        stem = "mismatch_sweep"
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_csv(rows, out_dir / f"{stem}.csv")
    write_manifest(cfg, flags, csv_path, len(rows), out_dir / f"{stem}_manifest.json")
    return rows, flags, csv_path
