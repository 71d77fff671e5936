"""Monte-Carlo experiment orchestration: SNR and mismatch sweeps, CRLB rows.

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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .environment import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    SCENE_TYPES,
    Environment,
    Region,
    SourceLocation,
    scene_from_dict,
    synthesize_received,
)
from .forward import NetworkModel, MatchedModel, load_checkpoint
from .localize import (
    LocalizeResult, SingularFisherError, ToaEstimate, ToaInitError, crlb, da_gbl, gbl,
    require_gamma, toa_init,
)
from .signals import (
    AnalyticPulse, NoiseSpec, SampledSignal, TimeGrid, add_awgn, at_least, make_pulse,
    require_finite, snr_to_n0, whole_number,
)


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
        # whole numbers as floats, so that [0, 20] and [0.0, 20.0] hash as one config
        for name in ("snr_db_list", "mismatch_m_list", "gamma_list"):
            setattr(self, name, tuple(map(float, getattr(self, name))))
        self.snr_db = float(self.snr_db)


def parse_scene(doc: dict) -> dict:
    """The scene sections present in a config document, built and validated."""
    try:
        return {key: scene_from_dict(key, doc[key]) for key in SCENE_TYPES if key in doc}
    except ValueError as exc:
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


def true_environment(env: Environment, mismatch_m: float, key: str = "mismatch_m") -> Environment:
    """`env` with its water depth shifted by `mismatch_m`; a depth that leaves
    the receiver outside the water is a ConfigError naming config key `key`."""
    try:
        return replace(env, depth=env.depth + mismatch_m)
    except ValueError as exc:
        raise ConfigError(f"{key} {mismatch_m!r}: {exc}") from None


def method_cell(method: str, cfg: ExperimentConfig, mismatch_m: float,
                model: NetworkModel | None):
    """One method's view of a cell whose recording comes from the training
    depth plus `mismatch_m`: (assumed environment, signal model, clean recording).

    gbl-matched fits the matched model in the true (offset) environment;
    gbl-nn and da-gbl fit `model`, the trained network of `load_model`, and
    assume the training environment.
    """
    env_true = true_environment(cfg.environment, mismatch_m)
    if method == METHOD_GBL_MATCHED:
        env_assumed, adapter = env_true, MatchedModel(env_true, cfg.pulse)
    elif method not in NETWORK_METHODS:
        raise ConfigError(f"unknown method {method!r}")
    elif model is None:
        raise ConfigError(f"method {method} needs a trained checkpoint")
    else:
        env_assumed, adapter = cfg.environment, model
    clean = synthesize_received(env_true, cfg.source, cfg.pulse, cfg.grid)
    return env_assumed, adapter, clean


def seed_and_fit(method: str, cfg: ExperimentConfig, received: SampledSignal, adapter,
                 env_assumed: Environment, gamma: float) -> tuple[ToaEstimate, LocalizeResult]:
    """The TOA seed under the assumed environment, then `da_gbl` at gamma for
    da-gbl or `gbl` otherwise. Raises ToaInitError where the seed does."""
    estimate = toa_init(received, cfg.pulse, env_assumed, cfg.region)
    if method == METHOD_DA_GBL:
        return estimate, da_gbl(received, adapter, estimate.p0, gamma)
    return estimate, gbl(received, adapter, estimate.p0)


def run_cell(
    method: str,
    cfg: ExperimentConfig,
    snr_db: float,
    mismatch_m: float,
    gamma: float,
    model: NetworkModel | None,
) -> SweepRow:
    """Run M noise trials of one method in one (SNR, mismatch) cell."""
    t_start = time.perf_counter() if cfg.timing else 0.0
    truth = np.array([cfg.source.x, cfg.source.z])
    env_assumed, adapter, clean = method_cell(method, cfg, mismatch_m, model)
    n0 = snr_to_n0(clean, snr_db, cfg.pulse.bandwidth)
    errors = []
    for trial in range(cfg.trials):
        seed = _trial_seed(cfg.seed, method, snr_db, mismatch_m, gamma, trial)
        received = add_awgn(clean, NoiseSpec(n0, seed))
        try:
            _, result = seed_and_fit(method, cfg, received, adapter, env_assumed, gamma)
        except ToaInitError:
            continue
        if result.converged:
            errors.append(float(np.linalg.norm(result.p_hat - truth)))
    rm, mean, ci, conv_rate = _cell_stats(errors, cfg.trials)
    wall = time.perf_counter() - t_start if cfg.timing else 0.0
    return SweepRow(method, snr_db, mismatch_m, gamma, cfg.trials, rm, mean, ci, conv_rate, wall)


def _crlb_row(cfg: ExperimentConfig, snr_db: float) -> SweepRow:
    clean = synthesize_received(cfg.environment, cfg.source, cfg.pulse, cfg.grid)
    n0 = snr_to_n0(clean, snr_db, cfg.pulse.bandwidth)
    try:
        bound = crlb(cfg.environment, cfg.source.x, cfg.source.z, cfg.pulse, cfg.grid, n0).rmse_bound
    except SingularFisherError:
        bound = math.nan
    return SweepRow(METHOD_CRLB, snr_db, 0.0, 0.0, 0, bound, 0.0, 0.0, 1.0, 0.0)


def load_model(path: str | Path, env: Environment, pulse: AnalyticPulse) -> NetworkModel:
    """The network of the checkpoint at `path` as a signal model, the one place
    a checkpoint becomes one. A receiver depth other than `env`'s is a
    ConfigError, as the network bakes that depth in, and so is a sound speed
    or pulse other than the config's, as mismatch here is a depth offset only."""
    model = load_checkpoint(path).model
    for name, have, want in (("receiver depth", model.receiver_depth, env.receiver_depth),
                             ("sound speed", model.sound_speed, env.sound_speed),
                             ("pulse", model.pulse, pulse)):
        if have != want:
            raise ConfigError(f"checkpoint {name} {have} does not match config {name} {want}")
    return NetworkModel(model)


def _require_model(cfg: ExperimentConfig) -> NetworkModel | None:
    """The signal model of `cfg.checkpoint`, which the network methods need and no
    other method reads: a checkpoint that no method reads is a ConfigError."""
    if not any(m in cfg.methods for m in NETWORK_METHODS):
        if cfg.checkpoint is not None:
            raise ConfigError(f"methods {list(cfg.methods)} read no checkpoint (config key 'checkpoint')")
        return None
    if cfg.checkpoint is None:
        raise ConfigError("methods gbl-nn/da-gbl need a checkpoint (config key 'checkpoint')")
    return load_model(cfg.checkpoint, cfg.environment, cfg.pulse)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def run_sweep(kind: str, cfg: ExperimentConfig):
    """One sweep's rows and manifest flags; returns (rows, flags).

    "snr" is RMSE vs SNR in the training environment, method-major over
    `snr_db_list`. "mismatch" is RMSE vs water-depth mismatch at `cfg.snr_db`,
    mismatch-major over the localization methods, each assuming its
    environment as `method_cell` sets it. crlb rows hold the bound; da-gbl
    runs once per gamma of `gamma_list`.
    """
    if kind == "snr":
        cells = [(method, snr_db, 0.0) for method in cfg.methods for snr_db in cfg.snr_db_list]
    elif kind == "mismatch":
        methods = [m for m in cfg.methods if m != METHOD_CRLB]
        if not methods:
            raise ConfigError("mismatch sweep needs at least one localization method")
        for i, mismatch in enumerate(cfg.mismatch_m_list):
            true_environment(cfg.environment, mismatch, f"mismatch_m_list[{i}]")
        cells = [(method, cfg.snr_db, mismatch)
                 for mismatch in cfg.mismatch_m_list for method in methods]
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    model = _require_model(cfg)
    rows = []
    for method, snr_db, mismatch in cells:
        if method == METHOD_CRLB:
            rows.append(_crlb_row(cfg, snr_db))
            continue
        for gamma in cfg.gamma_list if method == METHOD_DA_GBL else (0.0,):
            rows.append(run_cell(method, cfg, snr_db, mismatch, gamma, model))
    return rows, _flags(kind, rows)


def _flags(kind: str, rows: list) -> list:
    """The cells the manifest flags, by two rules in turn, each in row order:
    a convergence rate below CONVERGENCE_FLAG_RATE, and (mismatch sweep only)
    a da-gbl RMSE at least MATCHED_REFERENCE_FACTOR times the gbl-matched RMSE
    at its mismatch, the in-environment reference."""
    budget = "; adaptation trust budget exceeded at this mismatch, no robustness claim"
    suffix = budget if kind == "mismatch" else ""
    flagged = [(row, f"convergence rate {row.conv_rate:.2f} below {CONVERGENCE_FLAG_RATE}{suffix}")
               for row in rows if row.conv_rate < CONVERGENCE_FLAG_RATE]
    if kind == "mismatch":
        matched = {row.mismatch_m: row.rmse_m for row in rows if row.method == METHOD_GBL_MATCHED}
        for row in rows:
            ref = matched.get(row.mismatch_m, math.nan)
            if row.method == METHOD_DA_GBL and row.rmse_m >= MATCHED_REFERENCE_FACTOR * ref:
                flagged.append((row, f"rmse {row.rmse_m:.3g} m is >= {MATCHED_REFERENCE_FACTOR} x "
                                     f"matched reference {ref:.3g} m{budget}"))
    return [{"method": row.method, "snr_db": row.snr_db, "mismatch_m": row.mismatch_m,
             "gamma": row.gamma, "reason": reason} for row, reason in flagged]


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_manifest(cfg: ExperimentConfig, flags, csv_path: Path, n_rows: int, path: str | Path) -> Path:
    doc = {
        "config": asdict(cfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "csv": csv_path.name,
        "rows": n_rows,
        "flags": flags,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def run_and_write(kind: str, cfg: ExperimentConfig):
    """Run one sweep and write its CSV and manifest; returns (rows, flags, csv_path)."""
    rows, flags = run_sweep(kind, cfg)
    stem = f"{kind}_sweep"
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_csv(rows, out_dir / f"{stem}.csv")
    write_manifest(cfg, flags, csv_path, len(rows), out_dir / f"{stem}_manifest.json")
    return rows, flags, csv_path
