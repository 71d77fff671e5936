"""The benchmark's workloads: set-up, the closed trial loop, metrics and checks.

Load is one process with one thread, run as a closed loop: one caller issues
one trial after another, the way a researcher runs a sweep. Inputs are made
from the workload seed only; making them (datasets, noisy recordings, CRLB
references, the checkpoint load) is set-up and is timed apart from the trials.

Only names exported by the `aqualoc` package are used here, so a change inside
the package that keeps its public interface needs no edit of the benchmark.
The traced run reaches inside the package through `tracing.Tracer` only.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import traceback
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
from aqualoc import (
    DEFAULT_ENVIRONMENT,
    DEFAULT_HIDDEN,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    Environment,
    GblConfig,
    InputNormalization,
    MatchedModel,
    ModelParams,
    NetworkModel,
    NoiseSpec,
    PlnArchitecture,
    SampledSignal,
    SourceLocation,
    TimeGrid,
    TrainConfig,
    add_awgn,
    crlb,
    da_gbl,
    gbl,
    gen_dataset,
    load_checkpoint,
    make_pulse,
    pln_error_grid,
    pln_init,
    pretrain,
    snr_to_n0,
    synthesize_received,
    toa_init,
    train_loss,
)

import metrics
from tracing import NullTracer, Tracer, patched

HERE = Path(__file__).resolve().parent

ENV = DEFAULT_ENVIRONMENT
REGION = DEFAULT_REGION
PULSE = make_pulse()
GRID = TimeGrid()
# A localization ending further than half a carrier wavelength c / (2 f0) from
# the truth sits in another carrier-scale basin of the misfit: a failed trial.
FAIL_RADIUS_M = ENV.sound_speed / (2.0 * PULSE.center_freq)
# The solver settings the harness and the command-line tool use: no
# projection onto the region, so an estimate may leave it (a failed trial).
GBL_CFG = GblConfig()

# Set-up runs this many times and reports the median: the first few rounds in
# a process run slower while the allocator warms up. SETUP_AFTER of the rounds
# run after the timed trials, so that the median spans the whole run rather
# than the host's speed in the first seconds of it.
SETUP_REPEATS = 9
SETUP_AFTER = 4
# Units of work rerun untimed after a single pass, so that every run checks
# that repeated inputs give identical outputs.
REPEAT_UNITS = 2

TRAIN_ITEMS = 256
# 32 epochs is the smallest budget that keeps every stage of the default
# schedule at its exact share (20 peaks, 2 + 3 lowpass, 7 exact epochs), and
# gives a run a few dozen pretrain calls to take medians over.
TRAIN_CFG = TrainConfig(epochs=32)
TRAIN_ARCH = PlnArchitecture(hidden=DEFAULT_HIDDEN)

# A pool's positions are a grid over the region, one per cell, each moved
# from its cell's center by a seeded jitter of up to POOL_JITTER / 2 of the
# cell, and its classes (SNRs, depth offsets) take turns along the cells. So
# every class spans the region, and the count of trials in the bands where
# toa_init seeds badly (sources shallower than about 20 m or between about
# 70 and 90 m) barely moves with the seed: at 36 trials 9-11 of them for 12
# seeds, against 8-14 with a jitter over the whole cell.
POOL_JITTER = 0.3
SNR_CYCLE_DB = (0.0, 10.0, 20.0, 30.0)
LOCATE_POOL = 144
ADAPT_POOL = 36
# Depth offsets from the harness mismatch grid small enough that da_gbl ends
# within the failure radius whenever the TOA seed is good; at 1 to 2 m most
# trials end further off.
ADAPT_MISMATCH_M = (-0.5, -0.25, 0.25, 0.5)
ADAPT_SNR_DB = 20.0
ADAPT_GAMMA = 1.0
ADAPT_CHECKPOINT = HERE / "adapt_checkpoint.json"
ADAPT_CHECKPOINT_SHA256 = "3702539dc34b3c097e48f401642b68e0feaef2ac27602f380ce355ef3c7097fc"

# Layers every workload runs: training calls them through aqualoc.forward,
# localization through aqualoc.localize, and both reach superpose through a
# call-time import from aqualoc.autodiff.
LAYER_PATCHES = (
    ("aqualoc.forward", "value_and_grad", "autodiff.value_and_grad"),
    ("aqualoc.localize", "value_and_grad", "autodiff.value_and_grad"),
    ("aqualoc.forward", "correlation_envelope", "signals.correlation_envelope"),
    ("aqualoc.localize", "correlation_envelope", "signals.correlation_envelope"),
    ("aqualoc.forward", "smooth_rows", "signals.smooth_rows"),
    ("aqualoc.localize", "smooth_rows", "signals.smooth_rows"),
    ("aqualoc.autodiff", "superpose", "autodiff.superpose"),
)
TRAIN_PATCHES = LAYER_PATCHES + (
    ("aqualoc.forward", "pln_error_grid", "pln.pln_error_grid"),
    ("aqualoc.forward", "train_loss", "forward.train_loss"),
)
# gen_dataset synthesizes its recordings through this module global; the
# localization workloads call synthesize_received themselves, inside a span.
TRAIN_SETUP_PATCHES = (
    ("aqualoc.environment", "synthesize_received", "environment.synthesize_received"),
)
SIGNAL_EXACT = "forward.signal_t.exact"
SIGNAL_CAPTURE = "forward.signal_t.capture"


class CheckFailed(RuntimeError):
    """A correctness check on the program's outputs did not hold."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Trial:
    """One localization input and its references."""

    truth: np.ndarray
    env_true: Environment
    received: SampledSignal
    crlb_m: float


@dataclass
class Outcome:
    """What one timed unit of work (a trial or a training run) produced."""

    pool_index: int
    seconds: float
    failure: str | None
    error: str | None = None
    p0: np.ndarray | None = None
    p_hat: np.ndarray | None = None
    error_m: float = math.nan
    seed_error_m: float = math.nan
    n_iter: int = 0
    exit_reason: str = "raised"
    model: ModelParams | None = None


def pool_locations(seed: int, size: int) -> np.ndarray:
    """(x, z) of `size` cells of a near-square grid over the region, jittered."""
    nx = math.ceil(math.sqrt(size))
    nz = math.ceil(size / nx)
    cells = np.arange(size)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    frac = 0.5 + POOL_JITTER * (rng.random((size, 2)) - 0.5)
    x = REGION.x_min + (cells % nx + frac[:, 0]) * (REGION.x_max - REGION.x_min) / nx
    z = REGION.z_min + (cells // nx + frac[:, 1]) * (REGION.z_max - REGION.z_min) / nz
    return np.column_stack([x, z])


def pool(seed: int, classes: tuple, size: int) -> list[tuple[float, float, object]]:
    """(x, z, class) of `size` trials in seeded order; cell i has class i % len(classes)."""
    locs = pool_locations(seed, size)
    order = np.random.default_rng(np.random.SeedSequence([seed, 2])).permutation(size)
    return [(float(locs[i, 0]), float(locs[i, 1]), classes[i % len(classes)]) for i in order]


def noise_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, 1, k]).generate_state(1)[0])


def make_trial(env_true: Environment, x: float, z: float, snr_db: float, seed: int,
               tracer) -> Trial:
    src = SourceLocation(x, z)
    with tracer.span("environment.synthesize_received"):
        clean = synthesize_received(env_true, src, PULSE, GRID)
    n0 = snr_to_n0(clean, snr_db, PULSE.bandwidth)
    received = add_awgn(clean, NoiseSpec(n0, seed))
    bound = crlb(env_true, x, z, PULSE, GRID, n0).rmse_bound
    return Trial(np.array([x, z]), env_true, received, bound)


def locate_setup(seed: int, tracer) -> dict:
    trials = [
        make_trial(ENV, x, z, snr_db, noise_seed(seed, k), tracer)
        for k, (x, z, snr_db) in enumerate(pool(seed, SNR_CYCLE_DB, LOCATE_POOL))
    ]
    return {"trials": trials, "assumed_env": None, "gamma": None,
            "adapter": lambda: MatchedModel(ENV, PULSE)}


def verified_checkpoint_path() -> Path:
    digest = hashlib.sha256(ADAPT_CHECKPOINT.read_bytes()).hexdigest()
    if digest != ADAPT_CHECKPOINT_SHA256:
        raise CheckFailed(
            f"{ADAPT_CHECKPOINT.name} has sha256 {digest}, expected "
            f"{ADAPT_CHECKPOINT_SHA256}; regenerate it only together with that constant"
        )
    return ADAPT_CHECKPOINT


def adapt_setup(seed: int, tracer) -> dict:
    path = verified_checkpoint_path()
    with tracer.span("forward.load_checkpoint"):
        model = load_checkpoint(path).model
    trials = []
    for k, (x, z, offset) in enumerate(pool(seed, ADAPT_MISMATCH_M, ADAPT_POOL)):
        env_true = Environment(ENV.depth + offset, ENV.sound_speed, ENV.receiver_depth)
        trials.append(make_trial(env_true, x, z, ADAPT_SNR_DB, noise_seed(seed, k), tracer))
    return {"trials": trials, "assumed_env": ENV, "gamma": ADAPT_GAMMA,
            "adapter": lambda: NetworkModel(model)}


def train_setup(seed: int, tracer) -> dict:
    with tracer.span("environment.gen_dataset"):
        dataset = gen_dataset(ENV, REGION, TRAIN_ITEMS, PULSE, GRID, seed=seed)
    return {"dataset": dataset}


# ---------------------------------------------------------------------------
# Units of work
# ---------------------------------------------------------------------------


def localize_once(state: dict, k: int, adapter, tracer) -> Outcome:
    """toa_init then gbl (or da_gbl when the workload adapts), timed."""
    trial = state["trials"][k]
    assumed = state["assumed_env"] or trial.env_true
    out = Outcome(k, 0.0, None)
    t0 = perf_counter()
    try:
        with tracer.span("localize.toa_init"):
            out.p0 = toa_init(trial.received, PULSE, assumed, REGION).p0
        if state["gamma"] is None:
            result = gbl(trial.received, adapter, out.p0, GBL_CFG)
        else:
            result = da_gbl(trial.received, adapter, out.p0, state["gamma"], GBL_CFG)
    except Exception:  # a trial that raises is a failed trial, not a failed run
        out.seconds = perf_counter() - t0
        out.error = traceback.format_exc()
        out.failure = metrics.localization_failure(True, False, False, math.nan, FAIL_RADIUS_M)
        if out.p0 is not None:
            out.seed_error_m = float(np.linalg.norm(out.p0 - trial.truth))
        return out
    out.seconds = perf_counter() - t0
    out.p_hat = np.asarray(result.p_hat, dtype=np.float64)
    out.error_m = float(np.linalg.norm(out.p_hat - trial.truth))
    out.seed_error_m = float(np.linalg.norm(out.p0 - trial.truth))
    out.n_iter = int(result.n_iter)
    out.exit_reason = str(result.exit_reason)
    out.failure = metrics.localization_failure(
        False, REGION.contains(*out.p_hat), bool(result.converged), out.error_m, FAIL_RADIUS_M
    )
    return out


def train_once(state: dict, k: int, adapter, tracer) -> Outcome:
    """One `pretrain` run on the seeded dataset, timed."""
    t0 = perf_counter()
    try:
        with warnings.catch_warnings():
            # a reduced budget is expected to miss the full-training accuracy target
            warnings.filterwarnings("ignore", message="trained network path-length error")
            ck = pretrain(state["dataset"], TRAIN_ARCH, TRAIN_CFG)
    except Exception:
        return Outcome(k, perf_counter() - t0, metrics.training_failure(True, False),
                       error=traceback.format_exc())
    seconds = perf_counter() - t0
    finite = bool(np.all(np.isfinite(ck.model.pln.values)))
    return Outcome(k, seconds, metrics.training_failure(False, finite), model=ck.model,
                   exit_reason="trained")


# ---------------------------------------------------------------------------
# Workload descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """How to set up one workload and run one unit of its work."""

    name: str
    setup: Callable[[int, object], dict]
    run_unit: Callable[[dict, int, object, object], Outcome]
    patches: tuple
    setup_patches: tuple
    localizes: bool

    def pool_size(self, state: dict) -> int:
        """Distinct units of work: the trial pool, or the one training run."""
        return len(state["trials"]) if self.localizes else 1


SPECS = {
    "train": Spec("train", train_setup, train_once, TRAIN_PATCHES, TRAIN_SETUP_PATCHES, False),
    "locate": Spec("locate", locate_setup, localize_once, LAYER_PATCHES, (), True),
    "adapt": Spec("adapt", adapt_setup, localize_once, LAYER_PATCHES, (), True),
}


def timed_setup(spec: Spec, seed: int, tracer, repeats: int) -> tuple[dict, list[float]]:
    """Run the set-up `repeats` times; returns the last state and the times."""
    times = []
    state = None
    for _ in range(repeats):
        state = None  # drop the last state first, so peak memory holds one
        t0 = perf_counter()
        if isinstance(tracer, Tracer):
            with patched(tracer, spec.setup_patches):
                state = spec.setup(seed, tracer)
        else:
            state = spec.setup(seed, tracer)
        times.append(perf_counter() - t0)
    return state, times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(spec: Spec, state: dict, seconds: float
                 ) -> tuple[list[Outcome], float, float, list[Outcome]]:
    """Closed loop of whole passes over the pool for about `seconds`.

    The first pass always runs; another starts only if it is due to end
    within `seconds`, judged by the last pass. Every figure thus weighs each
    input of the pool equally, whatever the speed of the program. Returns the
    outcomes, the elapsed time, the peak RSS at the end of the first pass
    (later passes repeat the same work and only add allocator drift) and, when
    only one pass ran, untimed reruns of the first REPEAT_UNITS units, which
    the checks compare with their first outcomes.
    """
    tracer = NullTracer()
    n = spec.pool_size(state)
    adapter = state["adapter"]() if spec.localizes else None
    outcomes = []
    start = perf_counter()
    last_pass = 0.0
    rss_mb = None
    while not outcomes or perf_counter() - start + last_pass <= seconds:
        pass_start = perf_counter()
        for k in range(n):
            gc.collect()
            outcomes.append(spec.run_unit(state, k, adapter, tracer))
        last_pass = perf_counter() - pass_start
        rss_mb = rss_mb or peak_rss_mb()
    elapsed = perf_counter() - start
    repeats = [] if len(outcomes) > n else [
        spec.run_unit(state, k, adapter, tracer) for k in range(min(n, REPEAT_UNITS))]
    return outcomes, elapsed, rss_mb, repeats


def run_traced(spec: Spec, state: dict, seconds: float, tracer: Tracer):
    """Each unit runs untraced, then traced on the same input, until time is up.

    The pairs give the tracing overhead; the traced halves give the spans.
    """
    quiet = NullTracer()
    n = spec.pool_size(state)
    plain = state["adapter"]() if spec.localizes else None
    traced = tracer.instrument_adapter(state["adapter"](), SIGNAL_EXACT, SIGNAL_CAPTURE) \
        if spec.localizes else None
    pairs = []
    deadline = perf_counter() + seconds
    k = 0
    while not pairs or perf_counter() < deadline:
        gc.collect()
        untraced = spec.run_unit(state, k % n, plain, quiet)
        tracer.trial = k
        with patched(tracer, spec.patches), tracer.span("trial"):
            outcome = spec.run_unit(state, k % n, traced, tracer)
        tracer.trial = None
        pairs.append((untraced, outcome))
        k += 1
    return pairs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# Every workload reports every metric of these two lists, the first in the
# untraced run and the second in the traced one, in the order of
# BENCHMARK.json. A unit of work ("trial") is one toa_init + gbl or da_gbl
# trial on locate and adapt and one pretrain call on train.
END_TO_END = ("setup_s", "trials_per_s", "trial_ms_p50", "trial_ms_tail", "peak_rss_mb")
# Times and counts are per unit of work unless they say per call; the
# localize.* shares are 0 on train, where nothing is localized. The coarse
# phase is the capture passes of a trial or the peaks and lowpass stages of
# pretrain, the exact phase the exact descent or the exact stage.
PER_LAYER = (
    "autodiff.value_and_grad.ms_per_call",
    "autodiff.value_and_grad.calls",
    "autodiff.value_and_grad.coarse_ms",
    "autodiff.value_and_grad.exact_ms",
    "autodiff.superpose.ms_per_call",
    "autodiff.superpose.calls",
    "signals.correlation_envelope.ms",
    "signals.smooth_rows.ms",
    "environment.synthesize_received.ms",
    "trace.uncovered_ms",
    "trace.overhead_ms",
    "fail_rate",
    "localize.walkaway_rate",
    "localize.exit.max_iter",
    "localize.exit.stall",
)


def end_to_end(spec: Spec, state: dict, outcomes: list[Outcome], elapsed: float,
               rss_mb: float, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of the untraced run, plus details for the record."""
    times_ms = [o.seconds * 1e3 for o in outcomes]
    tail_ms, tail_pct = metrics.tail_percentile(times_ms)
    distinct = outcomes[: spec.pool_size(state)]
    values = {
        "setup_s": (metrics.median(setup_times), "s"),
        "trials_per_s": (len(outcomes) / elapsed, "1/s"),
        "trial_ms_p50": (metrics.median(times_ms), "ms"),
        "trial_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    details = {"trials": len(outcomes), "distinct_trials": len(distinct),
               "tail_percentile": tail_pct, "elapsed_s": elapsed,
               "setup_s_all": setup_times, "fail_rate": fail_rate(distinct)}
    if spec.localizes:
        details["err_over_crlb"] = err_over_crlb(state["trials"], distinct)
    else:
        items = TRAIN_CFG.epochs * TRAIN_ITEMS
        details.update(epochs=TRAIN_CFG.epochs, items=TRAIN_ITEMS,
                       train_items_per_s=len(outcomes) * items / elapsed)
    details["failures"] = dict(Counter(o.failure for o in outcomes if o.failure))
    details["per_trial"] = [[o.pool_index, round(o.seconds * 1e3, 3), o.failure,
                             o.exit_reason, o.n_iter] for o in outcomes]
    return {name: metric(*values[name]) for name in END_TO_END}, details


def fail_rate(outcomes: list[Outcome]) -> float:
    return metrics.share(o.failure is not None for o in outcomes)


def err_over_crlb(trials: list[Trial], outcomes: list[Outcome]) -> float:
    """Median of error / CRLB over the trials that did not fail."""
    return metrics.median(o.error_m / trials[o.pool_index].crlb_m
                          for o in outcomes if o.failure is None)


def _durations(tracer: Tracer, name: str) -> list[tuple[int, float]]:
    return [(trial, end - start) for (n, start, end, _p, trial) in tracer.spans if n == name]


def _per_trial(tracer: Tracer, name: str, trials: list[int]) -> tuple[list[float], list[int]]:
    """Total time (ms) and count of `name` spans in each traced trial."""
    total = defaultdict(float)
    count = defaultdict(int)
    for trial, dur in _durations(tracer, name):
        total[trial] += dur * 1e3
        count[trial] += 1
    return [total[t] for t in trials], [count[t] for t in trials]


def _missing(tracer: Tracer, patches: tuple, name: str) -> bool:
    """Whether a target of the layer `name` was gone from the package."""
    return any(f"{module}.{attr}" in tracer.missing
               for module, attr, layer in patches if layer == name)


def layer_metrics(spec: Spec, state: dict, tracer: Tracer, pairs, setup_tracer: Tracer,
                  extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced run: the reported ones and the record's.

    The first dict holds the PER_LAYER metrics, the second every figure the
    traced run gives, for the record. A metric whose target is gone is left out.
    """
    ids = list(range(len(pairs)))
    selfs = metrics.self_times(tracer.spans)
    trial_self = {s[4]: selfs[i] * 1e3 for i, s in enumerate(tracer.spans) if s[0] == "trial"}
    overhead = metrics.median((t.seconds - u.seconds) * 1e3 for u, t in pairs)
    out = {"trace.overhead_ms": metric(overhead, "ms"),
           "trace.uncovered_ms": metric(metrics.median(trial_self[t] for t in ids), "ms")}
    traced = [t for _u, t in pairs]

    def put(name, value, unit):
        if value is not None and not (isinstance(value, float) and math.isnan(value)):
            out[name] = metric(value, unit)

    def setup_ms(name):
        return metrics.median(d * 1e3 for _t, d in _durations(setup_tracer, name))

    def per_call_ms(name):
        return metrics.median(d * 1e3 for _t, d in _durations(tracer, name))

    put("fail_rate", fail_rate(traced), "share")
    put("environment.synthesize_received.ms", setup_ms("environment.synthesize_received"), "ms")
    for layer in ("autodiff.value_and_grad", "autodiff.superpose"):
        if not _missing(tracer, spec.patches, layer):
            _ms, calls = _per_trial(tracer, layer, ids)
            put(f"{layer}.ms_per_call", per_call_ms(layer), "ms")
            put(f"{layer}.calls", metrics.median(calls), "count")
    for layer in ("signals.correlation_envelope", "signals.smooth_rows"):
        if not _missing(tracer, spec.patches, layer):
            put(f"{layer}.ms", metrics.median(_per_trial(tracer, layer, ids)[0]), "ms")

    grads = "autodiff.value_and_grad"
    if spec.localizes:
        have_signal = not ({"MatchedModel.signal_t", "NetworkModel.signal_t"} & tracer.missing)
        phases = (metrics.phases_by_child(tracer.spans, grads, SIGNAL_CAPTURE)
                  if have_signal else [])
    else:
        phases = metrics.phases_by_order(tracer.spans, grads, TRAIN_CFG.stage_epochs())
    if phases and not _missing(tracer, spec.patches, grads):
        for phase in ("coarse", "exact"):
            per_trial = defaultdict(float)
            for trial, p, dur in phases:
                if p == phase:
                    per_trial[trial] += dur * 1e3
            put(f"{grads}.{phase}_ms", metrics.median(per_trial[t] for t in ids), "ms")

    if spec.localizes:
        trials = state["trials"]
        put("localize.toa_init.ms_p50", per_call_ms("localize.toa_init"), "ms")
        if have_signal:
            for phase, name in (("capture", SIGNAL_CAPTURE), ("exact", SIGNAL_EXACT)):
                ms, evals = _per_trial(tracer, name, ids)
                put(f"localize.{phase}.ms", metrics.median(ms), "ms")
                put(f"localize.{phase}.evals", metrics.median(evals), "count")
            put("forward.network_signal.ms_per_call", metrics.median(
                d * 1e3 for name in (SIGNAL_CAPTURE, SIGNAL_EXACT)
                for _t, d in _durations(tracer, name)), "ms")
        solved = [o for o in traced if o.error is None]
        put("localize.exact_iters_p50", metrics.median(o.n_iter for o in solved), "count")
        for reason in ("step", "gradient", "stall", "max_iter"):
            put(f"localize.exit.{reason}",
                metrics.share(o.exit_reason == reason for o in traced), "share")
        put("localize.walkaway_rate", metrics.share(
            o.seed_error_m <= FAIL_RADIUS_M and not o.error_m <= FAIL_RADIUS_M for o in traced
        ), "share")
        put("localize.outside_region_rate",
            metrics.share(o.failure == "outside_region" for o in traced), "share")
        put("localize.err_over_crlb", err_over_crlb(trials, traced), "ratio")
        put("localize.seed_err_over_crlb", metrics.median(
            o.seed_error_m / trials[o.pool_index].crlb_m for o in traced if o.p0 is not None
        ), "ratio")
        if spec.name == "adapt":
            put("forward.load_checkpoint.ms", setup_ms("forward.load_checkpoint"), "ms")
    else:
        # nothing is localized in training: no trial walks away or exits early
        for name in ("localize.walkaway_rate", "localize.exit.max_iter", "localize.exit.stall"):
            put(name, 0.0, "share")
        put("environment.gen_dataset.s", setup_ms("environment.gen_dataset") / 1e3, "s")
        if not _missing(tracer, spec.patches, grads):
            by_kind = defaultdict(list)
            for trial in ids:
                durations = [d * 1e3 for t, d in _durations(tracer, grads) if t == trial]
                kinds = metrics.step_stages(TRAIN_CFG.stage_epochs(), len(durations))
                for kind, ms in zip(kinds, durations):
                    by_kind[kind].append(ms)
            put("forward.steps", metrics.median(_per_trial(tracer, grads, ids)[1]), "count")
            for kind in ("peaks", "lowpass", "exact"):
                put(f"forward.grad_ms.{kind}", metrics.median(by_kind[kind]), "ms")
        for layer in ("pln.pln_error_grid", "forward.train_loss"):
            if not _missing(tracer, spec.patches, layer):
                put(f"{layer}.ms", metrics.median(_per_trial(tracer, layer, ids)[0]), "ms")
        put("pln_error", extra.get("pln_error"), "ratio")
    return {name: out[name] for name in PER_LAYER if name in out}, out


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def check_localizations(outcomes: list[Outcome]) -> None:
    """Estimates are finite and repeat exactly.

    An estimate outside the region is a failed trial (see `localize_once`),
    counted in fail_rate and by its class in the record.
    """
    first = {}
    for o in outcomes:
        if o.p_hat is None:
            continue
        if not np.all(np.isfinite(o.p_hat)):
            raise CheckFailed(f"trial {o.pool_index}: estimate {o.p_hat} is not finite")
        ref = first.setdefault(o.pool_index, o.p_hat)
        if not np.array_equal(ref, o.p_hat):
            raise CheckFailed(f"trial {o.pool_index}: repeated run gave {o.p_hat}, first {ref}")


def check_noiseless_reference() -> dict:
    """Noiseless gbl with the matched model at the reference source: within 1 cm."""
    received = synthesize_received(ENV, DEFAULT_SOURCE, PULSE, GRID)
    p0 = toa_init(received, PULSE, ENV, REGION).p0
    result = gbl(received, MatchedModel(ENV, PULSE), p0, GBL_CFG)
    err = float(np.linalg.norm(result.p_hat - DEFAULT_SOURCE.as_array()))
    if not err <= 0.01:
        raise CheckFailed(f"noiseless matched gbl at the reference source ended {err:.4g} m off")
    return {"reference_error_m": err}


def check_training(state: dict, outcomes: list[Outcome]) -> dict:
    """Weights finite and repeatable; the final loss is below the initial one."""
    if any(o.failure for o in outcomes):
        raise CheckFailed("a training run raised or returned non-finite weights")
    final = outcomes[0].model
    for o in outcomes[1:]:
        if not np.array_equal(o.model.pln.values, final.pln.values):
            raise CheckFailed("repeated pretrain runs on the same data gave different weights")
    dataset = state["dataset"]
    norm = InputNormalization.from_region(REGION, ENV)
    initial = ModelParams(pln=pln_init(TRAIN_ARCH, norm, TRAIN_CFG.seed),
                          sound_speed=ENV.sound_speed, receiver_depth=ENV.receiver_depth,
                          pulse=PULSE)
    initial_loss = train_loss(initial, dataset)
    final_loss = train_loss(final, dataset)
    if not final_loss < initial_loss:
        raise CheckFailed(f"final train_loss {final_loss:.6g} is not below the initial "
                          f"{initial_loss:.6g}")
    return {"initial_loss": initial_loss, "final_loss": final_loss,
            "pln_error": pln_error_grid(final.pln, ENV, REGION)}


def check(spec: Spec, state: dict, outcomes: list[Outcome]) -> dict:
    if spec.localizes:
        check_localizations(outcomes)
        return check_noiseless_reference()
    return check_training(state, outcomes)
