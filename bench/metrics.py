"""Pure helpers behind the benchmark's numbers: percentiles, failure rules,
span self time and the assignment of training steps to schedule stages.

Nothing here imports the package under test, so these rules are unit-tested
on their own (see test_bench.py).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

TAIL_MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least 10 samples beyond it.

    Returns (value, percentile). With n sorted samples the value at rank
    n - 10 (1-based) has exactly 10 samples above it, and is the nearest-rank
    percentile 100 (n - 10) / n. With 10 samples or fewer no percentile has
    10 beyond it; the maximum is returned with percentile 100.
    """
    if not samples:
        raise ValueError("need at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_MIN_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def median(values: Iterable[float]) -> float:
    vals = list(values)
    return statistics.median(vals) if vals else math.nan


def share(flags: Iterable[bool]) -> float:
    flags = list(flags)
    return sum(1 for f in flags if f) / len(flags) if flags else math.nan


def localization_failure(
    raised: bool, inside_region: bool, converged: bool, error_m: float, radius_m: float
) -> str | None:
    """Why a localization trial failed, or None when it succeeded.

    A trial fails if it raised, if its estimate left the search region, if
    the solver reported `converged=False`, or if its estimate ends more than
    `radius_m` (half a carrier wavelength) from the true source; a non-finite
    error counts as far. The first of these that holds names the failure.
    """
    if raised:
        return "raised"
    if not inside_region:
        return "outside_region"
    if not converged:
        return "not_converged"
    if not error_m <= radius_m:
        return "far"
    return None


def training_failure(raised: bool, weights_finite: bool) -> str | None:
    """A training run fails if it raised or returned non-finite weights."""
    if raised:
        return "raised"
    if not weights_finite:
        return "nonfinite_weights"
    return None


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover.

    `spans` holds (name, start, end, parent, trial) tuples where `parent` is
    the index of the enclosing span or None. Children are clipped to their
    parent's interval and overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _trial in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, start, end, _parent, _trial) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def step_stages(stage_epochs: Sequence[tuple], n_steps: int) -> list[str]:
    """Stage kind of each of `n_steps` optimizer steps, in order.

    `stage_epochs` is `TrainConfig.stage_epochs()`: (kind, sigma, epochs,
    lr_scale) per stage. Step i falls in epoch floor(i * total_epochs /
    n_steps), so when every epoch takes the same number of steps each stage
    gets exactly its epochs' steps, and otherwise steps are spread over the
    epochs in proportion.
    """
    bounds = []
    total = 0
    for kind, _sigma, epochs, _lr in stage_epochs:
        total += epochs
        bounds.append((total, kind))
    if n_steps and total <= 0:
        raise ValueError("stage schedule has no epochs")
    kinds = []
    stage = 0
    for i in range(n_steps):
        epoch = i * total // n_steps
        while epoch >= bounds[stage][0]:
            stage += 1
        kinds.append(bounds[stage][1])
    return kinds


def phase_of_stage(kind: str) -> str:
    """Training stages before the exact one (peaks, lowpass) are the coarse phase."""
    return "exact" if kind == "exact" else "coarse"


def phases_by_order(spans: Sequence[tuple], name: str, stage_epochs: Sequence[tuple]
                    ) -> list[tuple[object, str, float]]:
    """(trial, phase, seconds) of each `name` span, one per training step.

    Within each trial the spans are taken in order and assigned to schedule
    stages by `step_stages`; the stage kind gives the phase.
    """
    per_trial: dict[object, list[float]] = {}
    for n, start, end, _parent, trial in spans:
        if n == name:
            per_trial.setdefault(trial, []).append(end - start)
    out = []
    for trial, durations in per_trial.items():
        kinds = step_stages(stage_epochs, len(durations))
        out += [(trial, phase_of_stage(k), d) for k, d in zip(kinds, durations)]
    return out


def phases_by_child(spans: Sequence[tuple], name: str, coarse_child: str
                    ) -> list[tuple[object, str, float]]:
    """(trial, phase, seconds) of each `name` span, phased by its direct children.

    A span with a direct child named `coarse_child` is in the coarse phase,
    any other in the exact phase.
    """
    coarse = {parent for n, _s, _e, parent, _t in spans
              if n == coarse_child and parent is not None}
    return [(trial, "coarse" if i in coarse else "exact", end - start)
            for i, (n, start, end, _parent, trial) in enumerate(spans) if n == name]
