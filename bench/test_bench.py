"""Tests of the benchmark's own logic.

Run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import ast
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
from tracing import Tracer, patched  # noqa: E402


# --- tail percentile --------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    value, pct = metrics.tail_percentile(samples)
    assert value == 90.0
    assert pct == 90.0
    assert sum(1 for s in samples if s > value) == 10


def test_tail_of_eleven_samples_is_the_minimum():
    value, pct = metrics.tail_percentile([5.0, 1.0, 9.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0, 11.0])
    assert value == 1.0
    assert pct == pytest.approx(100.0 / 11.0)


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_falls_back_to_the_maximum_below_eleven_samples(n):
    assert metrics.tail_percentile([float(v) for v in range(n)]) == (float(n - 1), 100.0)


def test_tail_ignores_input_order():
    samples = [3.0, 1.0, 2.0] * 10
    assert metrics.tail_percentile(samples) == metrics.tail_percentile(sorted(samples))


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        metrics.tail_percentile([])


# --- failure classification -------------------------------------------------


@pytest.mark.parametrize(
    "raised, inside, converged, error_m, expected",
    [
        (True, False, False, math.nan, "raised"),
        (True, True, True, 0.0, "raised"),
        (False, False, True, 0.2, "outside_region"),
        (False, False, False, 7.0, "outside_region"),
        (False, True, False, 0.001, "not_converged"),
        (False, True, True, 1.5, "far"),
        (False, True, True, math.nan, "far"),
        (False, True, True, math.inf, "far"),
        (False, True, True, 1.0, None),
        (False, True, True, 0.002, None),
    ],
)
def test_localization_failure(raised, inside, converged, error_m, expected):
    assert metrics.localization_failure(raised, inside, converged, error_m, 1.0) == expected


@pytest.mark.parametrize(
    "raised, finite, expected",
    [(True, True, "raised"), (False, False, "nonfinite_weights"), (False, True, None)],
)
def test_training_failure(raised, finite, expected):
    assert metrics.training_failure(raised, finite) == expected


# --- self time ---------------------------------------------------------------


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [
        ("trial", 0.0, 10.0, None, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.inner", 2.0, 3.0, 1, 0),
        ("b", 5.0, 6.0, 0, 0),
    ]
    assert metrics.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ("parent", 0.0, 10.0, None, 0),
        ("c1", 1.0, 5.0, 0, 0),
        ("c2", 3.0, 7.0, 0, 0),
        ("c3", 9.0, 12.0, 0, 0),
    ]
    assert metrics.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_spans_nest_and_give_self_time():
    tracer = Tracer()
    tracer.trial = 3
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = tracer.spans
    assert outer[0] == "outer" and outer[3] is None and outer[4] == 3
    assert inner[0] == "inner" and inner[3] == 0
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    selfs = metrics.self_times(tracer.spans)
    assert selfs[0] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))


# --- tracing wrappers ----------------------------------------------------------


def test_patch_records_calls_and_restores_the_target(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.work = lambda x: x + 1
    original = module.work
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer()
    with patched(tracer, [("fake_layer", "work", "layer.work")]):
        assert module.work(1) == 2
    assert module.work is original
    assert [s[0] for s in tracer.spans] == ["layer.work"]


def test_patch_skips_a_deleted_target_and_reports_it_missing(monkeypatch):
    module = types.ModuleType("fake_layer")
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer()
    with patched(tracer, [("fake_layer", "gone", "layer.gone"),
                          ("no_such_module_anywhere", "f", "x.f")]):
        pass
    assert tracer.missing == {"fake_layer.gone", "no_such_module_anywhere.f"}
    assert tracer.spans == []


def test_adapter_calls_are_split_by_instance():
    class Model:
        def __init__(self, tag):
            self.tag = tag

        def with_pulse(self, pulse):
            return Model(pulse)

        def signal_t(self, *args):
            return self.tag

    tracer = Tracer()
    adapter = tracer.instrument_adapter(Model("base"), "exact", "capture")
    derived = adapter.with_pulse("lowpassed")
    assert derived.signal_t() == "lowpassed"
    assert adapter.signal_t() == "base"
    assert [s[0] for s in tracer.spans] == ["capture", "exact"]
    assert Model("plain").signal_t() == "plain"


# --- training steps to stages -----------------------------------------------


def test_steps_follow_the_default_schedule():
    from aqualoc import TrainConfig

    cfg = TrainConfig(epochs=128)
    kinds = metrics.step_stages(cfg.stage_epochs(), 128 * 8)
    assert kinds[:640] == ["peaks"] * 640
    assert kinds[640:800] == ["lowpass"] * 160
    assert kinds[800:] == ["exact"] * 224


def test_steps_are_spread_in_proportion_when_counts_differ():
    schedule = [("peaks", 0.0, 3, 1.0), ("exact", 0.0, 1, 0.1)]
    assert metrics.step_stages(schedule, 8) == ["peaks"] * 6 + ["exact"] * 2
    assert metrics.step_stages(schedule, 2) == ["peaks", "peaks"]
    assert metrics.step_stages(schedule, 0) == []


def test_empty_stages_take_no_steps():
    schedule = [("peaks", 0.0, 2, 1.0), ("lowpass", 1e-3, 0, 0.1), ("exact", 0.0, 2, 0.1)]
    assert metrics.step_stages(schedule, 4) == ["peaks", "peaks", "exact", "exact"]


def test_training_steps_are_phased_by_stage_within_each_trial():
    schedule = [("peaks", 0.0, 2, 1.0), ("lowpass", 1e-3, 1, 0.2), ("exact", 0.0, 1, 0.03)]
    spans = [("grad", float(i), i + 1.0, None, trial) for trial in (0, 1) for i in range(4)]
    spans.insert(2, ("other", 0.0, 9.0, None, 0))
    phases = metrics.phases_by_order(spans, "grad", schedule)
    assert [(t, p) for t, p, _d in phases] == [(0, "coarse")] * 3 + [(0, "exact")] + \
        [(1, "coarse")] * 3 + [(1, "exact")]
    assert all(d == 1.0 for _t, _p, d in phases)


def test_localization_grads_are_phased_by_the_adapter_they_call():
    spans = [
        ("grad", 0.0, 2.0, None, 0),
        ("capture", 0.5, 1.5, 0, 0),
        ("grad", 2.0, 5.0, None, 0),
        ("exact", 2.5, 4.5, 2, 0),
        ("capture", 5.0, 6.0, None, 0),  # a line-search value outside any grad
    ]
    assert metrics.phases_by_child(spans, "grad", "capture") == [
        (0, "coarse", 2.0), (0, "exact", 3.0)]


# --- public interface only ------------------------------------------------------


def test_workloads_use_only_names_the_package_exports():
    import aqualoc

    tree = ast.parse((HERE / "workloads.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("aqualoc"):
            assert node.module == "aqualoc", f"imports from submodule {node.module}"
            imported += [alias.name for alias in node.names]
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("aqualoc") for a in node.names)
    assert imported
    assert [name for name in imported if not hasattr(aqualoc, name)] == []


# --- inputs ---------------------------------------------------------------------


def test_pool_is_seeded_and_balances_classes():
    import workloads

    first = workloads.pool(7, ("a", "b", "c", "d"), 36)
    assert first == workloads.pool(7, ("a", "b", "c", "d"), 36)
    assert first != workloads.pool(8, ("a", "b", "c", "d"), 36)
    assert sorted(c for _x, _z, c in first) == sorted("abcd" * 9)
    assert all(workloads.REGION.contains(x, z) for x, z, _c in first)


def test_pool_locations_keep_one_point_near_each_cell_center():
    import workloads

    region = workloads.REGION
    locs = workloads.pool_locations(3, 36)
    width = (region.x_max - region.x_min) / 6
    height = (region.z_max - region.z_min) / 6
    center_x = region.x_min + (np.arange(36) % 6 + 0.5) * width
    center_z = region.z_min + (np.arange(36) // 6 + 0.5) * height
    reach = workloads.POOL_JITTER / 2
    assert np.all(np.abs(locs[:, 0] - center_x) <= reach * width)
    assert np.all(np.abs(locs[:, 1] - center_z) <= reach * height)
    assert not np.array_equal(locs, workloads.pool_locations(4, 36))


def test_reported_metrics_match_the_manifest():
    import json

    import workloads

    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["end_to_end"]] == list(workloads.END_TO_END)
    assert [m["name"] for m in manifest["per_layer"]] == list(workloads.PER_LAYER)
    # adapt stays runnable by hand but is not in the manifest (see run.py)
    assert [w["name"] for w in manifest["workloads"]] == ["train", "locate"]
    assert set(workloads.SPECS) == {"train", "locate", "adapt"}
