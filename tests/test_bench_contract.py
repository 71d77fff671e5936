"""The benchmark's output contract, untraced and traced.

Each workload of BENCHMARK.json runs for a second through bench/run.py with
`--trace 0` and `--trace 1`, from a copy of bench/, src/ and BENCHMARK.json in
a temporary directory, so the run's records land there and the checkout is
left as it was. The last line of standard output must be one strict JSON
result holding exactly the manifest's end-to-end metrics (untraced) or
per-layer metrics (traced), each finite, and the written record must name no
missing trace target.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, root / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_holds_every_metric(checkout, workload, trace):
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace)]
    argv[0] = sys.executable if argv[0].startswith("python") else argv[0]
    run = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    assert run.returncode == 0, run.stderr[-2000:]
    last = run.stdout.rstrip("\n").splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
    if trace:
        # every workload's fits pass their gradients through value_and_grad
        assert result["metrics"]["autodiff.value_and_grad.calls"]["value"] > 0
    record = json.loads((checkout / "bench" / "out"
                         / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    assert (record["missing"] if trace else record.get("missing", [])) == []
