"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 bench/run.py --workload {train,locate,adapt} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the last line of standard output carries the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run. A fuller
record (machine, counts, failures; spans when traced) is written under
`bench/out/`. The run exits non-zero if a correctness check fails.

`train` and `locate` are the workloads of BENCHMARK.json. `adapt` runs the
same way but is left out of it: da_gbl runs to max_iter, at about four times
the cost of a normal trial, on 1 to 10 of its 36 trials depending on the
seed, so its trials_per_s spreads from seed to seed by more than a bound of
0.25 allows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "locate", "adapt"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import `aqualoc` from this checkout's `src/`, never from elsewhere."""
    try:
        import aqualoc
    except ImportError as exc:
        raise SystemExit(f"cannot import the aqualoc package from {ROOT / 'src'}: {exc}")

    src = (ROOT / "src").resolve()
    if not Path(aqualoc.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"aqualoc imported from {aqualoc.__file__}, not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import machine
    import workloads
    from tracing import NullTracer, Tracer

    spec = workloads.SPECS[args.workload]
    probe_before = machine.speed_probe_ms()
    setup_tracer = Tracer() if args.trace else NullTracer()
    before = workloads.SETUP_REPEATS - (0 if args.trace else workloads.SETUP_AFTER)
    state, setup_times = workloads.timed_setup(spec, args.seed, setup_tracer, before)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": machine.git_sha(ROOT),
        "machine": machine.describe(),
        "pool": spec.pool_size(state),
    }
    if args.trace:
        tracer = Tracer()
        pairs = workloads.run_traced(spec, state, args.seconds, tracer)
        outcomes = [o for pair in pairs for o in pair]
    else:
        outcomes, elapsed, rss_mb, repeats = workloads.run_untraced(spec, state, args.seconds)
        setup_times += workloads.timed_setup(spec, args.seed, NullTracer(),
                                             workloads.SETUP_AFTER)[1]

    record["speed_probe_ms"] = [probe_before, machine.speed_probe_ms()]
    correct = True
    try:
        checked = outcomes if args.trace else outcomes + repeats
        record["checks"] = workloads.check(spec, state, checked)
    except workloads.CheckFailed as exc:
        correct = False
        record["check_failed"] = str(exc)
        print(f"correctness check failed: {exc}", file=sys.stderr)

    if args.trace:
        result_metrics, record["layers"] = workloads.layer_metrics(
            spec, state, tracer, pairs, setup_tracer, record.get("checks", {})
        )
        record["missing"] = sorted(tracer.missing)
        record["traced_units"] = len(pairs)
        stem = f"{args.workload}-seed{args.seed}"
        record["spans_file"] = str(tracer.write(OUT / f"{stem}.spans.jsonl").relative_to(ROOT))
    else:
        result_metrics, details = workloads.end_to_end(spec, state, outcomes, elapsed,
                                                       rss_mb, setup_times)
        record.update(details)
    record["errors"] = [o.error for o in outcomes if o.error][:5]
    record["metrics"] = result_metrics

    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if record.get("missing"):
        print(f"missing per-layer targets: {record['missing']}")
    print(f"record: {out_file.relative_to(ROOT)}; machine: {json.dumps(record['machine'])}; "
          f"git_sha: {record['git_sha']}; speed_probe_ms: {record['speed_probe_ms']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.error is not None),
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
