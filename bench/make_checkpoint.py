"""Train and write the fixed checkpoint the `adapt` workload runs with.

Run once from the repository root:

    python3 bench/make_checkpoint.py

It pretrains the full (64, 64, 64) network with the default `TrainConfig` on
the noiseless 256-item dataset of seed 0 (the same data as the test suite's
session fixture), drops the per-epoch loss curve that `load_checkpoint` never
reads, records provenance in the metadata and prints the file's SHA-256, which
`workloads.ADAPT_CHECKPOINT_SHA256` must then be set to. Training takes about
400 s on one core.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import machine  # noqa: E402
from aqualoc import (  # noqa: E402
    DEFAULT_ENVIRONMENT,
    DEFAULT_HIDDEN,
    DEFAULT_REGION,
    Checkpoint,
    PlnArchitecture,
    TimeGrid,
    TrainConfig,
    gen_dataset,
    make_pulse,
    pln_error_grid,
    pretrain,
    save_checkpoint,
)

DATASET_SEED = 0
DATASET_COUNT = 256


def main(out: Path) -> None:
    dataset = gen_dataset(
        DEFAULT_ENVIRONMENT, DEFAULT_REGION, DATASET_COUNT, make_pulse(), TimeGrid(),
        seed=DATASET_SEED,
    )
    cfg = TrainConfig()
    t0 = time.perf_counter()
    ck = pretrain(dataset, PlnArchitecture(hidden=DEFAULT_HIDDEN), cfg)
    wall = time.perf_counter() - t0
    metadata = {k: v for k, v in ck.metadata.items() if k != "loss_curve"}
    metadata["provenance"] = {
        "git_sha": machine.git_sha(ROOT),
        "train_config": {k: list(v) if isinstance(v, tuple) else v
                         for k, v in asdict(cfg).items()},
        "dataset_seed": DATASET_SEED,
        "dataset_count": DATASET_COUNT,
        "pln_error": pln_error_grid(ck.model.pln, DEFAULT_ENVIRONMENT, DEFAULT_REGION),
        "pretrain_s": wall,
        "machine": machine.describe(),
    }
    save_checkpoint(Checkpoint(ck.model, metadata), out)
    print(f"{out}: sha256 {hashlib.sha256(out.read_bytes()).hexdigest()}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "adapt_checkpoint.json")
