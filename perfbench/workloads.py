"""The two workloads: the CLI calls of their set-up and timed parts and
the files whose digests pin their outputs. Why each exists is stated in
BENCHMARK.json.

Every path is relative to the run directory the stages execute in, so
manifests and digests do not depend on where the checkout lives.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 2026
GENERATOR_CONFIG = Path("configs") / "acceptance_positive.kv"
SETUP_REPEATS = 2
# A set-up that is only a process start is repeated until this much is
# measured, so its median does not rest on one moment of a noisy machine.
SETUP_MIN_SECONDS = 2.0

ETL_OUTPUTS = tuple(
    f"data/{kind}.csv" for kind in ("encounters", "medications", "labs", "diagnoses")
) + ("cohort/samples.json", "cohort/exclusions.csv", "features/schema.json")


def build_stages(config: str, seed: int) -> list[tuple[str, list[str]]]:
    return [
        ("generate", ["generate", "--config", config, "--seed", str(seed), "--out", "data"]),
        ("cohort", ["cohort", "--data", "data", "--out", "cohort"]),
        ("featurize", ["featurize", "--samples", "cohort/samples.json", "--out", "features"]),
    ]


def train_stage(name: str, model: str, epochs: int, out: str) -> tuple[str, list[str]]:
    return (
        name,
        [
            "train", "--samples", "cohort/samples.json", "--schema", "features/schema.json",
            "--model", model, "--epochs", str(epochs), "--seed", "0", "--out", out,
        ],
    )


def evaluate_stage(name: str, model_dir: str, out: str) -> tuple[str, list[str]]:
    return (
        name,
        [
            "evaluate", "--model", f"{model_dir}/model.json", "--samples", "cohort/samples.json",
            "--split", "test", "--out", out,
        ],
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[str, int], list]  # (config, seed) -> set-up stages
    timed: Callable[[str, int], list]  # (config, seed) -> stages of the timed part
    outputs: tuple  # files digested after every timed iteration
    setup_outputs: tuple  # files digested after every set-up


# Attribution runs on the 4-epoch LSTM the same iteration trains: IG cost
# does not depend on the weights, and a workload of its own would need its
# own generate-cohort-featurize set-up, leaving too little of the run time
# for the etl iterations whose spread sets the benchmark's bound.
TRAIN_TIMED = [
    train_stage("train_lr", "lr", 150, "lr"),
    train_stage("train_lstm", "lstm", 4, "lstm"),
    evaluate_stage("evaluate_lr", "lr", "eval_lr"),
    evaluate_stage("evaluate_lstm", "lstm", "eval_lstm"),
    (
        "attribute",
        [
            "attribute", "--model", "lstm/model.json", "--samples", "cohort/samples.json",
            "--split", "test", "--steps", "128", "--out", "attr",
        ],
    ),
]

WORKLOADS = {
    "etl": Workload(
        name="etl",
        setup=lambda config, seed: [],
        timed=build_stages,
        outputs=ETL_OUTPUTS,
        setup_outputs=(),
    ),
    "train": Workload(
        name="train",
        setup=build_stages,
        timed=lambda config, seed: TRAIN_TIMED,
        outputs=(
            "lr/model.json", "lstm/model.json",
            "eval_lr/report.json", "eval_lr/roc_model.csv",
            "eval_lstm/report.json", "eval_lstm/roc_model.csv",
            "attr/attributions.csv", "attr/attributions_agg.csv",
        ),
        setup_outputs=ETL_OUTPUTS,
    ),
}


def digests(run_dir: Path, files) -> dict[str, str | None]:
    """sha256 of each file, None for a missing one."""
    out = {}
    for name in files:
        path = run_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out
