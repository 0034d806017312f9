"""Layer microbenchmarks of the cohort stage and of the LSTM, appended to
BENCH_layers.json.

    PYTHONPATH=src python3 bench/layers.py [--seed 2026] [--repeats 5]
                                           [--out BENCH_layers.json] [--label NAME]
                                           [--group all|cohort|nnet]

Generates the 5,000-patient positive control (configs/acceptance_positive.kv)
at `--seed` into a temporary directory, then times each layer `--repeats`
times in this process with `time.perf_counter` and records the median, the
fastest and the slowest run in seconds:

- `parse_table.<kind>`: one full parse of each source table;
- `csv_scan`: a bare `csv.reader` pass over the four tables, the part of
  a parse that every cohort block repeats;
- `patient_ids`: the pre-scan of the sorted distinct encounter ids;
- `parse_table.half_range`: the four tables parsed for the lower half of
  those ids, as one of two blocks parses them;
- `merge_patient_timeline`: the merge of the four parsed tables;
- `select_patients`: the per-patient step of the selection (error floor,
  exclusions, samples), and `select_cohort`, which adds the split;
- `cohort_to_dict`, and `canonical_json` of its result: the samples file
  serialized whole;
- `cohort_from_dict.train_validation` and `cohort_from_dict.test`: that
  file decoded for the train and validation splits, as each `train` stage
  decodes it, and for the test split, as `evaluate` and `attribute` do;
  each decode must give the selection's samples of those splits;
- `encode_and_write_samples`: the selection encoded by `encode_part` (its
  sample rows and each survivor's encounters, as canonical JSON), then
  written by `write_samples`.

The `nnet` group featurizes the selection's splits and times a freshly
initialized LSTM of the published size (H = 120), with BLAS at the
process's own thread count unless a name says `one_thread`:

- `lstm_loss_and_grads.256` and `lstm_loss_and_grads.256.one_thread`: one
  256-row training minibatch (dropout 0.2) through `nnet.lstm_loss_and_grads`;
- `sharded_step.256`: the same minibatch as `train` computes it, in
  128-row shards, with its workers (`train._sharded_lstm`);
- `lstm_logits.validation`: `nnet.lstm_logits` on the validation split,
  as each epoch scores it;
- `ig_sample.128`: integrated gradients of one test sample at 128 steps,
  the mean over the split's first 32 final samples, as `attribute`
  computes them: `nnet.lstm_integrated_gradients` where the program has
  it, and `integrated_gradients` of `lstm_scorer` before.

The run is recorded with the commit of the checkout the `htnrisk` package
was imported from (and whether its `src/` has uncommitted changes), the
core count, Python, numpy and its BLAS. A layer the imported program does
not have is recorded as null, so the script also runs at older commits.
It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from htnrisk import cli, cohort, ehr_core
from htnrisk.artifacts import canonical_json

ROOT = Path(__file__).resolve().parents[1]


def timed(repeats: int, run, per: int = 1) -> dict:
    """Seconds of `repeats` calls of `run`, with the collector paused as
    `htnrisk.cli.main` pauses it; each call's result is dropped before the
    next starts. A call that does `per` units of work counts 1/per of its
    seconds."""
    seconds = []
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run()
            seconds.append((time.perf_counter() - start) / per)
        finally:
            gc.enable()
    return {"median_s": statistics.median(seconds), "min_s": min(seconds),
            "max_s": max(seconds)}


def machine(package_dir: Path) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", str(package_dir), *args], capture_output=True,
                              text=True, check=False)
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        blas = {}
    return {
        "commit": git("rev-parse", "HEAD"),
        "src_changed": bool(git("status", "--porcelain", "--", ".")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure_cohort(data: Path, repeats: int) -> dict:
    paths = {kind: data / f"{kind}.csv" for kind in ehr_core.TABLE_COLUMNS}
    layers = {}
    for kind, path in paths.items():
        layers[f"parse_table.{kind}"] = timed(repeats, lambda: ehr_core.parse_table(path, kind))

    def scan():
        for path in paths.values():
            with path.open(newline="", encoding="utf-8") as handle:
                for _ in csv.reader(handle):
                    pass

    layers["csv_scan"] = timed(repeats, scan)
    has_ranges = hasattr(ehr_core, "patient_ids")
    layers["patient_ids"] = layers["parse_table.half_range"] = None
    if has_ranges:
        layers["patient_ids"] = timed(repeats, lambda: ehr_core.patient_ids(paths["encounters"]))
        ids = ehr_core.patient_ids(paths["encounters"])
        high = ids[len(ids) // 2]
        layers["parse_table.half_range"] = timed(repeats, lambda: [
            ehr_core.parse_table(path, kind, None, high) for kind, path in paths.items()])

    tables = [ehr_core.parse_table(path, kind)[0] for kind, path in paths.items()]
    layers["merge_patient_timeline"] = timed(
        repeats, lambda: ehr_core.merge_patient_timeline(*tables))
    timelines, _ = ehr_core.merge_patient_timeline(*tables)
    del tables
    layers["select_patients"] = None
    if hasattr(cohort, "select_patients"):
        layers["select_patients"] = timed(repeats, lambda: cohort.select_patients(timelines))
    layers["select_cohort"] = timed(repeats, lambda: cohort.select_cohort(timelines))
    selected = cohort.select_cohort(timelines)
    del timelines
    layers["cohort_to_dict"] = timed(repeats, lambda: cohort.cohort_to_dict(selected))
    as_dict = cohort.cohort_to_dict(selected)
    layers["canonical_json"] = timed(repeats, lambda: canonical_json(as_dict))
    for name, splits in [("train_validation", ("train", "validation")), ("test", ("test",))]:
        layers[f"cohort_from_dict.{name}"] = timed(
            repeats, lambda: cohort.cohort_from_dict(as_dict, splits))
        decoded = cohort.cohort_from_dict(as_dict, splits).samples
        if len(decoded) != sum(len(selected.samples_in(split)) for split in splits):
            raise SystemExit(f"cohort_from_dict decoded {len(decoded)} samples of {splits}")
    del as_dict
    layers["encode_and_write_samples"] = None
    if hasattr(cohort, "encode_part"):
        out = data / "samples.json"

        def encode_and_write():
            cohort.write_samples(
                out, selected.horizon_days, selected.total_patients, selected.exclusion_tally,
                selected.splits, [(list(selected.timelines), cohort.encode_part(selected))])

        layers["encode_and_write_samples"] = timed(repeats, encode_and_write)
        expected = canonical_json(cohort.cohort_to_dict(selected)) + "\n"
        if out.read_bytes() != expected.encode("utf-8"):
            raise SystemExit("write_samples wrote other bytes than canonical_json")
    return layers


def measure_nnet(data: Path, repeats: int) -> dict:
    from htnrisk import attribution, nnet, parallel, train
    from htnrisk.featurize import featurize_sequences, fit_schema

    tables = [ehr_core.parse_table(data / f"{kind}.csv", kind)[0] for kind in ehr_core.TABLE_COLUMNS]
    selected = cohort.select_cohort(ehr_core.merge_patient_timeline(*tables)[0])
    del tables
    schema = fit_schema(selected.samples_in("train"))
    X, y = featurize_sequences(selected.samples_in("train"), schema)
    X_val, _ = featurize_sequences(selected.samples_in("validation"), schema)
    X_test, _ = featurize_sequences(selected.evaluation_samples("test")[:32], schema)
    del selected
    config = train.default_config("lstm")
    params = nnet.init_lstm_params(X.shape[2], config.hidden_size, np.random.default_rng(0))
    w = train.sample_weights(y, train.class_weights(y))
    batch = np.random.default_rng(0).permutation(len(y))[:256]
    X_b, y_b, w_b = X[batch], y[batch], w[batch]

    def minibatch():
        rng = np.random.default_rng(1)
        nnet.lstm_loss_and_grads(params, X_b, y_b, w_b, config.dropout_rate, rng)

    layers = {"lstm_loss_and_grads.256": timed(repeats, minibatch)}
    with parallel.one_blas_thread([range(1), range(1, 2)]):  # it caps two blocks or more
        layers["lstm_loss_and_grads.256.one_thread"] = timed(repeats, minibatch)
    layers["sharded_step.256"] = None
    if hasattr(train, "_sharded_lstm"):
        vec = params.to_vector()
        with train._sharded_lstm(config, X, y, w) as step:
            layers["sharded_step.256"] = timed(
                repeats, lambda: step(params, vec, batch, np.random.default_rng(1)))
    layers["lstm_logits.validation"] = timed(repeats, lambda: nnet.lstm_logits(params, X_val))
    if hasattr(nnet, "lstm_integrated_gradients"):
        sample_ig = lambda x: nnet.lstm_integrated_gradients(params, x, 128)
    else:
        scorer = attribution.lstm_scorer(params)
        sample_ig = lambda x: attribution.integrated_gradients(scorer, x, np.zeros_like(x), 128)
    layers["ig_sample.128"] = timed(repeats, lambda: [sample_ig(x) for x in X_test], len(X_test))
    return {f"nnet.{name}": value for name, value in layers.items()} | {
        "nnet.rows": {"train": len(y), "validation": len(X_val), "ig_samples": len(X_test)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    parser.add_argument("--label", default="", help="a name for this run, such as 'parent'")
    parser.add_argument("--group", choices=("all", "cohort", "nnet"), default="all")
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    config = ROOT / "configs" / "acceptance_positive.kv"
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        argv = ["generate", "--config", str(config), "--seed", str(args.seed), "--out", str(data)]
        if cli.main(argv) != 0:
            return 1
        layers = {}
        if args.group in ("all", "cohort"):
            layers |= measure_cohort(data, args.repeats)
        if args.group in ("all", "nnet"):
            layers |= measure_nnet(data, args.repeats)
    run = {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": {"config": "configs/acceptance_positive.kv", "seed": args.seed,
                     "repeats": args.repeats, "group": args.group},
        "machine": machine(Path(cli.__file__).resolve().parent),
        "layers": layers,
    }
    out = Path(args.out)
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"] if out.exists() else []
    out.write_text(json.dumps({"runs": [*runs, run]}, indent=2) + "\n", encoding="utf-8")
    for name, value in layers.items():
        if value is None:
            shown = "n/a"
        elif "median_s" in value:
            shown = f"{value['median_s'] * 1e3:9.1f} ms"
        else:
            shown = value
        print(f"{name:28s} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
