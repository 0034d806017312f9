"""Command-line pipeline: generate, cohort, featurize, train, evaluate, attribute.

Each stage reads files, writes files, and records a manifest.json with
content hashes of its inputs and outputs, so a rerun with the same seed
and config is checkable byte-for-byte. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import canonical_json, read_config, read_json, write_json, write_manifest
from .cohort import (
    DEFAULT_SPLIT_FRACTIONS,
    EXCLUSION_RULES,
    HORIZON_DAYS,
    SPLIT_NAMES,
    check_fiscal_year_start,
    check_horizon,
    check_split_fractions,
    cohort_from_dict,
    encode_part,
    select_patients,
    split_patients,
    write_exclusion_report,
    write_samples,
)
from .ehr_core import (
    TABLE_COLUMNS,
    DataError,
    MergeStats,
    RowError,
    merge_patient_timeline,
    parse_table,
    patient_ids,
    write_error_report,
)
from .nnet import NumericalError
from .parallel import MIN_BLOCK_PATIENTS, block_ranges, run_blocks, usable_cores

# Not called here since `cohort` runs in blocks, but perfbench/tracing.py
# wraps the whole-cohort steps by these names in this module.
from .cohort import cohort_to_dict, select_cohort  # noqa: F401, E402

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

#: The exit code of each error a stage may raise; the first type that
#: matches wins. A UnicodeDecodeError is a ValueError (usage), and
#: TrainingDiverged a NumericalError.
_EXIT_CODES = (
    (DataError, EXIT_DATA),
    (NumericalError, EXIT_NUMERIC),
    (ValueError, EXIT_USAGE),
    (OSError, EXIT_DATA),
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this pipeline
    reserves 2 for data errors, so usage failures are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config(default, path, overrides: dict):
    """`default` with the fields the key=value file at `path` (if any)
    sets, and then `overrides`: a flag wins over the file."""
    from_file = read_config(type(default), path) if path else {}
    return replace(default, **{**from_file, **overrides})


def _load_cohort(path, *splits):
    return cohort_from_dict(read_json(path), splits)


def _evaluation_samples(path, split):
    """The per-patient final samples of `split`: the ones every model is scored on."""
    samples = _load_cohort(path, split).evaluation_samples(split)
    if not samples:
        raise DataError(f"no evaluation samples in split {split!r}")
    return samples


# -- generate -------------------------------------------------------------------

def cmd_generate(args) -> int:
    from .synth import GeneratorConfig, write_cohort

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.patients is not None:
        overrides["n_patients"] = args.patients
    config = _config(GeneratorConfig(), args.config, overrides)
    if config.n_patients <= 0:
        raise DataError("empty cohort: n_patients must be positive")
    out = _out_dir(args)
    paths, n_encounters = write_cohort(config, out)
    write_manifest(
        out,
        "generate",
        inputs={"config": args.config} if args.config else {},
        outputs={p.stem: p for p in paths},
        config=asdict(config),
        seed=config.seed,
    )
    print(f"generate: wrote {n_encounters} encounters for {config.n_patients} patients to {out}")
    return EXIT_OK


# -- cohort ---------------------------------------------------------------------

def _cohort_block(data_dir: Path, ids: list, horizon: int, fiscal_year_start: int,
                  block: range) -> list[bytes]:
    """Parse, merge, select and encode the patients from `ids[block.start]`
    up to `ids[block.stop]`; the first block has no lower bound and the
    last no upper one, so every patient id falls in exactly one block.
    Returns the UTF-8 canonical JSON of the block's counts, row errors and
    survivors, then the block's `encode_part` pieces."""
    low = ids[block.start] if block.start > 0 else None
    high = ids[block.stop] if block.stop < len(ids) else None
    row_errors = []

    def table(kind):
        # Parsed only when the merge reaches it, and freed when the merge
        # moves on, so one parsed table is alive at a time.
        records, errors = parse_table(data_dir / f"{kind}.csv", kind, low, high)
        row_errors.extend(errors)
        yield from records

    timelines, merge_stats = merge_patient_timeline(*(table(kind) for kind in TABLE_COLUMNS))
    part = select_patients(timelines, horizon, fiscal_year_start)
    del timelines  # the part keeps the included patients' timelines
    summary = {
        **asdict(merge_stats),
        "exclusion_tally": part.exclusion_tally,
        "total_patients": part.total_patients,
        "samples": len(part.samples),
        "row_errors": [[e.row, e.table, e.message] for e in row_errors],
        "patients": list(part.timelines),
    }
    return [canonical_json(summary).encode("utf-8"), *encode_part(part)]


def cmd_cohort(args) -> int:
    try:
        fractions = tuple(float(f) for f in args.fractions.split(","))
    except ValueError:
        raise ValueError(
            f"--fractions must be three comma-separated numbers such as 0.7,0.15,0.15, "
            f"got {args.fractions!r}"
        ) from None
    check_split_fractions(fractions)
    check_fiscal_year_start(args.fiscal_year_start)
    check_horizon(args.horizon)
    data_dir = Path(args.data)
    # Contiguous ranges of the sorted patient ids, one block per usable
    # core; each block scans every table and keeps the rows of its range.
    ids = patient_ids(data_dir / "encounters.csv")
    blocks = block_ranges(len(ids), usable_cores(), MIN_BLOCK_PATIENTS)
    compute = partial(_cohort_block, data_dir, ids, args.horizon, args.fiscal_year_start)
    results = run_blocks(blocks, compute, "selecting patients")
    parts = [json.loads(buffers[0]) for buffers in results]
    table_order = list(TABLE_COLUMNS)
    row_errors = sorted(
        (RowError(*error) for part in parts for error in part["row_errors"]),
        key=lambda e: (table_order.index(e.table), e.row),
    )
    patients = [patient for part in parts for patient in part["patients"]]
    if not patients:
        raise DataError("empty cohort after exclusions")
    splits = split_patients(patients, fractions, args.seed)
    tally = {rule: sum(part["exclusion_tally"][rule] for part in parts) for rule in EXCLUSION_RULES}
    total_patients = sum(part["total_patients"] for part in parts)
    out = _out_dir(args)
    samples_path = out / "samples.json"
    write_samples(samples_path, args.horizon, total_patients, tally, splits,
                  [(part["patients"], buffers[1:]) for part, buffers in zip(parts, results)])
    exclusions_path = out / "exclusions.csv"
    write_exclusion_report(tally, total_patients, exclusions_path)
    errors_path = out / "row_errors.csv"
    write_error_report(row_errors, errors_path)
    write_manifest(
        out,
        "cohort",
        inputs={kind: data_dir / f"{kind}.csv" for kind in TABLE_COLUMNS},
        outputs={
            "samples": samples_path,
            "exclusions": exclusions_path,
            "row_errors": errors_path,
        },
        config={
            "fractions": list(fractions),
            "horizon_days": args.horizon,
            "fiscal_year_start": args.fiscal_year_start,
            "row_errors": len(row_errors),
            **{key: sum(part[key] for part in parts) for key in asdict(MergeStats())},
        },
        seed=args.seed,
    )
    print(
        f"cohort: {len(patients)} of {total_patients} patients included, "
        f"{sum(part['samples'] for part in parts)} samples, {len(row_errors)} row errors"
    )
    return EXIT_OK


# -- featurize ------------------------------------------------------------------

def cmd_featurize(args) -> int:
    from .featurize import (
        export_csv,
        fit_schema,
        schema_hash,
        schema_to_dict,
    )

    cohort = _load_cohort(args.samples, *(SPLIT_NAMES if args.export_csv else ("train",)))
    train_samples = cohort.samples_in("train")
    schema = fit_schema(train_samples)
    out = _out_dir(args)
    schema_path = out / "schema.json"
    write_json(schema_path, schema_to_dict(schema))
    outputs = {"schema": schema_path}
    if args.export_csv:
        seq_path = out / "sequence_features.csv"
        lr_path = out / "lr_features.csv"
        export_csv(cohort.samples, schema, seq_path, lr_path)
        outputs["sequence_features"] = seq_path
        outputs["lr_features"] = lr_path
    write_manifest(
        out,
        "featurize",
        inputs={"samples": args.samples},
        outputs=outputs,
        config={
            "n_train_samples": len(train_samples),
            "n_columns": schema.width,
            "n_lr_columns": schema.lr_width,
            "schema_hash": schema_hash(schema),
        },
        seed=0,
    )
    print(
        f"featurize: {schema.width} sequence columns, {schema.lr_width} flat columns "
        f"from {len(train_samples)} training samples"
    )
    return EXIT_OK


# -- train ----------------------------------------------------------------------

def cmd_train(args) -> int:
    from .featurize import schema_from_dict
    from .train import (
        TrainingDiverged,
        default_config,
        grid_results_to_csv,
        grid_search,
        model_inputs,
        save_model,
        train_model,
    )

    overrides = {"model_kind": args.model}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.epochs is not None:
        overrides["max_epochs"] = args.epochs
    config = _config(default_config(args.model), args.config, overrides)
    cohort = _load_cohort(args.samples, "train", "validation")
    schema = schema_from_dict(read_json(args.schema))
    train_data, val_data = (
        model_inputs(config.model_kind, cohort.samples_in(split), schema)
        for split in ("train", "validation")
    )
    del cohort  # its decoded encounters are not read again; free them before training
    out = _out_dir(args)
    outputs = {}
    log_path = out / "train_log.csv"
    if args.grid:
        config, params, log, results = grid_search(config, train_data, val_data)
        grid_path = out / "grid_results.csv"
        grid_results_to_csv(results, grid_path)
        outputs["grid_results"] = grid_path
    else:
        try:
            params, log = train_model(config, train_data, val_data)
        except TrainingDiverged as err:
            err.log.to_csv(log_path)
            raise
    log.to_csv(log_path)
    model_path = out / "model.json"
    save_model(
        model_path,
        config.model_kind,
        params,
        schema,
        training={
            "config": asdict(config),
            "epochs_run": len(log.epochs),
            "stop_reason": log.stop_reason,
        },
    )
    outputs["model"] = model_path
    write_manifest(
        out,
        "train",
        inputs={"samples": args.samples, "schema": args.schema},
        outputs=outputs,
        config=asdict(config),
        seed=config.seed,
        unhashed_outputs={"train_log": log_path},
    )
    print(
        f"train: {config.model_kind} stopped after {len(log.epochs)} epochs "
        f"({log.stop_reason}), val loss {log.epochs[-1].val_loss:.6f}"
    )
    return EXIT_OK


# -- evaluate -------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    from .evaluate import carry_forward_baseline, evaluate_scores, roc_curve
    from .train import load_model, model_inputs, predict_proba

    if not np.isfinite(args.threshold):
        raise ValueError(f"--threshold must be a finite number, got {args.threshold}")
    kind, params, schema, _training = load_model(args.model)
    samples = _evaluation_samples(args.samples, args.split)
    X, y = model_inputs(kind, samples, schema)
    scores = predict_proba(kind, params, X)
    baseline_pairs = [carry_forward_baseline(s) for s in samples]
    baseline_scores = np.array([score for _, score in baseline_pairs])
    groups = [s.sex for s in samples]

    report = {"model_kind": kind, "split": args.split, "n": len(samples)}
    out = _out_dir(args)
    outputs = {}
    for name, section_scores, threshold in (
        ("model", scores, args.threshold),
        ("baseline", baseline_scores, 0.5),
    ):
        report[name] = evaluate_scores(y, section_scores, threshold=threshold, groups=groups)
        if "auroc" in report[name]:
            roc_path = out / f"roc_{name}.csv"
            roc_curve(y, section_scores).to_csv(roc_path)
            outputs[f"roc_{name}"] = roc_path
    report_path = out / "report.json"
    write_json(report_path, report)
    outputs["report"] = report_path
    write_manifest(
        out,
        "evaluate",
        inputs={"model": args.model, "samples": args.samples},
        outputs=outputs,
        config={"threshold": args.threshold, "split": args.split},
        seed=0,
    )
    model_auroc = report["model"].get("auroc")
    base_auroc = report["baseline"].get("auroc")
    shown = lambda v: "n/a" if v is None else f"{v:.4f}"
    print(
        f"evaluate: {kind} AUROC {shown(model_auroc)}, baseline AUROC {shown(base_auroc)} "
        f"on {len(samples)} {args.split} samples"
    )
    return EXIT_OK


# -- attribute ------------------------------------------------------------------

def cmd_attribute(args) -> int:
    from .attribution import (
        aggregate_sequence_attributions,
        population_attributions,
        rank_features,
        write_ranked_csv,
        write_sequence_attribution_csv,
    )
    from .train import load_model, model_inputs

    if args.top <= 0:
        raise ValueError("--top must be positive")
    if args.steps <= 0:
        raise ValueError("--steps must be positive")
    kind, params, schema, _training = load_model(args.model)
    outputs = {}
    if kind == "lr":
        inputs = {"model": args.model}
        ranked = rank_features(schema.lr_columns, params.w, args.top)
        out = _out_dir(args)
        weights_path = out / "lr_weights.csv"
        write_ranked_csv(ranked, weights_path, value_column="weight")
        outputs["lr_weights"] = weights_path
        summary = f"{len(ranked)} ranked weights"
    else:
        if not args.samples:
            raise ValueError("--samples is required for lstm models")
        inputs = {"model": args.model, "samples": args.samples}
        samples = _evaluation_samples(args.samples, args.split)
        out = _out_dir(args)
        X, _ = model_inputs(kind, samples, schema)
        mean_attr = population_attributions(params, X, steps=args.steps)
        per_step_path = out / "attributions.csv"
        write_sequence_attribution_csv(mean_attr, schema.columns, per_step_path)
        totals = aggregate_sequence_attributions(mean_attr)
        ranked = rank_features(schema.columns, totals, args.top)
        agg_path = out / "attributions_agg.csv"
        write_ranked_csv(ranked, agg_path, value_column="total_score")
        outputs["attributions"] = per_step_path
        outputs["attributions_agg"] = agg_path
        summary = f"mean attributions over {len(samples)} samples, top {len(ranked)}"
    write_manifest(
        out,
        "attribute",
        inputs=inputs,
        outputs=outputs,
        config={"top": args.top, "steps": args.steps, "split": args.split},
        seed=0,
    )
    print(f"attribute: {kind}: {summary}")
    return EXIT_OK


# -- wiring ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="htnrisk",
        description="Hypertension risk stratification over longitudinal EHR data.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="generate a synthetic EHR cohort")
    p.add_argument("--config", help="generator key=value config file")
    p.add_argument("--seed", type=int, default=None, help="generator seed (overrides config)")
    p.add_argument("--patients", type=int, default=None, help="number of patients (overrides config)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cohort", help="select the cohort and build samples")
    p.add_argument("--data", required=True, help="directory with the four source CSVs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="split assignment seed")
    p.add_argument("--horizon", type=int, default=HORIZON_DAYS, help="target window in days")
    p.add_argument(
        "--fractions",
        default=",".join(str(f) for f in DEFAULT_SPLIT_FRACTIONS),
        help="train,validation,test fractions",
    )
    p.add_argument("--fiscal-year-start", type=int, default=1, help="fiscal year start month")
    p.set_defaults(func=cmd_cohort)

    p = sub.add_parser("featurize", help="fit the feature schema on the training split")
    p.add_argument("--samples", required=True, help="samples.json from the cohort stage")
    p.add_argument("--out", required=True)
    p.add_argument("--export-csv", action="store_true", help="also export feature matrices")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--samples", required=True)
    p.add_argument("--schema", required=True, help="schema.json from the featurize stage")
    p.add_argument("--model", required=True, choices=("lr", "lstm"))
    p.add_argument("--config", help="training key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help="override max_epochs")
    p.add_argument("--grid", action="store_true", help="grid-search hyperparameters first")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a model against the baseline")
    p.add_argument("--model", required=True, help="model.json from the train stage")
    p.add_argument("--samples", required=True)
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("attribute", help="rank features by importance")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", help="required for lstm models")
    p.add_argument("--split", default="test", choices=SPLIT_NAMES)
    p.add_argument("--top", type=int, default=20, help="rows in the ranked export")
    p.add_argument("--steps", type=int, default=128, help="integration steps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attribute)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    stage = args.command
    # A stage builds hundreds of thousands of small objects (parsed rows,
    # timelines, the samples.json tree) and no reference cycles, so
    # reference counting frees everything and the cyclic collector would
    # only walk them again and again, finding nothing. It is paused for the
    # stage; the caller's setting is restored afterwards.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as err:
        print(f"error: {stage}: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
