"""One benchmark process: runs a workload's CLI stages in-process through
`htnrisk.cli.main` and writes what it measured and checked as JSON.

    worker.py setup   --workload W --seed N --config PATH --result FILE
    worker.py measure --workload W --seed N --config PATH --result FILE
                      --seconds S --trace 0|1 --spans FILE

It runs inside the run directory; `run.py` starts it, with PYTHONPATH
pointing at the checkout's `src` and BLAS threads capped at nproc.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

from stats import self_time_by_name, self_times, subtree_self_sum, summarize
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, digests

HERE = Path(__file__).resolve().parent
PROGRAM_MODULES = (
    "htnrisk.cli", "htnrisk.synth", "htnrisk.featurize", "htnrisk.train",
    "htnrisk.evaluate", "htnrisk.attribution",
)
#: Relative IG completeness gap allowed at 512 steps (acceptance criterion 3).
COMPLETENESS_BOUND = 1e-3
COMPLETENESS_ROWS = 4
COMPLETENESS_STEPS = 512


def import_program():
    """Import every module the stages load lazily, so no timed part pays it."""
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return sys.modules["htnrisk.cli"]


def run_stages(cli, stages, stage_runner=None):
    """Run stages in order until one fails; returns [(name, exit code, seconds)]."""
    done = []
    for name, argv in stages:
        started = time.perf_counter()
        try:
            call = lambda: cli.main(argv)
            code = stage_runner(name, call) if stage_runner else call()
        except Exception:  # a traceback escaping the CLI is a failed stage
            print(f"error: {name}: uncaught exception", file=sys.stderr)
            traceback.print_exc()
            code = -1
        done.append((name, code, time.perf_counter() - started))
        if code != 0:
            break
    return done


def check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- per-workload checks and counts -------------------------------------------


def _auroc_check(checks: list, iteration: int) -> dict:
    values = {}
    for kind in ("lr", "lstm"):
        report = read_json(f"eval_{kind}/report.json")
        model = report["model"].get("auroc")
        base = report["baseline"].get("auroc")
        ok = model is not None and base is not None and math.isfinite(model) and model > base
        check(checks, f"{kind}_auroc_above_baseline[{iteration}]", ok, f"model {model} baseline {base}")
        values[f"{kind}_test_auroc"] = model
    return values


def _train_counts() -> dict:
    n_train = read_json("features/manifest.json")["config"]["n_train_samples"]
    out = {"n_train_samples": n_train}
    for kind in ("lr", "lstm"):
        out[f"{kind}_epochs"] = read_json(f"{kind}/model.json")["training"]["epochs_run"]
    return out


def _attributions_finite(checks: list, iteration: int) -> None:
    with open("attr/attributions.csv", newline="", encoding="utf-8") as handle:
        scores = [float(row["score"]) for row in csv.DictReader(handle)]
    ok = bool(scores) and all(math.isfinite(s) for s in scores)
    check(checks, f"attributions_finite[{iteration}]", ok, f"{len(scores)} scores")


def _completeness_check(checks: list) -> int:
    """IG completeness on the first test rows, outside the timed part;
    returns the number of samples the attribute stage covered."""
    import numpy as np
    from htnrisk.artifacts import read_json as program_read_json
    from htnrisk.attribution import completeness_gap, lstm_scorer
    from htnrisk.cohort import cohort_from_dict
    from htnrisk.featurize import featurize_sequences
    from htnrisk.train import load_model

    _kind, params, schema, _ = load_model("lstm/model.json")
    samples = cohort_from_dict(program_read_json("cohort/samples.json")).evaluation_samples("test")
    X, _ = featurize_sequences(samples[:COMPLETENESS_ROWS], schema)
    scorer = lstm_scorer(params)
    worst = 0.0
    for x in X:
        baseline = np.zeros_like(x)
        gap = completeness_gap(scorer, x, baseline, steps=COMPLETENESS_STEPS)
        values, _ = scorer(np.stack([x, baseline]))
        worst = max(worst, gap / max(abs(float(values[0] - values[1])), 1e-12))
    check(checks, "ig_completeness", worst < COMPLETENESS_BOUND,
          f"worst relative gap {worst:.3e} over {len(X)} rows at {COMPLETENESS_STEPS} steps")
    return len(samples)


def after_iteration(workload: str, checks: list, iteration: int) -> dict:
    """Checks and counts that read one iteration's outputs; returns counts."""
    if workload == "train":
        _attributions_finite(checks, iteration)
        return {**_auroc_check(checks, iteration), **_train_counts()}
    return {}


# -- modes ------------------------------------------------------------------------


def setup(args) -> dict:
    cli = import_program()
    workload = WORKLOADS[args.workload]
    stages = run_stages(cli, workload.setup(args.config, args.seed))
    return {"stages": stages, "digests": digests(Path("."), workload.setup_outputs)}


def _stage_self_times(tracer: Tracer, checks: list) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = self_time_by_name(spans, selfs)
    for index, span in enumerate(spans):
        if span.parent != -1:
            continue
        total = subtree_self_sum(spans, selfs, index)
        check(checks, f"self_times_add_up[{span.name}]", abs(total - span.duration) <= 1e-6,
              f"self-time sum {total:.9f} s, stage wall {span.duration:.9f} s")
    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span.name, []).append(span.duration)
    per_call = {name: asdict(summarize(values)) for name, values in durations.items()}
    return {
        "self_s": by_name,
        "calls": dict(tracer.calls),
        "counts": dict(tracer.counts),
        "distinct_encounters": tracer.distinct_encounters,
        "per_call": per_call,
    }


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def measure(args) -> dict:
    cli = import_program()
    workload = WORKLOADS[args.workload]
    stages = workload.timed(args.config, args.seed)
    expected = read_json(HERE / "baseline.json")["digests"]["etl"]
    checks: list = []
    iterations = []
    measured = 0.0
    # Repeat while one more iteration, as long as the last, brings the
    # measured time closer to --seconds; at least one always runs.
    while not iterations or measured + iterations[-1]["wall_s"] / 2 < args.seconds:
        gc.collect()
        done = run_stages(cli, stages)
        wall = sum(seconds for _, _, seconds in done)
        measured += wall
        outputs = digests(Path("."), workload.outputs)
        index = len(iterations)
        record = {"stages": done, "wall_s": wall, "digests": outputs, "counts": {}}
        iterations.append(record)
        if any(code != 0 for _, code, _ in done):
            break
        if index > 0:
            check(checks, f"digests_repeat[{index}]", outputs == iterations[0]["digests"])
        if workload.name == "etl" and args.seed == DEFAULT_SEED:
            check(checks, f"digests_match_recorded[{index}]", outputs == expected)
        try:
            record["counts"] = after_iteration(workload.name, checks, index)
        except (OSError, ValueError, KeyError, TypeError) as err:
            check(checks, f"outputs_readable[{index}]", False, f"{type(err).__name__}: {err}")
    result = {
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "environment": environment(),
    }
    failed = any(code != 0 for it in iterations for _, code, _ in it["stages"])
    if workload.name == "train" and not failed:
        try:
            result["n_attributed"] = _completeness_check(checks)
        except (OSError, ValueError, KeyError, TypeError) as err:
            check(checks, "ig_completeness", False, f"{type(err).__name__}: {err}")
    if args.trace and not failed:
        gc.collect()
        tracer = Tracer()
        tracer.iteration = len(iterations)
        tracer.install()
        try:
            done = run_stages(cli, stages, lambda name, call: tracer.stage(f"cli.{name}", call))
        finally:
            tracer.uninstall()
        traced_digests = digests(Path("."), workload.outputs)
        check(checks, "traced_digests_equal_untraced", traced_digests == iterations[0]["digests"])
        tracer.write(args.spans)
        result["trace"] = {
            "stages": done,
            "wall_s": sum(seconds for _, _, seconds in done),
            **_stage_self_times(tracer, checks),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="spans.csv")
    args = parser.parse_args(argv)
    result = setup(args) if args.mode == "setup" else measure(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
