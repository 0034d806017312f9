"""Pipeline benchmark for htnrisk.

    python3 perfbench/run.py --workload etl|train [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout. Set-up runs at least SETUP_REPEATS times
and until SETUP_MIN_SECONDS of it are measured, each time in a fresh
worker process, and `setup_s` is the median. One more worker process
then runs the timed part in-process through `htnrisk.cli.main`, repeating
it while one more iteration brings the measured time closer to
`--seconds`, and checks the outputs. The seed reaches the program only as
`generate --seed`.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the worker also runs one traced
iteration and the line carries the per-layer metrics. The lines before
it give every metric by name and unit, the workload-specific rates and
AUROCs, each check, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import OpCount, summarize  # noqa: E402
from workloads import DEFAULT_SEED, GENERATOR_CONFIG, SETUP_MIN_SECONDS, SETUP_REPEATS, WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
WORK_DIR = HERE / ".work"
REQUIRED = (Path("src/htnrisk/cli.py"), GENERATOR_CONFIG, Path("BENCHMARK.json"))


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    env["PYTHONHASHSEED"] = "0"
    return env


def commit() -> str:
    """HEAD of the checkout's git metadata, or 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(mode: str, args, run_dir: Path, deadline: float, extra=()) -> tuple[float, dict]:
    """Start one worker, wait for it, return (its wall seconds, its result)."""
    result_path = run_dir / f"result-{mode}.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
        "--seed", str(args.seed), "--config", str(ROOT / GENERATOR_CONFIG),
        "--result", str(result_path), *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=run_dir, env=worker_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped it
        raise BenchError(f"{mode} worker timed out") from err
    seconds = time.perf_counter() - started
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return seconds, json.loads(result_path.read_text(encoding="utf-8"))


def per_layer_value(name: str, trace: dict, untraced_wall: float) -> float:
    """A per-layer metric from the traced iteration, by naming convention:
    `<span>.s` self seconds, `<span>.calls` calls, anything else a count."""
    if name == "trace.overhead_s":
        return trace["wall_s"] - untraced_wall
    if name == "featurize.records_per_encounter":
        distinct = trace["distinct_encounters"]
        return trace["calls"].get("featurize.transform_record", 0) / distinct if distinct else 0.0
    if name.endswith(".s"):
        return trace["self_s"].get(name[:-2], 0.0)
    if name.endswith(".calls"):
        return trace["calls"].get(name[: -len(".calls")], 0)
    return trace["counts"].get(name, 0)


def workload_rates(workload: str, measured: dict) -> list[tuple[str, float, str]]:
    """The workload-specific end-to-end figures: medians over iterations."""
    rows = []
    iterations = [it for it in measured["iterations"] if it["counts"]]
    stage_seconds = [{name: s for name, _, s in it["stages"]} for it in iterations]
    if workload == "train" and iterations:
        for kind in ("lr", "lstm"):
            rates = []
            for it, seconds in zip(iterations, stage_seconds):
                counts = it["counts"]
                rates.append(counts["n_train_samples"] * counts[f"{kind}_epochs"] / seconds[f"train_{kind}"])
            rows.append((f"{kind}_train_samples_per_s", statistics.median(rates), "1/s"))
        for kind in ("lstm", "lr"):
            rows.append((f"{kind}_test_auroc", iterations[0]["counts"][f"{kind}_test_auroc"], "1"))
    if iterations and "n_attributed" in measured:
        rates = [measured["n_attributed"] / seconds["attribute"] for seconds in stage_seconds]
        rows.append(("ig_samples_per_s", statistics.median(rates), "1/s"))
    return rows


def run(args, spec: dict) -> tuple[dict, int, int]:
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    run_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = OpCount()
    checks = []
    try:
        setup_times, setup_digests = [], []
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            seconds, result = run_worker("setup", args, run_dir, deadline)
            setup_times.append(seconds)
            setup_digests.append(result["digests"])
            for _name, code, _s in result["stages"]:
                ops.stage(code)
        checks.append(("setup_digests_repeat", all(d == setup_digests[0] for d in setup_digests), ""))
        if args.seed == DEFAULT_SEED and workload.setup_outputs:
            recorded = json.loads((HERE / "baseline.json").read_text())["digests"]["etl"]
            same = all(setup_digests[0].get(name) == digest for name, digest in recorded.items())
            checks.append(("setup_digests_match_recorded", same, ""))
        spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.csv"
        _, measured = run_worker(
            "measure", args, run_dir, deadline,
            ["--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans_path)],
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    iterations = measured["iterations"]
    for it in iterations + ([measured["trace"]] if "trace" in measured else []):
        for _name, code, _s in it["stages"]:
            ops.stage(code)
    checks += [(c["name"], c["ok"], c["detail"]) for c in measured["checks"]]
    for _name, ok, _detail in checks:
        ops.check(ok)

    env = {
        "commit": commit(),
        "nproc": nproc(),
        "python": platform.python_version(),
        **measured["environment"],
        "generator_config_sha256": hashlib.sha256((ROOT / GENERATOR_CONFIG).read_bytes()).hexdigest(),
        "workload_seed": args.seed,
    }
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))

    walls = [it["wall_s"] for it in iterations]
    setup = summarize(setup_times)
    wall = summarize(walls)
    # The machine's speed drifts in phases of tens of seconds, so the median
    # of a handful of iterations follows one of them; the mean uses them all.
    wall_s = statistics.fmean(walls)
    print(f"metric setup_s = {setup.median:.6f} s ({setup.describe('s')} set-ups: "
          + ", ".join(f"{t:.3f}" for t in setup_times) + ")")
    print(f"metric wall_s = {wall_s:.6f} s (mean; {wall.describe('s')} timed iterations: "
          + ", ".join(f"{w:.3f}" for w in walls) + ")")
    print(f"metric peak_rss_mb = {measured['peak_rss_mb']:.3f} MB (peak of the timed process)")
    print(f"metric failed_share = {ops.failed_share:.6g} ratio ({ops.failed} of {ops.attempted} operations failed)")
    for name, value, unit in workload_rates(args.workload, measured):
        print(f"metric {name} = {value:.6f} {unit}")
    for name in sorted({name for it in iterations for name, _, _ in it["stages"]}):
        times = [s for it in iterations for n, _, s in it["stages"] if n == name]
        print(f"stage {name}: {summarize(times).describe('s')}")
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'}{' (' + detail + ')' if detail else ''}")

    end_to_end = {"setup_s": setup.median, "wall_s": wall_s, "peak_rss_mb": measured["peak_rss_mb"]}
    if args.trace:
        trace = measured.get("trace")
        if trace is None:
            raise BenchError("the traced iteration did not run")
        overhead = trace["wall_s"] - wall_s
        print(f"trace: traced wall {trace['wall_s']:.6f} s, untraced mean {wall_s:.6f} s, "
              f"overhead {overhead:.6f} s ({overhead / wall_s:.1%}); spans in {spans_path.relative_to(ROOT)}")
        for name, summary in sorted(trace["per_call"].items()):
            tail = "" if summary["tail_p"] is None else f", p{summary['tail_p']:g} {summary['tail']:.6g} s"
            print(f"span {name}: self {trace['self_s'][name]:.6f} s, per call median "
                  f"{summary['median']:.6g} s, n={summary['count']}{tail}")
        metrics = {
            m["name"]: {"value": per_layer_value(m["name"], trace, wall_s), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        for name, metric in metrics.items():
            print(f"layer {name} = {metric['value']:.6g} {metric['unit']}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": end_to_end[name], "unit": units[name]} for name in units}
    return metrics, ops.attempted, ops.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="htnrisk pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a htnrisk checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        metrics, attempted, failed = run(args, spec)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
