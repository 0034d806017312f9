"""Peak RSS after each stage of the `etl` workload, iteration by iteration.

    PYTHONPATH=src python3 bench/stage_rss.py [--seed 2026] [--iterations 3]

Runs generate, cohort and featurize on the 5,000-patient positive control
(configs/acceptance_positive.kv) in this process, as the `etl` benchmark
times them, in a temporary directory, and prints the process's peak RSS
(`ru_maxrss` of RUSAGE_SELF, in MB) after each stage, so the stage that
raises the peak shows. Forked block processes are not counted, as the
benchmark does not count them. It is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import resource
import sys
import tempfile
from pathlib import Path

from htnrisk.cli import main as run_stage

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--iterations", type=int, default=3)
    args = parser.parse_args(argv)
    config = str(ROOT / "configs" / "acceptance_positive.kv")
    stages = [
        ["generate", "--config", config, "--seed", str(args.seed), "--out", "data"],
        ["cohort", "--data", "data", "--out", "cohort"],
        ["featurize", "--samples", "cohort/samples.json", "--out", "features"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        print(f"{'iteration':>9} {'stage':>10} {'peak_mb':>8}")
        for iteration in range(args.iterations):
            gc.collect()
            for argv in stages:
                with contextlib.redirect_stdout(io.StringIO()):  # the stage summaries
                    code = run_stage(argv)
                if code != 0:
                    return code
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                print(f"{iteration:>9} {argv[0]:>10} {peak:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
