"""Peak RSS after each stage of the `etl` and `train` workloads, iteration
by iteration.

    PYTHONPATH=src python3 bench/stage_rss.py [--seed 2026] [--iterations 3]

Runs generate, cohort and featurize on the 5,000-patient positive control
(configs/acceptance_positive.kv), as the `etl` benchmark times them, then
the `train` benchmark's timed stages on their outputs: LR at 150 epochs,
the LSTM at 4, both evaluations on the test split and attribution at 128
steps: the stages and argv of perfbench/workloads.py. All run in this
process, in a temporary directory, and it prints the process's peak RSS
(`ru_maxrss` of RUSAGE_SELF, in MB) after each stage, so the stage that
raises the peak shows. The peak never falls, so
after the first iteration only a stage that raises it further shows.
Forked block processes are not counted, as the benchmark does not count
them. It is not part of the test suite.
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
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import GENERATOR_CONFIG, TRAIN_TIMED, build_stages  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--iterations", type=int, default=3)
    args = parser.parse_args(argv)
    stages = build_stages(str(ROOT / GENERATOR_CONFIG), args.seed) + TRAIN_TIMED
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        print(f"{'iteration':>9} {'stage':>13} {'peak_mb':>8}")
        for iteration in range(args.iterations):
            gc.collect()
            for name, argv in stages:
                with contextlib.redirect_stdout(io.StringIO()):  # the stage summaries
                    code = run_stage(argv)
                if code != 0:
                    return code
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                print(f"{iteration:>9} {name:>13} {peak:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
