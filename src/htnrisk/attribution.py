"""Feature attribution: integrated gradients and absolute-weight ranking.

Integrated gradients approximates the path integral of the model's
gradient along the straight line from a baseline to the input, using the
midpoint Riemann rule; its completeness gap (attributions summing to the
output difference) is measurable directly and shrinks quadratically with
the step count. The linear model is ranked by absolute weight instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .artifacts import format_number, write_csv
from .nnet import LstmParams, lstm_input_gradients
from .parallel import block_ranges, one_blas_thread, run_blocks, usable_cores

DEFAULT_STEPS = 128

#: Fewest samples worth a process of their own: one sample at 128 steps
#: takes ~10 ms, against tens of milliseconds to fork and return a block.
MIN_BLOCK_SAMPLES = 32

#: A scorer maps a stack of m inputs (m, *shape) to m scalar outputs and
#: the m output gradients with respect to each input element.
Scorer = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def lstm_scorer(params: LstmParams) -> Scorer:
    # Dropout is structurally off in lstm_input_gradients, so repeated
    # calls are deterministic, as attribution requires.
    return lambda points: lstm_input_gradients(params, points)


def integrated_gradients(
    score_fn: Scorer,
    x: np.ndarray,
    baseline: np.ndarray,
    steps: int = DEFAULT_STEPS,
) -> np.ndarray:
    """Per-element attributions of score_fn's output at x.

    IG_i = (x_i - baseline_i) * mean over k of the gradient at
    baseline + alpha_k (x - baseline), with midpoint nodes
    alpha_k = (k - 1/2)/steps. The midpoint rule keeps the completeness
    gap O(steps^-2), and is exact for linear scorers at any step count.
    """
    x = np.asarray(x, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if x.shape != baseline.shape:
        raise ValueError(f"baseline shape {baseline.shape} != input shape {x.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    alphas = (np.arange(1, steps + 1) - 0.5) / steps
    delta = x - baseline
    points = baseline[None, ...] + alphas.reshape((-1,) + (1,) * x.ndim) * delta[None, ...]
    _, grads = score_fn(points)
    return delta * grads.mean(axis=0)


def completeness_gap(
    score_fn: Scorer,
    x: np.ndarray,
    baseline: np.ndarray,
    steps: int = DEFAULT_STEPS,
) -> float:
    """|sum of attributions - (f(x) - f(baseline))|, the axiom residual."""
    attributions = integrated_gradients(score_fn, x, baseline, steps)
    values, _ = score_fn(np.stack([np.asarray(x, dtype=np.float64), np.asarray(baseline, dtype=np.float64)]))
    return float(abs(attributions.sum() - (values[0] - values[1])))


def rank_features(names: list[str], scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-k by absolute score, signed values kept; ties keep column order."""
    if k <= 0:
        raise ValueError("k must be positive")
    scores = np.asarray(scores, dtype=np.float64)
    if len(names) != scores.size:
        raise ValueError("names and scores must align")
    order = sorted(range(scores.size), key=lambda i: (-abs(scores[i]), i))
    return [(names[i], float(scores[i])) for i in order[: min(k, scores.size)]]


def aggregate_sequence_attributions(attributions: np.ndarray) -> np.ndarray:
    """Per-feature totals of a (T, F) attribution tensor: sum over time."""
    attributions = np.asarray(attributions, dtype=np.float64)
    if attributions.ndim != 2:
        raise ValueError(f"expected a (T, F) tensor, got shape {attributions.shape}")
    return attributions.sum(axis=0)


def population_attributions(
    score_fn: Scorer, X: np.ndarray, steps: int = DEFAULT_STEPS
) -> np.ndarray:
    """Mean signed per-sample IG over an evaluation set.

    Baseline is the all-zeros input: identical to the padding vector and
    to the scaled train minimum. Returns the mean attribution tensor with
    one entry per input element (T, F) for sequences.

    The samples run in contiguous blocks, one per usable core, with BLAS
    at one thread per process (see `parallel.one_blas_thread`). Each
    block returns its per-sample attributions and they are added here in
    sample order, so the mean does not depend on the number of blocks.
    """
    X = np.asarray(X, dtype=np.float64)
    baseline = np.zeros(X.shape[1:])

    def attribute(samples: range) -> list[np.ndarray]:
        out = np.empty((len(samples),) + X.shape[1:])
        for i, row in enumerate(X[samples.start : samples.stop]):
            out[i] = integrated_gradients(score_fn, row, baseline, steps)
        return [out]

    blocks = block_ranges(X.shape[0], usable_cores(), MIN_BLOCK_SAMPLES)
    with one_blas_thread(blocks) as blocks:
        per_block = run_blocks(blocks, attribute, "attributing samples")
    total = np.zeros(X.shape[1:])
    for [buffer] in per_block:
        for sample in np.frombuffer(buffer).reshape((-1,) + X.shape[1:]):
            total += sample
    return total / X.shape[0]


# -- exports -------------------------------------------------------------------

def write_sequence_attribution_csv(attributions: np.ndarray, names: list[str], path) -> None:
    """Per-timestep export: feature,timestep,score."""
    T, F = attributions.shape
    rows = (
        [names[j], t, format_number(float(attributions[t, j]))]
        for j in range(F)
        for t in range(T)
    )
    write_csv(path, ["feature", "timestep", "score"], rows)


def write_ranked_csv(ranked: list[tuple[str, float]], path, value_column: str) -> None:
    """Ranked export: feature,<value_column>,rank."""
    rows = ([name, format_number(score), rank] for rank, (name, score) in enumerate(ranked, 1))
    write_csv(path, ["feature", value_column, "rank"], rows)
