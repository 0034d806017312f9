"""Baseline, confusion metrics, ROC construction, and the AUROC identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htnrisk.cohort import BpStatus, build_samples
from htnrisk.ehr_core import DataError
from htnrisk.evaluate import (
    auroc,
    carry_forward_baseline,
    confusion,
    evaluate_scores,
    precision_recall_f1,
    roc_curve,
)
from htnrisk.nnet import NumericalError


def _mann_whitney(labels, scores):
    """O(n^2) reference: P(score_pos > score_neg) with ties counting half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# -- baseline --------------------------------------------------------------------

def test_baseline_carries_last_labelable_status(make_timeline):
    timeline = make_timeline(4, gap_days=30)
    timeline[1].systolic = 155.0  # uncontrolled
    timeline[2].systolic = None   # unlabelable last visit
    samples = build_samples(timeline)
    sample = samples[-1]  # history = visits 0..2
    assert sample.history[-1].systolic is None
    label, score = carry_forward_baseline(sample)
    assert (label, score) == (1, 1.0)


def test_baseline_uses_most_recent_reading(make_timeline):
    timeline = make_timeline(3, gap_days=30)
    timeline[0].systolic = 180.0  # old uncontrolled reading
    samples = build_samples(timeline)
    label, score = carry_forward_baseline(samples[-1])  # last visit is controlled
    assert (label, score) == (0, 0.0)


def test_baseline_without_any_reading_raises(make_timeline):
    timeline = make_timeline(3, gap_days=30)
    timeline[1].systolic = 140.0  # keep the target labelable
    timeline[1].diastolic = 90.0
    for enc in timeline[:1]:
        enc.systolic = None
        enc.diastolic = None
    samples = build_samples(timeline)
    with pytest.raises(DataError, match="no labelable"):
        carry_forward_baseline(samples[0])  # history is only the blank visit


# -- confusion metrics --------------------------------------------------------------

def test_confusion_counts():
    labels = [1, 1, 0, 0, 1, 0]
    predictions = [1, 0, 0, 1, 1, 0]
    assert confusion(labels, predictions) == (2, 1, 2, 1)


def test_confusion_rejects_mismatched_or_empty():
    with pytest.raises(ValueError):
        confusion([1, 0], [1])
    with pytest.raises(ValueError):
        confusion([], [])


def test_precision_recall_f1_hand_case():
    report = precision_recall_f1(tp=2, fp=1, tn=2, fn=1)
    pos = report["per_class"]["1"]
    assert pos["precision"] == pytest.approx(2 / 3)
    assert pos["recall"] == pytest.approx(2 / 3)
    assert pos["f1"] == pytest.approx(2 / 3)
    assert report["macro"]["f1"] == pytest.approx(2 / 3)
    assert report["accuracy"] == pytest.approx(4 / 6)


def test_precision_recall_f1_zero_over_zero_is_zero():
    # no positive predictions and no positive labels
    report = precision_recall_f1(tp=0, fp=0, tn=4, fn=0)
    pos = report["per_class"]["1"]
    assert (pos["precision"], pos["recall"], pos["f1"]) == (0.0, 0.0, 0.0)
    assert report["per_class"]["0"]["recall"] == 1.0


# -- ROC curve ----------------------------------------------------------------------

def test_roc_hand_case_without_ties():
    labels = [0, 0, 1, 1]
    scores = [0.1, 0.4, 0.35, 0.8]
    curve = roc_curve(labels, scores)
    assert curve.points == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]
    assert curve.thresholds[0] == float("inf")
    assert curve.thresholds[1:] == [0.8, 0.4, 0.35, 0.1]
    assert auroc(labels, scores) == pytest.approx(0.75)


def test_roc_ties_collapse_to_one_point():
    labels = [1, 0]
    scores = [0.5, 0.5]
    curve = roc_curve(labels, scores)
    assert curve.points == [(0.0, 0.0), (1.0, 1.0)]  # single diagonal segment
    assert auroc(labels, scores) == pytest.approx(0.5)


def test_roc_starts_at_origin_and_ends_at_corner(rng):
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    scores = rng.random(50)
    curve = roc_curve(labels, scores)
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)
    fprs = [p[0] for p in curve.points]
    tprs = [p[1] for p in curve.points]
    assert fprs == sorted(fprs) and tprs == sorted(tprs)
    assert curve.thresholds == sorted(curve.thresholds, reverse=True)


def test_roc_single_class_raises():
    with pytest.raises(DataError, match="both classes"):
        roc_curve([1, 1, 1], [0.2, 0.5, 0.9])


def test_roc_and_auroc_reject_a_nan_score():
    # NaN equals nothing, so it has no place in the descending sweep.
    with pytest.raises(NumericalError, match="NaN"):
        roc_curve([0, 1, 1], [0.2, float("nan"), 0.9])
    with pytest.raises(NumericalError, match="NaN"):
        auroc([0, 1, 1], [0.2, float("nan"), 0.9])


def test_roc_orders_infinite_scores():
    curve = roc_curve([0, 1, 0, 1], [-np.inf, np.inf, 0.5, np.inf])
    assert curve.thresholds == [np.inf, np.inf, 0.5, -np.inf]
    assert curve.points == [(0.0, 0.0), (0.0, 1.0), (0.5, 1.0), (1.0, 1.0)]
    assert auroc([0, 1, 0, 1], [-np.inf, np.inf, 0.5, np.inf]) == 1.0


def _brute_force_roc(labels, scores):
    """One point per distinct score t, descending: the shares of each
    class scoring >= t, after the (0, 0) point at +inf."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    thresholds = [float("inf")] + sorted(set(scores), reverse=True)
    points = [(0.0, 0.0)] + [
        (sum(s >= t for s in neg) / len(neg), sum(s >= t for s in pos) / len(pos))
        for t in thresholds[1:]
    ]
    return points, thresholds


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 1), min_size=2, max_size=40)
    .filter(lambda labels: len(set(labels)) == 2)
    .flatmap(
        lambda labels: st.tuples(
            st.just(labels),
            st.one_of(
                # a five-value alphabet forces ties; free floats mostly do not
                st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                         min_size=len(labels), max_size=len(labels)),
                st.lists(st.floats(allow_nan=False, width=64),
                         min_size=len(labels), max_size=len(labels)),
            ),
        )
    )
)
def test_roc_equals_a_brute_force_sweep_property(case):
    labels, scores = case
    points, thresholds = _brute_force_roc(labels, scores)
    curve = roc_curve(labels, scores)
    assert curve.points == points
    assert curve.thresholds == thresholds


def test_roc_csv_export(tmp_path):
    curve = roc_curve([0, 1], [0.2, 0.9])
    path = tmp_path / "roc.csv"
    curve.to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert lines[1] == "inf,0,0"
    assert len(lines) == 1 + len(curve.points)


# -- AUROC identity -----------------------------------------------------------------

def test_auroc_equals_mann_whitney_on_random_instances(rng):
    for trial in range(100):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid of score values forces plenty of exact ties
        scores = rng.integers(0, 5, size=n) / 4.0
        assert auroc(labels, scores) == pytest.approx(
            _mann_whitney(labels, scores), abs=1e-12
        ), f"trial {trial}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(
        # a five-value score alphabet forces ties within and across classes
        st.tuples(st.integers(0, 1), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
        min_size=2,
        max_size=40,
    ).filter(lambda pairs: len({label for label, _ in pairs}) == 2)
)
def test_auroc_equals_mann_whitney_under_ties_property(pairs):
    labels, scores = (np.array(column) for column in zip(*pairs))
    assert auroc(labels, scores) == pytest.approx(_mann_whitney(labels, scores), abs=1e-12)


def test_auroc_is_rank_invariant(rng):
    labels = rng.integers(0, 2, size=60)
    labels[:2] = [0, 1]
    scores = rng.normal(size=60)
    base = auroc(labels, scores)
    assert auroc(labels, np.exp(scores)) == pytest.approx(base, abs=1e-12)
    assert auroc(labels, 1000.0 * scores - 5.0) == pytest.approx(base, abs=1e-12)


def test_auroc_label_flip_symmetry(rng):
    labels = rng.integers(0, 2, size=60)
    labels[:2] = [0, 1]
    scores = rng.normal(size=60)
    assert auroc(1 - labels, scores) == pytest.approx(1.0 - auroc(labels, scores), abs=1e-12)


def test_auroc_perfect_and_inverted():
    labels = [0, 0, 1, 1]
    assert auroc(labels, [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert auroc(labels, [0.9, 0.8, 0.2, 0.1]) == 0.0


# -- reports -----------------------------------------------------------------------

def test_grouped_report_structure(rng):
    labels = np.array([1, 0, 1, 0, 1, 0])
    scores = np.array([0.9, 0.2, 0.7, 0.6, 0.3, 0.1])
    groups = ["female", "female", "female", "male", "male", "male"]
    report = evaluate_scores(labels, scores, threshold=0.5, groups=groups)
    assert report["auroc"] == pytest.approx(auroc(labels, scores))
    assert set(report["groups"]) == {"female", "male"}
    for sub in report["groups"].values():
        assert "auroc" not in sub  # per-group AUROC deliberately omitted
        assert "metrics" in sub and "confusion" in sub
    assert report["groups"]["female"]["n"] == 3


def test_grouped_report_flags_single_class_total():
    labels = np.ones(4, dtype=int)
    scores = np.array([0.6, 0.7, 0.8, 0.9])
    report = evaluate_scores(labels, scores, threshold=0.5)
    assert report["single_class"] is True
    assert "auroc" not in report


def test_evaluate_scores_threshold():
    labels = np.array([1, 0, 1, 0])
    scores = np.array([0.55, 0.45, 0.35, 0.65])
    low = evaluate_scores(labels, scores, threshold=0.3)
    mid = evaluate_scores(labels, scores, threshold=0.5)
    assert low["confusion"] == {"tp": 2, "fp": 2, "tn": 0, "fn": 0}
    assert mid["confusion"] == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}
    assert mid["threshold"] == 0.5
    # threshold is a >= cut
    exact = evaluate_scores(labels, scores, threshold=0.55)
    assert exact["confusion"]["tp"] == 1
