"""Evaluation: carry-forward baseline, confusion metrics, ROC, AUROC.

The baseline predicts the most recent observed blood-pressure status.
ROC construction sweeps unique score thresholds in descending order with
ties grouped, so tied scores produce diagonal segments; AUROC is the
trapezoidal area and provably equals the Mann-Whitney statistic with
ties counted one half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import format_number, write_csv
from .cohort import BpStatus, CohortSample, label_bp_status
from .ehr_core import DataError
from .nnet import NumericalError


def carry_forward_baseline(sample: CohortSample) -> tuple[int, float]:
    """Predict the last observed BP status; score is that status as 0/1.

    Walks the history backward to the most recent visit whose reading
    pair is labelable; a history with no readable BP at all is an error.
    """
    for enc in reversed(sample.history):
        status = label_bp_status(enc.systolic, enc.diastolic)
        if status is not None:
            return int(status), float(status)
    raise DataError(f"patient {sample.patient}: no labelable BP in history")


def confusion(labels, predictions) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) with Uncontrolled(1) as the positive class."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ValueError("labels and predictions must have equal length")
    if labels.size == 0:
        raise ValueError("empty input")
    tp = int(np.sum((labels == 1) & (predictions == 1)))
    fp = int(np.sum((labels == 0) & (predictions == 1)))
    tn = int(np.sum((labels == 0) & (predictions == 0)))
    fn = int(np.sum((labels == 1) & (predictions == 0)))
    return tp, fp, tn, fn


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def precision_recall_f1(tp: int, fp: int, tn: int, fn: int) -> dict:
    """Per-class and macro-averaged precision/recall/F1; 0/0 counts as 0."""
    pos = _prf(tp, fp, fn)
    neg = _prf(tn, fn, fp)  # negative class: swap the roles of the counts
    macro = tuple((a + b) / 2 for a, b in zip(pos, neg))
    return {
        "per_class": {
            "0": {"precision": neg[0], "recall": neg[1], "f1": neg[2]},
            "1": {"precision": pos[0], "recall": pos[1], "f1": pos[2]},
        },
        "macro": {"precision": macro[0], "recall": macro[1], "f1": macro[2]},
        "accuracy": (tp + tn) / (tp + fp + tn + fn),
    }


@dataclass
class RocCurve:
    """Threshold sweep: one point per unique score, ends pinned at the corners."""

    points: list[tuple[float, float]]  # (fpr, tpr), both non-decreasing
    thresholds: list[float]  # same length; leading point carries +inf

    def to_csv(self, path) -> None:
        rows = (
            [format_number(threshold), format_number(fpr), format_number(tpr)]
            for threshold, (fpr, tpr) in zip(self.thresholds, self.points)
        )
        write_csv(path, ["threshold", "fpr", "tpr"], rows)


def roc_curve(labels, scores) -> RocCurve:
    """ROC points over descending unique thresholds, tie groups merged.

    One stable sort by descending score; a tie group ends wherever the
    next sorted score differs, and the running class counts at those ends
    are the points. A NaN score has no place in the order, so it is a
    NumericalError; infinite scores order like any other.
    """
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = float(np.sum(labels == 1))
    n_neg = float(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")
    if np.isnan(scores).any():
        raise NumericalError("ROC needs scores that are not NaN")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    ends = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    fpr = np.cumsum(sorted_labels == 0)[ends] / n_neg
    tpr = np.cumsum(sorted_labels == 1)[ends] / n_pos
    return RocCurve(
        points=[(0.0, 0.0)] + list(zip(fpr.tolist(), tpr.tolist())),
        thresholds=[float("inf")] + sorted_scores[ends].tolist(),
    )


def auroc(labels, scores) -> float:
    """Trapezoidal area under the ROC curve.

    Identical to the Mann-Whitney statistic: the probability a random
    positive outscores a random negative, ties counting one half. The
    trapezoids are added left to right: cumsum keeps that order where a
    pairwise np.sum would not, so the area is the float a running total
    gives.
    """
    fpr, tpr = np.array(roc_curve(labels, scores).points).T
    return float(np.cumsum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1])


def _counts(labels, predictions) -> dict:
    """n, confusion and metrics of one subset, flagged `single_class`
    when its labels are."""
    tp, fp, tn, fn = confusion(labels, predictions)
    report = {
        "n": int(labels.size),
        "confusion": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        "metrics": precision_recall_f1(tp, fp, tn, fn),
    }
    if len(set(labels.tolist())) < 2:
        report["single_class"] = True
    return report


def evaluate_scores(labels, scores, threshold: float = 0.5, groups=None) -> dict:
    """Report from continuous scores cut at `threshold`: counts and
    metrics overall and per group, and AUROC on the total unless its
    labels are single-class. Groups never get an AUROC.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    predictions = (scores >= threshold).astype(int)
    report = _counts(labels, predictions)
    if "single_class" not in report:
        report["auroc"] = auroc(labels, scores)
    if groups is not None:
        groups = np.asarray(groups)
        report["groups"] = {
            str(value): _counts(labels[groups == value], predictions[groups == value])
            for value in sorted(set(groups.tolist()))
        }
    report["threshold"] = threshold
    return report
