"""Spans around the calls into each module of the program, recorded from
outside it.

A `Tracer` replaces each traced name in the namespace its caller looks it
up in with a wrapper that records a span (name, start, end, parent,
iteration) and any counts, and puts every original back on `uninstall`.
Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import csv
import importlib
import os
import time
from collections import defaultdict
from pathlib import Path

from stats import Span

# A counter sees (tracer, args, kwargs, result) after the call returns.


def _parse_counts(tr, a, kw, res):
    events, errors = res
    tr.add("ehr_core.parse_table.rows", len(events))
    tr.add("ehr_core.parse_table.row_errors", len(errors))


def _encounters(tr, a, kw, res):
    tr.add("synth.encounters", len(res.encounters))


def _file_bytes(key):
    def count(tr, a, kw, res):
        tr.add(key, os.path.getsize(a[0] if a else kw["path"]))

    return count


def _epochs(tr, a, kw, res):
    _params, log = res
    tr.add("train.epochs", len(log.epochs))


def _ig_points(tr, a, kw, res):
    steps = a[3] if len(a) > 3 else kw.get("steps", 128)
    tr.add("attribution.ig_points", steps)


def _input_rows(tr, a, kw, res):
    probs, _grads = res
    tr.add("nnet.lstm_input_gradients.rows", len(probs))


def _encounter_seen(tr, a, kw, res):
    enc = a[0] if a else kw["enc"]
    tr.encounters[id(enc)] = enc


#: (module, attribute, span name, counter or None). Methods are given as
#: "Class.method" and are replaced on the class.
TRACED = (
    ("htnrisk.synth", "generate_cohort", "synth.generate_cohort", _encounters),
    ("htnrisk.synth", "write_cohort", "synth.write_cohort", None),
    ("htnrisk.cli", "parse_table", "ehr_core.parse_table", _parse_counts),
    ("htnrisk.cli", "merge_patient_timeline", "ehr_core.merge_patient_timeline", None),
    ("htnrisk.cli", "select_cohort", "cohort.select_cohort", None),
    ("htnrisk.cli", "cohort_to_dict", "cohort.cohort_to_dict", None),
    ("htnrisk.cli", "cohort_from_dict", "cohort.cohort_from_dict", None),
    ("htnrisk.cli", "write_json", "artifacts.write_json", _file_bytes("artifacts.write_json.bytes")),
    ("htnrisk.artifacts", "write_json", "artifacts.write_json", _file_bytes("artifacts.write_json.bytes")),
    ("htnrisk.cli", "write_manifest", "artifacts.write_manifest", None),
    ("htnrisk.cli", "read_json", "artifacts.read_json", _file_bytes("artifacts.read_json.bytes")),
    ("htnrisk.artifacts", "read_json", "artifacts.read_json", _file_bytes("artifacts.read_json.bytes")),
    ("htnrisk.featurize", "fit_schema", "featurize.fit_schema", None),
    ("htnrisk.featurize", "featurize_sequences", "featurize.featurize_sequences", None),
    ("htnrisk.featurize", "featurize_lr", "featurize.featurize_lr", None),
    ("htnrisk.featurize", "transform_record", "featurize.transform_record", _encounter_seen),
    ("htnrisk.train", "lstm_loss_and_grads", "nnet.lstm_loss_and_grads", None),
    ("htnrisk.train", "lr_loss_and_grads", "nnet.lr_loss_and_grads", None),
    ("htnrisk.nnet", "lstm_forward", "nnet.lstm_forward", None),
    ("htnrisk.nnet", "lstm_backward", "nnet.lstm_backward", None),
    ("htnrisk.nnet", "sigmoid", "nnet.sigmoid", None),
    ("htnrisk.attribution", "lstm_input_gradients", "nnet.lstm_input_gradients", _input_rows),
    ("htnrisk.train", "train_model", "train.train_model", _epochs),
    ("htnrisk.train", "adam_step", "train.optimizer_step", None),
    ("htnrisk.train", "rmsprop_step", "train.optimizer_step", None),
    ("htnrisk.nnet", "LstmParams.to_vector", "train.param_copy", None),
    ("htnrisk.nnet", "LstmParams.from_vector", "train.param_copy", None),
    ("htnrisk.nnet", "LrParams.to_vector", "train.param_copy", None),
    ("htnrisk.nnet", "LrParams.from_vector", "train.param_copy", None),
    ("htnrisk.evaluate", "evaluate_scores", "evaluate.evaluate_scores", None),
    ("htnrisk.evaluate", "roc_curve", "evaluate.roc_curve", None),
    ("htnrisk.evaluate", "carry_forward_baseline", "evaluate.carry_forward_baseline", None),
    ("htnrisk.attribution", "population_attributions", "attribution.population_attributions", None),
    ("htnrisk.attribution", "integrated_gradients", "attribution.integrated_gradients", _ig_points),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.iteration = 0
        self.encounters: dict[int, object] = {}  # distinct encounters of the open stage
        self.distinct_encounters = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.iteration))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.calls[name] += 1
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def stage(self, name: str, run):
        """Run one CLI stage as a root span; returns its exit code."""
        index = self.open(name)
        try:
            return run()
        finally:
            self.close(index)
            self.distinct_encounters += len(self.encounters)
            self.encounters.clear()

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, plan=TRACED) -> None:
        try:
            for module_name, attr, name, counter in plan:
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[attr]
                    if isinstance(original, classmethod):
                        replacement = classmethod(self._wrap(original.__func__, name, counter))
                    else:
                        replacement = self._wrap(original, name, counter)
                else:
                    original = getattr(owner, attr)
                    replacement = self._wrap(original, name, counter)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, replacement)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def write(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["index", "name", "start", "end", "parent", "iteration"])
            for index, span in enumerate(self.spans):
                writer.writerow(
                    [index, span.name, repr(span.start), repr(span.end), span.parent, span.iteration]
                )
