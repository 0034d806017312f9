"""Cohort selection: exclusion rules, labeling, sample pairing, and splits.

A patient's encounter timeline passes through a fixed exclusion cascade,
then every encounter with a usable blood-pressure reading that follows its
predecessor by at most 90 days becomes a prediction target; the history is
everything strictly before it. Splits are patient-disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import IntEnum
from pathlib import Path
from typing import Iterable

import numpy as np

from .artifacts import (
    BOOL, INTEGER, LIST, OBJECT, STRING, canonical_json, derive_seed, require, require_each,
    require_format, require_keys, write_csv,
)
from .ehr_core import DataError, EncounterRecord, PatientId, encounter_from_dict, encounter_to_dict

SYSTOLIC_THRESHOLD = 140.0  # mmHg, label boundary (inclusive)
DIASTOLIC_THRESHOLD = 90.0  # mmHg, label boundary (inclusive)
SYSTOLIC_FLOOR = 90.0  # below this a reading is treated as a device error
DIASTOLIC_FLOOR = 60.0
HORIZON_DAYS = 90  # prediction window: target visit at most this far out
AGE_MIN = 18.0
AGE_MAX = 90.0
MIN_RECORDS_PER_YEAR = 2

#: Exclusion cascade, applied in order; a patient is tallied under the
#: first rule that matches.
EXCLUSION_RULES = ("deceased", "age", "records_per_year", "no_vitals", "last_gap_90d")

SPLIT_NAMES = ("train", "validation", "test")
DEFAULT_SPLIT_FRACTIONS = (0.72, 0.13, 0.15)


class BpStatus(IntEnum):
    CONTROLLED = 0
    UNCONTROLLED = 1


def label_bp_status(systolic: float | None, diastolic: float | None) -> BpStatus | None:
    """Label a reading pair; None when either reading is absent.

    Uncontrolled means systolic >= 140 or diastolic >= 90, boundary
    inclusive.
    """
    if systolic is None or diastolic is None:
        return None
    if systolic >= SYSTOLIC_THRESHOLD or diastolic >= DIASTOLIC_THRESHOLD:
        return BpStatus.UNCONTROLLED
    return BpStatus.CONTROLLED


def compute_bp_fraction(systolic: float | None, diastolic: float | None) -> float | None:
    """Systolic over diastolic; None when either reading is absent."""
    if systolic is None or diastolic is None:
        return None
    return systolic / diastolic


def exclude_bp_reading_errors(
    encounters: list[EncounterRecord],
) -> list[EncounterRecord]:
    """Drop encounters whose readings fall below the device-error floor.

    The rule fires only when both readings are present; systolic < 90 or
    diastolic < 60 marks the pair as an error. Encounters with absent BP
    pass through untouched.
    """
    kept = []
    for enc in encounters:
        if enc.systolic is not None and enc.diastolic is not None:
            if enc.systolic < SYSTOLIC_FLOOR or enc.diastolic < DIASTOLIC_FLOOR:
                continue
        kept.append(enc)
    return kept


def _fiscal_year(when: date, start_month: int) -> int:
    # A fiscal year is labeled by the calendar year it starts in.
    if when.month >= start_month:
        return when.year
    return when.year - 1


def _exclusion_rule(timeline: list[EncounterRecord], fiscal_year_start: int) -> str | None:
    """Name of the first exclusion rule matching this patient, else None."""
    if not timeline:
        return "last_gap_90d"
    if any(enc.deceased for enc in timeline):
        return "deceased"
    age = timeline[-1].age  # age at the most recent encounter
    if age > AGE_MAX or age < AGE_MIN:
        return "age"
    per_year: dict[int, int] = {}
    for enc in timeline:
        year = _fiscal_year(enc.date, fiscal_year_start)
        per_year[year] = per_year.get(year, 0) + 1
    if all(count < MIN_RECORDS_PER_YEAR for count in per_year.values()):
        return "records_per_year"
    if not any(enc.has_vitals() for enc in timeline):
        return "no_vitals"
    if len(timeline) < 2:
        return "last_gap_90d"
    last_gap = (timeline[-1].date - timeline[-2].date).days
    if last_gap > HORIZON_DAYS:
        return "last_gap_90d"
    return None


def check_fiscal_year_start(month: int) -> None:
    """A fiscal year starts in a month, 1..12; anything else is a ValueError."""
    if not 1 <= month <= 12:
        raise ValueError(f"fiscal year start month must be in 1..12, got {month}")


def apply_cohort_exclusions(
    timelines: dict[PatientId, list[EncounterRecord]],
    fiscal_year_start: int = 1,
) -> tuple[dict[PatientId, list[EncounterRecord]], dict[str, int]]:
    """Filter patients through the exclusion cascade.

    Returns the included timelines and a tally mapping each rule name to
    the number of patients it removed (each patient counted once, under
    the first matching rule). `fiscal_year_start` is a month, 1..12.
    """
    check_fiscal_year_start(fiscal_year_start)
    included: dict[PatientId, list[EncounterRecord]] = {}
    tally = {rule: 0 for rule in EXCLUSION_RULES}
    for patient, timeline in timelines.items():
        rule = _exclusion_rule(timeline, fiscal_year_start)
        if rule is None:
            included[patient] = timeline
        else:
            tally[rule] += 1
    return included, tally


def write_exclusion_report(
    tally: dict[str, int], total_patients: int, path
) -> None:
    """CSV mirror of the exclusion cascade: rule,excluded_count,remaining_count."""
    rows, remaining = [], total_patients
    for rule in EXCLUSION_RULES:
        remaining -= tally[rule]
        rows.append([rule, tally[rule], remaining])
    write_csv(path, ["rule", "excluded_count", "remaining_count"], rows)


@dataclass
class CohortSample:
    """One (history, 90-day target) pair.

    `history` holds every encounter strictly before the target, oldest
    first; `final` marks the patient's last qualifying pair, the one used
    for test-time evaluation.
    """

    patient: PatientId
    history: list[EncounterRecord]
    target_date: date
    label: BpStatus
    sex: str
    target_index: int  # position of the target in the patient timeline
    final: bool = False


def build_samples(
    timeline: list[EncounterRecord], horizon_days: int = HORIZON_DAYS
) -> list[CohortSample]:
    """Emit a sample for every labelable encounter within the horizon.

    An encounter qualifies as a target when its BP pair is labelable and
    its gap to the immediately preceding encounter is at most
    `horizon_days`. The last qualifying sample is flagged `final`.
    """
    samples: list[CohortSample] = []
    for idx in range(1, len(timeline)):
        target = timeline[idx]
        label = label_bp_status(target.systolic, target.diastolic)
        if label is None:
            continue
        gap = (target.date - timeline[idx - 1].date).days
        if gap > horizon_days:
            continue
        samples.append(
            CohortSample(
                patient=target.patient,
                history=timeline[:idx],
                target_date=target.date,
                label=label,
                sex=target.sex,
                target_index=idx,
            )
        )
    if samples:
        samples[-1].final = True
    return samples


def check_horizon(days: int) -> None:
    """A target window is at least one day; anything shorter is a ValueError."""
    if days < 1:
        raise ValueError(f"horizon must be at least 1 day, got {days}")


def check_split_fractions(fractions) -> None:
    """One non-negative fraction per split, summing to 1; else a ValueError."""
    if len(fractions) != len(SPLIT_NAMES):
        raise ValueError(
            f"expected {len(SPLIT_NAMES)} comma-separated fractions, got {len(fractions)}"
        )
    if not (all(f >= 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9):  # NaN fails
        raise ValueError(f"fractions must be non-negative and sum to 1, got {fractions}")


def split_patients(
    patients: list[PatientId],
    fractions: tuple[float, float, float] = DEFAULT_SPLIT_FRACTIONS,
    seed: int = 0,
) -> dict[PatientId, str]:
    """Assign each patient to train/validation/test, deterministically.

    Sizes are floor(fraction * n) with leftovers handed to the splits in
    declaration order. Assignment shuffles the sorted patient list with a
    seeded generator, so the same call always yields the same mapping.
    """
    check_split_fractions(fractions)
    if not patients:
        raise DataError("empty cohort: no patients to split")
    ordered = sorted(patients)
    rng = np.random.default_rng(derive_seed(seed, "split"))
    perm = rng.permutation(len(ordered))
    counts = [int(len(ordered) * f) for f in fractions]
    leftover = len(ordered) - sum(counts)
    for i in range(leftover):
        counts[i % len(counts)] += 1
    assignment: dict[PatientId, str] = {}
    cursor = 0
    for name, count in zip(SPLIT_NAMES, counts):
        for k in perm[cursor : cursor + count]:
            assignment[ordered[k]] = name
        cursor += count
    return assignment


@dataclass
class Cohort:
    """Selected cohort: filtered timelines, samples, splits, and the tally."""

    timelines: dict[PatientId, list[EncounterRecord]]
    samples: list[CohortSample]
    splits: dict[PatientId, str]
    exclusion_tally: dict[str, int]
    total_patients: int  # before exclusions
    horizon_days: int = HORIZON_DAYS

    def samples_in(self, split: str) -> list[CohortSample]:
        return [s for s in self.samples if self.splits[s.patient] == split]

    def evaluation_samples(self, split: str) -> list[CohortSample]:
        """The per-patient final qualifying samples of one split."""
        return [s for s in self.samples_in(split) if s.final]


def select_patients(
    timelines: dict[PatientId, list[EncounterRecord]],
    horizon_days: int = HORIZON_DAYS,
    fiscal_year_start: int = 1,
) -> Cohort:
    """The per-patient step of `select_cohort`: error floor, exclusions and
    samples. What it keeps of a patient depends on that patient's timeline
    alone, so it may run on any subset of the patients. The returned cohort
    has no splits yet, and may have no patients."""
    check_horizon(horizon_days)
    filtered = {
        patient: exclude_bp_reading_errors(stream) for patient, stream in timelines.items()
    }
    included, tally = apply_cohort_exclusions(filtered, fiscal_year_start)
    samples: list[CohortSample] = []
    with_samples: dict[PatientId, list[EncounterRecord]] = {}
    for patient in sorted(included):
        patient_samples = build_samples(included[patient], horizon_days)
        if patient_samples:
            with_samples[patient] = included[patient]
            samples.extend(patient_samples)
    return Cohort(
        timelines=with_samples,
        samples=samples,
        splits={},
        exclusion_tally=tally,
        total_patients=len(timelines),
        horizon_days=horizon_days,
    )


def select_cohort(
    timelines: dict[PatientId, list[EncounterRecord]],
    seed: int = 0,
    fractions: tuple[float, float, float] = DEFAULT_SPLIT_FRACTIONS,
    horizon_days: int = HORIZON_DAYS,
    fiscal_year_start: int = 1,
) -> Cohort:
    """Run the full selection: `select_patients`, then `split_patients`
    over all of its survivors."""
    cohort = select_patients(timelines, horizon_days, fiscal_year_start)
    if not cohort.timelines:
        raise DataError("empty cohort after exclusions")
    cohort.splits = split_patients(list(cohort.timelines), fractions, seed)
    return cohort


# -- samples artifact ---------------------------------------------------------
# Timelines are stored once per patient; each sample is a (patient,
# target_index) reference, so the file stays linear in cohort size.

SAMPLES_FORMAT = "htnrisk-samples/1"

#: The JSON types of the keys of the samples file, of a patient entry, and
#: of a sample row after its patient.
_FILE_KINDS = {"horizon_days": INTEGER, "total_patients": INTEGER, "exclusion_tally": OBJECT,
               "patients": OBJECT, "samples": LIST}
_ENTRY_KINDS = {"split": STRING, "encounters": LIST}
_ROW_KINDS = {"target_index": INTEGER, "label": INTEGER, "final": BOOL}


def sample_rows(samples: list[CohortSample]) -> list[dict]:
    """The rows of the samples file's `samples` list, in sample order."""
    return [
        {"patient": s.patient, "target_index": s.target_index, "label": int(s.label),
         "final": s.final}
        for s in samples
    ]


def cohort_to_dict(cohort: Cohort) -> dict:
    patients = {}
    for patient in sorted(cohort.timelines):
        patients[patient] = {
            "split": cohort.splits[patient],
            "encounters": [encounter_to_dict(e) for e in cohort.timelines[patient]],
        }
    return {
        "format": SAMPLES_FORMAT,
        "horizon_days": cohort.horizon_days,
        "total_patients": cohort.total_patients,
        "exclusion_tally": dict(cohort.exclusion_tally),
        "patients": patients,
        "samples": sample_rows(cohort.samples),
    }


def write_samples(
    path, horizon_days: int, total_patients: int, tally: dict[str, int],
    patients: Iterable[tuple[PatientId, str, bytes]], sample_lists: Iterable[bytes],
) -> None:
    """Write the samples file of a cohort from its parts, byte for byte as
    `canonical_json(cohort_to_dict(cohort)) + "\n"`, without joining it.

    `patients` yields (patient, split, encounters) in sorted patient order,
    `encounters` being the UTF-8 canonical JSON of the list of its
    `encounter_to_dict` forms. `sample_lists` yields the UTF-8 canonical
    JSON of lists of `sample_rows`, which run on from one to the next.
    """
    def text(value) -> bytes:
        return canonical_json(value).encode("utf-8")

    with Path(path).open("wb") as handle:
        # The keys in canonical_json's sorted order.
        handle.write(b'{"exclusion_tally":%s,"format":%s,"horizon_days":%d,"patients":{' % (
            text(tally), text(SAMPLES_FORMAT), horizon_days))
        separator = b""
        for patient, split, encounters in patients:
            handle.write(b'%s%s:{"encounters":%s,"split":%s}' % (
                separator, text(patient), encounters, text(split)))
            separator = b","
        handle.write(b'},"samples":[')
        separator = b""
        for rows in sample_lists:
            if rows != b"[]":
                handle.write(separator)
                handle.write(rows[1:-1])
                separator = b","
        handle.write(b'],"total_patients":%d}\n' % total_patients)


def cohort_from_dict(data: dict, splits: tuple[str, ...] = SPLIT_NAMES) -> Cohort:
    """Inverse of cohort_to_dict, decoding only the patients of `splits`.

    The returned cohort holds those patients' timelines, split assignments
    and samples. Every patient entry and sample row of the file is still
    checked: a missing key or a value of another JSON type in the top level,
    a patient entry or a sample row, a horizon below one day, a tally whose
    keys are not EXCLUSION_RULES or whose counts are not non-negative
    integers, a total below the patients plus the excluded, an unknown
    split name, a sample of an unknown patient, a target index outside its
    patient's timeline (or at 0, which leaves no history) and a label other
    than 0 or 1 are each a DataError, as is an encounter that
    `encounter_from_dict` rejects among the decoded ones.
    """
    require_format(data, SAMPLES_FORMAT, "samples")
    horizon_days, total_patients, tally, patients, rows = require_keys(
        data, _FILE_KINDS, "samples file")
    if horizon_days < 1:
        raise DataError(f"samples file horizon_days must be at least 1, got {horizon_days}")
    require_each(tally, INTEGER, "samples file exclusion_tally")
    if sorted(tally) != sorted(EXCLUSION_RULES):
        raise DataError(
            f"samples file exclusion_tally has keys {sorted(tally)}, "
            f"expected {sorted(EXCLUSION_RULES)}"
        )
    for rule, count in tally.items():
        if count < 0:
            raise DataError(f"samples file exclusion_tally {rule} {count} is negative")
    excluded = sum(tally.values())
    if total_patients < len(patients) + excluded:
        raise DataError(
            f"samples file total_patients {total_patients} is less than its "
            f"{len(patients)} patients plus {excluded} excluded"
        )
    lengths = {}
    timelines = {}
    kept_splits = {}
    for patient, entry in patients.items():
        split, encounters = require_keys(entry, _ENTRY_KINDS, f"patient {patient}: entry")
        if split not in SPLIT_NAMES:
            raise DataError(f"patient {patient}: unknown split {split!r}")
        lengths[patient] = len(encounters)
        if split in splits:
            try:
                timelines[patient] = [encounter_from_dict(e) for e in encounters]
            except DataError as err:
                raise DataError(f"patient {patient}: {err}") from None
            kept_splits[patient] = split
    samples = []
    for row in rows:
        patient = require(row, "patient", STRING, "sample")
        if patient not in lengths:
            raise DataError(f"sample of unknown patient {patient!r}")
        idx, label, final = require_keys(row, _ROW_KINDS, f"patient {patient}:")
        if not 1 <= idx < lengths[patient]:
            raise DataError(
                f"patient {patient}: target_index {idx!r} outside 1..{lengths[patient] - 1}"
            )
        if label not in (0, 1):
            raise DataError(f"patient {patient}: label {label!r} is not 0 or 1")
        timeline = timelines.get(patient)
        if timeline is None:
            continue
        target = timeline[idx]
        samples.append(
            CohortSample(
                patient=patient,
                history=timeline[:idx],
                target_date=target.date,
                label=BpStatus(label),
                sex=target.sex,
                target_index=idx,
                final=final,
            )
        )
    return Cohort(
        timelines=timelines,
        samples=samples,
        splits=kept_splits,
        exclusion_tally=dict(tally),
        total_patients=total_patients,
        horizon_days=horizon_days,
    )
