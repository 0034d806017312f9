"""Typed domain records and CSV ingestion for longitudinal EHR tables.

Four source tables feed the pipeline: encounters, medication orders, lab
panel orders, and diagnoses. Parsing validates row by row and collects
malformed rows into a machine-readable error report instead of aborting;
`merge_patient_timeline` then joins the order tables onto the encounter
stream as per-date binary indicators.
"""

from __future__ import annotations

import csv
import io
import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Iterable

from .artifacts import (
    BOOL, LIST, NULL, NUMBER, OBJECT, STRING, DataError, canonical_json, format_number,
    require_each, require_keys, write_csv,
)

PatientId = str

#: Vital-sign columns of encounters.csv, in file order.
VITAL_NAMES = (
    "pulse",
    "height",
    "weight",
    "bmi",
    "temperature",
    "respiratory_rate",
    "heart_rate",
    "fatigue",
)

#: Demographic columns of encounters.csv, in file order.
DEMOGRAPHIC_NAMES = ("race", "marital_status", "language", "smoking")

ENCOUNTER_COLUMNS = (
    ["patient_id", "date", "systolic", "diastolic"]
    + list(VITAL_NAMES)
    + ["sex", "age"]
    + list(DEMOGRAPHIC_NAMES)
    + ["diagnosis_code", "deceased"]
)
MEDICATION_COLUMNS = ["patient_id", "date", "drug_name"]
LAB_COLUMNS = ["patient_id", "date", "panel_name"]
DIAGNOSIS_COLUMNS = ["patient_id", "date", "code", "is_principal"]

TABLE_COLUMNS = {
    "encounters": ENCOUNTER_COLUMNS,
    "medications": MEDICATION_COLUMNS,
    "labs": LAB_COLUMNS,
    "diagnoses": DIAGNOSIS_COLUMNS,
}


class MedicationCategory(str, Enum):
    """Antihypertensive drug families used as binary indicator features."""

    ACE_INHIBITOR = "ACEInhibitor"
    DIURETIC = "Diuretic"
    BETA_BLOCKER = "BetaBlocker"
    ANTIHYPERTENSIVE = "Antihypertensive"
    CALCIUM_CHANNEL_BLOCKER = "CalciumChannelBlocker"
    VASODILATOR = "Vasodilator"
    OTHER = "Other"


# Family membership list. A drug may belong to several families
# (e.g. nifedipine), in which case it maps to all of them.
_DRUG_FAMILIES: dict[MedicationCategory, tuple[str, ...]] = {
    MedicationCategory.ACE_INHIBITOR: ("lisinopril", "benazepril"),
    MedicationCategory.DIURETIC: (
        "hydrochlorothiazide",
        "triamterene",
        "chlorothiazide",
        "hydrochlorothiazide/lisinopril",
        "chlortalidone",
    ),
    MedicationCategory.BETA_BLOCKER: (
        "atenolol",
        "metoprolol",
        "nadolol",
        "labetalol",
        "bisoprolol",
        "carvedilol",
    ),
    MedicationCategory.ANTIHYPERTENSIVE: (
        "nifedipine",
        "irbesartan",
        "candesartan",
        "felodipine",
        "valsartan",
        "hydrochlorothiazide/losartan",
        "telmisartan",
        "hydrochlorothiazide/lisinopril",
        "losartan",
        "chlortalidon",
    ),
    MedicationCategory.CALCIUM_CHANNEL_BLOCKER: ("amlodipine", "nifedipine"),
    MedicationCategory.VASODILATOR: ("hydralazine",),
}

_CATEGORIES_BY_DRUG: dict[str, frozenset[MedicationCategory]] = {}
for _cat, _drugs in _DRUG_FAMILIES.items():
    for _drug in _drugs:
        _CATEGORIES_BY_DRUG[_drug] = _CATEGORIES_BY_DRUG.get(_drug, frozenset()) | {_cat}


def normalize_drug_name(name: str) -> str:
    """Lowercase, collapse whitespace, and strip spaces around '/'."""
    name = re.sub(r"\s+", " ", name.strip().lower())
    return re.sub(r"\s*/\s*", "/", name)


def categorize_medication(drug_name: str) -> frozenset[MedicationCategory]:
    """Map a drug name to its families; unlisted drugs map to {Other}.

    Matching is exact on the normalized lowercase name: reproducibility
    over recall, no fuzzy matching.
    """
    return _CATEGORIES_BY_DRUG.get(
        normalize_drug_name(drug_name), frozenset({MedicationCategory.OTHER})
    )


@dataclass
class EncounterRecord:
    """One patient visit with vitals, BP readings, and attached indicators.

    `med_categories`, `lab_panels`, and `problems` start empty and are
    filled by `merge_patient_timeline` from the order tables.
    """

    patient: PatientId
    date: date
    sex: str  # "male" | "female"
    age: float
    systolic: float | None = None
    diastolic: float | None = None
    vitals: dict[str, float] = field(default_factory=dict)
    demographics: dict[str, str] = field(default_factory=dict)
    diagnosis_code: str | None = None
    deceased: bool = False
    med_categories: set[str] = field(default_factory=set)
    lab_panels: set[str] = field(default_factory=set)
    problems: set[str] = field(default_factory=set)

    def has_vitals(self) -> bool:
        """True if the visit recorded any vital sign, BP included."""
        return self.systolic is not None or self.diastolic is not None or bool(self.vitals)


@dataclass
class MedicationEvent:
    patient: PatientId
    date: date
    drug_name: str  # normalized lowercase


@dataclass
class LabOrderEvent:
    patient: PatientId
    date: date
    panel_name: str


@dataclass
class DiagnosisEvent:
    patient: PatientId
    date: date
    code: str
    is_principal: bool


@dataclass
class RowError:
    """One malformed row, reported instead of raised."""

    row: int  # 1-based file line where the record starts (header = line 1)
    table: str
    message: str


@dataclass
class MergeStats:
    """Events dropped because no encounter exists on or before their date."""

    dropped_medications: int = 0
    dropped_labs: int = 0
    dropped_diagnoses: int = 0


def _parse_date(cell: str) -> date:
    try:
        return date.fromisoformat(cell)
    except ValueError:
        raise ValueError(f"invalid date {cell!r}")


def _parse_float(cell: str, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"unparseable numeric {cell!r} in column {column}")
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric {cell!r} in column {column}")
    return value


_SEX_CODES = {"M": "male", "F": "female"}


def _parse_encounter_row(row: dict[str, str]) -> EncounterRecord:
    patient = row["patient_id"].strip()
    if not patient:
        raise ValueError("empty patient_id")
    when = _parse_date(row["date"])
    sex_code = row["sex"].strip()
    if sex_code not in _SEX_CODES:
        raise ValueError(f"unknown sex code {sex_code!r}")
    age = _parse_float(row["age"], "age")
    if not 0 <= age <= 130:
        raise ValueError(f"age {age} outside [0, 130]")

    def opt(column: str) -> float | None:
        cell = row[column].strip()
        return None if cell == "" else _parse_float(cell, column)

    systolic = opt("systolic")
    diastolic = opt("diastolic")
    if systolic is not None and systolic <= 0:
        raise ValueError(f"non-positive systolic {systolic}")
    if diastolic is not None and diastolic <= 0:
        raise ValueError(f"non-positive diastolic {diastolic}")
    vitals = {name: v for name in VITAL_NAMES if (v := opt(name)) is not None}
    demographics = {
        name: row[name].strip() for name in DEMOGRAPHIC_NAMES if row[name].strip() != ""
    }
    deceased_cell = row["deceased"].strip()
    if deceased_cell not in ("0", "1"):
        raise ValueError(f"deceased must be 0 or 1, got {deceased_cell!r}")
    return EncounterRecord(
        patient=patient,
        date=when,
        sex=_SEX_CODES[sex_code],
        age=age,
        systolic=systolic,
        diastolic=diastolic,
        vitals=vitals,
        demographics=demographics,
        diagnosis_code=row["diagnosis_code"].strip() or None,
        deceased=deceased_cell == "1",
    )


def _parse_medication_row(row: dict[str, str]) -> MedicationEvent:
    patient = row["patient_id"].strip()
    drug = normalize_drug_name(row["drug_name"])
    if not patient:
        raise ValueError("empty patient_id")
    if not drug:
        raise ValueError("empty drug_name")
    return MedicationEvent(patient=patient, date=_parse_date(row["date"]), drug_name=drug)


def _parse_lab_row(row: dict[str, str]) -> LabOrderEvent:
    patient = row["patient_id"].strip()
    panel = row["panel_name"].strip()
    if not patient:
        raise ValueError("empty patient_id")
    if not panel:
        raise ValueError("empty panel_name")
    return LabOrderEvent(patient=patient, date=_parse_date(row["date"]), panel_name=panel)


def _parse_diagnosis_row(row: dict[str, str]) -> DiagnosisEvent:
    patient = row["patient_id"].strip()
    code = row["code"].strip()
    if not patient:
        raise ValueError("empty patient_id")
    if not code:
        raise ValueError("empty code")
    flag = row["is_principal"].strip()
    if flag not in ("0", "1"):
        raise ValueError(f"is_principal must be 0 or 1, got {flag!r}")
    return DiagnosisEvent(
        patient=patient, date=_parse_date(row["date"]), code=code, is_principal=flag == "1"
    )


_ROW_PARSERS = {
    "encounters": _parse_encounter_row,
    "medications": _parse_medication_row,
    "labs": _parse_lab_row,
    "diagnoses": _parse_diagnosis_row,
}


def patient_ids(path: str | Path) -> list[PatientId]:
    """The sorted distinct stripped `patient_id` cells of the table at
    `path`, from every row that reaches that column. Raises nothing: a file
    that cannot be read as a table with that column gives no ids, and
    `parse_table` reports why."""
    try:
        with Path(path).open(newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            column = _id_column(next(reader, []))
            return sorted({cells[column].strip() for cells in reader if len(cells) > column})
    except (OSError, ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return []


def _id_column(header: list[str]) -> int:
    # The last one: a row parser reads dict(zip(header, cells)), where a
    # repeated column's last cell wins. A ValueError without the column.
    return len(header) - 1 - header[::-1].index("patient_id")


def parse_table(
    path: str | Path, kind: str, low: PatientId | None = None, high: PatientId | None = None
) -> tuple[list, list[RowError]]:
    """Parse one CSV table into typed events plus a row-level error report.

    A missing header column, text that is not UTF-8, or a record the
    `csv` module cannot read, such as a cell over its field limit, is
    fatal (DataError, naming the line where the record starts); anything
    wrong with an individual row, including a cell count other than the
    header's, lands in the error list with the 1-based file line where the
    record starts. Extra or reordered columns
    are tolerated, and blank lines are skipped.

    Only rows whose stripped `patient_id` is at least `low` and below
    `high` are parsed or reported; a bound of None leaves that side open.
    A row with another cell count has no id to place it by, so only a
    range without a lower bound reports it. Ranges that partition the ids
    therefore partition the events and the row errors of one full parse.
    """
    if kind not in TABLE_COLUMNS:
        raise DataError(f"unknown table kind {kind!r}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: file not found")
    events: list = []
    errors: list[RowError] = []
    parser = _ROW_PARSERS[kind]
    with path.open(newline="", encoding="utf-8") as handle:
        ended = 0  # the line the previous record ended on
        try:
            reader = csv.reader(handle)
            header = next(reader, [])
            missing = [c for c in TABLE_COLUMNS[kind] if c not in header]
            if missing:
                raise DataError(f"{path}: missing column(s) {', '.join(missing)}")
            width = len(header)
            column = _id_column(header)
            # A record starts on the line after the previous one ends: a
            # quoted cell may span lines.
            ended = reader.line_num
            for cells in reader:
                lineno, ended = ended + 1, reader.line_num
                if not cells:
                    continue
                if len(cells) != width:
                    if low is None:
                        message = f"expected {width} cells, got {len(cells)}"
                        errors.append(RowError(row=lineno, table=kind, message=message))
                    continue
                patient = cells[column].strip()
                if (low is not None and patient < low) or (high is not None and patient >= high):
                    continue
                try:
                    events.append(parser(dict(zip(header, cells))))
                except ValueError as exc:
                    errors.append(RowError(row=lineno, table=kind, message=str(exc)))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path}: line {ended + 1}: {exc}") from None
    return events, errors


def format_rows(events: Iterable, kind: str) -> str:
    """The CSV text of `events` in the canonical column order of `kind`,
    LF-terminated, without the header."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return format_number(value)
        return str(value)

    if kind == "encounters":
        rows = (
            [e.patient, e.date.isoformat(), cell(e.systolic), cell(e.diastolic)]
            + [cell(e.vitals.get(name)) for name in VITAL_NAMES]
            + ["M" if e.sex == "male" else "F", cell(float(e.age))]
            + [e.demographics.get(name, "") for name in DEMOGRAPHIC_NAMES]
            + [e.diagnosis_code or "", "1" if e.deceased else "0"]
            for e in events
        )
    elif kind == "medications":
        rows = ([e.patient, e.date.isoformat(), e.drug_name] for e in events)
    elif kind == "labs":
        rows = ([e.patient, e.date.isoformat(), e.panel_name] for e in events)
    elif kind == "diagnoses":
        rows = (
            [e.patient, e.date.isoformat(), e.code, "1" if e.is_principal else "0"]
            for e in events
        )
    else:
        raise DataError(f"unknown table kind {kind!r}")
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def write_table(path: str | Path, kind: str, bodies: Iterable[bytes]) -> None:
    """Write the header of `kind`, then each UTF-8 `format_rows` text in order."""
    with Path(path).open("wb") as handle:
        handle.write((",".join(TABLE_COLUMNS[kind]) + "\n").encode("utf-8"))
        handle.writelines(bodies)


def write_error_report(errors: Iterable[RowError], path: str | Path) -> None:
    write_csv(path, ["row", "table", "message"], ([e.row, e.table, e.message] for e in errors))


def merge_patient_timeline(
    encounters: Iterable[EncounterRecord],
    medications: Iterable[MedicationEvent] = (),
    labs: Iterable[LabOrderEvent] = (),
    diagnoses: Iterable[DiagnosisEvent] = (),
) -> tuple[dict[PatientId, list[EncounterRecord]], MergeStats]:
    """Build per-patient date-ordered timelines with order indicators.

    Each medication/lab/diagnosis event attaches to the encounter on its
    date, falling back to the most recent prior encounter; events before
    any encounter are dropped and counted. A patient's visits on one date
    are ordered by their `encounter_to_dict` form, so which of them takes
    that date's events does not depend on the row order. Inputs are not
    mutated: the returned encounters are copies with fresh indicator sets.

    Each iterable is read once, to its end, before the next one starts:
    encounters first, then medications, labs and diagnoses. So they may be
    one-shot generators, and a caller can produce each table lazily.
    """
    timelines: dict[PatientId, list[EncounterRecord]] = {}
    for enc in encounters:
        copied = replace(
            enc,
            vitals=dict(enc.vitals),
            demographics=dict(enc.demographics),
            med_categories=set(),
            lab_panels=set(),
            problems=set(),
        )
        timelines.setdefault(enc.patient, []).append(copied)
    for stream in timelines.values():
        stream.sort(key=lambda e: e.date)
        if any(a.date == b.date for a, b in zip(stream, stream[1:])):
            # Visits on one date take the order of their stored form, not
            # of the file: the later one receives that date's order rows.
            stream.sort(key=lambda e: (e.date, canonical_json(encounter_to_dict(e))))

    dates = {pid: [e.date for e in stream] for pid, stream in timelines.items()}
    stats = MergeStats()

    def target(pid: PatientId, when: date) -> EncounterRecord | None:
        stream = timelines.get(pid)
        if not stream:
            return None
        idx = bisect_right(dates[pid], when) - 1
        return stream[idx] if idx >= 0 else None

    for med in medications:
        enc = target(med.patient, med.date)
        if enc is None:
            stats.dropped_medications += 1
        else:
            enc.med_categories.update(c.value for c in categorize_medication(med.drug_name))
    for lab in labs:
        enc = target(lab.patient, lab.date)
        if enc is None:
            stats.dropped_labs += 1
        else:
            enc.lab_panels.add(lab.panel_name)
    # A visit whose encounter row leaves the principal diagnosis blank
    # takes the first principal row mapped to it by (date, code), so the
    # answer does not depend on the order of diagnoses.csv.
    principal: dict[int, tuple[tuple[date, str], EncounterRecord]] = {}
    for diag in diagnoses:
        enc = target(diag.patient, diag.date)
        if enc is None:
            stats.dropped_diagnoses += 1
        else:
            enc.problems.add(diag.code)
            if diag.is_principal and enc.diagnosis_code is None:
                key = (diag.date, diag.code)
                if id(enc) not in principal or key < principal[id(enc)][0]:
                    principal[id(enc)] = (key, enc)
    for (_, code), enc in principal.values():
        enc.diagnosis_code = code
    return timelines, stats


# -- serialization of merged encounters (used by the cohort dataset file) ----

def encounter_to_dict(enc: EncounterRecord) -> dict:
    return {
        "patient": enc.patient,
        "date": enc.date.isoformat(),
        "sex": enc.sex,
        "age": enc.age,
        "systolic": enc.systolic,
        "diastolic": enc.diastolic,
        "vitals": dict(sorted(enc.vitals.items())),
        "demographics": dict(sorted(enc.demographics.items())),
        "diagnosis_code": enc.diagnosis_code,
        "deceased": enc.deceased,
        "med_categories": sorted(enc.med_categories),
        "lab_panels": sorted(enc.lab_panels),
        "problems": sorted(enc.problems),
    }


#: The JSON types of the keys of an encoded encounter, in field order.
_ENCOUNTER_KINDS = {
    "patient": STRING, "date": STRING, "sex": STRING, "age": NUMBER, "systolic": NUMBER | NULL,
    "diastolic": NUMBER | NULL, "vitals": OBJECT, "demographics": OBJECT,
    "diagnosis_code": STRING | NULL, "deceased": BOOL, "med_categories": LIST,
    "lab_panels": LIST, "problems": LIST,
}


def encounter_from_dict(data: dict) -> EncounterRecord:
    """Inverse of encounter_to_dict. A missing key, a value or item of
    another JSON type, and a date that is not ISO are each a DataError."""
    (patient, day, sex, age, systolic, diastolic, vitals, demographics, code, deceased,
     med_categories, lab_panels, problems) = require_keys(data, _ENCOUNTER_KINDS, "encounter")
    require_each(vitals, NUMBER, "encounter vitals")
    require_each(demographics, STRING, "encounter demographics")
    require_each(med_categories, STRING, "encounter med_categories")
    require_each(lab_panels, STRING, "encounter lab_panels")
    require_each(problems, STRING, "encounter problems")
    try:
        when = date.fromisoformat(day)
    except ValueError:
        raise DataError(f"encounter date {day!r} is not an ISO date") from None
    return EncounterRecord(
        patient, when, sex, age, systolic, diastolic, dict(vitals), dict(demographics),
        code, deceased, set(med_categories), set(lab_panels), set(problems),
    )
