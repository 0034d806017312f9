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


class DataError(Exception):
    """Fatal data problem: bad header, unreadable file, empty cohort."""


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


def parse_table(path: str | Path, kind: str) -> tuple[list, list[RowError]]:
    """Parse one CSV table into typed events plus a row-level error report.

    A missing header column or text that is not UTF-8 is fatal
    (DataError); anything wrong with an individual row, including a cell
    count other than the header's, lands in the error list with the
    1-based file line where the record starts. Extra or reordered columns
    are tolerated, and blank lines are skipped.
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
        try:
            reader = csv.reader(handle)
            header = next(reader, [])
            missing = [c for c in TABLE_COLUMNS[kind] if c not in header]
            if missing:
                raise DataError(f"{path}: missing column(s) {', '.join(missing)}")
            width = len(header)
            # A record starts on the line after the previous one ends: a
            # quoted cell may span lines.
            ended = reader.line_num
            for cells in reader:
                lineno, ended = ended + 1, reader.line_num
                if not cells:
                    continue
                if len(cells) != width:
                    message = f"expected {width} cells, got {len(cells)}"
                    errors.append(RowError(row=lineno, table=kind, message=message))
                    continue
                try:
                    events.append(parser(dict(zip(header, cells))))
                except ValueError as exc:
                    errors.append(RowError(row=lineno, table=kind, message=str(exc)))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return events, errors


def format_rows(events: Iterable, kind: str) -> str:
    """The CSV text of `events` in the canonical column order of `kind`,
    LF-terminated, without the header."""
    from .artifacts import format_number

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


def write_table(path: str | Path, kind: str, bodies: Iterable[str]) -> None:
    """Write the header of `kind`, then each `format_rows` text in order."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerow(TABLE_COLUMNS[kind])
        handle.writelines(bodies)


def write_error_report(errors: Iterable[RowError], path: str | Path) -> None:
    from .artifacts import write_csv

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
    any encounter are dropped and counted. Inputs are not mutated: the
    returned encounters are copies with fresh indicator sets.
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


#: Each key of an encoded encounter, the JSON types its value may have, and
#: their name. The values of "vitals" are numbers; those of "demographics"
#: and the items of the three lists are strings.
_NUMBERS = (int, float)
_ENCOUNTER_TYPES = {
    "patient": ((str,), "a string"),
    "date": ((str,), "a string"),
    "sex": ((str,), "a string"),
    "age": (_NUMBERS, "a number"),
    "systolic": ((*_NUMBERS, type(None)), "a number or null"),
    "diastolic": ((*_NUMBERS, type(None)), "a number or null"),
    "vitals": ((dict,), "an object"),
    "demographics": ((dict,), "an object"),
    "diagnosis_code": ((str, type(None)), "a string or null"),
    "deceased": ((bool,), "true or false"),
    "med_categories": ((list,), "a list"),
    "lab_panels": ((list,), "a list"),
    "problems": ((list,), "a list"),
}


def encounter_from_dict(data: dict) -> EncounterRecord:
    """Inverse of encounter_to_dict. A missing key, a value or item of
    another JSON type, and a date that is not ISO are each a DataError."""
    if type(data) is not dict:
        raise DataError(f"encounter {data!r} is not an object")
    try:
        for key, (kinds, name) in _ENCOUNTER_TYPES.items():
            if type(data[key]) not in kinds:
                raise DataError(f"encounter {key} {data[key]!r} is not {name}")
    except KeyError as err:
        raise DataError(f"encounter lacks {err.args[0]}") from None
    if not {int, float}.issuperset(map(type, data["vitals"].values())):
        raise DataError(f"encounter vitals {data['vitals']!r} are not all numbers")
    texts = (*data["demographics"].values(), *data["med_categories"], *data["lab_panels"],
             *data["problems"])
    if not {str}.issuperset(map(type, texts)):
        raise DataError("encounter demographics, med_categories, lab_panels or problems "
                        "hold a value that is not a string")
    try:
        when = date.fromisoformat(data["date"])
    except ValueError:
        raise DataError(f"encounter date {data['date']!r} is not an ISO date") from None
    return EncounterRecord(
        patient=data["patient"],
        date=when,
        sex=data["sex"],
        age=data["age"],
        systolic=data["systolic"],
        diastolic=data["diastolic"],
        vitals=dict(data["vitals"]),
        demographics=dict(data["demographics"]),
        diagnosis_code=data["diagnosis_code"],
        deceased=data["deceased"],
        med_categories=set(data["med_categories"]),
        lab_panels=set(data["lab_panels"]),
        problems=set(data["problems"]),
    )
