"""Feature engineering: train-set statistics and sample transforms.

A `FeatureSchema` is fitted on the training split only and then applied
as a pure function everywhere: min-max scaling, mean imputation with
missingness indicators, one-hot demographics, and binary indicators for
medication families, retained lab panels, and problem codes. The
statistics and the rows read the visits gathered into columns. Each visit
is featurized once into a per-patient row block: sequence inputs are
slices of its last six rows, zero-padded on the left, and the flat input
for the linear model gathers the last row plus a seven-visit
blood-pressure lag block from it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from datetime import date

import numpy as np

from .artifacts import (
    BOOL, INTEGER, LIST, NUMBER, OBJECT, STRING, canonical_json, format_number, require,
    require_each, require_format, require_keys, sha256_hex, write_csv,
)
from .cohort import CohortSample, compute_bp_fraction, label_bp_status
from .ehr_core import (
    DataError, EncounterRecord, MedicationCategory, DEMOGRAPHIC_NAMES, VITAL_NAMES,
)

SEQUENCE_LENGTH = 6  # visits fed to the recurrent model
BP_LAG_DEPTH = 7  # blood-pressure history depth of the flat input
MISSING_DROP_RATE = 0.99  # numeric dropped when missing more often than this
LAB_MIN_FREQUENCY = 0.60  # lab panel kept only at or above this train frequency

SCHEMA_FORMAT = "htnrisk-schema/1"

#: Per-record numeric variables, in output order.
NUMERIC_VARIABLES = (
    "systolic",
    "diastolic",
    "bp_fraction",
    "bp_status",
    "delta_time",
    "age",
    *VITAL_NAMES,
)

#: Medication family columns, in enum declaration order.
MED_CATEGORY_ORDER = tuple(cat.value for cat in MedicationCategory)


@dataclass
class NumericStats:
    mean: float
    min: float
    max: float
    missing_rate: float
    retained: bool


@dataclass
class LabStats:
    frequency: float
    retained: bool


@dataclass
class FeatureSchema:
    """Fitted feature statistics plus the canonical column layout."""

    numeric: dict[str, NumericStats]
    categorical: dict[str, list[str]]  # demographic variable -> train vocabulary
    lab_panels: dict[str, LabStats]
    problem_codes: list[str]
    columns: list[str] = field(default_factory=list)  # per-record layout
    lr_columns: list[str] = field(default_factory=list)  # flat-model layout
    n_encounters: int = 0
    n_samples: int = 0

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def lr_width(self) -> int:
        return len(self.lr_columns)


def _encounter_codes(enc: EncounterRecord) -> set[str]:
    codes = set(enc.problems)
    if enc.diagnosis_code is not None:
        codes.add(enc.diagnosis_code)
    return codes


Visit = tuple[EncounterRecord, date | None]  # an encounter and its previous visit's date


def _visits(histories) -> list[Visit]:
    """Every visit of `histories`, in row order: histories in turn, each
    oldest first."""
    return [
        (enc, history[i - 1].date if i else None)
        for history in histories
        for i, enc in enumerate(history)
    ]


def _numeric_values(visits: list[Visit]) -> np.ndarray:
    """The (visits, 14) values of NUMERIC_VARIABLES, NaN where one is
    absent. No parsed or loaded value is NaN, so NaN means absent."""

    def row(enc, prev_date):
        sbp, dbp = enc.systolic, enc.diastolic
        delta = 0 if prev_date is None else (enc.date - prev_date).days
        return (sbp, dbp, compute_bp_fraction(sbp, dbp), label_bp_status(sbp, dbp), delta,
                enc.age, *map(enc.vitals.get, VITAL_NAMES))

    rows = [row(enc, prev_date) for enc, prev_date in visits]
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(NUMERIC_VARIABLES))


def _columns(visits: list[Visit], schema: FeatureSchema):
    """Each per-record column's name and its values over `visits`, one
    column at a time, in layout order; with no visits, the layout."""
    values = _numeric_values(visits)
    for name, column in zip(NUMERIC_VARIABLES, values.T):
        stats = schema.numeric[name]
        if stats.retained:
            absent = np.isnan(column)
            yield name, scale_minmax(np.where(absent, stats.mean, column), stats)
            yield name + "__missing", absent
    encounters = [enc for enc, _ in visits]
    yield "sex", [enc.sex == "female" for enc in encounters]
    for var in DEMOGRAPHIC_NAMES:
        raw = [enc.demographics.get(var) for enc in encounters]
        for category in schema.categorical[var]:
            yield f"{var}={category}", [value == category for value in raw]
        yield var + "__missing", [value is None for value in raw]
    for category in MED_CATEGORY_ORDER:
        yield f"med={category}", [category in enc.med_categories for enc in encounters]
    for panel in sorted(schema.lab_panels):
        if schema.lab_panels[panel].retained:
            yield f"lab={panel}", [panel in enc.lab_panels for enc in encounters]
    codes = [_encounter_codes(enc) for enc in encounters]
    for code in schema.problem_codes:
        yield f"dx={code}", [code in visit_codes for visit_codes in codes]


def _records(visits: list[Visit], schema: FeatureSchema) -> np.ndarray:
    """The (visits, F) record rows of `visits`, filled column by column."""
    rows = np.empty((len(visits), schema.width))
    for target, (_, values) in zip(rows.T, _columns(visits, schema), strict=True):
        target[:] = values
    return rows


def _lag_sources(schema: FeatureSchema) -> list[tuple[str, str, int]]:
    """(variable, suffix, k) of each lag-block column, in order: it copies
    record column variable + suffix from the k-th most recent visit."""
    lags = [
        (base, k)
        for k in range(1, BP_LAG_DEPTH + 1)
        for base in ("systolic", "diastolic", "bp_status")
        if schema.numeric[base].retained
    ]
    if schema.numeric["bp_fraction"].retained:
        lags.append(("bp_fraction", 1))
    return [(base, suffix, k) for base, k in lags for suffix in ("", "__missing")]


def _layout(schema: FeatureSchema) -> tuple[list[str], list[str]]:
    """The per-record and flat-model columns the statistics define."""
    columns = [name for name, _ in _columns([], schema)]
    lags = [f"{base}_lag{k}{suffix}" for base, suffix, k in _lag_sources(schema)]
    return columns, columns + lags + ["time_between_visits"]


def _longest_histories(samples: list[CohortSample]) -> dict[str, list[EncounterRecord]]:
    """Each patient's longest history, keyed in sorted patient order.

    Every sample slices its patient's timeline as `timeline[:target_index]`,
    so each other history of that patient is a prefix of the longest one.
    """
    longest: dict[str, list[EncounterRecord]] = {}
    for sample in samples:
        if not sample.history:
            raise ValueError("sample has empty history")
        if len(sample.history) > len(longest.get(sample.patient, ())):
            longest[sample.patient] = sample.history
    return {patient: longest[patient] for patient in sorted(longest)}


def fit_schema(train_samples: list[CohortSample]) -> FeatureSchema:
    """Fit all statistics on the training split only.

    Input encounters are each patient's longest history prefix, so every
    visit whose features any training sample consumes is counted exactly
    once; target visits contribute nothing.
    """
    if not train_samples:
        raise DataError("cannot fit schema: empty training split")

    visits = _visits(_longest_histories(train_samples).values())
    n_encounters = len(visits)
    vocab: dict[str, set[str]] = {var: set() for var in DEMOGRAPHIC_NAMES}
    panel_counts: dict[str, int] = {}
    codes: set[str] = set()
    for enc, _ in visits:
        for var in DEMOGRAPHIC_NAMES:
            raw = enc.demographics.get(var)
            if raw is not None:
                vocab[var].add(raw)
        for panel in enc.lab_panels:
            panel_counts[panel] = panel_counts.get(panel, 0) + 1
        codes.update(_encounter_codes(enc))

    numeric: dict[str, NumericStats] = {}
    for name, column in zip(NUMERIC_VARIABLES, _numeric_values(visits).T):
        observed = column[~np.isnan(column)]
        # A never-observed variable is missing at rate 1, so it is dropped.
        missing_rate = 1.0 - len(observed) / n_encounters
        numeric[name] = _summary(observed, missing_rate, missing_rate <= MISSING_DROP_RATE)
    horizons = [float((s.target_date - s.history[-1].date).days) for s in train_samples]
    numeric["time_between_visits"] = _summary(horizons, 0.0, True)

    schema = FeatureSchema(
        numeric=numeric,
        categorical={var: sorted(vocab[var]) for var in DEMOGRAPHIC_NAMES},
        lab_panels={
            panel: LabStats(
                frequency=count / n_encounters,
                retained=count / n_encounters >= LAB_MIN_FREQUENCY,
            )
            for panel, count in sorted(panel_counts.items())
        },
        problem_codes=sorted(codes),
        n_encounters=n_encounters,
        n_samples=len(train_samples),
    )
    schema.columns, schema.lr_columns = _layout(schema)
    return schema


def _summary(values, missing_rate: float, retained: bool) -> NumericStats:
    if len(values) == 0:
        return NumericStats(0.0, 0.0, 0.0, missing_rate, retained)
    mean, low, high = (float(f(values)) for f in (np.mean, np.min, np.max))
    return NumericStats(mean, low, high, missing_rate, retained)


def scale_minmax(value, stats: NumericStats):
    """Map the train range onto [0, 1], element-wise for an array; a
    constant column collapses to 0.

    Test-set values outside the train range are NOT clamped, so they may
    fall outside [0, 1]; ordering information is preserved.
    """
    if stats.max == stats.min:
        return 0.0
    return (value - stats.min) / (stats.max - stats.min)


def transform_record(
    enc: EncounterRecord, prev_date, schema: FeatureSchema
) -> np.ndarray:
    """One encounter to its fixed-width feature vector."""
    return _records([(enc, prev_date)], schema)[0]


def _visit_rows(
    samples: list[CohortSample], schema: FeatureSchema
) -> tuple[np.ndarray, np.ndarray]:
    """Featurize every visit the samples read, each exactly once.

    Returns the (visits, F) record rows, each patient's visits contiguous
    and oldest first, and for each sample the row of its last history
    visit: its history is the rows ending there.
    """
    longest = _longest_histories(samples)
    rows = _records(_visits(longest.values()), schema)
    first: dict[str, int] = {}
    r = 0
    for patient, history in longest.items():
        first[patient] = r
        r += len(history)
    last = np.array([first[s.patient] + len(s.history) - 1 for s in samples], dtype=np.intp)
    return rows, last


def featurize_sequences(
    samples: list[CohortSample], schema: FeatureSchema
) -> tuple[np.ndarray, np.ndarray]:
    """Stack sequence inputs: (n, 6, F) plus the label vector.

    Each input is the last six visits, left-padded with zero rows.
    """
    X = _sequences(samples, schema, _visit_rows(samples, schema))
    return X, np.array([float(s.label) for s in samples])


def _sequences(samples, schema, visits) -> np.ndarray:
    rows, last = visits
    X = np.zeros((len(samples), SEQUENCE_LENGTH, schema.width))
    for i, sample in enumerate(samples):
        take = min(SEQUENCE_LENGTH, len(sample.history))
        X[i, SEQUENCE_LENGTH - take :] = rows[last[i] - take + 1 : last[i] + 1]
    return X


def featurize_lr(
    samples: list[CohortSample], schema: FeatureSchema
) -> tuple[np.ndarray, np.ndarray]:
    """Stack flat inputs: (n, F_lr) plus the label vector.

    A flat input is the last visit's record, then the BP lag block: lag k
    reads the k-th most recent history visit, and a lag beyond the history,
    like a missing reading, holds the imputed train mean, flagged. The
    trailing column is the scaled gap between the last visit and the target.
    """
    X = _flat(samples, schema, _visit_rows(samples, schema))
    return X, np.array([float(s.label) for s in samples])


def _flat(samples, schema, visits) -> np.ndarray:
    rows, last = visits
    depth = np.array([len(s.history) for s in samples])
    X = np.empty((len(samples), schema.lr_width))
    X[:, : schema.width] = rows[last]
    for j, (base, suffix, k) in enumerate(_lag_sources(schema), start=schema.width):
        have = depth >= k
        stats = schema.numeric[base]
        X[~have, j] = 1.0 if suffix else scale_minmax(stats.mean, stats)
        X[have, j] = rows[last[have] - (k - 1), schema.columns.index(base + suffix)]
    horizon = schema.numeric["time_between_visits"]
    days = [(s.target_date - s.history[-1].date).days for s in samples]
    X[:, -1] = scale_minmax(np.array(days, dtype=np.float64), horizon)
    return X


# -- schema artifact ----------------------------------------------------------

def schema_to_dict(schema: FeatureSchema) -> dict:
    return {"format": SCHEMA_FORMAT, **asdict(schema)}


#: The JSON types of the keys of a schema and of its statistics objects, in
#: the field order of FeatureSchema, NumericStats and LabStats.
_SCHEMA_KINDS = {
    "numeric": OBJECT, "categorical": OBJECT, "lab_panels": OBJECT, "problem_codes": LIST,
    "columns": LIST, "lr_columns": LIST, "n_encounters": INTEGER, "n_samples": INTEGER,
}
_NUMERIC_KINDS, _LAB_KINDS = (
    {f.name: BOOL if f.type == "bool" else NUMBER for f in fields(cls)}
    for cls in (NumericStats, LabStats)
)


def schema_from_dict(data: dict) -> FeatureSchema:
    """Inverse of schema_to_dict.

    A missing key, a value of the wrong type, or stored columns that differ
    from the ones the statistics define is a DataError.
    """
    require_format(data, SCHEMA_FORMAT, "schema")
    numeric, categorical, lab_panels, *rest = require_keys(data, _SCHEMA_KINDS, "schema")
    for key in ("problem_codes", "columns", "lr_columns"):
        require_each(data[key], STRING, f"schema.{key}")
    schema = FeatureSchema(  # the fields in the order of _SCHEMA_KINDS
        {
            name: NumericStats(*require_keys(require(numeric, name, OBJECT, "schema.numeric"),
                                             _NUMERIC_KINDS, f"schema.numeric.{name}"))
            for name in dict.fromkeys([*numeric, *NUMERIC_VARIABLES, "time_between_visits"])
        },
        {
            var: require_each(require(categorical, var, LIST, "schema.categorical"), STRING,
                              f"schema.categorical.{var}")
            for var in dict.fromkeys([*categorical, *DEMOGRAPHIC_NAMES])
        },
        {
            panel: LabStats(*require_keys(stats, _LAB_KINDS, f"schema.lab_panels.{panel}"))
            for panel, stats in require_each(lab_panels, OBJECT, "schema.lab_panels").items()
        },
        *rest,
    )
    if (schema.columns, schema.lr_columns) != _layout(schema):
        raise DataError("schema columns differ from the ones its statistics define")
    return schema


def schema_hash(schema: FeatureSchema) -> str:
    return sha256_hex(canonical_json(schema_to_dict(schema)).encode("utf-8"))


# -- feature matrix export ----------------------------------------------------

def export_csv(samples, schema, sequence_path, lr_path) -> None:
    """Write both feature matrices, canonical headers, featurizing each
    visit once: the sequence inputs one row per (sample, timestep), the
    flat inputs one row per sample."""
    visits = _visit_rows(samples, schema)
    names = [f"{s.patient}:{s.target_index}" for s in samples]
    _write_csv(
        sequence_path,
        ["sample", "timestep"] + schema.columns,
        ([name, t] for name in names for t in range(SEQUENCE_LENGTH)),
        _sequences(samples, schema, visits).reshape(-1, schema.width),
    )
    _write_csv(
        lr_path, ["sample"] + schema.lr_columns, ([name] for name in names),
        _flat(samples, schema, visits),
    )


def _write_csv(path, header: list[str], keys, X: np.ndarray) -> None:
    """One row per key: the key's cells, then that row of X."""
    write_csv(path, header, (key + [format_number(v) for v in x] for key, x in zip(keys, X)))
