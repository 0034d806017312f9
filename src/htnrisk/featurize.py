"""Feature engineering: train-set statistics and sample transforms.

A `FeatureSchema` is fitted on the training split only and then applied
as a pure function everywhere: min-max scaling, mean imputation with
missingness indicators, one-hot demographics, and binary indicators for
medication families, retained lab panels, and problem codes. Each visit
is featurized once into a per-patient row block: sequence inputs are
slices of its last six rows, zero-padded on the left, and the flat input
for the linear model gathers the last row plus a seven-visit
blood-pressure lag block from it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .artifacts import (
    BOOL, INTEGER, LIST, NUMBER, OBJECT, STRING, canonical_json, format_number, require,
    require_each, require_format, require_keys, sha256_hex, write_csv,
)
from .cohort import CohortSample, compute_bp_fraction, label_bp_status
from .ehr_core import DataError, EncounterRecord, MedicationCategory, DEMOGRAPHIC_NAMES

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
    "pulse",
    "height",
    "weight",
    "bmi",
    "temperature",
    "respiratory_rate",
    "heart_rate",
    "fatigue",
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


def _numeric_value(enc: EncounterRecord, name: str, prev_date) -> float | None:
    if name == "systolic":
        return enc.systolic
    if name == "diastolic":
        return enc.diastolic
    if name == "bp_fraction":
        return compute_bp_fraction(enc.systolic, enc.diastolic)
    if name == "bp_status":
        status = label_bp_status(enc.systolic, enc.diastolic)
        return None if status is None else float(status)
    if name == "delta_time":
        return 0.0 if prev_date is None else float((enc.date - prev_date).days)
    if name == "age":
        return float(enc.age)
    return enc.vitals.get(name)


def _record_columns(schema: FeatureSchema) -> list[str]:
    cols: list[str] = []
    for name in NUMERIC_VARIABLES:
        if schema.numeric[name].retained:
            cols.append(name)
            cols.append(name + "__missing")
    cols.append("sex")
    for var in DEMOGRAPHIC_NAMES:
        for category in schema.categorical[var]:
            cols.append(f"{var}={category}")
        cols.append(var + "__missing")
    for category in MED_CATEGORY_ORDER:
        cols.append(f"med={category}")
    for panel in sorted(schema.lab_panels):
        if schema.lab_panels[panel].retained:
            cols.append(f"lab={panel}")
    for code in schema.problem_codes:
        cols.append(f"dx={code}")
    return cols


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
    columns = _record_columns(schema)
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

    observed: dict[str, list[float]] = {name: [] for name in NUMERIC_VARIABLES}
    vocab: dict[str, set[str]] = {var: set() for var in DEMOGRAPHIC_NAMES}
    panel_counts: dict[str, int] = {}
    codes: set[str] = set()
    n_encounters = 0
    for history in _longest_histories(train_samples).values():
        for i, enc in enumerate(history):
            n_encounters += 1
            prev_date = history[i - 1].date if i > 0 else None
            for name in NUMERIC_VARIABLES:
                value = _numeric_value(enc, name, prev_date)
                if value is not None:
                    observed[name].append(value)
            for var in DEMOGRAPHIC_NAMES:
                raw = enc.demographics.get(var)
                if raw is not None:
                    vocab[var].add(raw)
            for panel in enc.lab_panels:
                panel_counts[panel] = panel_counts.get(panel, 0) + 1
            codes.update(_encounter_codes(enc))

    numeric: dict[str, NumericStats] = {}
    for name in NUMERIC_VARIABLES:
        # A never-observed variable is missing at rate 1, so it is dropped.
        missing_rate = 1.0 - len(observed[name]) / n_encounters
        numeric[name] = _summary(observed[name], missing_rate, missing_rate <= MISSING_DROP_RATE)
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


def _summary(values: list[float], missing_rate: float, retained: bool) -> NumericStats:
    if not values:
        return NumericStats(0.0, 0.0, 0.0, missing_rate, retained)
    mean, low, high = (float(f(values)) for f in (np.mean, np.min, np.max))
    return NumericStats(mean, low, high, missing_rate, retained)


def impute(value: float | None, stats: NumericStats) -> tuple[float, float]:
    """Fill an absent value with the train mean; second element flags it."""
    if value is None:
        return stats.mean, 1.0
    return float(value), 0.0


def scale_minmax(value: float, stats: NumericStats) -> float:
    """Map the train range onto [0, 1]; constant columns collapse to 0.

    Test-set values outside the train range are NOT clamped, so they may
    fall outside [0, 1]; ordering information is preserved.
    """
    if stats.max == stats.min:
        return 0.0
    return (value - stats.min) / (stats.max - stats.min)


def encode_onehot(category: str | None, vocabulary: list[str]) -> tuple[np.ndarray, float]:
    """One-hot a category; unseen values encode as all-zero.

    Returns (indicator sub-vector, missing flag). An absent category is
    all-zero with the flag set; an unseen one is all-zero with flag 0.
    """
    vector = np.zeros(len(vocabulary))
    if category is None:
        return vector, 1.0
    try:
        vector[vocabulary.index(category)] = 1.0
    except ValueError:
        pass
    return vector, 0.0


def _scaled(value: float | None, stats: NumericStats) -> tuple[float, float]:
    filled, indicator = impute(value, stats)
    return scale_minmax(filled, stats), indicator


def transform_record(
    enc: EncounterRecord, prev_date, schema: FeatureSchema
) -> np.ndarray:
    """One encounter to its fixed-width feature vector."""
    values: list[float] = []
    for name in NUMERIC_VARIABLES:
        stats = schema.numeric[name]
        if not stats.retained:
            continue
        scaled, indicator = _scaled(_numeric_value(enc, name, prev_date), stats)
        values.append(scaled)
        values.append(indicator)
    values.append(1.0 if enc.sex == "female" else 0.0)
    for var in DEMOGRAPHIC_NAMES:
        onehot, missing = encode_onehot(enc.demographics.get(var), schema.categorical[var])
        values.extend(onehot)
        values.append(missing)
    for category in MED_CATEGORY_ORDER:
        values.append(1.0 if category in enc.med_categories else 0.0)
    for panel in sorted(schema.lab_panels):
        if schema.lab_panels[panel].retained:
            values.append(1.0 if panel in enc.lab_panels else 0.0)
    enc_codes = _encounter_codes(enc)
    for code in schema.problem_codes:
        values.append(1.0 if code in enc_codes else 0.0)
    return np.array(values, dtype=np.float64)


def _visit_rows(
    samples: list[CohortSample], schema: FeatureSchema
) -> tuple[np.ndarray, np.ndarray]:
    """Featurize every visit the samples read, each exactly once.

    Returns the (visits, F) record rows, each patient's visits contiguous
    and oldest first, and for each sample the row of its last history
    visit: its history is the rows ending there.
    """
    longest = _longest_histories(samples)
    rows = np.empty((sum(map(len, longest.values())), schema.width))
    first: dict[str, int] = {}
    r = 0
    for patient, history in longest.items():
        first[patient] = r
        for i, enc in enumerate(history):
            rows[r + i] = transform_record(enc, history[i - 1].date if i else None, schema)
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
        X[~have, j] = _scaled(None, schema.numeric[base])[1 if suffix else 0]
        X[have, j] = rows[last[have] - (k - 1), schema.columns.index(base + suffix)]
    horizon = schema.numeric["time_between_visits"]
    X[:, -1] = [
        scale_minmax(float((s.target_date - s.history[-1].date).days), horizon)
        for s in samples
    ]
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
