"""Schema fitting, scaling, imputation, and input construction."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htnrisk.featurize as featurize
from htnrisk.cohort import (
    BpStatus,
    CohortSample,
    build_samples,
    compute_bp_fraction,
    label_bp_status,
    select_cohort,
    split_patients,
)
from htnrisk.ehr_core import (
    DEMOGRAPHIC_NAMES, VITAL_NAMES, DataError, EncounterRecord, merge_patient_timeline,
)
from htnrisk.featurize import (
    BP_LAG_DEPTH,
    MED_CATEGORY_ORDER,
    NUMERIC_VARIABLES,
    NumericStats,
    SEQUENCE_LENGTH,
    featurize_lr,
    featurize_sequences,
    fit_schema,
    scale_minmax,
    schema_from_dict,
    schema_hash,
    schema_to_dict,
    transform_record,
)
from htnrisk.synth import GeneratorConfig, generate_cohort

STATS = NumericStats(mean=100.0, min=80.0, max=120.0, missing_rate=0.1, retained=True)


# -- primitives -----------------------------------------------------------------

def test_scale_minmax_maps_train_range_to_unit():
    assert scale_minmax(80.0, STATS) == 0.0
    assert scale_minmax(120.0, STATS) == 1.0
    assert scale_minmax(100.0, STATS) == 0.5


def test_scale_minmax_does_not_clamp_unseen_extremes():
    assert scale_minmax(140.0, STATS) == 1.5
    assert scale_minmax(60.0, STATS) == -0.5


def test_scale_minmax_constant_column_collapses_to_zero():
    constant = NumericStats(mean=5.0, min=5.0, max=5.0, missing_rate=0.0, retained=True)
    assert scale_minmax(5.0, constant) == 0.0


# -- schema fitting ----------------------------------------------------------------

def _samples(make_timeline, n_visits=5, **kwargs):
    return build_samples(make_timeline(n_visits, gap_days=30, **kwargs))


def test_fit_schema_empty_train_raises():
    with pytest.raises(DataError, match="empty training split"):
        fit_schema([])


def test_fit_schema_counts_each_history_visit_once(make_timeline):
    samples = _samples(make_timeline, n_visits=5)
    schema = fit_schema(samples)
    # longest prefix has 4 visits; the final target is never seen
    assert schema.n_encounters == 4
    assert schema.n_samples == 4


def test_fit_schema_excludes_target_visits_from_stats(make_timeline):
    timeline = make_timeline(4, gap_days=30)
    timeline[-1].systolic = 190.0  # only ever a target
    schema = fit_schema(build_samples(timeline))
    assert schema.numeric["systolic"].max == pytest.approx(128.0)


def test_fit_schema_drops_numeric_missing_above_99_percent(make_timeline):
    samples = _samples(make_timeline, n_visits=5)
    schema = fit_schema(samples)
    stats = schema.numeric["heart_rate"]  # never recorded in the fixture factory
    assert stats.missing_rate == 1.0
    assert stats.retained is False
    assert "heart_rate" not in schema.columns
    assert "heart_rate__missing" not in schema.columns


def test_fit_schema_lab_panel_frequency_rule(make_timeline):
    timeline = make_timeline(4, gap_days=30)
    timeline[0].lab_panels = {"CBC"}
    timeline[1].lab_panels = {"CBC", "Rare"}
    schema = fit_schema(build_samples(timeline))
    # 3 history visits: CBC on 2/3 kept, Rare on 1/3 dropped
    assert schema.lab_panels["CBC"].retained is True
    assert schema.lab_panels["CBC"].frequency == pytest.approx(2 / 3)
    assert schema.lab_panels["Rare"].retained is False
    assert "lab=CBC" in schema.columns
    assert "lab=Rare" not in schema.columns


def test_fit_schema_time_between_visits_covers_all_samples(make_encounter):
    timeline = [
        make_encounter(when=date(2023, 1, 1)),
        make_encounter(when=date(2023, 1, 31)),  # gap 30
        make_encounter(when=date(2023, 4, 1)),   # gap 60
    ]
    schema = fit_schema(build_samples(timeline))
    stats = schema.numeric["time_between_visits"]
    assert (stats.min, stats.max, stats.mean) == (30.0, 60.0, 45.0)


def test_fit_schema_vocabulary_and_codes_are_sorted(make_timeline):
    timeline = make_timeline(4, gap_days=30)
    timeline[0].demographics = {"race": "white"}
    timeline[1].demographics = {"race": "asian"}
    timeline[0].problems = {"I10"}
    timeline[1].diagnosis_code = "E11"
    schema = fit_schema(build_samples(timeline))
    assert schema.categorical["race"] == ["asian", "white"]
    assert schema.problem_codes == ["E11", "I10"]


# -- record transform ----------------------------------------------------------

def test_transform_record_layout_and_values(make_timeline):
    timeline = make_timeline(4, gap_days=30)
    timeline[1].med_categories = {"Diuretic"}
    samples = build_samples(timeline)
    schema = fit_schema(samples)
    vec = transform_record(timeline[1], timeline[0].date, schema)
    assert vec.shape == (schema.width,)
    cols = schema.columns
    assert vec[cols.index("sex")] == 1.0  # factory default is female
    assert vec[cols.index("med=Diuretic")] == 1.0
    assert vec[cols.index("med=BetaBlocker")] == 0.0
    assert vec[cols.index("age__missing")] == 0.0
    # constant systolic across fixture visits scales to 0
    assert vec[cols.index("systolic")] == 0.0


def test_transform_record_missing_vital_imputes_and_flags(make_timeline):
    timeline = make_timeline(4, gap_days=30, vitals={"bmi": 30.0})
    timeline[1].vitals = {}  # bmi absent on one visit
    schema = fit_schema(build_samples(timeline))
    vec = transform_record(timeline[1], timeline[0].date, schema)
    cols = schema.columns
    assert vec[cols.index("bmi__missing")] == 1.0
    # imputed mean of a constant column scales to 0
    assert vec[cols.index("bmi")] == 0.0


def test_transform_record_imputes_the_scaled_train_mean_and_flags_it(make_timeline):
    timeline = make_timeline(5, gap_days=30)
    for enc, weight in zip(timeline, [60.0, None, 80.0, 90.0, 120.0]):
        enc.vitals = {} if weight is None else {"weight": weight}
    schema = fit_schema(build_samples(timeline))  # the last visit is only a target
    stats = schema.numeric["weight"]
    assert (stats.min, stats.max) == (60.0, 90.0)
    assert stats.mean == pytest.approx(230.0 / 3.0)
    i, flag = schema.columns.index("weight"), schema.columns.index("weight__missing")
    absent = transform_record(timeline[1], timeline[0].date, schema)
    assert absent[[i, flag]].tolist() == [(stats.mean - 60.0) / 30.0, 1.0]
    present = transform_record(timeline[2], timeline[1].date, schema)
    assert present[[i, flag]].tolist() == [(80.0 - 60.0) / 30.0, 0.0]


def test_transform_record_onehot_of_seen_absent_and_unseen_categories(make_timeline):
    timeline = make_timeline(4, gap_days=30)
    for enc, status in zip(timeline, ["married", "single", None]):
        enc.demographics = {} if status is None else {"marital_status": status}
    schema = fit_schema(build_samples(timeline))
    assert schema.categorical["marital_status"] == ["married", "single"]
    cols = [schema.columns.index(f"marital_status={c}") for c in ("married", "single")]
    cols.append(schema.columns.index("marital_status__missing"))
    visit = timeline[3]
    for status, expected in [
        ("single", [0.0, 1.0, 0.0]),
        (None, [0.0, 0.0, 1.0]),
        ("widowed", [0.0, 0.0, 0.0]),  # unseen at fit time
    ]:
        visit.demographics = {} if status is None else {"marital_status": status}
        assert transform_record(visit, None, schema)[cols].tolist() == expected, status


def test_delta_time_is_zero_on_first_visit(make_timeline):
    timeline = make_timeline(4, gap_days=30)
    schema = fit_schema(build_samples(timeline))
    first = transform_record(timeline[0], None, schema)
    later = transform_record(timeline[2], timeline[1].date, schema)
    idx = schema.columns.index("delta_time")
    assert first[idx] == 0.0
    assert later[idx] == 1.0  # 30 days = the fixture's constant (and max) gap


# -- sequence construction -------------------------------------------------------

def _sequence_of(sample, schema):
    X, _ = featurize_sequences([sample], schema)
    return X[0]


def _lr_input_of(sample, schema):
    X, _ = featurize_lr([sample], schema)
    return X[0]


def test_build_sequence_left_pads_short_history(make_timeline):
    samples = _samples(make_timeline, n_visits=3)
    schema = fit_schema(samples)
    seq = _sequence_of(samples[0], schema)  # history of 1
    assert seq.shape == (SEQUENCE_LENGTH, schema.width)
    assert np.all(seq[: SEQUENCE_LENGTH - 1] == 0.0)
    assert np.any(seq[-1] != 0.0)


def test_build_sequence_takes_last_six_visits(make_timeline):
    timeline = make_timeline(9, gap_days=30)
    for i, enc in enumerate(timeline):
        enc.vitals["weight"] = 60.0 + i
    samples = build_samples(timeline)
    schema = fit_schema(samples)
    last = samples[-1]  # history of 8 visits
    seq = _sequence_of(last, schema)
    idx = schema.columns.index("weight")
    stats = schema.numeric["weight"]
    got = [seq[t, idx] * (stats.max - stats.min) + stats.min for t in range(SEQUENCE_LENGTH)]
    assert got == pytest.approx([62.0, 63.0, 64.0, 65.0, 66.0, 67.0])


def test_sequence_rows_match_transform_record(make_timeline):
    samples = _samples(make_timeline, n_visits=5)
    schema = fit_schema(samples)
    sample = samples[2]  # history of 3
    seq = _sequence_of(sample, schema)
    for pos, enc in enumerate(sample.history):
        prev = sample.history[pos - 1].date if pos > 0 else None
        expected = transform_record(enc, prev, schema)
        np.testing.assert_array_equal(seq[SEQUENCE_LENGTH - 3 + pos], expected)


# -- flat input ------------------------------------------------------------------

def test_build_lr_input_width_and_horizon(make_timeline):
    samples = _samples(make_timeline, n_visits=5)
    schema = fit_schema(samples)
    vec = _lr_input_of(samples[-1], schema)
    assert vec.shape == (schema.lr_width,)
    # constant 30-day horizon collapses to 0 under min-max
    assert vec[schema.lr_columns.index("time_between_visits")] == 0.0


def test_lr_lags_decode_to_raw_history(make_encounter, rng):
    # lag k must recover the k-th most recent visit's reading exactly
    start = date(2022, 1, 5)
    timeline = []
    for k in range(10):
        timeline.append(
            make_encounter(
                when=start + timedelta(days=30 * k),
                systolic=float(rng.integers(95, 180)),
                diastolic=float(rng.integers(62, 110)),
            )
        )
    samples = build_samples(timeline)
    schema = fit_schema(samples)
    sample = samples[-1]
    vec = _lr_input_of(sample, schema)
    cols = schema.lr_columns
    for k in range(1, BP_LAG_DEPTH + 1):
        enc = sample.history[-k]
        for base in ("systolic", "diastolic"):
            stats = schema.numeric[base]
            scaled = vec[cols.index(f"{base}_lag{k}")]
            raw = scaled * (stats.max - stats.min) + stats.min
            assert raw == pytest.approx(getattr(enc, base)), f"{base}_lag{k}"
            assert vec[cols.index(f"{base}_lag{k}__missing")] == 0.0


def test_lr_lags_beyond_history_impute_and_flag(make_timeline):
    samples = _samples(make_timeline, n_visits=4)
    schema = fit_schema(samples)
    sample = samples[0]  # history of 1: lags 2..7 are absent
    vec = _lr_input_of(sample, schema)
    cols = schema.lr_columns
    assert vec[cols.index("systolic_lag1__missing")] == 0.0
    for k in range(2, BP_LAG_DEPTH + 1):
        assert vec[cols.index(f"systolic_lag{k}__missing")] == 1.0


def test_lr_lag1_equals_last_record_columns(make_timeline):
    # the lag block starts at the last visit, so lag 1 mirrors the
    # record's own scaled reading
    samples = _samples(make_timeline, n_visits=5)
    schema = fit_schema(samples)
    vec = _lr_input_of(samples[-1], schema)
    cols = schema.lr_columns
    assert vec[cols.index("systolic_lag1")] == vec[cols.index("systolic")]
    assert vec[cols.index("diastolic_lag1")] == vec[cols.index("diastolic")]


# -- batch builders -------------------------------------------------------------

def test_featurize_shapes_and_labels(make_timeline):
    timeline = make_timeline(5, gap_days=30)
    timeline[2].systolic = 162.0
    samples = build_samples(timeline)
    schema = fit_schema(samples)
    X_seq, y_seq = featurize_sequences(samples, schema)
    X_lr, y_lr = featurize_lr(samples, schema)
    assert X_seq.shape == (4, SEQUENCE_LENGTH, schema.width)
    assert X_lr.shape == (4, schema.lr_width)
    assert y_seq.tolist() == y_lr.tolist() == [0.0, 1.0, 0.0, 0.0]


def _reference_sequence(sample, schema):
    # The per-sample window loop: each visit featurized inside its window.
    history = sample.history
    take = min(SEQUENCE_LENGTH, len(history))
    out = np.zeros((SEQUENCE_LENGTH, schema.width))
    for pos in range(take):
        idx = len(history) - take + pos
        prev_date = history[idx - 1].date if idx > 0 else None
        out[SEQUENCE_LENGTH - take + pos] = transform_record(history[idx], prev_date, schema)
    return out


def _reference_lr_input(sample, schema):
    # The per-sample lag loop: BP readings re-read and re-scaled per lag.
    def impute(raw, stats):  # the train mean fills an absent value, flagged
        return (stats.mean, 1.0) if raw is None else (float(raw), 0.0)

    def scaled(raw, stats):
        filled, indicator = impute(raw, stats)
        return [scale_minmax(filled, stats), indicator]

    def reading(enc, base):
        if base == "bp_status":
            status = label_bp_status(enc.systolic, enc.diastolic)
            return None if status is None else float(status)
        return getattr(enc, base)

    history = sample.history
    last = history[-1]
    prev_date = history[-2].date if len(history) > 1 else None
    values = list(transform_record(last, prev_date, schema))
    for k in range(1, BP_LAG_DEPTH + 1):
        enc = history[-k] if k <= len(history) else None
        for base in ("systolic", "diastolic", "bp_status"):
            if schema.numeric[base].retained:
                raw = None if enc is None else reading(enc, base)
                values += scaled(raw, schema.numeric[base])
    if schema.numeric["bp_fraction"].retained:
        bp_fraction = compute_bp_fraction(last.systolic, last.diastolic)
        values += scaled(bp_fraction, schema.numeric["bp_fraction"])
    horizon = float((sample.target_date - last.date).days)
    values.append(scale_minmax(horizon, schema.numeric["time_between_visits"]))
    return np.array(values)


@pytest.fixture(scope="module")
def synthetic_cohort():
    tables = generate_cohort(GeneratorConfig(n_patients=80, seed=5, miss_bp=0.2, visits_max=12))
    timelines, _ = merge_patient_timeline(
        tables.encounters, tables.medications, tables.labs, tables.diagnoses
    )
    cohort = select_cohort(timelines, seed=0)
    return cohort, fit_schema(cohort.samples_in("train"))


@pytest.mark.parametrize("which", ["shuffled", "test_finals"])
def test_featurize_equals_per_sample_reference(synthetic_cohort, which):
    cohort, schema = synthetic_cohort
    if which == "shuffled":
        samples = list(cohort.samples)
        np.random.default_rng(0).shuffle(samples)
    else:
        samples = cohort.evaluation_samples("test")
    depths = {len(s.history) for s in samples}
    assert len({s.patient for s in samples}) > 1
    assert min(depths) < SEQUENCE_LENGTH and max(depths) > BP_LAG_DEPTH
    X_seq, y_seq = featurize_sequences(samples, schema)
    X_lr, y_lr = featurize_lr(samples, schema)
    np.testing.assert_array_equal(X_seq, [_reference_sequence(s, schema) for s in samples])
    np.testing.assert_array_equal(X_lr, [_reference_lr_input(s, schema) for s in samples])
    assert y_seq.tolist() == y_lr.tolist() == [float(s.label) for s in samples]


_PROPERTY_VITALS = {"weight": [None, 61.5, 70.0, 92.25], "bmi": [None, 27.0]}  # bmi may be constant
_PROPERTY_DEMOGRAPHICS = {  # language is never recorded: an empty vocabulary
    "race": [None, "asian", "white", "black"], "marital_status": [None, "single"],
    "language": [None], "smoking": [None, "never", "former"],
}


@st.composite
def _encounters(draw, patient, when):
    def pick(values):
        return draw(st.sampled_from(values))

    return EncounterRecord(
        patient=patient,
        date=when,
        sex=pick(["female", "male"]),
        age=pick([35.0, 71.5]),
        systolic=pick([None, 95.0, 140.0, 151.5]),
        diastolic=pick([None, 60.0, 89.0, 90.0]),
        vitals={k: v for k, values in _PROPERTY_VITALS.items() if (v := pick(values)) is not None},
        demographics={
            k: v for k, values in _PROPERTY_DEMOGRAPHICS.items() if (v := pick(values)) is not None
        },
        diagnosis_code=pick([None, "I10", "N18"]),
        med_categories=draw(st.sets(st.sampled_from(MED_CATEGORY_ORDER), max_size=2)),
        lab_panels=draw(st.sets(st.sampled_from(["BMP", "CBC", "Lipids"]))),
        problems=draw(st.sets(st.sampled_from(["E11", "I10"]), max_size=1)),
    )


@st.composite
def _cohorts(draw):
    """(train samples, all samples): every prefix of each random timeline
    is a sample's history, and the first patients are the train split."""
    samples = []
    n_patients = draw(st.integers(1, 3))
    for p in range(n_patients):
        when, timeline = date(2020, 1, 1), []
        for _ in range(draw(st.integers(2, 5))):
            when += timedelta(days=draw(st.integers(1, 120)))
            timeline.append(draw(_encounters(f"p{p}", when)))
        samples += [
            CohortSample(f"p{p}", timeline[:k], timeline[k].date, BpStatus.CONTROLLED,
                         timeline[k].sex, k)
            for k in range(1, len(timeline))
        ]
    n_train = draw(st.integers(1, n_patients))
    return [s for s in samples if int(s.patient[1:]) < n_train], samples


def _oracle_numerics(enc, prev):
    """The README's per-visit numeric variables, None where absent."""
    s, d = enc.systolic, enc.diastolic
    both = s is not None and d is not None
    return {
        "systolic": s,
        "diastolic": d,
        "bp_fraction": s / d if both else None,
        "bp_status": (1.0 if s >= 140.0 or d >= 90.0 else 0.0) if both else None,
        "delta_time": 0.0 if prev is None else float((enc.date - prev.date).days),
        "age": enc.age,
        **{name: enc.vitals.get(name) for name in VITAL_NAMES},
    }


def _oracle_records(train, samples, schema):
    """Column names and rows computed with plain Python floats from the
    README: statistics from each train patient's visits before its last
    target, min-max scaling (0 for a constant column) after mean
    imputation, a missing flag per numeric kept unless missing in over 99%
    of visits, sex, one-hot demographics of the train vocabulary with an
    absent flag, medication families, lab panels on at least 60% of train
    visits, and the train problem codes."""

    def visits(of):
        longest = {}
        for sample in of:
            if len(sample.history) > len(longest.get(sample.patient, [])):
                longest[sample.patient] = sample.history
        histories = [longest[patient] for patient in sorted(longest)]
        return [(enc, h[i - 1] if i else None) for h in histories for i, enc in enumerate(h)]

    fitted = visits(train)
    numerics = [_oracle_numerics(enc, prev) for enc, prev in fitted]
    names, kept = [], []
    for name in NUMERIC_VARIABLES:
        observed = [v[name] for v in numerics if v[name] is not None]
        if len(observed) < 0.01 * len(fitted):
            assert not schema.numeric[name].retained
            continue
        stats = schema.numeric[name]
        assert stats.retained
        assert (stats.min, stats.max) == (min(observed), max(observed))
        assert stats.mean == pytest.approx(sum(observed) / len(observed), rel=1e-12)
        names += [name, name + "__missing"]
        kept.append((name, stats))
    names.append("sex")
    vocab = {
        var: sorted({enc.demographics[var] for enc, _ in fitted if var in enc.demographics})
        for var in DEMOGRAPHIC_NAMES
    }
    for var in DEMOGRAPHIC_NAMES:
        names += [f"{var}={c}" for c in vocab[var]] + [var + "__missing"]
    names += [f"med={c}" for c in MED_CATEGORY_ORDER]
    panels = sorted({panel for enc, _ in fitted for panel in enc.lab_panels})
    panels = [p for p in panels if sum(p in e.lab_panels for e, _ in fitted) >= 0.6 * len(fitted)]
    names += [f"lab={panel}" for panel in panels]
    codes = sorted({c for enc, _ in fitted for c in [*enc.problems, enc.diagnosis_code] if c})
    names += [f"dx={code}" for code in codes]

    rows = []
    for enc, prev in visits(samples):
        raw, row = _oracle_numerics(enc, prev), []
        for name, stats in kept:
            value = stats.mean if raw[name] is None else raw[name]
            span = stats.max - stats.min
            row += [(value - stats.min) / span if span else 0.0, float(raw[name] is None)]
        row.append(float(enc.sex == "female"))
        for var in DEMOGRAPHIC_NAMES:
            category = enc.demographics.get(var)
            row += [float(category == c) for c in vocab[var]] + [float(category is None)]
        row += [float(c in enc.med_categories) for c in MED_CATEGORY_ORDER]
        row += [float(panel in enc.lab_panels) for panel in panels]
        row += [float(code in enc.problems or code == enc.diagnosis_code) for code in codes]
        rows.append(row)
    return names, rows


@settings(max_examples=50, deadline=None)
@given(_cohorts())
def test_visit_rows_equal_a_plain_python_oracle_property(cohort):
    train, samples = cohort
    schema = fit_schema(train)
    names, expected = _oracle_records(train, samples, schema)
    rows, _ = featurize._visit_rows(samples, schema)
    assert schema.columns == names
    assert rows.tolist() == expected


def test_each_distinct_encounter_is_featurized_once(synthetic_cohort, monkeypatch, tmp_path):
    cohort, schema = synthetic_cohort
    calls = []
    original = featurize._records

    def counted(visits, schema):
        calls.extend((enc.patient, enc.date) for enc, _ in visits)
        return original(visits, schema)

    def export(samples, schema):
        featurize.export_csv(samples, schema, tmp_path / "seq.csv", tmp_path / "lr.csv")

    monkeypatch.setattr(featurize, "_records", counted)
    for build in (featurize_sequences, featurize_lr, export):
        calls.clear()
        build(cohort.samples, schema)
        distinct = {(e.patient, e.date) for s in cohort.samples for e in s.history}
        assert sorted(calls) == sorted(distinct)


# -- schema artifact -------------------------------------------------------------

def test_schema_round_trip_and_hash(make_timeline):
    timeline = make_timeline(5, gap_days=30)
    timeline[0].lab_panels = {"CBC"}
    timeline[1].demographics = {"race": "white", "smoking": "never"}
    schema = fit_schema(build_samples(timeline))
    restored = schema_from_dict(schema_to_dict(schema))
    assert schema_to_dict(restored) == schema_to_dict(schema)
    assert schema_hash(restored) == schema_hash(schema)


def test_schema_from_dict_rejects_unknown_format():
    with pytest.raises(DataError, match="format"):
        schema_from_dict({"format": "something/9"})


def test_schema_depends_only_on_training_patients(make_encounter):
    # mutating a patient outside the training split must not move the hash
    def timelines(test_systolic):
        out = {}
        for i in range(10):
            pid = f"p{i:02d}"
            base = 120.0 + i if pid != mutated else test_systolic
            out[pid] = [
                make_encounter(
                    patient=pid,
                    when=date(2023, 1, 5) + timedelta(days=30 * k),
                    systolic=base + k,
                    diastolic=78.0,
                )
                for k in range(3)
            ]
        return out

    ids = [f"p{i:02d}" for i in range(10)]
    assignment = split_patients(ids, seed=0)
    mutated = next(pid for pid in ids if assignment[pid] == "test")

    hashes = []
    for systolic in (100.0, 170.0):
        cohort = select_cohort(timelines(systolic), seed=0)
        schema = fit_schema(cohort.samples_in("train"))
        hashes.append(schema_hash(schema))
    assert hashes[0] == hashes[1]
