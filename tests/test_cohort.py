"""Labeling, exclusion cascade, sample construction, and splits."""

import contextlib
import copy
import random
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from htnrisk.artifacts import canonical_json
from htnrisk.cohort import (
    BpStatus,
    Cohort,
    DEFAULT_SPLIT_FRACTIONS,
    EXCLUSION_RULES,
    SPLIT_NAMES,
    apply_cohort_exclusions,
    build_samples,
    cohort_from_dict,
    cohort_to_dict,
    compute_bp_fraction,
    exclude_bp_reading_errors,
    label_bp_status,
    select_cohort,
    split_patients,
    write_exclusion_report,
)
from htnrisk.ehr_core import (
    TABLE_COLUMNS,
    DataError,
    encounter_to_dict,
    merge_patient_timeline,
    parse_table,
)
from htnrisk.featurize import (
    featurize_lr,
    featurize_sequences,
    fit_schema,
    schema_from_dict,
    schema_to_dict,
)
from htnrisk.nnet import LrParams, init_lstm_params
from htnrisk.train import model_from_dict, model_inputs, model_to_dict, predict_proba

FIXTURE = Path(__file__).parent / "data" / "cohort_fixture"


# -- labeling ------------------------------------------------------------------

@pytest.mark.parametrize(
    "systolic,diastolic,expected",
    [
        (139.9, 89.9, BpStatus.CONTROLLED),
        (140.0, 80.0, BpStatus.UNCONTROLLED),   # boundary inclusive
        (120.0, 90.0, BpStatus.UNCONTROLLED),
        (150.0, 95.0, BpStatus.UNCONTROLLED),
        (100.0, 65.0, BpStatus.CONTROLLED),
        (None, 95.0, None),
        (150.0, None, None),
        (None, None, None),
    ],
)
def test_label_bp_status(systolic, diastolic, expected):
    assert label_bp_status(systolic, diastolic) == expected


def test_compute_bp_fraction():
    assert compute_bp_fraction(140.0, 70.0) == 2.0
    assert compute_bp_fraction(None, 70.0) is None
    assert compute_bp_fraction(140.0, None) is None


def test_error_floor_requires_both_readings(make_encounter):
    kept = exclude_bp_reading_errors(
        [
            make_encounter(systolic=85.0, diastolic=70.0),   # device error
            make_encounter(systolic=120.0, diastolic=55.0),  # device error
            make_encounter(systolic=85.0, diastolic=None),   # single reading: kept
            make_encounter(systolic=None, diastolic=None),   # no reading: kept
            make_encounter(systolic=90.0, diastolic=60.0),   # exactly at floor: kept
        ]
    )
    assert [(e.systolic, e.diastolic) for e in kept] == [
        (85.0, None),
        (None, None),
        (90.0, 60.0),
    ]


# -- exclusion cascade -----------------------------------------------------------

def test_cascade_first_match_priority(make_timeline):
    # deceased and over-age at once: only the deceased tally moves.
    timeline = make_timeline(3, age=95.0)
    timeline[1].deceased = True
    _, tally = apply_cohort_exclusions({"p1": timeline})
    assert tally["deceased"] == 1
    assert tally["age"] == 0


@pytest.mark.parametrize("age,excluded", [(91.0, True), (90.0, False), (17.9, True), (18.0, False)])
def test_age_rule_uses_last_encounter(make_timeline, age, excluded):
    timeline = make_timeline(4)
    timeline[-1].age = age
    included, tally = apply_cohort_exclusions({"p1": timeline})
    assert (tally["age"] == 1) is excluded
    assert ("p1" in included) is not excluded


def test_records_per_year_needs_two_in_every_fiscal_year(make_encounter):
    sparse = [
        make_encounter(when=date(2022, 6, 1)),
        make_encounter(when=date(2023, 6, 1)),
    ]
    dense = [
        make_encounter(when=date(2023, 2, 1)),
        make_encounter(when=date(2023, 4, 1)),
    ]
    _, tally = apply_cohort_exclusions({"sparse": sparse, "dense": dense})
    assert tally["records_per_year"] == 1


def test_records_per_year_keeps_a_patient_with_one_dense_year(make_encounter):
    # Two visits in one fiscal year and one in another: the rule fires only
    # when every spanned year has fewer than two, so this patient stays.
    visits = [
        make_encounter(when=date(2022, 12, 20)),
        make_encounter(when=date(2023, 1, 15)),
        make_encounter(when=date(2023, 3, 1)),
    ]
    included, tally = apply_cohort_exclusions({"p1": visits})
    assert tally["records_per_year"] == 0
    assert list(included) == ["p1"]


def test_fiscal_year_start_shifts_the_rule(make_encounter):
    # Both visits fall in one October-to-September fiscal year; with
    # calendar years the patient has a single visit in each.
    visits = [
        make_encounter(when=date(2022, 11, 1)),
        make_encounter(when=date(2023, 2, 1)),
    ]
    _, calendar_tally = apply_cohort_exclusions({"p1": visits}, fiscal_year_start=1)
    _, october_tally = apply_cohort_exclusions({"p1": visits}, fiscal_year_start=10)
    assert calendar_tally["records_per_year"] == 1
    assert october_tally["records_per_year"] == 0


@pytest.mark.parametrize("month", [13, 0, -4])
def test_fiscal_year_start_must_be_a_month(make_encounter, month):
    with pytest.raises(ValueError, match=f"must be in 1..12, got {month}"):
        apply_cohort_exclusions({"p1": [make_encounter(when=date(2023, 1, 1))]}, month)


@pytest.mark.parametrize("days", [0, -5])
def test_horizon_must_be_at_least_one_day(make_timeline, days):
    with pytest.raises(ValueError, match=f"at least 1 day, got {days}"):
        select_cohort({"p1": make_timeline(4)}, horizon_days=days)


def test_no_vitals_rule_counts_bp_as_vitals(make_timeline):
    bare = make_timeline(3, systolic=None, diastolic=None)
    bp_only = make_timeline(3, systolic=None, diastolic=None)
    bp_only[0].systolic = 130.0
    bp_only[0].diastolic = 80.0
    _, tally = apply_cohort_exclusions({"bare": bare, "bp_only": bp_only})
    assert tally["no_vitals"] == 1


def test_last_gap_rule(make_encounter):
    wide = [
        make_encounter(when=date(2023, 1, 1)),
        make_encounter(when=date(2023, 2, 1)),
        make_encounter(when=date(2023, 6, 1)),  # 120 days after previous
    ]
    _, tally = apply_cohort_exclusions({"p1": wide})
    assert tally["last_gap_90d"] == 1


def test_empty_timeline_after_error_floor_is_excluded(make_encounter):
    timeline = exclude_bp_reading_errors([make_encounter(systolic=80.0, diastolic=50.0)])
    _, tally = apply_cohort_exclusions({"p1": timeline})
    assert sum(tally.values()) == 1


# -- samples ---------------------------------------------------------------------

def test_build_samples_skips_first_visit_and_wide_gaps(make_encounter):
    timeline = [
        make_encounter(when=date(2023, 1, 1), systolic=150.0, diastolic=95.0),
        make_encounter(when=date(2023, 2, 1), systolic=135.0, diastolic=85.0),
        make_encounter(when=date(2023, 6, 1), systolic=145.0, diastolic=92.0),  # gap 120d
        make_encounter(when=date(2023, 7, 1), systolic=None, diastolic=85.0),   # unlabelable
        make_encounter(when=date(2023, 8, 1), systolic=141.0, diastolic=85.0),
    ]
    samples = build_samples(timeline)
    assert [s.target_date for s in samples] == [date(2023, 2, 1), date(2023, 8, 1)]
    assert [s.label for s in samples] == [BpStatus.CONTROLLED, BpStatus.UNCONTROLLED]
    assert [len(s.history) for s in samples] == [1, 4]
    assert [s.final for s in samples] == [False, True]


def test_build_samples_history_is_strict_prefix(make_timeline):
    timeline = make_timeline(5, gap_days=30)
    samples = build_samples(timeline)
    assert len(samples) == 4
    for k, sample in enumerate(samples, start=1):
        assert sample.history == timeline[:k]
        assert sample.target_index == k


def test_build_samples_horizon_is_inclusive(make_timeline):
    at_limit = build_samples(make_timeline(2, gap_days=90))
    beyond = build_samples(make_timeline(2, gap_days=91))
    assert len(at_limit) == 1
    assert len(beyond) == 0


# -- splits ----------------------------------------------------------------------

def test_split_sizes_and_cover():
    patients = [f"p{i:03d}" for i in range(100)]
    assignment = split_patients(patients, DEFAULT_SPLIT_FRACTIONS, seed=9)
    sizes = {name: 0 for name in ("train", "validation", "test")}
    for split in assignment.values():
        sizes[split] += 1
    assert sizes == {"train": 72, "validation": 13, "test": 15}
    assert set(assignment) == set(patients)


def test_split_leftovers_go_in_declaration_order():
    assignment = split_patients(["a", "b", "c", "d", "e"], (0.34, 0.33, 0.33), seed=0)
    sizes = [list(assignment.values()).count(n) for n in ("train", "validation", "test")]
    # floors are 1/1/1, two leftovers -> train and validation
    assert sizes == [2, 2, 1]


def test_split_is_deterministic_and_order_free():
    patients = [f"p{i}" for i in range(50)]
    a = split_patients(patients, seed=4)
    b = split_patients(list(reversed(patients)), seed=4)
    assert a == b
    assert split_patients(patients, seed=5) != a


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        split_patients(["a"], (0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        split_patients(["a"], (0.8, -0.1, 0.3))
    with pytest.raises(DataError):
        split_patients([], DEFAULT_SPLIT_FRACTIONS)


# -- end-to-end over the fixture ---------------------------------------------------

def _load_fixture_cohort(seed=0, data_dir=FIXTURE):
    events = {}
    all_errors = []
    for kind in TABLE_COLUMNS:
        rows, errors = parse_table(data_dir / f"{kind}.csv", kind)
        events[kind] = rows
        all_errors.extend(errors)
    timelines, stats = merge_patient_timeline(
        events["encounters"], events["medications"], events["labs"], events["diagnoses"]
    )
    return select_cohort(timelines, seed=seed), all_errors, stats


def test_fixture_exclusion_report_matches_golden(tmp_path):
    cohort, _, _ = _load_fixture_cohort()
    report = tmp_path / "exclusions.csv"
    write_exclusion_report(cohort.exclusion_tally, cohort.total_patients, report)
    assert report.read_bytes() == (FIXTURE / "exclusions_golden.csv").read_bytes()


def test_fixture_membership_and_samples():
    cohort, errors, stats = _load_fixture_cohort()
    assert sorted(cohort.timelines) == ["pt01", "pt04", "pt08"]
    assert cohort.total_patients == 8
    # malformed pt99 row surfaces as a row error, not a crash
    assert len(errors) == 1 and errors[0].table == "encounters"
    assert stats.dropped_medications == 1  # medication predating every encounter
    by_patient = {}
    for sample in cohort.samples:
        by_patient.setdefault(sample.patient, []).append(sample)
    assert len(by_patient["pt01"]) == 3
    assert len(by_patient["pt04"]) == 1
    assert len(by_patient["pt08"]) == 2
    for samples in by_patient.values():
        assert sum(s.final for s in samples) == 1
        assert samples[-1].final


def test_fixture_error_floor_removed_device_reading():
    cohort, _, _ = _load_fixture_cohort()
    dates = [e.date for e in cohort.timelines["pt01"]]
    assert date(2023, 2, 10) not in dates
    assert len(dates) == 4


def test_fixture_order_events_attached():
    cohort, _, _ = _load_fixture_cohort()
    timeline = cohort.timelines["pt01"]
    by_date = {e.date: e for e in timeline}
    assert "ACEInhibitor" in by_date[date(2023, 3, 11)].med_categories
    assert "CBC" in by_date[date(2023, 3, 11)].lab_panels
    # between-visit medication lands on the most recent prior encounter
    assert "CalciumChannelBlocker" in by_date[date(2023, 5, 10)].med_categories


def _cohort_outputs(data_dir):
    """samples.json and exclusions.csv as `cohort` writes them, and the
    row errors without their (file-position) line numbers."""
    cohort, errors, _ = _load_fixture_cohort(data_dir=data_dir)
    report = data_dir / "exclusions.csv"
    write_exclusion_report(cohort.exclusion_tally, cohort.total_patients, report)
    return (
        canonical_json(cohort_to_dict(cohort)),
        report.read_bytes(),
        Counter((e.table, e.message) for e in errors),
    )


@pytest.fixture(scope="module")
def generated_tables(tmp_path_factory):
    """The directory of a 300-patient `generate --seed 5` cohort's four
    source tables, with a short row and a NaN reading appended to its
    encounters, a directory for shuffled copies, and the cohort outputs
    of the unshuffled tables."""
    from htnrisk.synth import GeneratorConfig, write_cohort

    root = tmp_path_factory.mktemp("row_order")
    write_cohort(GeneratorConfig(seed=5, n_patients=300), root / "data")
    encounters = root / "data" / "encounters.csv"
    _, first, *_ = encounters.read_text(encoding="utf-8").splitlines(True)
    patient, day, _systolic, rest = first.split(",", 3)
    with encounters.open("a", encoding="utf-8") as handle:
        handle.write(f"{patient},{day}\n{patient},{day},nan,{rest}")
    (root / "shuffled").mkdir()
    return root / "data", root / "shuffled", _cohort_outputs(root / "data")


# A smaller shuffle seed is no simpler a shuffle, so failures are not shrunk.
@settings(max_examples=8, deadline=None, derandomize=True, phases=[Phase.generate])
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=4))
def test_cohort_does_not_depend_on_the_row_order_of_its_tables_property(
    generated_tables, seeds
):
    """Shuffling the rows within each source table, header first, leaves
    samples.json and the exclusion report byte-identical and the row
    errors equal as a multiset.

    Scope: `generate` never repeats a visit date within a patient, so the
    merge's ordering of visits on one date is pinned by its own test in
    test_ehr_core.py. Likewise the first principal-diagnosis row of a
    visit sets its code only when the encounter row left it blank, which
    `generate` never does.
    """
    data_dir, shuffled, expected = generated_tables
    assert sum(expected[2].values()) == 2  # the two appended rows
    for kind, seed in zip(TABLE_COLUMNS, seeds):
        header, *rows = (data_dir / f"{kind}.csv").read_text(encoding="utf-8").splitlines(True)
        random.Random(seed).shuffle(rows)
        (shuffled / f"{kind}.csv").write_text(header + "".join(rows), encoding="utf-8")
    assert _cohort_outputs(shuffled) == expected


def _merged_tables(data_dir):
    tables = [parse_table(data_dir / f"{kind}.csv", kind)[0] for kind in TABLE_COLUMNS]
    return merge_patient_timeline(*tables)[0]


def _exclusion_rules(timelines):
    """Each patient's exclusion rule, or None when the cascade keeps them."""
    rules = {}
    for patient, timeline in timelines.items():
        _, tally = apply_cohort_exclusions({patient: exclude_bp_reading_errors(timeline)})
        rules[patient] = next((rule for rule, count in tally.items() if count), None)
    return rules


def _per_patient(timelines, cohort):
    """Timelines, exclusion rules, and each survivor's stored encounters and
    sample rows; the split is left out."""
    data = cohort_to_dict(cohort)
    samples = {}
    for row in data["samples"]:
        samples.setdefault(row["patient"], []).append(row)
    survivors = {
        patient: (entry["encounters"], samples[patient])
        for patient, entry in data["patients"].items()
    }
    stored = {p: [encounter_to_dict(e) for e in t] for p, t in timelines.items()}
    return stored, _exclusion_rules(timelines), survivors


@pytest.fixture(scope="module")
def full_cohort(generated_tables, tmp_path_factory):
    """The sorted patient ids of the generated tables, the per-patient view
    of their full cohort, and a directory for subset tables."""
    data_dir = generated_tables[0]
    timelines = _merged_tables(data_dir)
    view = _per_patient(timelines, select_cohort(timelines))
    return sorted(timelines), view, tmp_path_factory.mktemp("subset")


@settings(max_examples=10, deadline=None, derandomize=True)
@given(picks=st.sets(st.integers(0, 299), min_size=1, max_size=40))
def test_cohort_of_a_patient_subset_agrees_with_the_full_cohort_property(
    generated_tables, full_cohort, picks
):
    """A cohort built from the rows of some patients gives each of them the
    timeline, exclusion rule, encounters and samples of the full cohort,
    and its tally counts their rules. Splits are left out: `split_patients`
    permutes the whole survivor list."""
    data_dir = generated_tables[0]
    patients, (stored, rules, survivors), subset_dir = full_cohort
    subset = {patients[i % len(patients)] for i in picks}
    for kind in TABLE_COLUMNS:
        header, *rows = (data_dir / f"{kind}.csv").read_text(encoding="utf-8").splitlines(True)
        kept = [row for row in rows if row.split(",", 1)[0] in subset]
        (subset_dir / f"{kind}.csv").write_text(header + "".join(kept), encoding="utf-8")
    timelines = _merged_tables(subset_dir)
    expected_survivors = {p: survivors[p] for p in sorted(subset) if p in survivors}
    if not expected_survivors:
        with pytest.raises(DataError, match="empty cohort"):
            select_cohort(timelines)
        return
    cohort = select_cohort(timelines)
    assert _per_patient(timelines, cohort) == (
        {p: stored[p] for p in subset},
        {p: rules[p] for p in subset},
        expected_survivors,
    )
    counted = Counter(rules[p] for p in subset)
    assert cohort.exclusion_tally == {rule: counted[rule] for rule in EXCLUSION_RULES}
    assert cohort.total_patients == len(subset)


def test_select_cohort_empty_raises(make_encounter):
    lonely = {"p1": [make_encounter(when=date(2023, 1, 1))]}  # one visit: excluded
    with pytest.raises(DataError, match="empty cohort"):
        select_cohort(lonely)


def test_cohort_round_trip():
    cohort, _, _ = _load_fixture_cohort(seed=3)
    restored = cohort_from_dict(cohort_to_dict(cohort))
    assert isinstance(restored, Cohort)
    assert restored.splits == cohort.splits
    assert restored.exclusion_tally == cohort.exclusion_tally
    assert restored.total_patients == cohort.total_patients
    assert len(restored.samples) == len(cohort.samples)
    for a, b in zip(restored.samples, cohort.samples):
        assert (a.patient, a.target_date, a.label, a.final) == (
            b.patient,
            b.target_date,
            b.label,
            b.final,
        )
        assert [e.date for e in a.history] == [e.date for e in b.history]
        assert a.history[-1].med_categories == b.history[-1].med_categories
    # round trip preserves the serialized form exactly
    assert cohort_to_dict(restored) == cohort_to_dict(cohort)


def test_cohort_from_dict_decodes_only_the_named_splits():
    cohort, _, _ = _load_fixture_cohort()
    data = cohort_to_dict(cohort)
    for entry, split in zip(data["patients"].values(), SPLIT_NAMES):
        entry["split"] = split  # one patient in each split
    full = cohort_from_dict(data)
    for kept in [("train",), ("validation", "test"), ()]:
        part = cohort_from_dict(data, kept)
        members = {p for p, split in full.splits.items() if split in kept}
        assert set(part.timelines) == members
        assert part.splits == {p: full.splits[p] for p in members}
        assert [(s.patient, s.target_index) for s in part.samples] == [
            (s.patient, s.target_index) for s in full.samples if s.patient in members
        ]
    # rows of patients left undecoded are still checked
    outside = full.samples[0].patient
    rest = tuple(name for name in SPLIT_NAMES if name != full.splits[outside])
    data["samples"][0]["target_index"] = len(full.timelines[outside])
    with pytest.raises(DataError, match="target_index"):
        cohort_from_dict(data, rest)


def test_visits_of_one_date_load(make_timeline):
    # Dates must not decrease; ties are allowed.
    timeline = make_timeline(4, gap_days=30)
    timeline[2].date = timeline[1].date
    cohort = select_cohort({"p1": timeline})
    assert cohort_from_dict(cohort_to_dict(cohort)).samples == cohort.samples


def test_sample_rows_out_of_patient_entry_order_are_a_data_error():
    # pt01 is in train, pt04 in validation and pt08 in test. pt01's first
    # row moved to the end, or its last row placed just before pt08's rows:
    # every decode names pt01, even the test decode, which decodes only
    # pt08, whose rows are intact.
    assert [_ONE_PER_SPLIT["patients"][p]["split"] for p in ("pt01", "pt04", "pt08")] == list(
        SPLIT_NAMES)
    at_end, before_pt08 = copy.deepcopy(_ONE_PER_SPLIT), copy.deepcopy(_ONE_PER_SPLIT)
    at_end["samples"].append(at_end["samples"].pop(0))
    rows = before_pt08["samples"]
    moved = rows.pop(max(i for i, row in enumerate(rows) if row["patient"] == "pt01"))
    rows.insert(next(i for i, row in enumerate(rows) if row["patient"] == "pt08"), moved)
    for data in (at_end, before_pt08):
        for split in SPLIT_NAMES:
            with pytest.raises(DataError, match="^patient pt01: sample rows are not in "
                                                "patient-entry order$"):
                cohort_from_dict(data, (split,))


def test_exclusion_rules_tuple_is_the_cascade_order():
    assert EXCLUSION_RULES == (
        "deceased",
        "age",
        "records_per_year",
        "no_vitals",
        "last_gap_90d",
    )


# -- loader contracts: the samples, schema and model files --------------------------

def _json_nodes(node, path=()):
    """The path of every node of a JSON tree, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _json_nodes(child, path + (key,))


def _json_type(value) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string",
            type(None): "null", list: "array", dict: "object"}[type(value)]


_DELETE = object()
_REPLACEMENTS = (None, 0, "x", [], {}, True)
_CLEAN_SAMPLES = cohort_to_dict(_load_fixture_cohort()[0])
_TRAIN_SAMPLES = cohort_from_dict(_CLEAN_SAMPLES).samples_in("train")
_CLEAN_SCHEMA = fit_schema(_TRAIN_SAMPLES)


def _damaged(data, tree, within=()):
    """A copy of `tree` with one node deleted, if it is an object key, or
    replaced by a value of another JSON type. The node is drawn from those
    whose path starts with one of the keys `within`, or from all of them."""
    damaged = copy.deepcopy(tree)
    paths = [p for p in _json_nodes(damaged) if not within or (p and p[0] in within)]
    path = data.draw(st.sampled_from(paths))
    parent = damaged
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else damaged
    damages = [v for v in _REPLACEMENTS if _json_type(v) != _json_type(node)]
    if path and isinstance(parent, dict):
        damages.append(_DELETE)
    damage = data.draw(st.sampled_from(damages))
    if not path:
        return damage
    if damage is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(damage)
    return damaged


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_samples_load_and_featurize_or_raise_data_error_property(data):
    # One node at any depth is deleted or retyped. Loading the file and
    # featurizing its samples with the clean schema then either works or
    # is a DataError.
    damaged = _damaged(data, _CLEAN_SAMPLES)
    try:
        cohort = cohort_from_dict(damaged)
        featurize_sequences(cohort.samples, _CLEAN_SCHEMA)
        featurize_lr(cohort.samples, _CLEAN_SCHEMA)
    except DataError:
        pass


_ONE_PER_SPLIT = copy.deepcopy(_CLEAN_SAMPLES)
for _entry, _split in zip(_ONE_PER_SPLIT["patients"].values(), SPLIT_NAMES):
    _entry["split"] = _split


def _other_splits(split: str) -> tuple[str, ...]:
    return tuple(name for name in SPLIT_NAMES if name != split)


_CLEAN_OTHER_SAMPLES = {
    split: cohort_from_dict(_ONE_PER_SPLIT, _other_splits(split)).samples for split in SPLIT_NAMES
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_damaged_sample_row_stops_only_the_decode_of_its_split_property(data):
    # One patient in each split. One row is duplicated or dropped, or its
    # label, its final flag or its target_index (to another index inside
    # the timeline) changes, or two of its patient's visits of different
    # dates swap places. Or the row moves among the rows of a later
    # patient, which stops the decode of every split.
    damaged = copy.deepcopy(_ONE_PER_SPLIT)
    rows = damaged["samples"]
    at = data.draw(st.integers(0, len(rows) - 1))
    row = rows[at]
    patient = row["patient"]
    encounters = damaged["patients"][patient]["encounters"]
    moves = [i for i in range(1, len(encounters)) if i != row["target_index"]]
    swaps = [(i, j) for j in range(len(encounters)) for i in range(j)
             if encounters[i]["date"] != encounters[j]["date"]]
    entries = list(damaged["patients"])
    # Places after a row of a later patient, counted once the row is taken out.
    places = [i + 1 for i, other in enumerate(rows[:at] + rows[at + 1:])
              if entries.index(other["patient"]) > entries.index(patient)]
    damage = data.draw(st.sampled_from(["duplicate", "drop", "label", "final"]
                                       + (["move"] if moves else [])
                                       + (["swap"] if swaps else [])
                                       + (["reorder"] if places else [])))
    message = "sample rows differ"
    if damage == "reorder":
        rows.insert(data.draw(st.sampled_from(places)), rows.pop(at))
        for split in SPLIT_NAMES:
            with pytest.raises(DataError, match=f"^patient {patient}: sample rows are not in "
                                                "patient-entry order$"):
                cohort_from_dict(damaged, (split,))
        return
    if damage == "swap":
        i, j = data.draw(st.sampled_from(swaps))
        encounters[i], encounters[j] = encounters[j], encounters[i]
        message = "encounters are not in date order"
    elif damage == "duplicate":
        rows.insert(at, dict(row))
    elif damage == "drop":
        del rows[at]
    elif damage == "label":
        row["label"] = 1 - row["label"]
    elif damage == "final":
        row["final"] = not row["final"]
    else:
        row["target_index"] = data.draw(st.sampled_from(moves))
    split = damaged["patients"][patient]["split"]
    with pytest.raises(DataError, match=f"^patient {patient}: {message}"):
        cohort_from_dict(damaged, (split,))
    assert cohort_from_dict(damaged, _other_splits(split)).samples == _CLEAN_OTHER_SAMPLES[split]


@pytest.mark.parametrize("damaged", [False, True], ids=["undamaged", "damaged"])
def test_decoding_leaves_the_samples_dict_unchanged(damaged):
    # bench/layers.py and perfbench/worker.py decode one parsed file
    # repeatedly. The damage, a flipped label in the last row, raises after
    # every patient was decoded.
    data = copy.deepcopy(_ONE_PER_SPLIT)
    if damaged:
        data["samples"][-1]["label"] = 1 - data["samples"][-1]["label"]
    before = copy.deepcopy(data)
    with pytest.raises(DataError) if damaged else contextlib.nullcontext():
        cohort_from_dict(data)
    assert data == before


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_schema_loads_and_featurizes_or_raises_data_error_property(data):
    damaged = _damaged(data, schema_to_dict(_CLEAN_SCHEMA))
    try:
        schema = schema_from_dict(damaged)
        featurize_sequences(_TRAIN_SAMPLES, schema)
        featurize_lr(_TRAIN_SAMPLES, schema)
    except DataError:
        pass


def _clean_model(kind: str) -> dict:
    rng = np.random.default_rng(0)
    if kind == "lr":
        params = LrParams(w=rng.standard_normal(_CLEAN_SCHEMA.lr_width), b=0.25)
    else:
        params = init_lstm_params(_CLEAN_SCHEMA.width, 2, rng)
    return model_to_dict(kind, params, _CLEAN_SCHEMA, {"epochs_run": 1, "stop_reason": "max"})


_CLEAN_MODELS = {kind: _clean_model(kind) for kind in ("lr", "lstm")}


@pytest.mark.parametrize("kind", ["lr", "lstm"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_model_loads_and_scores_or_raises_data_error_property(kind, data):
    damaged = _damaged(data, _CLEAN_MODELS[kind])
    try:
        loaded, params, schema, _ = model_from_dict(damaged)
        predict_proba(loaded, params, model_inputs(loaded, _TRAIN_SAMPLES, schema)[0])
    except DataError:
        pass


@pytest.mark.parametrize("kind", ["lr", "lstm"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_model_weights_or_shapes_raise_data_error_property(kind, data):
    # No weight or shape survives a deletion or a change of JSON type.
    damaged = _damaged(data, _CLEAN_MODELS[kind], within=("weights", "shapes"))
    with pytest.raises(DataError):
        model_from_dict(damaged)
