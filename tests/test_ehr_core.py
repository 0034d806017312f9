"""Parsing, drug categorization, and timeline merging."""

import csv
import io
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htnrisk.ehr_core import (
    TABLE_COLUMNS,
    DataError,
    DiagnosisEvent,
    EncounterRecord,
    LabOrderEvent,
    MedicationEvent,
    MedicationCategory,
    MergeStats,
    categorize_medication,
    encounter_from_dict,
    encounter_to_dict,
    format_rows,
    merge_patient_timeline,
    normalize_drug_name,
    parse_table,
    patient_ids,
    write_error_report,
    write_table,
)


# -- drug names ----------------------------------------------------------------

def test_normalize_drug_name_lowercases_and_collapses_whitespace():
    assert normalize_drug_name("  AmLODIPine   Besylate ") == "amlodipine besylate"


def test_normalize_drug_name_strips_around_slash():
    assert normalize_drug_name("Amlodipine / Benazepril") == "amlodipine/benazepril"


@pytest.mark.parametrize(
    "drug,expected",
    [
        ("Metoprolol", {MedicationCategory.BETA_BLOCKER}),
        ("amlodipine", {MedicationCategory.CALCIUM_CHANNEL_BLOCKER}),
        ("LOSARTAN", {MedicationCategory.ANTIHYPERTENSIVE}),
        ("lisinopril", {MedicationCategory.ACE_INHIBITOR}),
        ("triamterene", {MedicationCategory.DIURETIC}),
        ("hydralazine", {MedicationCategory.VASODILATOR}),
    ],
)
def test_categorize_known_drugs(drug, expected):
    assert categorize_medication(drug) == frozenset(expected)


def test_categorize_multi_family_drug():
    # Some ingredients belong to two categories at once.
    cats = categorize_medication("nifedipine")
    assert MedicationCategory.CALCIUM_CHANNEL_BLOCKER in cats
    assert MedicationCategory.ANTIHYPERTENSIVE in cats
    assert len(cats) == 2


def test_categorize_unknown_drug_falls_back_to_other():
    assert categorize_medication("ibuprofen") == frozenset({MedicationCategory.OTHER})


def test_categorize_is_case_and_whitespace_insensitive():
    assert categorize_medication("  MetOPROLOL  ") == categorize_medication("metoprolol")


# -- row parsing ---------------------------------------------------------------

ENCOUNTER_HEADER = (
    "patient_id,date,systolic,diastolic,pulse,height,weight,bmi,temperature,"
    "respiratory_rate,heart_rate,fatigue,sex,age,race,marital_status,language,"
    "smoking,diagnosis_code,deceased"
)


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_parse_encounters_happy_path(tmp_path):
    path = tmp_path / "encounters.csv"
    _write(
        path,
        [
            ENCOUNTER_HEADER,
            "p1,2023-01-05,142,91,72,,80.5,,,,,,F,61,white,married,english,never,I10,0",
        ],
    )
    rows, errors = parse_table(path, "encounters")
    assert errors == []
    (enc,) = rows
    assert enc.patient == "p1"
    assert enc.date == date(2023, 1, 5)
    assert enc.sex == "female"
    assert enc.systolic == 142.0 and enc.diastolic == 91.0
    assert enc.vitals == {"pulse": 72.0, "weight": 80.5}
    assert enc.demographics["race"] == "white"
    assert enc.diagnosis_code == "I10"
    assert enc.deceased is False


def test_parse_empty_bp_cells_become_none(tmp_path):
    path = tmp_path / "encounters.csv"
    _write(path, [ENCOUNTER_HEADER, "p1,2023-01-05,,,,,,,,,,,M,40,,,,,,0"])
    rows, errors = parse_table(path, "encounters")
    assert errors == []
    assert rows[0].systolic is None and rows[0].diastolic is None
    assert rows[0].has_vitals() is False


def test_parse_collects_row_errors_with_line_numbers(tmp_path):
    path = tmp_path / "encounters.csv"
    _write(
        path,
        [
            ENCOUNTER_HEADER,
            "p1,2023-13-40,120,80,,,,,,,,,F,50,,,,,,0",   # bad date
            "p2,2023-02-01,120,80,,,,,,,,,X,50,,,,,,0",   # bad sex code
            "p3,2023-02-01,120,80,,,,,,,,,F,150,,,,,,0",  # age out of range
            "p4,2023-02-01,-5,80,,,,,,,,,F,50,,,,,,0",    # non-positive bp
            "p5,2023-02-01,120,80,,,,,,,,,F,50,,,,,,0",   # fine
        ],
    )
    rows, errors = parse_table(path, "encounters")
    assert [r.patient for r in rows] == ["p5"]
    assert [e.row for e in errors] == [2, 3, 4, 5]
    assert all(e.table == "encounters" for e in errors)


def test_row_errors_carry_the_file_line_where_the_record_starts(tmp_path):
    path = tmp_path / "labs.csv"
    _write(
        path,
        [
            "patient_id,date,panel_name",
            "",                                     # blank line 2
            "p1,2023-13-01,Urinalysis",             # line 3: bad date
            'p1,2023-01-05,"Lytes/Renal',           # lines 4-5: one quoted cell
            'Glucose"',
            "p1,2023-01-06,Urinalysis,extra",       # line 6: four cells
        ],
    )
    rows, errors = parse_table(path, "labs")
    assert [r.panel_name for r in rows] == ["Lytes/Renal\nGlucose"]
    assert [e.row for e in errors] == [3, 6]


def test_parse_rows_with_another_cell_count_are_row_errors(tmp_path):
    path = tmp_path / "medications.csv"
    _write(
        path,
        [
            "patient_id,date,drug_name",
            "p1,2023-01-05",                    # short
            "p1,2023-01-05,Lisinopril,extra",   # long
            "p1,2023-01-05,Lisinopril",
        ],
    )
    rows, errors = parse_table(path, "medications")
    assert [r.drug_name for r in rows] == ["lisinopril"]
    assert [(e.row, e.message) for e in errors] == [
        (2, "expected 3 cells, got 2"),
        (3, "expected 3 cells, got 4"),
    ]


@pytest.mark.parametrize(
    "column, cell",
    [("systolic", "nan"), ("diastolic", "inf"), ("pulse", "-Infinity"), ("age", "NaN")],
)
def test_parse_non_finite_numbers_are_row_errors(tmp_path, column, cell):
    names = ENCOUNTER_HEADER.split(",")
    cells = "p1,2023-01-05,142,91,72,,80.5,,,,,,F,61,white,married,english,never,I10,0".split(",")
    cells[names.index(column)] = cell
    path = tmp_path / "encounters.csv"
    _write(path, [ENCOUNTER_HEADER, ",".join(cells)])
    rows, errors = parse_table(path, "encounters")
    assert rows == []
    assert [e.message for e in errors] == [f"non-finite numeric {cell!r} in column {column}"]


def test_parse_undecodable_text_is_a_data_error(tmp_path):
    path = tmp_path / "labs.csv"
    path.write_bytes(b"patient_id,date,panel_name\np1,2023-01-05,CBC\xff\xfe\n")
    with pytest.raises(DataError, match="labs.csv: not UTF-8 text"):
        parse_table(path, "labs")


_VALID_ROWS = {
    "encounters": "p1,2023-01-05,142,91,72,,80.5,,,,,,F,61,white,married,english,never,I10,0",
    "medications": "p1,2023-01-05,Lisinopril",
    "labs": "p1,2023-01-05,CBC",
    "diagnoses": "p1,2023-01-05,I10,1",
}
_CELLS = st.one_of(
    st.sampled_from(
        ["", " ", "nan", "-inf", "inf", "1e999", '"', '""', ",", "\n", "p1", "2023-01-05",
         "142", "-5", "0", "1", "F", "M", "I10", "Lisinopril"]
    ),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(sorted(TABLE_COLUMNS)))
def test_appended_rows_parse_or_become_row_errors_property(data, kind):
    # Rows of any cell count, near the header's most of all, appended to
    # a valid table: each one parses or becomes a RowError, and nothing
    # else escapes parse_table.
    width = len(TABLE_COLUMNS[kind])
    counts = st.one_of(
        st.sampled_from([0, 1, width - 1, width, width, width + 1]), st.integers(0, 24)
    )
    row = counts.flatmap(lambda n: st.lists(_CELLS, min_size=n, max_size=n))
    rows = data.draw(st.lists(row, max_size=5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            handle.write(",".join(TABLE_COLUMNS[kind]) + "\n" + _VALID_ROWS[kind] + "\n")
            # A CRLF terminator makes the writer quote a lone "\r" too.
            csv.writer(handle, lineterminator="\r\n").writerows(rows)
        events, errors = parse_table(path, kind)
    appended = sum(1 for row in rows if row)  # an empty row is a blank line, skipped
    assert len(events) + len(errors) == 1 + appended
    assert events and events[0].patient == "p1"
    # Each error names the file line where its record starts: the lines
    # before it are the header, the valid row and the earlier appended rows,
    # split as the reader splits them.
    starts, line = [], 3
    for row in rows:
        if row:
            starts.append(line)
        text = io.StringIO()
        csv.writer(text, lineterminator="\r\n").writerow(row)
        line += len(io.StringIO(text.getvalue(), newline="").readlines())
    assert all(e.table == kind for e in errors)
    assert [e.row for e in errors] == sorted(set(e.row for e in errors))
    assert {e.row for e in errors} <= set(starts)


_IDS = st.sampled_from(["", " ", "p1", " p1", "p1 ", "p2", "p10", "P3", "q", "\u00e9"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(sorted(TABLE_COLUMNS)))
def test_parsing_range_by_range_equals_one_full_parse_property(data, kind):
    """Ranges that split the id space, parsed one by one and concatenated,
    give the records of one full parse, grouped by range and in file order
    within each, and its row errors once merged by line. The ids include
    the empty one, ids padded with spaces and, across tables, ids that only
    some tables hold; a repeated `patient_id` column puts the id the parser
    reads in the last one."""
    header = list(TABLE_COLUMNS[kind])
    repeated = data.draw(st.booleans())
    if repeated:
        header.append("patient_id")
    template = _VALID_ROWS[kind].split(",")
    rows = []
    for patient, form in data.draw(st.lists(st.tuples(
        _IDS, st.sampled_from(["valid", "valid", "bad date", "short", "long"])
    ), max_size=12)):
        cells = [patient] + template[1:] + ([patient] if repeated else [])
        if repeated:
            cells[0] = data.draw(_IDS)  # not the cell the parser reads
        if form == "bad date":
            cells[1] = "2023-13-45"
        elif form == "short":
            cells = cells[:2]
        elif form == "long":
            cells.append("extra")
        rows.append(cells)
    cuts = sorted(set(data.draw(st.lists(st.one_of(_IDS, st.text(max_size=3)), max_size=4))))
    bounds = list(zip([None, *cuts], [*cuts, None]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows([header, *rows])
        events, errors = parse_table(path, kind)
        parts = [parse_table(path, kind, low, high) for low, high in bounds]

    def range_of(patient):
        return sum(cut <= patient for cut in cuts)

    assert [e for part, _ in parts for e in part] == sorted(
        events, key=lambda e: range_of(e.patient))
    assert sorted((e for _, part in parts for e in part), key=lambda e: e.row) == errors


def test_patient_ids_are_the_sorted_distinct_stripped_ids(tmp_path):
    path = tmp_path / "labs.csv"
    _write(path, ["patient_id,date,panel_name", "p2,2023-01-05,CBC", " p1 ,x,y", "p2,2023",
                  ",2023-01-05,CBC", "p3"])
    assert patient_ids(path) == ["", "p1", "p2", "p3"]


@pytest.mark.parametrize("content", [None, b"", b"date,code\np1,x\n", b"patient_id\n\xff\n"])
def test_patient_ids_of_an_unreadable_table_are_none(tmp_path, content):
    path = tmp_path / "encounters.csv"
    if content is not None:
        path.write_bytes(content)
    assert patient_ids(path) == []


def test_parse_missing_required_column_is_fatal(tmp_path):
    path = tmp_path / "encounters.csv"
    _write(path, [ENCOUNTER_HEADER.replace("systolic,", ""), "p1,2023-01-05,80"])
    with pytest.raises(DataError, match="systolic"):
        parse_table(path, "encounters")


def test_parse_tolerates_extra_and_reordered_columns(tmp_path):
    path = tmp_path / "medications.csv"
    _write(
        path,
        ["note,drug_name,patient_id,date", "irrelevant,Lisinopril,p1,2023-01-05"],
    )
    rows, errors = parse_table(path, "medications")
    assert errors == []
    assert rows[0].drug_name == "lisinopril"


def test_parse_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="not found"):
        parse_table(tmp_path / "absent.csv", "encounters")


def test_diagnosis_row_validates_principal_flag(tmp_path):
    path = tmp_path / "diagnoses.csv"
    _write(path, ["patient_id,date,code,is_principal", "p1,2023-01-05,I10,yes"])
    rows, errors = parse_table(path, "diagnoses")
    assert rows == [] and len(errors) == 1


def test_serialize_then_parse_round_trips(tmp_path, make_encounter):
    records = [
        make_encounter(patient="p1", systolic=None, diastolic=None, vitals={"bmi": 31.2}),
        make_encounter(patient="p2", sex="male", diagnosis_code="I10", deceased=True),
    ]
    path = tmp_path / "encounters.csv"
    write_table(path, "encounters", [format_rows(records, "encounters").encode("utf-8")])
    parsed, errors = parse_table(path, "encounters")
    assert errors == []
    assert [encounter_to_dict(e) for e in parsed] == [encounter_to_dict(e) for e in records]
    # exports are LF only
    assert b"\r" not in path.read_bytes()


def test_write_error_report(tmp_path):
    from htnrisk.ehr_core import RowError

    path = tmp_path / "row_errors.csv"
    write_error_report([RowError(7, "labs", 'bad "cell"')], path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "row,table,message"
    assert "7,labs" in text


# -- timeline merge -------------------------------------------------------------

def _day(n):
    return date(2023, 1, n)


def test_merge_attaches_same_date_events(make_encounter):
    encounters = [make_encounter(when=_day(10))]
    meds = [MedicationEvent("p1", _day(10), "lisinopril")]
    labs = [LabOrderEvent("p1", _day(10), "CBC")]
    timelines, stats = merge_patient_timeline(encounters, meds, labs, [])
    enc = timelines["p1"][0]
    assert "ACEInhibitor" in enc.med_categories
    assert enc.lab_panels == {"CBC"}
    assert stats.dropped_medications == 0


def test_merge_attaches_between_visit_events_to_prior_encounter(make_encounter):
    encounters = [make_encounter(when=_day(10)), make_encounter(when=_day(20))]
    meds = [MedicationEvent("p1", _day(14), "metoprolol")]
    timelines, _ = merge_patient_timeline(encounters, meds, [], [])
    first, second = timelines["p1"]
    assert "BetaBlocker" in first.med_categories
    assert second.med_categories == set()


def test_merge_drops_and_counts_orphan_events(make_encounter):
    encounters = [make_encounter(when=_day(10))]
    meds = [MedicationEvent("p1", _day(2), "metoprolol")]
    labs = [LabOrderEvent("p9", _day(10), "CBC")]  # unknown patient
    timelines, stats = merge_patient_timeline(encounters, meds, labs, [])
    assert timelines["p1"][0].med_categories == set()
    assert stats.dropped_medications == 1
    assert stats.dropped_labs == 1


def test_merge_sorts_encounters_and_keeps_problem_codes(make_encounter):
    encounters = [make_encounter(when=_day(20)), make_encounter(when=_day(5))]
    diagnoses = [
        DiagnosisEvent("p1", _day(5), "E11", is_principal=False),
        DiagnosisEvent("p1", _day(20), "I10", is_principal=True),
    ]
    timelines, _ = merge_patient_timeline(encounters, [], [], diagnoses)
    timeline = timelines["p1"]
    assert [e.date for e in timeline] == [_day(5), _day(20)]
    assert timeline[0].problems == {"E11"}
    assert timeline[1].problems == {"I10"}


def test_merge_principal_diagnosis_fills_empty_code(make_encounter):
    encounters = [make_encounter(when=_day(10), diagnosis_code=None)]
    diagnoses = [DiagnosisEvent("p1", _day(10), "I10", is_principal=True)]
    timelines, _ = merge_patient_timeline(encounters, [], [], diagnoses)
    assert timelines["p1"][0].diagnosis_code == "I10"


def test_merge_principal_diagnosis_does_not_depend_on_row_order(make_encounter):
    encounters = [make_encounter(when=_day(10), diagnosis_code=None)]
    rows = [
        DiagnosisEvent("p1", _day(10), "I10", is_principal=True),
        DiagnosisEvent("p1", _day(10), "E78", is_principal=True),
        DiagnosisEvent("p1", _day(8), "J45", is_principal=True),  # maps to no visit
    ]
    codes = set()
    for diagnoses in (rows, rows[::-1]):
        timelines, stats = merge_patient_timeline(encounters, [], [], diagnoses)
        codes.add(timelines["p1"][0].diagnosis_code)
        assert stats.dropped_diagnoses == 1
    assert codes == {"E78"}


def test_merge_orders_visits_on_one_date_by_content_not_row_order(make_encounter):
    day = date(2020, 1, 1)
    visits = [make_encounter(when=day, systolic=150.0, diastolic=95.0),
              make_encounter(when=day, systolic=120.0, diastolic=70.0)]
    meds = [MedicationEvent("p1", day, "lisinopril")]
    stored = []
    for encounters in (visits, visits[::-1]):
        timelines, _ = merge_patient_timeline(encounters, meds, [], [])
        stored.append([encounter_to_dict(e) for e in timelines["p1"]])
    assert stored[0] == stored[1]
    treated = [(e["systolic"], e["med_categories"]) for e in stored[0]]
    assert treated == [(120.0, []), (150.0, ["ACEInhibitor"])]


def test_merge_principal_diagnosis_keeps_existing_code(make_encounter):
    encounters = [make_encounter(when=_day(10), diagnosis_code="E11")]
    diagnoses = [DiagnosisEvent("p1", _day(10), "I10", is_principal=True)]
    timelines, _ = merge_patient_timeline(encounters, [], [], diagnoses)
    assert timelines["p1"][0].diagnosis_code == "E11"


def test_merge_reads_one_shot_generators_once_each_in_table_order():
    """`cohort` hands the merge one lazily parsed table at a time, which
    holds only while each input is read once, to its end, before the next."""
    fixture = Path(__file__).parent / "data" / "cohort_fixture"
    tables = {kind: parse_table(fixture / f"{kind}.csv", kind)[0] for kind in TABLE_COLUMNS}
    orphans = {  # one event of an unknown patient per event table
        "medications": MedicationEvent("p9", _day(1), "metoprolol"),
        "labs": LabOrderEvent("p9", _day(1), "CBC"),
        "diagnoses": DiagnosisEvent("p9", _day(1), "I10", is_principal=True),
    }
    for kind, event in orphans.items():
        tables[kind].append(event)
    reads = []

    def one_shot(kind):
        reads.append(("start", kind))
        yield from tables[kind]
        reads.append(("end", kind))

    from_lists = merge_patient_timeline(*tables.values())
    from_generators = merge_patient_timeline(*(one_shot(kind) for kind in TABLE_COLUMNS))
    assert reads == [(step, kind) for kind in TABLE_COLUMNS for step in ("start", "end")]
    assert from_generators[1] == from_lists[1] == MergeStats(2, 1, 1)

    def stored(timelines):
        return {p: [encounter_to_dict(e) for e in t] for p, t in timelines.items()}

    assert stored(from_generators[0]) == stored(from_lists[0])


def test_merge_does_not_mutate_inputs(make_encounter):
    enc = make_encounter(when=_day(10))
    merge_patient_timeline([enc], [MedicationEvent("p1", _day(10), "metoprolol")], [], [])
    assert enc.med_categories == set()


def test_encounter_dict_round_trip(make_encounter):
    enc = make_encounter(
        vitals={"bmi": 29.4},
        demographics={"race": "white"},
        med_categories={"Diuretic", "BetaBlocker"},
        lab_panels={"CBC"},
        problems={"I10"},
        diagnosis_code="I10",
    )
    restored = encounter_from_dict(encounter_to_dict(enc))
    assert encounter_to_dict(restored) == encounter_to_dict(enc)
    assert restored.date == enc.date
    assert restored.med_categories == enc.med_categories
