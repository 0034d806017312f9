"""Synthetic generator: clean schemas, calibrated dynamics, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from htnrisk.artifacts import read_config, read_json
from htnrisk.cli import main
from htnrisk.cohort import select_cohort
from htnrisk.ehr_core import merge_patient_timeline, parse_table
import htnrisk.synth as synth
from htnrisk.synth import (
    LANGUAGES,
    MARITAL,
    RACES,
    SMOKING,
    GeneratorConfig,
    generate_cohort,
    write_cohort,
)

# All special-role rates off: every patient follows the normal visit
# schedule, so the statistical tests see only the AR(1) process.
NO_ROLES = dict(
    deceased_rate=0.0,
    minor_rate=0.0,
    elderly_rate=0.0,
    sparse_rate=0.0,
    no_vitals_rate=0.0,
    last_gap_rate=0.0,
)

# Degenerate BP model: one mode, no patient-level spread, covariates
# inert. Every reading is then mu + dev with dev a pure AR(1).
FLAT_BP = dict(
    patient_sd=0.0,
    dia_patient_sd=0.0,
    hi_prob=0.0,
    covariate_scale=0.0,
    miss_bp=0.0,
    **NO_ROLES,
)


def _by_patient(tables):
    streams = {}
    for enc in tables.encounters:
        streams.setdefault(enc.patient, []).append(enc)
    for stream in streams.values():
        stream.sort(key=lambda enc: enc.date)
    return streams


def _pooled_lag1(tables, mean):
    """Lag-1 correlation of within-patient systolic deviations, pooled."""
    left, right = [], []
    for stream in _by_patient(tables).values():
        readings = [enc.systolic for enc in stream]
        for a, b in zip(readings, readings[1:]):
            if a is not None and b is not None:
                left.append(a - mean)
                right.append(b - mean)
    left = np.asarray(left)
    right = np.asarray(right)
    num = float(np.mean(left * right))
    den = float(np.sqrt(np.mean(left**2) * np.mean(right**2)))
    return num / den, left.size


# -- schema round trip --------------------------------------------------------


def test_generated_tables_parse_with_zero_row_errors(tmp_path):
    config = GeneratorConfig(n_patients=60, seed=7)
    tables = generate_cohort(config)
    paths, n_encounters = write_cohort(config, tmp_path)
    kinds = ("encounters", "medications", "labs", "diagnoses")
    assert paths == [tmp_path / f"{kind}.csv" for kind in kinds]
    assert n_encounters == len(tables.encounters)
    for kind in kinds:
        rows, errors = parse_table(tmp_path / f"{kind}.csv", kind)
        assert errors == []
        assert len(rows) == len(getattr(tables, kind))


def test_every_event_lands_on_an_encounter_date():
    # Orders are only emitted at visits, so the merge never drops any.
    tables = generate_cohort(GeneratorConfig(n_patients=80, seed=3))
    visit_keys = {(enc.patient, enc.date) for enc in tables.encounters}
    for event in tables.medications + tables.labs + tables.diagnoses:
        assert (event.patient, event.date) in visit_keys
    _, stats = merge_patient_timeline(
        tables.encounters, tables.medications, tables.labs, tables.diagnoses
    )
    assert stats.dropped_medications == 0
    assert stats.dropped_labs == 0
    assert stats.dropped_diagnoses == 0


def test_one_principal_diagnosis_per_visit():
    tables = generate_cohort(GeneratorConfig(n_patients=40, seed=11))
    principal_counts = {}
    for event in tables.diagnoses:
        if event.is_principal:
            key = (event.patient, event.date)
            principal_counts[key] = principal_counts.get(key, 0) + 1
    assert set(principal_counts) == {(e.patient, e.date) for e in tables.encounters}
    assert set(principal_counts.values()) == {1}


def test_generated_cohort_survives_selection():
    tables = generate_cohort(GeneratorConfig(n_patients=300, seed=5))
    timelines, _ = merge_patient_timeline(
        tables.encounters, tables.medications, tables.labs, tables.diagnoses
    )
    assert len(timelines) == 300
    cohort = select_cohort(timelines, seed=0)
    assert cohort.samples
    assert cohort.total_patients == 300
    excluded = sum(cohort.exclusion_tally.values())
    assert len(cohort.timelines) == 300 - excluded
    splits = {cohort.splits[sample.patient] for sample in cohort.samples}
    assert splits <= {"train", "validation", "test"}


# -- calibrated dynamics ------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_lag1_persistence_matches_configured_phi(seed):
    config = GeneratorConfig(
        n_patients=1000, seed=seed, phi=0.8, visits_min=6, visits_max=6, **FLAT_BP
    )
    rho, pairs = _pooled_lag1(generate_cohort(config), config.systolic_mean)
    assert pairs == 5000
    assert abs(rho - 0.8) <= 0.03


@pytest.mark.parametrize("seed", [0, 1])
def test_zero_phi_gives_uncorrelated_visits(seed):
    config = GeneratorConfig(
        n_patients=1000, seed=seed, phi=0.0, visits_min=6, visits_max=6, **FLAT_BP
    )
    rho, _ = _pooled_lag1(generate_cohort(config), config.systolic_mean)
    assert abs(rho) <= 0.05


def test_population_systolic_mean_tracks_config():
    # With covariates off the mixture is centered on systolic_mean:
    # low mode sits at mean - hi_prob * hi_shift, hi_prob of patients
    # sit hi_shift above it.
    config = GeneratorConfig(n_patients=600, seed=0, covariate_scale=0.0, miss_bp=0.0, **NO_ROLES)
    tables = generate_cohort(config)
    values = [enc.systolic for enc in tables.encounters if enc.systolic is not None]
    assert abs(float(np.mean(values)) - config.systolic_mean) <= 2.0


def test_treatment_lowers_next_visit_systolic():
    # Medication effect is lagged: visits following a treated visit sit
    # lower than visits following an untreated one.
    config = GeneratorConfig(n_patients=800, seed=2, **dict(FLAT_BP, covariate_scale=1.0))
    config = replace(config, bmi_effect=0.0, age_effect=0.0, combo_prob=0.0)
    tables = generate_cohort(config)
    treated_dates = {(e.patient, e.date) for e in tables.medications}
    after_treated, after_untreated = [], []
    for stream in _by_patient(tables).values():
        for prev, enc in zip(stream, stream[1:]):
            if enc.systolic is None:
                continue
            bucket = after_treated if (prev.patient, prev.date) in treated_dates else after_untreated
            bucket.append(enc.systolic)
    gap = float(np.mean(after_treated)) - float(np.mean(after_untreated))
    # refill_prob < 1 means some treated visits emit no order, diluting
    # the contrast below the configured -12; direction is what matters.
    assert gap < -6.0


# -- special roles ------------------------------------------------------------


def test_deceased_role_flags_only_the_last_visit():
    config = GeneratorConfig(n_patients=12, seed=4, **dict(NO_ROLES, deceased_rate=1.0))
    for stream in _by_patient(generate_cohort(config)).values():
        assert [enc.deceased for enc in stream] == [False] * (len(stream) - 1) + [True]


def test_no_vitals_role_suppresses_all_measurements():
    config = GeneratorConfig(
        n_patients=12,
        seed=4,
        **dict(NO_ROLES, no_vitals_rate=1.0),
    )
    tables = generate_cohort(config)
    assert tables.encounters
    for enc in tables.encounters:
        assert enc.systolic is None and enc.diastolic is None
        assert enc.vitals == {}


def test_sparse_role_leaves_year_sized_gaps():
    config = GeneratorConfig(
        n_patients=12,
        seed=4,
        **dict(NO_ROLES, sparse_rate=1.0),
    )
    for stream in _by_patient(generate_cohort(config)).values():
        gaps = [(b.date - a.date).days for a, b in zip(stream, stream[1:])]
        assert gaps and min(gaps) >= 330


# -- determinism --------------------------------------------------------------


def test_same_seed_reproduces_identical_files(tmp_path):
    config = GeneratorConfig(n_patients=30, seed=21)
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_cohort(config, first)
    write_cohort(config, second)
    for kind in ("encounters", "medications", "labs", "diagnoses"):
        assert (first / f"{kind}.csv").read_bytes() == (second / f"{kind}.csv").read_bytes()


def test_different_seed_changes_the_data(tmp_path):
    write_cohort(GeneratorConfig(n_patients=30, seed=21), tmp_path / "a")
    write_cohort(GeneratorConfig(n_patients=30, seed=22), tmp_path / "b")
    assert (tmp_path / "a" / "encounters.csv").read_bytes() != (
        tmp_path / "b" / "encounters.csv"
    ).read_bytes()


def test_patient_streams_do_not_depend_on_cohort_size():
    # Per-patient substreams: growing the cohort must not disturb the
    # patients already generated.
    small = generate_cohort(GeneratorConfig(n_patients=6, seed=9))
    large = generate_cohort(GeneratorConfig(n_patients=12, seed=9))
    small_ids = {enc.patient for enc in small.encounters}
    assert small.encounters == [e for e in large.encounters if e.patient in small_ids]
    assert small.medications == [e for e in large.medications if e.patient in small_ids]
    assert small.labs == [e for e in large.labs if e.patient in small_ids]
    assert small.diagnoses == [e for e in large.diagnoses if e.patient in small_ids]


@pytest.mark.parametrize("weighted", [RACES, MARITAL, LANGUAGES, SMOKING])
def test_weighted_choice_draws_what_generator_choice_draws(weighted):
    # The reference is numpy's own weighted draw, which the generator
    # used before; both must pick the same name and consume one uniform.
    names = [name for name, _ in weighted]
    probs = np.array([p for _, p in weighted])
    table = synth._cdf(weighted)
    for seed in range(2000):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = names[numpys.choice(len(names), p=probs / probs.sum())]
        assert synth._choice(ours, table) == expected
        assert ours.random() == numpys.random()


@pytest.mark.parametrize(
    "n_patients, cores, expected",
    [
        (10, 4, [10]),
        (700, 1, [700]),
        (1499, 4, [749, 750]),
        (1999, 4, [666, 666, 667]),
        (2000, 4, [500, 500, 500, 500]),
        (5000, 2, [2500, 2500]),
        (5001, 3, [1667, 1667, 1667]),
    ],
)
def test_patient_blocks_are_contiguous_and_not_below_the_minimum(
    monkeypatch, tmp_path, n_patients, cores, expected
):
    monkeypatch.setattr(synth, "usable_cores", lambda: cores)
    monkeypatch.setattr(synth, "MIN_BLOCK_PATIENTS", 500)
    block_lists = []

    def record(blocks, compute, label):
        block_lists.append(blocks)
        return [[b"0"] + [b""] * len(synth.TABLE_COLUMNS) for _ in blocks]  # generates nobody

    monkeypatch.setattr(synth, "run_blocks", record)
    synth.write_cohort(GeneratorConfig(n_patients=n_patients), tmp_path)
    [blocks] = block_lists
    assert [len(block) for block in blocks] == expected
    assert [i for block in blocks for i in block] == list(range(n_patients))
    assert len(blocks) == 1 or min(map(len, blocks)) >= synth.MIN_BLOCK_PATIENTS


# -- config files -------------------------------------------------------------


def test_generator_config_from_file_coerces_types(tmp_path):
    path = tmp_path / "gen.kv"
    path.write_text(
        "# synthetic cohort\nn_patients=25\nphi=0.5\nsystolic_mean=140.5\nseed=9\n",
        encoding="utf-8",
    )
    values = read_config(GeneratorConfig, path)
    assert values == {"n_patients": 25, "phi": 0.5, "systolic_mean": 140.5, "seed": 9}
    assert type(values["n_patients"]) is int and type(values["phi"]) is float


def test_generator_config_overrides_win(tmp_path):
    path = tmp_path / "gen.kv"
    path.write_text("n_patients=25\nseed=9\n", encoding="utf-8")
    out = tmp_path / "data"
    assert main(["generate", "--config", str(path), "--patients", "5", "--out", str(out)]) == 0
    config = read_json(out / "manifest.json")["config"]
    assert config["n_patients"] == 5
    assert config["seed"] == 9
    assert config["visits_min"] == GeneratorConfig().visits_min  # untouched default


def test_generator_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "gen.kv"
    path.write_text("n_patients=25\nflux=1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key"):
        read_config(GeneratorConfig, path)
