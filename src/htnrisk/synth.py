"""Seeded synthetic EHR generator for desk-scale pipeline verification.

Blood pressure follows a per-patient AR(1) process around a bimodal
patient-level mean, plus covariate effects that `covariate_scale` turns
on and off:

    systolic_t = mu_i + scale * effect_t + dev_t,
    dev_t = phi * dev_{t-1} + eps_t

Medication effects are lagged one visit: an order is observable at the
visit where it happens, but moves BP only from the next visit on. That
gives trained models information the carry-forward baseline cannot use
(the positive control); with `covariate_scale = 0` the covariates are
generated but inert, and treatment assignment is independent of the
patient's BP mode, so nothing beyond the last reading predicts the next
status (the negative control).

Every patient draws from an independent seeded substream, so generation
is order-independent and reproducible file-for-file. `write_cohort` uses
that to generate contiguous blocks of patients on all usable cores.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from datetime import date, timedelta
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import derive_seed
from .ehr_core import (
    TABLE_COLUMNS,
    DiagnosisEvent,
    EncounterRecord,
    LabOrderEvent,
    MedicationEvent,
    VITAL_NAMES,
    format_rows,
    write_table,
)
from .parallel import block_ranges, run_blocks, usable_cores

#: Lab panels with per-visit order probabilities; the first clears the
#: 60% retention rule, the others exercise the drop path.
LAB_PANELS = (
    ("Lytes/Renal/Glucose", 0.70),
    ("Complete Blood Count", 0.25),
    ("Urinalysis", 0.08),
)

#: Chronic condition codes with per-patient prevalence. Conditions are
#: assigned independently of the BP mode and never move BP: they are
#: nuisance features in both control cohorts.
CONDITIONS = (
    ("I10", 0.30),
    ("E11", 0.20),
    ("E78", 0.25),
    ("F32", 0.15),
    ("J45", 0.10),
)

WELLNESS_CODE = "Z00"

#: BP drugs a treated patient may be put on (single-agent), and the
#: combination product added for combo patients.
PRIMARY_DRUGS = ("Lisinopril", "Hydrochlorothiazide", "Atenolol", "Amlodipine", "Losartan", "Metoprolol")
COMBO_DRUG = "Hydrochlorothiazide/Lisinopril"

#: Non-BP medications ordered as noise.
OTHER_DRUGS = ("Aspirin", "Metformin", "Atorvastatin", "Omeprazole")

RACES = (("white", 0.60), ("black", 0.15), ("asian", 0.10), ("hispanic", 0.10), ("other", 0.05))
MARITAL = (("married", 0.50), ("single", 0.25), ("divorced", 0.15), ("widowed", 0.10))
LANGUAGES = (("english", 0.80), ("spanish", 0.12), ("other", 0.08))
SMOKING = (("never", 0.50), ("former", 0.30), ("current", 0.20))

#: Fewest patients worth a process of their own: a block this size takes
#: ~0.25 s to generate, against a few milliseconds to fork and return it.
MIN_BLOCK_PATIENTS = 500


@dataclass
class GeneratorConfig:
    n_patients: int = 200
    seed: int = 0
    visits_min: int = 4
    visits_max: int = 10
    gap_mean: float = 36.0  # days between visits
    gap_sd: float = 25.0
    systolic_mean: float = 133.0  # population mean across both modes
    diastolic_mean: float = 76.0
    hi_prob: float = 0.36  # fraction of patients in the high-BP mode
    hi_shift: float = 20.0  # systolic mode separation
    dia_hi_shift: float = 8.0
    patient_sd: float = 5.0  # spread of patient means within a mode
    dia_patient_sd: float = 4.0
    phi: float = 0.8  # visit-to-visit AR(1) persistence of deviations
    noise_sd: float = 4.0
    dia_noise_sd: float = 3.0
    covariate_scale: float = 1.0  # 0 switches every covariate effect off
    med_effect: float = -12.0  # systolic shift while treated (lagged one visit)
    med_effect_secondary: float = -5.0  # extra shift for combination therapy
    dia_effect_fraction: float = 0.5  # diastolic effect relative to systolic
    bmi_effect: float = 0.6  # per BMI point away from 30
    age_effect: float = 0.1  # per year away from 62
    treated_base_prob: float = 0.35  # independent of BP mode by design
    start_prob: float = 0.12  # untreated -> treated, per visit
    stop_prob: float = 0.05  # treated -> untreated, per visit
    refill_prob: float = 0.85  # order emitted per treated visit
    combo_prob: float = 0.30
    other_drug_prob: float = 0.15
    miss_bp: float = 0.0
    miss_pulse: float = 0.12
    miss_height: float = 0.08
    miss_weight: float = 0.40
    miss_bmi: float = 0.62
    miss_temperature: float = 0.51
    miss_respiratory_rate: float = 0.79
    miss_heart_rate: float = 0.90
    miss_fatigue: float = 0.90
    miss_demographic: float = 0.05
    # Roles carving out patients that exercise each exclusion rule.
    deceased_rate: float = 0.02
    minor_rate: float = 0.02
    elderly_rate: float = 0.02
    sparse_rate: float = 0.03
    no_vitals_rate: float = 0.02
    last_gap_rate: float = 0.02

    def __post_init__(self):
        # The visit gaps are gamma draws of this mean and sd, and the AR(1)
        # deviations start from their stationary sd, noise_sd / sqrt(1 - phi^2).
        if self.gap_mean <= 0 or self.gap_sd <= 0:
            raise ValueError("gap_mean and gap_sd must be positive")
        if not -1 < self.phi < 1:
            raise ValueError(f"phi must be in (-1, 1), got {self.phi}")
        if not 1 <= self.visits_min <= self.visits_max:
            raise ValueError(
                f"visits_min and visits_max must satisfy 1 <= visits_min <= visits_max, "
                f"got {self.visits_min} and {self.visits_max}"
            )
        for name in _PROBABILITY_FIELDS:
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        # One uniform draw is split among the roles (_assign_role).
        total = sum(getattr(self, name) for name in _ROLE_RATES)
        if total > 1:
            names = ", ".join(_ROLE_RATES)
            raise ValueError(f"the role rates {names} sum to {total:g}, more than 1")


#: The fields that are probabilities, and those of them that are the rates
#: of the patient roles, in the order _assign_role tries them.
_PROBABILITY_FIELDS = tuple(
    f.name for f in fields(GeneratorConfig)
    if f.name.startswith("miss_") or f.name.endswith(("_prob", "_rate"))
)
_ROLE_RATES = tuple(
    name for name in _PROBABILITY_FIELDS if name.endswith("_rate") and not name.startswith("miss_")
)


@dataclass
class Tables:
    """The four generated event streams, ready for serialization."""

    encounters: list[EncounterRecord]
    medications: list[MedicationEvent]
    labs: list[LabOrderEvent]
    diagnoses: list[DiagnosisEvent]


def _cdf(weighted: tuple) -> tuple[tuple[str, ...], list[float]]:
    """The names of `weighted` and the cumulative distribution that
    `Generator.choice(n, p=...)` builds from its normalized weights."""
    probs = np.array([p for _, p in weighted])
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return tuple(name for name, _ in weighted), cdf.tolist()


_RACE_CDF, _MARITAL_CDF, _LANGUAGE_CDF, _SMOKING_CDF = (
    _cdf(weighted) for weighted in (RACES, MARITAL, LANGUAGES, SMOKING)
)


def _choice(rng: np.random.Generator, table: tuple[tuple[str, ...], list[float]]) -> str:
    # One uniform and a right bisection: the draw `Generator.choice` makes.
    names, cdf = table
    return names[bisect_right(cdf, rng.random())]


def _gap_days(rng: np.random.Generator, mean: float, sd: float) -> int:
    shape = (mean / sd) ** 2
    scale = sd * sd / mean
    return max(1, int(round(rng.gamma(shape, scale))))


def _assign_role(rng: np.random.Generator, config: GeneratorConfig) -> str:
    u = rng.random()
    edge = 0.0
    for name in _ROLE_RATES:
        edge += getattr(config, name)
        if u < edge:
            return name.removesuffix("_rate")
    return "normal"


def _generate_patient(
    pid: str, rng: np.random.Generator, config: GeneratorConfig
) -> Tables:
    role = _assign_role(rng, config)

    sex = "female" if rng.random() < 0.57 else "male"
    race = _choice(rng, _RACE_CDF)
    marital = _choice(rng, _MARITAL_CDF)
    language = _choice(rng, _LANGUAGE_CDF)
    smoking = _choice(rng, _SMOKING_CDF)
    if role == "minor":
        age0 = float(rng.integers(8, 14))
    elif role == "elderly":
        age0 = float(rng.integers(92, 101))
    else:
        age0 = float(min(max(round(rng.normal(62.0, 13.0)), 19), 86))

    hi = rng.random() < config.hi_prob
    low_mode_sys = config.systolic_mean - config.hi_prob * config.hi_shift
    low_mode_dia = config.diastolic_mean - config.hi_prob * config.dia_hi_shift
    mu_sys = rng.normal(low_mode_sys + (config.hi_shift if hi else 0.0), config.patient_sd)
    mu_dia = rng.normal(
        low_mode_dia + (config.dia_hi_shift if hi else 0.0), config.dia_patient_sd
    )

    conditions = [code for code, prevalence in CONDITIONS if rng.random() < prevalence]
    principal = conditions[0] if conditions else WELLNESS_CODE
    primary_drug = PRIMARY_DRUGS[int(rng.integers(0, len(PRIMARY_DRUGS)))]
    has_combo = rng.random() < config.combo_prob
    height = min(max(round(rng.normal(67.0, 4.0), 1), 56.0), 80.0)
    bmi0 = min(max(rng.normal(30.2, 6.0), 17.0), 55.0)
    bmi_drift = rng.normal(0.05, 0.15)

    # Visit schedule.
    if role == "sparse":
        n_visits = int(rng.integers(3, 6))
        gaps = [max(330, int(round(rng.normal(370.0, 20.0)))) for _ in range(n_visits - 1)]
        start = date(2012, 1, 1) + timedelta(days=int(rng.integers(0, 180)))
    elif role == "last_gap":
        n_visits = int(rng.integers(4, 7))
        gaps = [min(45, _gap_days(rng, config.gap_mean, config.gap_sd)) for _ in range(n_visits - 2)]
        gaps.append(int(rng.integers(120, 200)))
        year = 2012 + int(rng.integers(0, 4))
        start = date(year, 1, 1) + timedelta(days=int(rng.integers(0, 45)))
    else:
        n_visits = int(rng.integers(config.visits_min, config.visits_max + 1))
        gaps = [_gap_days(rng, config.gap_mean, config.gap_sd) for _ in range(n_visits - 1)]
        start = date(2012, 1, 1) + timedelta(days=int(rng.integers(0, 900)))
    dates = [start]
    for gap in gaps:
        dates.append(dates[-1] + timedelta(days=gap))

    # Treatment state per visit; assignment and churn are independent of
    # the BP mode so the negative control carries no proxy signal.
    treated = [rng.random() < config.treated_base_prob]
    for _ in range(1, n_visits):
        if treated[-1]:
            treated.append(rng.random() >= config.stop_prob)
        else:
            treated.append(rng.random() < config.start_prob)

    # Stationary AR(1) deviations.
    dev_sys = rng.normal(0.0, config.noise_sd / np.sqrt(1.0 - config.phi**2))
    dev_dia = rng.normal(0.0, config.dia_noise_sd / np.sqrt(1.0 - config.phi**2))

    tables = Tables([], [], [], [])
    for v in range(n_visits):
        when = dates[v]
        elapsed_years = (when - dates[0]).days / 365.25
        age = float(int(age0 + elapsed_years))
        bmi_true = bmi0 + bmi_drift * v + rng.normal(0.0, 0.3)

        med_component = 0.0
        if v > 0 and treated[v - 1]:
            med_component = config.med_effect + (
                config.med_effect_secondary if has_combo else 0.0
            )
        effect = config.covariate_scale * (
            med_component
            + config.bmi_effect * (bmi_true - 30.0)
            + config.age_effect * (age - 62.0)
        )
        systolic = round(mu_sys + effect + dev_sys)
        diastolic = round(mu_dia + config.dia_effect_fraction * effect + dev_dia)
        dev_sys = config.phi * dev_sys + rng.normal(0.0, config.noise_sd)
        dev_dia = config.phi * dev_dia + rng.normal(0.0, config.dia_noise_sd)

        no_vitals = role == "no_vitals"
        vitals: dict[str, float] = {}
        if not no_vitals:
            weight = bmi_true * height * height / 703.0
            candidates = {
                "pulse": (round(rng.normal(75.0, 13.0), 1), config.miss_pulse),
                "height": (height, config.miss_height),
                "weight": (round(weight, 1), config.miss_weight),
                "bmi": (round(bmi_true, 1), config.miss_bmi),
                "temperature": (round(rng.normal(97.9, 0.7), 1), config.miss_temperature),
                "respiratory_rate": (round(rng.normal(17.0, 2.0), 1), config.miss_respiratory_rate),
                "heart_rate": (round(rng.normal(79.0, 14.0), 1), config.miss_heart_rate),
                "fatigue": (float(rng.integers(0, 11)), config.miss_fatigue),
            }
            for name in VITAL_NAMES:
                value, miss_rate = candidates[name]
                if rng.random() >= miss_rate:
                    vitals[name] = float(value)

        demographics = {}
        for name, value in (
            ("race", race),
            ("marital_status", marital),
            ("language", language),
            ("smoking", smoking),
        ):
            if rng.random() >= config.miss_demographic:
                demographics[name] = value

        sys_obs = None if (no_vitals or rng.random() < config.miss_bp) else float(systolic)
        dia_obs = None if (no_vitals or rng.random() < config.miss_bp) else float(diastolic)
        tables.encounters.append(
            EncounterRecord(
                patient=pid,
                date=when,
                sex=sex,
                age=age,
                systolic=sys_obs,
                diastolic=dia_obs,
                vitals=vitals,
                demographics=demographics,
                diagnosis_code=principal,
                deceased=role == "deceased" and v == n_visits - 1,
            )
        )

        if treated[v] and rng.random() < config.refill_prob:
            tables.medications.append(MedicationEvent(pid, when, primary_drug.lower()))
            if has_combo:
                tables.medications.append(MedicationEvent(pid, when, COMBO_DRUG.lower()))
        if rng.random() < config.other_drug_prob:
            drug = OTHER_DRUGS[int(rng.integers(0, len(OTHER_DRUGS)))]
            tables.medications.append(MedicationEvent(pid, when, drug.lower()))

        for panel, prob in LAB_PANELS:
            if rng.random() < prob:
                tables.labs.append(LabOrderEvent(pid, when, panel))

        tables.diagnoses.append(DiagnosisEvent(pid, when, principal, True))
        for code in conditions:
            if code != principal and rng.random() < 0.5:
                tables.diagnoses.append(DiagnosisEvent(pid, when, code, False))
    return tables


def generate_cohort(config: GeneratorConfig, patients: range | None = None) -> Tables:
    """Generate all four event tables of `patients` (default: every
    patient), deterministically under the seed."""
    tables = Tables([], [], [], [])
    for i in range(config.n_patients) if patients is None else patients:
        pid = f"P{i:05d}"
        rng = np.random.default_rng(derive_seed(config.seed, f"patient:{i}"))
        patient = _generate_patient(pid, rng, config)
        tables.encounters.extend(patient.encounters)
        tables.medications.extend(patient.medications)
        tables.labs.extend(patient.labs)
        tables.diagnoses.extend(patient.diagnoses)
    return tables


def _format_block(config: GeneratorConfig, patients: range) -> list[bytes]:
    """The encounter count of `patients`, then the UTF-8 CSV body of each table."""
    tables = generate_cohort(config, patients)
    bodies = [format_rows(getattr(tables, kind), kind).encode("utf-8") for kind in TABLE_COLUMNS]
    return [b"%d" % len(tables.encounters), *bodies]


def write_cohort(config: GeneratorConfig, out_dir) -> tuple[list[Path], int]:
    """Generate the cohort and write the four CSVs in the canonical
    schemas; returns their paths and the number of encounters.

    Patients are generated in contiguous blocks, one per usable core and
    none smaller than MIN_BLOCK_PATIENTS, each one after the first in a
    forked child (see `parallel.run_blocks`). Each file is the header
    followed by the blocks' bodies in block order. Patients are numbered in file order and each draws from its
    own substream, so the bytes do not depend on the number of blocks.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    blocks = block_ranges(config.n_patients, usable_cores(), MIN_BLOCK_PATIENTS)
    results = run_blocks(blocks, partial(_format_block, config), "generating patients")
    written = []
    for index, kind in enumerate(TABLE_COLUMNS, 1):
        path = out_dir / f"{kind}.csv"
        write_table(path, kind, (buffers[index] for buffers in results))
        written.append(path)
    return written, sum(int(buffers[0]) for buffers in results)
