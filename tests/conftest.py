"""Shared fixtures: encounter factory and small deterministic datasets."""

from datetime import date, timedelta

import numpy as np
import pytest

import htnrisk.parallel as parallel
from htnrisk.ehr_core import EncounterRecord


@pytest.fixture
def make_encounter():
    """Factory with sensible defaults so tests only state what they vary."""

    def build(
        patient="p1",
        when=date(2023, 3, 1),
        sex="female",
        age=60.0,
        systolic=128.0,
        diastolic=82.0,
        **kwargs,
    ):
        return EncounterRecord(
            patient=patient,
            date=when,
            sex=sex,
            age=age,
            systolic=systolic,
            diastolic=diastolic,
            **kwargs,
        )

    return build


@pytest.fixture
def make_timeline(make_encounter):
    """A regular visit sequence: one encounter every `gap_days` days."""

    def build(n, patient="p1", start=date(2023, 1, 10), gap_days=60, **kwargs):
        return [
            make_encounter(patient=patient, when=start + timedelta(days=k * gap_days), **kwargs)
            for k in range(n)
        ]

    return build


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def blas_threads():
    """Reads the BLAS thread count, set to 2 for the test and put back
    after, so that a count left at a one-thread cap shows."""
    control = parallel.blas_thread_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control found in this process")
    get, set_ = control
    before = get()
    set_(2)
    yield get
    set_(before)
