"""Acceptance criteria, one test per criterion.

The criteria and their tolerances are defined in `reporting.CRITERIA`, the
same definitions `verify` prints; each test asserts one of them, so a
verbose pytest run emits exactly one pass/fail line per criterion.  Each
oracle criterion computes only what it reads: criterion 9 makes its four
baseline runs, criterion 10 makes its six runs, criterion 11 reuses two
of them through the cache `reporting._oracle_run` and adds the coupled run,
and criterion 12 makes the runs of its two witnesses.  The budget of an
oracle criterion covers the runs it is the first to need.
"""

import time

from twophase_torsion.reporting import CRITERIA


def assert_criterion(number, budget_s=None):
    start = time.perf_counter()
    check = CRITERIA[number]()
    elapsed = time.perf_counter() - start
    assert check.passed, check.detail
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f} s"


def test_criterion_01_transmission_residuals():
    assert_criterion(1, budget_s=10.0)


def test_criterion_02_denominator_positivity():
    assert_criterion(2, budget_s=5.0)


def test_criterion_03_closed_form_fidelity():
    assert_criterion(3)


def test_criterion_04_translation_invariance():
    assert_criterion(4)


def test_criterion_05_single_phase_degeneracy():
    assert_criterion(5)


def test_criterion_06_spectrum_monotonicity():
    assert_criterion(6)


def test_criterion_07_proof_function_negativity():
    assert_criterion(7, budget_s=5.0)


def test_criterion_08_resonance_structure():
    assert_criterion(8)


def test_criterion_09_pde_baseline():
    assert_criterion(9, budget_s=180.0)


def test_criterion_10_first_variation_vanishes():
    assert_criterion(10, budget_s=180.0)


def test_criterion_11_second_variation_match():
    assert_criterion(11, budget_s=300.0)


def test_criterion_12_classifier_reproduction():
    assert_criterion(12)
