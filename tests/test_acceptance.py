"""Acceptance checks.

One test per numbered criterion; each prints a single
"ACCEPTANCE <n> PASS/FAIL" line (visible under -s) in addition to the
usual pytest verdict. Every comparison is exact; the only tolerances
anywhere are the wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from click.testing import CliRunner

from figurate.core import (
    closed_form,
    coefficient_r,
    coefficient_t,
    quotient_direct,
    quotient_recurrence,
)
from figurate.logbehavior import (
    LogBehavior,
    Monotonicity,
    PositiveSequence,
    classify_log_behavior,
    margin_sequence,
    quotient_monotonicity,
)
from figurate.cli import cli
from figurate.seqio import BFileStructureError, parse_bfile
from figurate.verify import run_verify_sweep
from faults import perturb

M_LO, M_HI, N_MAX = 3, 50, 2000


@contextmanager
def reported(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number} PASS: {label}")


@pytest.fixture(scope="module")
def default_sweep():
    """The full default sweep, run once and shared; returns (report, seconds)."""
    start = time.perf_counter()
    report = run_verify_sweep()
    elapsed = time.perf_counter() - start
    assert report.config.m_from == M_LO
    assert report.config.m_to == M_HI
    assert report.config.n_max == N_MAX
    return report, elapsed


def test_criterion_1_golden_triangular_list():
    with reported(1, "gen m=3 count=10 reproduces the first ten triangular numbers"):
        start = time.perf_counter()
        result = CliRunner().invoke(cli, ["gen", "--m", "3", "--count", "10"])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert result.output == "1 3 6 10 15 21 28 36 45 55\n"
        assert elapsed < 1.0


def test_criterion_2_cross_formula_agreement(default_sweep):
    report, elapsed = default_sweep
    with reported(2, "five generation routes agree exactly on the full window"):
        assert report.summary_for("cross-formula").passed
        assert elapsed < 60.0
        # Independent spot checks against a freshly summed progression,
        # including both window corners.
        for m, n in ((M_LO, 1), (M_HI, N_MAX), (17, 1234), (4, 7)):
            oracle = sum(1 + k * (m - 2) for k in range(n))
            assert closed_form(m, n) == oracle


def test_criterion_3_log_concavity_margins(default_sweep):
    report, _ = default_sweep
    with reported(3, "every interior margin is nonnegative on the full window"):
        summary = report.summary_for("margins")
        assert summary.passed
        assert summary.notes == ()  # no zero margins: strict on this window
        for m in (M_LO, M_HI):
            assert all(margin >= 0 for margin in margin_sequence(m, N_MAX))


def test_criterion_4_quotient_bounds(default_sweep):
    report, _ = default_sweep
    with reported(4, "1 < x(n) <= m with the three seed identities exact"):
        assert report.summary_for("bounds").passed
        for m in range(M_LO, M_HI + 1):
            x1, x2, x3 = quotient_direct(m, 3)
            assert x1 == m  # upper bound attained at the start
            assert x2 == 3 - Fraction(3, m)
            assert x3 == 2 - Fraction(2, 3 * (m - 1))


def test_criterion_5_quotient_monotonicity(default_sweep):
    report, _ = default_sweep
    with reported(5, "quotients non-increasing and both routes identical"):
        summary = report.summary_for("monotonicity")
        assert summary.passed
        assert summary.notes == ()  # no equal steps: observed strictly decreasing
        for m in (M_LO, 4, 17, M_HI):
            direct = quotient_direct(m, N_MAX)
            assert direct == quotient_recurrence(m, N_MAX)
            assert all(a > b for a, b in zip(direct, direct[1:]))


def test_criterion_6_doslic_criterion(default_sweep):
    report, _ = default_sweep
    with reported(6, "all four criterion conditions hold; spot delta is -1/3"):
        assert report.summary_for("doslic").passed
        delta_r = coefficient_r(3, 4) - coefficient_r(3, 3)
        delta_t = coefficient_t(3, 4) - coefficient_t(3, 3)
        spot = delta_r * quotient_direct(3, 1)[0] + delta_t
        assert spot == Fraction(-1, 3)


def _oracle_classification(terms):
    """Brute-force margin evaluation, independent of the library."""
    if len(terms) < 3:
        return LogBehavior.INDETERMINATE
    margins = [
        terms[j] * terms[j] - terms[j - 1] * terms[j + 1]
        for j in range(1, len(terms) - 1)
    ]
    has_negative = any(margin < 0 for margin in margins)
    has_positive = any(margin > 0 for margin in margins)
    if has_negative and has_positive:
        return LogBehavior.NEITHER
    if has_negative:
        return LogBehavior.LOG_CONVEX
    if has_positive:
        return LogBehavior.LOG_CONCAVE
    return LogBehavior.GEOMETRIC


def _random_terms(rng):
    """Positive rational sequences of length <= 100, mixed constructions."""
    style = rng.randrange(5)
    if style == 0:  # unstructured rationals
        length = rng.randint(1, 100)
        return [
            Fraction(rng.randint(1, 999), rng.randint(1, 999))
            for _ in range(length)
        ]
    if style == 1:  # unstructured integers
        length = rng.randint(1, 100)
        return [rng.randint(1, 10**6) for _ in range(length)]
    if style == 2:  # geometric
        length = rng.randint(3, 40)
        first = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        ratio = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        terms = [first]
        for _ in range(length - 1):
            terms.append(terms[-1] * ratio)
        return terms
    # styles 3 and 4: run the quotients monotonically to force one side,
    # with repeats allowed so equality cases appear too
    length = rng.randint(3, 60)
    quotients = sorted(
        Fraction(rng.randint(1, 30), rng.randint(1, 30))
        for _ in range(length - 1)
    )
    if style == 3:
        quotients.reverse()  # non-increasing quotients: log-concave
    terms = [Fraction(rng.randint(1, 20))]
    for q in quotients:
        terms.append(terms[-1] * q)
    return terms


def test_criterion_7_definition_equivalence_property():
    with reported(7, "classifier vs quotient direction on 1000 random sequences"):
        rng = random.Random(20260821)
        expected_by_direction = {
            Monotonicity.NON_INCREASING: LogBehavior.LOG_CONCAVE,
            Monotonicity.NON_DECREASING: LogBehavior.LOG_CONVEX,
            Monotonicity.CONSTANT: LogBehavior.GEOMETRIC,
            Monotonicity.NEITHER: LogBehavior.NEITHER,
            Monotonicity.INDETERMINATE: LogBehavior.INDETERMINATE,
        }
        seen = set()
        for _ in range(1000):
            terms = _random_terms(rng)
            assert 1 <= len(terms) <= 100
            seq = PositiveSequence(terms)
            classification = classify_log_behavior(seq).classification
            direction = quotient_monotonicity(seq).direction
            assert classification is _oracle_classification(terms)
            assert classification is expected_by_direction[direction]
            seen.add(classification)
        assert seen == set(LogBehavior)  # every class was exercised


def test_criterion_8_failure_paths(tmp_path, monkeypatch):
    with reported(8, "injected violations fail loudly and name the offender"):
        runner = CliRunner()

        # A corrupted term makes the sweep exit 1 naming the failing (m, n).
        perturb(monkeypatch, "_first_order_terms", (4, 7), lambda term: term + 1)
        result = runner.invoke(cli, ["verify", "--m-to", "6", "--n-max", "50"])
        assert result.exit_code == 1
        assert "m=4" in result.output and "n=7" in result.output

        # A non-positive input term exits 2 naming its index.
        result = runner.invoke(cli, ["analyze"], input="1 0 2\n")
        assert result.exit_code == 2
        assert "term 2" in result.stderr

        # A b-file index gap is rejected at the parsing boundary, naming
        # the line; the error is in the CLI's input-error class.
        with pytest.raises(BFileStructureError) as excinfo:
            parse_bfile("1 1\n3 6\n")
        assert excinfo.value.line_number == 2
        assert "expected 2, found 3" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)
