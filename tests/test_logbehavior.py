"""Tests for sequence classification, quotient checks, and the criterion."""

import dataclasses
import itertools
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurate import core, logbehavior, verify
from figurate.core import (
    closed_form,
    coefficient_r,
    coefficient_t,
    quotient_direct,
)
from figurate.logbehavior import (
    CriterionReport,
    LogBehavior,
    LogBehaviorReport,
    Monotonicity,
    PositiveSequence,
    check_doslic_criterion,
    check_quotient_bounds,
    classify_log_behavior,
    margin_sequence,
    quotient_monotonicity,
)
from figurate.seqio import parse_sequence_file
from faults import perturb
from fraction_sweep import fraction_doslic_criterion


def margins_by_hand(terms):
    """Naive interior margins t[j]^2 - t[j-1] t[j+1], 1-based j from 2."""
    return [
        terms[j] * terms[j] - terms[j - 1] * terms[j + 1]
        for j in range(1, len(terms) - 1)
    ]


positive_rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=10_000),
)
positive_terms = st.one_of(st.integers(min_value=1, max_value=10_000), positive_rationals)
term_lists = st.lists(positive_terms, min_size=1, max_size=30)


@st.composite
def near_ties(draw):
    """Runs whose margins are 0, or tiny next to their terms, so that the
    leading bits of the terms cannot decide them; with terms narrower and
    wider than logbehavior._WIDE_BITS."""
    length = draw(st.integers(min_value=3, max_value=12))
    kind = draw(st.sampled_from(["integers", "powers", "scaled", "one side"]))
    if kind == "integers":
        # x - 1, x, x + 1 and x, x, x + 1 among them; x is a 60-bit top, shifted,
        # plus a small offset, so that carries run through the leading bits
        top = draw(st.integers(min_value=2**59, max_value=2**61))
        x = (top << draw(st.sampled_from([0, 963, 2940]))) + draw(st.integers(-2, 2))
        return [x + draw(st.integers(-1, 1)) for _ in range(length)]
    if kind == "powers":
        n = draw(st.integers(min_value=length, max_value=900))
        return [3**k * 5 ** (n - k) for k in range(length)]
    if kind == "scaled":
        # in lowest terms, as Fractions reduce c r^k
        c = draw(st.integers(min_value=1, max_value=2**3000))
        ratio = draw(positive_rationals)
        return [c * ratio**k for k in range(length)]
    # a tie on one side only: 2^k 3^(n-k) on one side, and numbers y + 6i,
    # coprime to 6, on the other, so that no term reduces
    n = draw(st.integers(min_value=length, max_value=900))
    y = 6 * draw(st.integers(min_value=2, max_value=2**3000)) + draw(st.sampled_from([1, 5]))
    tied = [2**k * 3 ** (n - k) for k in range(length)]
    near = [y + 6 * draw(st.integers(-1, 1)) for _ in range(length)]
    if draw(st.booleans()):
        tied, near = near, tied
    return [Fraction(p, q) for p, q in zip(tied, near)]


X = 2**3000
# Steps (p0, d0, a, b, p2, d2) whose margin a^2 d0 d2 - p0 p2 b^2 is nonzero but
# 2^-60 of either side or less. In the first four, below its top 64 bits, each
# factor is all zeros (X, X - 2^2936, X - 2^2937) or all ones (X - 1,
# X + 2^2937 - 1). So a bracket one unit of one factor's top bits too narrow,
# on the side and through the factor named, gives the wrong sign.
NEAR_TIES = [
    (X - 2**2936, X - 1, X - 1, X, X, X - 1),  # the lower bound of p0 p2 b^2, through p2
    (X, X - 1, X - 1, X, X - 2**2937, X - 1),  # the same bound, through b
    (X - 1, X, X, X - 1, X + 2**2937 - 1, X),  # its upper bound, through p2
    (X - 1, X, X, X - 1, X - 1, X - 2**2936),  # the same bound, through b
    (1, X - 1, 1, X, 1, X + 1),  # a^2 = p0 p2 but d0 d2 = b^2 - 1
]


def mirrored(step):
    """The step, with its ends swapped, and with every term inverted: the same
    margin, the same, and minus it, with each factor moved to another place."""
    p0, d0, a, b, p2, d2 = step
    for q0, e0, q2, e2 in ((p0, d0, p2, d2), (p2, d2, p0, d0)):
        yield q0, e0, a, b, q2, e2
        yield e0, q0, b, a, e2, q2


class TestPositiveSequence:
    def test_accepts_ints_and_fractions(self):
        seq = PositiveSequence([1, Fraction(1, 2), 3])
        assert list(seq) == [Fraction(1), Fraction(1, 2), Fraction(3)]
        assert len(seq) == 3
        assert seq[0] == 1

    def test_terms_are_fractions(self):
        seq = PositiveSequence([2, 4])
        assert all(type(t) is Fraction for t in seq)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PositiveSequence([])

    def test_rejects_zero_with_position(self):
        with pytest.raises(ValueError, match="term 2 is not positive"):
            PositiveSequence([1, 0, 2])

    def test_rejects_negative_with_position(self):
        with pytest.raises(ValueError, match="term 3 is not positive"):
            PositiveSequence([1, 1, -5])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            PositiveSequence([1.0, 2.0])

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            PositiveSequence(["3"])

    def test_equals_only_a_positive_sequence(self):
        assert PositiveSequence([1]) == PositiveSequence([Fraction(2, 2)])
        assert PositiveSequence([1]) != [Fraction(1)]
        assert PositiveSequence([1]).__eq__([Fraction(1)]) is NotImplemented

    def test_rejects_bools_naming_the_position(self):
        # bool is an int subclass, but True is no term: it must not read as 1
        message = "term 1 is a bool; only exact ints or Fractions are accepted"
        with pytest.raises(TypeError, match=message):
            PositiveSequence([True, 2, 3])


class TestClassification:
    def test_triangular_numbers_are_log_concave(self):
        report = classify_log_behavior(PositiveSequence([1, 3, 6, 10, 15]))
        assert report.classification is LogBehavior.LOG_CONCAVE
        assert report.first_concavity_violation is None
        assert report.first_convexity_violation == 2
        assert [field.name for field in dataclasses.fields(report)] == [
            "classification", "first_concavity_violation", "first_convexity_violation"
        ]

    def test_factorials_are_log_convex(self):
        report = classify_log_behavior(PositiveSequence([1, 1, 2, 6, 24]))
        assert report.classification is LogBehavior.LOG_CONVEX
        assert report.first_convexity_violation is None

    def test_powers_of_two_are_geometric(self):
        report = classify_log_behavior(PositiveSequence([1, 2, 4, 8, 16]))
        assert report.classification is LogBehavior.GEOMETRIC
        assert report.first_concavity_violation is None
        assert report.first_convexity_violation is None

    def test_fibonacci_prefix_is_neither(self):
        report = classify_log_behavior(PositiveSequence([1, 1, 2, 3, 5, 8]))
        assert report.classification is LogBehavior.NEITHER
        assert report.first_concavity_violation == 2
        assert report.first_convexity_violation == 3

    def test_short_sequences_are_indeterminate(self):
        for terms in ([5], [5, 7]):
            report = classify_log_behavior(PositiveSequence(terms))
            assert report == LogBehaviorReport(LogBehavior.INDETERMINATE)

    def test_rejects_a_bool_term(self):
        with pytest.raises(TypeError, match="term 2 is a bool"):
            classify_log_behavior([1, True, 2])

    def test_rational_terms(self):
        # the one margin, 1/9 - 1/8 = -1/72, is negative
        report = classify_log_behavior(
            PositiveSequence([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)])
        )
        assert report.classification is LogBehavior.LOG_CONVEX
        assert report.first_concavity_violation == 2
        assert report.first_convexity_violation is None

    @settings(max_examples=300, deadline=None)
    @given(terms=st.one_of(st.lists(positive_terms, min_size=3, max_size=30), near_ties()))
    def test_margins_match_naive_oracle(self, terms):
        # the first violations are the first negative and the first positive
        # naive margin, even though the scan stops once it has both
        margins = margins_by_hand(terms)
        negative = [j for j, margin in enumerate(margins, start=2) if margin < 0]
        positive = [j for j, margin in enumerate(margins, start=2) if margin > 0]
        report = classify_log_behavior(PositiveSequence(terms))
        assert report.first_concavity_violation == (negative[0] if negative else None)
        assert report.first_convexity_violation == (positive[0] if positive else None)

    @pytest.mark.parametrize("step", [s for step in NEAR_TIES for s in mirrored(step)])
    def test_margin_signs_of_near_ties(self, step):
        p0, d0, a, b, p2, d2 = step
        margin = a * a * d0 * d2 - p0 * p2 * b * b
        assert margin != 0 and abs(margin) < a * a * d0 * d2 >> 60
        expected = (2, None) if margin < 0 else (None, 2)
        assert logbehavior._margin_signs(1, (p0, a, p2), (d0, b, d2)) == expected

    @given(terms=term_lists, scale=positive_rationals)
    def test_classification_survives_scaling(self, terms, scale):
        base = classify_log_behavior(PositiveSequence(terms))
        scaled = classify_log_behavior(PositiveSequence([scale * t for t in terms]))
        assert base.classification is scaled.classification

    @given(terms=term_lists)
    def test_classification_of_reversal(self, terms):
        # Margins are symmetric, so reversal preserves the classification.
        forward = classify_log_behavior(PositiveSequence(terms))
        backward = classify_log_behavior(PositiveSequence(list(reversed(terms))))
        assert forward.classification is backward.classification


class TestQuotientMonotonicity:
    def test_non_increasing(self):
        report = quotient_monotonicity(PositiveSequence([1, 3, 6, 10, 15]))
        assert report.direction is Monotonicity.NON_INCREASING
        assert report.first_violation is None

    def test_non_decreasing(self):
        report = quotient_monotonicity(PositiveSequence([1, 1, 2, 5]))
        assert report.direction is Monotonicity.NON_DECREASING

    def test_constant(self):
        report = quotient_monotonicity(PositiveSequence([7, 7, 7]))
        assert report.direction is Monotonicity.CONSTANT

    def test_neither_reports_first_break(self):
        report = quotient_monotonicity(PositiveSequence([1, 3, 2, 5]))
        assert report.direction is Monotonicity.NEITHER
        assert report.first_violation == 2

    def test_single_term_indeterminate(self):
        report = quotient_monotonicity(PositiveSequence([4]))
        assert report.direction is Monotonicity.INDETERMINATE

    @given(terms=term_lists)
    def test_agrees_with_classification(self, terms):
        # Non-increasing steps mean log-concave, non-decreasing mean
        # log-convex, constant steps mean geometric.
        seq = PositiveSequence(terms)
        direction = quotient_monotonicity(seq).direction
        classification = classify_log_behavior(seq).classification
        expected = {
            Monotonicity.NON_INCREASING: LogBehavior.LOG_CONCAVE,
            Monotonicity.NON_DECREASING: LogBehavior.LOG_CONVEX,
            Monotonicity.CONSTANT: LogBehavior.GEOMETRIC,
            Monotonicity.NEITHER: LogBehavior.NEITHER,
            Monotonicity.INDETERMINATE: LogBehavior.INDETERMINATE,
        }
        assert classification is expected[direction]


BYTES_READERS = {
    "PositiveSequence": PositiveSequence,
    "classify_log_behavior": classify_log_behavior,
    "quotient_monotonicity": quotient_monotonicity,
    "check_quotient_bounds": partial(check_quotient_bounds, 3),
}


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
@pytest.mark.parametrize("function", BYTES_READERS.values(), ids=BYTES_READERS)
def test_bytes_are_not_terms(function, kind):
    # iterated, b"1 3 6 10 15" would be the terms 49, 32, 51, ...
    with pytest.raises(TypeError, match=f"got a {kind.__name__}, .*figurate.parse_sequence_file"):
        function(kind(b"1 3 6 10 15"))
    function([1, 3, 6, 10, 15])
    assert parse_sequence_file(kind(b"1 3 6 10 15")) == PositiveSequence([1, 3, 6, 10, 15])


class TestQuotientBounds:
    def test_true_quotients_stay_in_bounds(self):
        for m in (3, 4, 5, 12, 50):
            report = check_quotient_bounds(m, quotient_direct(m, 100))
            assert report.first_lower_violation is None and report.first_upper_violation is None
            assert [field.name for field in dataclasses.fields(report)] == [
                "first_lower_violation", "first_upper_violation"
            ]

    def test_lower_violation_position(self):
        report = check_quotient_bounds(3, [Fraction(3), Fraction(1)])
        assert report.first_lower_violation == 2
        assert report.first_upper_violation is None

    def test_upper_violation_position(self):
        report = check_quotient_bounds(3, [Fraction(3), Fraction(4)])
        assert report.first_upper_violation == 2

    def test_upper_bound_is_attained_at_the_start(self):
        # x(1) = m sits exactly on the closed upper bound.
        report = check_quotient_bounds(9, [Fraction(9)])
        assert report.first_lower_violation is None and report.first_upper_violation is None

    def test_lower_bound_is_strict(self):
        report = check_quotient_bounds(4, [Fraction(1)])
        assert report.first_lower_violation == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_quotient_bounds(3, [])

    @pytest.mark.parametrize(
        "quotients, message",
        [
            ([2.5, Fraction(1, 2)], "term 1 is a float"),
            ([Fraction(3, 2), "2"], "term 2 has unsupported type str"),
            ([2, 3, 1.0], "term 3 is a float"),
            ([True], "term 1 is a bool"),
            ([2, Fraction(3, 2), False], "term 3 is a bool"),
        ],
    )
    def test_rejects_inexact_quotients_naming_the_position(self, quotients, message):
        with pytest.raises(TypeError, match=message):
            check_quotient_bounds(3, quotients)

    @given(
        m=st.integers(min_value=3, max_value=12),
        quotients=st.lists(
            st.fractions(min_value=0, max_value=15, max_denominator=40) | st.integers(0, 15),
            min_size=1,
            max_size=20,
        ),
    )
    def test_matches_the_fraction_comparisons(self, m, quotients):
        low = [position for position, x in enumerate(quotients, start=1) if x <= 1]
        high = [position for position, x in enumerate(quotients, start=1) if x > m]
        report = check_quotient_bounds(m, quotients)
        assert report.first_lower_violation == (low[0] if low else None)
        assert report.first_upper_violation == (high[0] if high else None)


class TestMarginSequence:
    def test_frozen_values(self):
        assert margin_sequence(3, 5) == [3, 6, 10]
        assert margin_sequence(4, 4) == [7, 17]
        assert margin_sequence(3, 3) == [3]

    def test_needs_three_terms(self):
        with pytest.raises(ValueError):
            margin_sequence(3, 2)

    @given(
        m=st.integers(min_value=3, max_value=40),
        count=st.integers(min_value=3, max_value=60),
    )
    def test_matches_naive_margins(self, m, count):
        terms = [closed_form(m, n) for n in range(1, count + 1)]
        assert margin_sequence(m, count) == margins_by_hand(terms)

    @given(
        m=st.integers(min_value=3, max_value=60),
        count=st.integers(min_value=3, max_value=60),
    )
    def test_all_margins_nonnegative(self, m, count):
        assert all(margin >= 0 for margin in margin_sequence(m, count))


def coefficient_triples(r_of, t_of):
    """A stand-in for core._coefficients: (r, t, d) from n -> R(n), T(n), over a common d > 0."""

    def coefficients(m, first=3):
        for n in itertools.count(first):
            big_r, big_t = r_of(n), t_of(n)
            yield (
                big_r.numerator * big_t.denominator,
                big_t.numerator * big_r.denominator,
                big_r.denominator * big_t.denominator,
            )

    return coefficients


class TestDoslicCriterion:
    def test_smallest_window_passes(self):
        report = check_doslic_criterion(3, 3)
        assert report.verdict
        assert [field.name for field in dataclasses.fields(report)] == [
            "first_r_violation", "first_t_violation", "seed_step_violation", "first_delta_violation"
        ]

    def test_wide_window_passes(self):
        report = check_doslic_criterion(3, 100)
        assert report.verdict
        assert report == CriterionReport(None, None, None, None)

    def test_all_small_orders_pass(self):
        for m in range(3, 20):
            assert check_doslic_criterion(m, 50).verdict

    def test_delta_spot_value(self):
        # At m=3, n=3 with lag 2 the combined delta expression equals -1/3.
        delta_r = coefficient_r(3, 4) - coefficient_r(3, 3)
        delta_t = coefficient_t(3, 4) - coefficient_t(3, 3)
        assert delta_r == Fraction(-1, 6)
        assert delta_t == Fraction(1, 6)
        x1 = quotient_direct(3, 1)[0]
        assert delta_r * x1 + delta_t == Fraction(-1, 3)

    def test_injected_positive_t_is_caught(self, monkeypatch):
        perturb(monkeypatch, "_coefficients", (3, 3), lambda c: (c[0], -c[1], c[2]))
        report = check_doslic_criterion(3, 10)
        assert report.first_t_violation == 3
        assert not report.verdict

    def test_injected_negative_r_is_caught(self, monkeypatch):
        perturb(monkeypatch, "_coefficients", (3, 3), lambda c: (-c[0], c[1], c[2]))
        report = check_doslic_criterion(3, 10)
        assert report.first_r_violation == 3
        assert not report.verdict

    @pytest.mark.parametrize("n_max", [3, 40, 80])
    @pytest.mark.parametrize("m", [3, 4, 7, 20])
    def test_matches_the_fraction_criterion(self, m, n_max):
        # The integer conditions against the former Fraction implementation,
        # on the real coefficients and on R and T replaced in figurate.core;
        # the oracle is handed the same R and T. The real ones, put back over
        # a common denominator, must give the same report; the crooked ones
        # give R and T different denominators, and their R, T and delta
        # conditions first fail inside the windows up to 40 and 80, at
        # indices that depend on m.
        crooked = {
            "r_of": lambda n: Fraction(30 - n, 7 * n),
            "t_of": lambda n: Fraction(n - 25, 4),
        }
        # R and T as Fractions, computed before anything is patched; the
        # window reads them up to n = n_max + 1
        real = {
            "r_of": {n: coefficient_r(m, n) for n in range(3, n_max + 2)}.__getitem__,
            "t_of": {n: coefficient_t(m, n) for n in range(3, n_max + 2)}.__getitem__,
        }
        expected = fraction_doslic_criterion(m, n_max)
        assert check_doslic_criterion(m, n_max) == expected
        for hooks in ({}, {"r_of": crooked["r_of"]}, {"t_of": crooked["t_of"]}, crooked):
            coefficients = {**real, **hooks}
            expected = fraction_doslic_criterion(m, n_max, **coefficients)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(core, "_coefficients", coefficient_triples(**coefficients))
                assert check_doslic_criterion(m, n_max) == expected

    @pytest.mark.parametrize(
        "n_max, error, message",
        [
            (2, ValueError, "n_max must be >= 3, got 2"),
            ("10", TypeError, "n_max must be an int, got str"),
            (10.0, TypeError, "n_max must be an int, got float"),
            (True, TypeError, "n_max must be an int, got bool"),
            (0, ValueError, "n_max must be >= 3, got 0"),
            (None, TypeError, "n_max must be an int, got NoneType"),
        ],
    )
    def test_rejects_a_bad_window_end(self, n_max, error, message):
        with pytest.raises(error, match=message):
            check_doslic_criterion(3, n_max)

    @pytest.mark.parametrize(
        "m, error, message",
        [
            (2, ValueError, "polygon order must be >= 3, got 2"),
            ("3", TypeError, "polygon order must be an int, got str"),
            (True, TypeError, "polygon order must be an int, got bool"),
        ],
    )
    def test_rejects_a_bad_polygon_order_before_the_window_end(self, m, error, message):
        # n_max = 2 is bad too; the polygon order is checked first
        with pytest.raises(error, match=message):
            check_doslic_criterion(m, 2)

    def test_window_ends_at_n_max(self, monkeypatch):
        perturb(monkeypatch, "_coefficients", (3, 10), lambda c: (-c[0], c[1], c[2]))
        assert check_doslic_criterion(3, 9).first_r_violation is None
        assert check_doslic_criterion(3, 10).first_r_violation == 10

    @pytest.mark.parametrize("crooked", [False, True])
    @pytest.mark.parametrize("n_max", [3, 50])
    def test_delta_is_computed_once_per_row(self, monkeypatch, n_max, crooked):
        # one delta per n in [3, n_max], whether the row passes or fails; the
        # crooked T is positive from n = 26 and the crooked R negative from 31
        if crooked:
            monkeypatch.setattr(core, "_coefficients", coefficient_triples(
                r_of=lambda n: Fraction(30 - n, 7 * n),
                t_of=lambda n: Fraction(n - 25, 4),
            ))
        calls = []
        real_delta = core._doslic_delta

        def counted(*arguments):
            calls.append(arguments)
            return real_delta(*arguments)

        monkeypatch.setattr(core, "_doslic_delta", counted)
        report = check_doslic_criterion(3, n_max)
        assert len(calls) == n_max - 2
        assert report.verdict is not (crooked and n_max == 50)
        calls.clear()
        found = verify._check_doslic(3, n_max)
        assert len(calls) == n_max - 2
        assert (found is None) is report.verdict


class TestEnumRendering:
    def test_values_are_report_words(self):
        assert LogBehavior.LOG_CONCAVE.value == "log-concave"
        assert LogBehavior.NEITHER.value == "neither"
        assert Monotonicity.NON_INCREASING.value == "non-increasing"
        assert Monotonicity.CONSTANT.value == "constant"
