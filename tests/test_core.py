"""Tests for term generation routes and recurrence coefficients.

Expected values were computed by summing the defining arithmetic
progression by hand (or with the naive oracle below) and then frozen.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurate import core
from figurate.core import (
    InvariantViolation,
    closed_form,
    closed_form_alt,
    coefficient_r,
    coefficient_t,
    generate_first_order,
    generate_second_order,
    gnomon,
    progression_sums,
    quotient_direct,
    quotient_recurrence,
)


def oracle_term(m: int, n: int) -> int:
    """Sum the arithmetic progression 1, 1+(m-2), 1+2(m-2), ... naively."""
    return sum(1 + k * (m - 2) for k in range(n))


orders = st.integers(min_value=3, max_value=1_000_000)
small_orders = st.integers(min_value=3, max_value=60)
indices = st.integers(min_value=1, max_value=1_000_000)
small_indices = st.integers(min_value=1, max_value=200)


class TestClosedForm:
    def test_frozen_values(self):
        assert closed_form(3, 4) == 10
        assert closed_form(5, 1) == 1
        assert closed_form(5, 5) == 35
        assert closed_form(4, 7) == 49

    def test_triangular_prefix(self):
        assert [closed_form(3, n) for n in range(1, 11)] == [
            1, 3, 6, 10, 15, 21, 28, 36, 45, 55,
        ]

    def test_first_term_is_always_one(self):
        for m in range(3, 30):
            assert closed_form(m, 1) == 1

    def test_second_term_is_the_order(self):
        for m in range(3, 30):
            assert closed_form(m, 2) == m

    @given(m=small_orders, n=small_indices)
    def test_matches_progression_oracle(self, m, n):
        assert closed_form(m, n) == oracle_term(m, n)

    @given(n=indices)
    def test_square_specialization(self, n):
        assert closed_form(4, n) == n * n

    @given(n=indices)
    def test_triangular_specialization(self, n):
        assert closed_form(3, n) == n * (n + 1) // 2

    @given(m=orders, n=indices)
    def test_result_is_positive_int(self, m, n):
        value = closed_form(m, n)
        assert isinstance(value, int)
        assert value >= 1

    def test_rejects_order_below_three(self):
        with pytest.raises(ValueError):
            closed_form(2, 1)

    def test_rejects_non_integer_order(self):
        with pytest.raises(TypeError):
            closed_form(3.0, 1)

    def test_rejects_non_positive_index(self):
        with pytest.raises(ValueError):
            closed_form(3, 0)

    def test_rejects_non_integer_index(self):
        with pytest.raises(TypeError):
            closed_form(3, Fraction(3, 2))


class TestClosedFormAlt:
    def test_frozen_values(self):
        assert closed_form_alt(3, 4) == 10
        assert closed_form_alt(3, 1) == 1
        assert closed_form_alt(6, 5) == 45

    @given(m=orders, n=indices)
    def test_agrees_with_closed_form(self, m, n):
        assert closed_form_alt(m, n) == closed_form(m, n)

    @given(m=orders, n=indices)
    def test_returns_plain_int(self, m, n):
        assert type(closed_form_alt(m, n)) is int


class TestGnomon:
    def test_frozen_values(self):
        assert gnomon(4, 2) == 5
        assert gnomon(3, 1) == 2
        assert gnomon(7, 3) == 16

    @given(m=small_orders, n=small_indices)
    def test_is_the_term_difference(self, m, n):
        assert gnomon(m, n) == closed_form(m, n + 1) - closed_form(m, n)

    @given(m=orders, n=indices)
    def test_is_positive(self, m, n):
        assert gnomon(m, n) >= 1


class TestFirstOrderRoute:
    def test_frozen_values(self):
        assert generate_first_order(3, 10) == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55]
        assert generate_first_order(6, 5) == [1, 6, 15, 28, 45]

    def test_single_term(self):
        assert generate_first_order(9, 1) == [1]

    @given(m=small_orders, count=st.integers(min_value=1, max_value=120))
    def test_matches_closed_form(self, m, count):
        terms = generate_first_order(m, count)
        assert terms == [closed_form(m, n) for n in range(1, count + 1)]

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            generate_first_order(3, 0)


class TestProgressionSums:
    def test_frozen_values(self):
        assert progression_sums(3, 5) == [1, 3, 6, 10, 15]
        assert progression_sums(8, 4) == [1, 8, 21, 40]

    @given(m=small_orders, count=st.integers(min_value=1, max_value=120))
    def test_matches_oracle(self, m, count):
        assert progression_sums(m, count) == [
            oracle_term(m, n) for n in range(1, count + 1)
        ]


class TestRecurrenceCoefficients:
    def test_frozen_r_values(self):
        assert coefficient_r(3, 3) == Fraction(5, 2)
        assert coefficient_r(3, 4) == Fraction(7, 3)
        assert coefficient_r(4, 3) == Fraction(8, 3)

    def test_frozen_t_values(self):
        assert coefficient_t(3, 3) == Fraction(-3, 2)
        assert coefficient_t(3, 4) == Fraction(-4, 3)
        assert coefficient_t(4, 3) == Fraction(-5, 3)

    @given(m=small_orders, n=st.integers(min_value=3, max_value=80))
    def test_coefficients_satisfy_term_recurrence(self, m, n):
        # The coefficients must reproduce each term from the two before it.
        s_prev2 = oracle_term(m, n - 2)
        s_prev1 = oracle_term(m, n - 1)
        expected = coefficient_r(m, n) * s_prev1 + coefficient_t(m, n) * s_prev2
        assert expected == oracle_term(m, n)

    @given(m=orders, n=st.integers(min_value=3, max_value=1_000_000))
    def test_sign_pattern(self, m, n):
        assert coefficient_r(m, n) > 0
        assert coefficient_t(m, n) < 0

    @given(m=orders, n=st.integers(min_value=3, max_value=1_000_000))
    def test_r_plus_t_is_one(self, m, n):
        # Both coefficients share a denominator and their sum telescopes to 1.
        assert coefficient_r(m, n) + coefficient_t(m, n) == 1

    @pytest.mark.parametrize("m", range(3, 41))
    def test_every_start_gives_the_closed_form_triples(self, m):
        # The kernel advances (r, t, d) by additions, so its starting value
        # must be right for every `first`, not only for the default n = 3.
        def expected(n):
            stretch = (n - 2) * (m - 2)
            return m + 2 * stretch, -(m - 1 + stretch), 1 + stretch

        for first in range(3, 61):
            triples = itertools.islice(core._coefficients(m, first), 50)
            assert list(triples) == [expected(n) for n in range(first, first + 50)]
            r, t, d = expected(first)
            assert coefficient_r(m, first) == Fraction(r, d)
            assert coefficient_t(m, first) == Fraction(t, d)

    def test_rejects_index_below_three(self):
        with pytest.raises(ValueError):
            coefficient_r(3, 2)
        with pytest.raises(ValueError):
            coefficient_t(3, 2)


class TestSecondOrderRoute:
    def test_frozen_values(self):
        assert generate_second_order(3, 5) == [1, 3, 6, 10, 15]
        assert generate_second_order(4, 2) == [1, 4]
        assert generate_second_order(5, 5) == [1, 5, 12, 22, 35]

    def test_single_term(self):
        assert generate_second_order(7, 1) == [1]

    @given(m=small_orders, count=st.integers(min_value=1, max_value=80))
    def test_matches_closed_form(self, m, count):
        terms = generate_second_order(m, count)
        assert terms == [closed_form(m, n) for n in range(1, count + 1)]

    @given(m=small_orders, count=st.integers(min_value=1, max_value=80))
    def test_yields_plain_ints(self, m, count):
        assert all(type(t) is int for t in generate_second_order(m, count))

    def test_detects_corrupted_coefficients(self, monkeypatch):
        # A recurrence that stops landing on integers must be reported,
        # not silently rounded.
        # The route reads the integer coefficients (r, t, d) with R = r/d and
        # T = t/d; this stream raises every R(n) by 1/7 = d/(7d).
        true_coefficients = core._coefficients

        def crooked(m, first=3):
            for r, t, d in true_coefficients(m, first):
                yield 7 * r + d, 7 * t, 7 * d

        monkeypatch.setattr(core, "_coefficients", crooked)
        with pytest.raises(InvariantViolation):
            generate_second_order(3, 6)


class TestQuotients:
    def test_frozen_direct_values(self):
        assert quotient_direct(3, 2) == [Fraction(3), Fraction(2)]
        assert quotient_direct(4, 3) == [
            Fraction(4),
            Fraction(9, 4),
            Fraction(16, 9),
        ]

    def test_frozen_recurrence_values(self):
        assert quotient_recurrence(3, 3) == [Fraction(3), Fraction(2), Fraction(5, 3)]
        assert quotient_recurrence(4, 2) == [Fraction(4), Fraction(9, 4)]

    def test_first_quotient_is_the_order(self):
        for m in range(3, 20):
            assert quotient_direct(m, 1) == [Fraction(m)]
            assert quotient_recurrence(m, 1) == [Fraction(m)]

    def test_known_seed_identities(self):
        for m in range(3, 40):
            xs = quotient_direct(m, 3)
            assert xs[1] == 3 - Fraction(3, m)
            assert xs[2] == 2 - Fraction(2, 3 * (m - 1))

    @given(m=small_orders, count=st.integers(min_value=1, max_value=80))
    def test_both_routes_agree(self, m, count):
        assert quotient_direct(m, count) == quotient_recurrence(m, count)

    @given(m=small_orders, count=st.integers(min_value=1, max_value=80))
    def test_direct_matches_term_ratio(self, m, count):
        quotients = quotient_direct(m, count)
        for position, value in enumerate(quotients, start=1):
            assert value == Fraction(
                oracle_term(m, position + 1), oracle_term(m, position)
            )

    @given(m=small_orders, count=st.integers(min_value=1, max_value=80))
    def test_values_are_fractions(self, m, count):
        assert all(type(x) is Fraction for x in quotient_direct(m, count))

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            quotient_direct(3, 0)
        with pytest.raises(ValueError):
            quotient_recurrence(3, 0)


def ending_with(values, error):
    """A stream of `values` that raises `error` if it is read once more."""
    yield from values
    raise error


class TestWindow:
    def test_rows_carry_each_stream_and_n_and_read_no_stream_past_last(self):
        streams = [ending_with((10, 11, 12), AssertionError(position)) for position in range(3)]
        assert list(core._window(5, 7, *streams)) == [
            (10, 10, 10, 5),
            (11, 11, 11, 6),
            (12, 12, 12, 7),
        ]

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("length", range(3))
    def test_a_short_stream_ends_the_rows_at_its_first_unfilled_index(self, position, length):
        streams = [iter("abc"), iter("def"), iter("ghi")]
        streams[position] = iter("xyz"[:length])
        rows = core._window(5, 7, *streams)
        for n in range(5, 5 + length):
            assert next(rows)[-1] == n
        with pytest.raises(core._StreamEnded, match=f"^stream ended before n={5 + length}$") as ended:
            next(rows)
        assert ended.value.n == 5 + length
        assert isinstance(ended.value, InvariantViolation)

    @pytest.mark.parametrize("position", range(3))
    def test_a_stream_that_raises_raises_after_the_rows_before_it(self, position):
        # the window reads each stream ahead of the rows; an error is still raised
        # at the row where a read row by row would raise it, and no later
        streams = [iter("abc"), iter("def"), iter("ghi")]
        streams[position] = ending_with("xy", ZeroDivisionError(position))
        rows = core._window(5, 7, *streams)
        assert [row[-1] for row in itertools.islice(rows, 2)] == [5, 6]
        with pytest.raises(ZeroDivisionError, match=f"^{position}$"):
            next(rows)

    def test_an_unread_row_raises_nothing(self):
        # a reader that stops before the failing row never sees the error
        rows = core._window(1, 3, iter("ab"), ending_with("p", ZeroDivisionError()))
        assert next(rows) == ("a", "p", 1)

    def test_no_stream_is_read_past_a_row_that_one_before_it_could_not_fill(self):
        first, second = iter("abcdef"), iter("x")
        third = ending_with("p", AssertionError("read past n = 1"))
        rows = core._window(1, 6, first, second, third)
        assert next(rows) == ("a", "x", "p", 1)
        with pytest.raises(core._StreamEnded, match="^stream ended before n=2$"):
            next(rows)
        assert list(first) == []  # read to the window end, ahead of the rows


# any int, or one of up to 1000 digits either side of zero
big_integers = st.integers() | st.integers(-(10**1000), 10**1000)


class TestRatioText:
    @settings(max_examples=300)
    @given(p=big_integers, q=big_integers.filter(bool), common=big_integers.filter(bool))
    def test_renders_as_a_fraction_does(self, p, q, common):
        # a shared factor, so that reducing the pair matters
        assert core._ratio_text(p * common, q * common) == str(Fraction(p * common, q * common))
        assert core._ratio_text(p, q) == str(Fraction(p, q))

    @given(p=big_integers)
    def test_a_zero_denominator_is_rendered_as_is(self, p):
        assert core._ratio_text(p, 0) == f"{p}/0"


class TestExactHalving:
    @settings(max_examples=300)
    @given(m=orders, n=indices)
    def test_product_is_always_even(self, m, n):
        # The defining product n*((m-2)*n - m + 4) must split exactly in two.
        product = n * ((m - 2) * n - m + 4)
        assert product % 2 == 0
        assert closed_form(m, n) * 2 == product


class TestBoolArguments:
    """bool is an int subclass, but True is no polygon order, index or count."""

    FUNCTIONS = [
        closed_form,
        closed_form_alt,
        gnomon,
        coefficient_r,
        coefficient_t,
        generate_first_order,
        generate_second_order,
        progression_sums,
        quotient_direct,
        quotient_recurrence,
    ]

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_rejects_a_bool_order(self, function):
        with pytest.raises(TypeError, match="polygon order must be an int, got bool"):
            function(True, 5)

    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_rejects_a_bool_index_or_count(self, function):
        with pytest.raises(TypeError, match="must be an int, got bool"):
            function(3, True)
