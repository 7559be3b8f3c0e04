"""Tests for b-file, CSV, and sequence-file reading and writing."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from figurate.logbehavior import PositiveSequence
from figurate.seqio import (
    BFileParseError,
    BFileRecord,
    BFileStructureError,
    SequenceParseError,
    emit_bfile,
    emit_csv,
    parse_bfile,
    parse_sequence_file,
)

OVER_LIMIT = "over 4300 digits, Python's limit for converting text to int"


class TestParseBFile:
    def test_basic(self):
        records = parse_bfile("1 1\n2 3\n3 6\n")
        assert records == [
            BFileRecord(1, 1),
            BFileRecord(2, 3),
            BFileRecord(3, 6),
        ]

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n1 5\n# midway\n2 12\n\n"
        records = parse_bfile(text)
        assert [(r.index, r.value) for r in records] == [(1, 5), (2, 12)]

    def test_bytes_input(self):
        assert parse_bfile(b"0 1\n1 2\n") == [BFileRecord(0, 1), BFileRecord(1, 2)]

    def test_negative_values_allowed(self):
        assert parse_bfile("1 -4\n2 0\n")[0].value == -4

    def test_offset_zero_start(self):
        records = parse_bfile("0 1\n1 1\n2 2\n")
        assert records[0].index == 0

    def test_empty_text_gives_no_records(self):
        assert parse_bfile("# only a comment\n") == []

    def test_wrong_field_count_names_line(self):
        with pytest.raises(BFileParseError) as excinfo:
            parse_bfile("1 1\n2 3 9\n")
        assert excinfo.value.line_number == 2

    def test_non_integer_field_names_line(self):
        with pytest.raises(BFileParseError) as excinfo:
            parse_bfile("1 1\n2 x\n")
        assert excinfo.value.line_number == 2

    def test_float_field_rejected(self):
        with pytest.raises(BFileParseError):
            parse_bfile("1 1.5\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1_0 5", "non-integer field"),
            ("1 1_0", "non-integer field"),
            ("\u0661 5", "non-integer field"),
            ("1 \u0663", "non-integer field"),
            ("1 -\uff15", "non-integer field"),
            ("9" * 5000 + " 1", f"index {OVER_LIMIT}$"),
            ("1 " + "9" * 5000, f"value {OVER_LIMIT}$"),
        ],
        ids=[
            "underscore-index",
            "underscore-value",
            "arabic-index",
            "arabic-value",
            "fullwidth",
            "index-over-digit-limit",
            "value-over-digit-limit",
        ],
    )
    def test_only_ascii_digits_make_an_integer(self, line, message):
        # int() alone accepts each of the first five fields; the last two are
        # ASCII digits, but too many for int(), named without the line's text
        with pytest.raises(BFileParseError, match=f"^line 2: {message}") as excinfo:
            parse_bfile(f"# header\n{line}\n")
        assert excinfo.value.line_number == 2

    def test_index_gap_names_line_and_gap(self):
        with pytest.raises(BFileStructureError) as excinfo:
            parse_bfile("1 1\n3 6\n")
        assert excinfo.value.line_number == 2
        assert "expected 2, found 3" in str(excinfo.value)

    def test_index_gap_after_comment(self):
        with pytest.raises(BFileStructureError) as excinfo:
            parse_bfile("1 1\n# note\n5 9\n")
        assert excinfo.value.line_number == 3

    def test_errors_are_value_errors(self):
        # Callers that only care about "bad input" can catch one type.
        assert issubclass(BFileParseError, ValueError)
        assert issubclass(BFileStructureError, ValueError)


class TestEmitBFile:
    def test_basic(self):
        assert emit_bfile(1, [1, 6, 15]) == "1 1\n2 6\n3 15\n"

    def test_custom_offset(self):
        assert emit_bfile(0, [7, 8]) == "0 7\n1 8\n"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            emit_bfile(1, [])

    @pytest.mark.parametrize(
        "offset, values, message",
        [
            (1, [Fraction(1, 2)], "b-file value 1 is a Fraction"),
            (1, [Fraction(2)], "b-file value 1 is a Fraction"),
            (1, [1.5, 2], "b-file value 1 is a float"),
            (1, [1, True], "b-file value 2 is a bool"),
            (0.5, [1], "b-file offset must be an int, got float"),
            (True, [1], "b-file offset must be an int, got bool"),
        ],
    )
    def test_rejects_what_parse_bfile_cannot_read(self, offset, values, message):
        with pytest.raises(TypeError, match=message):
            emit_bfile(offset, values)

    @given(
        offset=st.integers(min_value=-5, max_value=5),
        values=st.lists(
            st.integers(min_value=-(10**12), max_value=10**12),
            min_size=1,
            max_size=50,
        ),
    )
    def test_roundtrip(self, offset, values):
        records = parse_bfile(emit_bfile(offset, values))
        assert [r.value for r in records] == values
        assert [r.index for r in records] == list(
            range(offset, offset + len(values))
        )


class TestEmitCsv:
    def test_single_column(self):
        assert emit_csv({"x": [Fraction(5, 2)]}) == "x\n5/2\n"

    def test_two_columns(self):
        out = emit_csv({"n": [1, 2], "S": [1, 3]})
        assert out == "n,S\n1,1\n2,3\n"

    def test_fraction_rendering_is_exact(self):
        out = emit_csv({"x": [Fraction(4), Fraction(9, 4), Fraction(16, 9)]})
        assert out == "x\n4\n9/4\n16/9\n"

    def test_rejects_empty_mapping(self):
        with pytest.raises(ValueError):
            emit_csv({})

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            emit_csv({"a": [1, 2], "b": [1]})

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            emit_csv({"a": [1.5]})

    def test_rejects_bools(self):
        with pytest.raises(TypeError, match="column 'b' holds bool"):
            emit_csv({"a": [1, 2], "b": [3, True]})


class TestParseSequenceFile:
    def test_integers(self):
        seq = parse_sequence_file("1 3 6 10")
        assert list(seq) == [1, 3, 6, 10]

    def test_rationals(self):
        seq = parse_sequence_file("3 2 5/3")
        assert list(seq) == [Fraction(3), Fraction(2), Fraction(5, 3)]

    def test_newline_separated(self):
        assert list(parse_sequence_file("1\n2\n4\n")) == [1, 2, 4]

    def test_mixed_whitespace(self):
        assert list(parse_sequence_file(" 1\t2\n 3 ")) == [1, 2, 3]

    def test_bytes_input(self):
        assert list(parse_sequence_file(b"2 4 8")) == [2, 4, 8]

    def test_bad_token_names_position(self):
        with pytest.raises(SequenceParseError) as excinfo:
            parse_sequence_file("1 2 x 4")
        assert excinfo.value.position == 3

    def test_decimal_token_rejected(self):
        with pytest.raises(SequenceParseError) as excinfo:
            parse_sequence_file("1 2.5")
        assert excinfo.value.position == 2

    @pytest.mark.parametrize(
        "token", ["\u0663", "3/\u0664", "+\uff13"], ids=["arabic", "arabic-denominator", "fullwidth"]
    )
    def test_only_ascii_digits_make_a_number(self, token):
        with pytest.raises(SequenceParseError, match="^token 3: cannot parse") as excinfo:
            parse_sequence_file(f"1 2 {token} 4")
        assert excinfo.value.position == 3

    def test_zero_denominator_rejected(self):
        with pytest.raises(SequenceParseError) as excinfo:
            parse_sequence_file("1 3/0")
        assert excinfo.value.position == 2

    def test_non_positive_term_rejected(self):
        with pytest.raises(ValueError, match="term 2 is not positive"):
            parse_sequence_file("1 0 2")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            parse_sequence_file("")

    def test_oversized_token_names_position_and_limit(self):
        with pytest.raises(SequenceParseError) as excinfo:
            parse_sequence_file("1 2 " + "9" * 5000 + " 4")
        assert excinfo.value.position == 3
        assert "4300 digits" in str(excinfo.value)

    def test_oversized_denominator_names_position(self):
        with pytest.raises(SequenceParseError) as excinfo:
            parse_sequence_file("1/" + "7" * 5000)
        assert excinfo.value.position == 1

    def test_parse_error_outranks_earlier_non_positive_term(self):
        with pytest.raises(SequenceParseError, match="token 2: cannot parse 'abc'"):
            parse_sequence_file("-1 abc")

    def test_non_positive_message_prints_reduced_value(self):
        with pytest.raises(ValueError, match="^term 1 is not positive: -2/3$"):
            parse_sequence_file("-4/6")
        with pytest.raises(ValueError, match="^term 2 is not positive: 0$"):
            parse_sequence_file("1 -0/5")

    def test_signed_token(self):
        assert list(parse_sequence_file("+3 +4/6")) == [3, Fraction(2, 3)]

    def test_unreduced_token_equals_reduced_sequence(self):
        parsed = parse_sequence_file("2/4")
        expected = PositiveSequence([Fraction(1, 2)])
        assert parsed == expected
        assert hash(parsed) == hash(expected)
        assert repr(parsed) == "PositiveSequence([1/2])"
