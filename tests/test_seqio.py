"""Tests for b-file, CSV, and sequence-file reading and writing."""

import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurate.logbehavior import PositiveSequence
from figurate.seqio import (
    BFileParseError,
    BFileRecord,
    BFileStructureError,
    SequenceParseError,
    _BLOCK_TERMS,
    _INTEGER_RE,
    _term_lines,
    emit_bfile,
    emit_csv,
    parse_bfile,
    parse_sequence_file,
)

OVER_LIMIT = "over 4300 digits, Python's limit for converting text to int"
# Every line boundary of str.splitlines, "\r\n" included
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def splitlines_parse_bfile(text):
    """parse_bfile as it was when it split the whole text with str.splitlines()."""
    records = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(line_number, f"expected '<index> <value>', got {raw!r}")
        if not all(map(_INTEGER_RE.match, fields)):
            raise BFileParseError(line_number, f"non-integer field in {raw!r}")
        index, value = map(int, fields)
        if records and index != records[-1].index + 1:
            raise BFileStructureError(
                line_number, f"index gap: expected {records[-1].index + 1}, found {index}"
            )
        records.append(BFileRecord(index, value))
    return records


def outcome(function, *args):
    """(result, None), or (None, (exception type, message, line number))."""
    try:
        return function(*args), None
    except ValueError as error:
        return None, (type(error), str(error), error.line_number)


@st.composite
def bfile_texts(draw):
    """b-file text whose lines end in any str.splitlines boundary: mostly
    rows with rising indices, with comments, blank lines, gaps and noise."""
    lines = []
    index = draw(st.integers(min_value=-2, max_value=3))
    for kind in draw(st.lists(st.sampled_from("rrrrcbgn"), max_size=12)):
        if kind == "r":
            lines.append(f"{index} {draw(st.integers(min_value=-99, max_value=99))}")
            index += 1
        elif kind == "c":
            lines.append("# " + draw(st.text(alphabet="ab 1#\t", max_size=4)))
        elif kind == "b":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x1f"])))
        elif kind == "g":
            lines.append(f"{index + 2} 1")
        else:
            lines.append(draw(st.text(alphabet="12 x-\t", max_size=6)))
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in lines]
    if lines and draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + end for line, end in zip(lines, breaks))



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

    @settings(max_examples=300, deadline=None)
    @given(text=bfile_texts())
    def test_lines_split_as_splitlines_splits_them(self, text):
        assert outcome(parse_bfile, text) == outcome(splitlines_parse_bfile, text)

    def test_memory_stays_below_the_text(self):
        # Lines are matched one at a time, so the peak is about the parsed
        # records, near 0.6 of the text here; a splitlines() list of the text
        # alone is as large as the text, and with the records 1.6 times it.
        text = "".join(f"{k} {7 * 10**999 + k}\n" for k in range(1, 4001))
        tracemalloc.start()
        try:
            records = parse_bfile(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 4000
        assert peak < 0.75 * len(text)

    def test_bytes_are_decoded_in_one_piece(self):
        # The decoded text (1x) and the records (0.6x) are the peak; decoding
        # in pieces and joining them would hold the text twice.
        data = "".join(f"{k} {7 * 10**999 + k}\n" for k in range(1, 4001)).encode()
        tracemalloc.start()
        try:
            records = parse_bfile(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 4000
        assert peak < 1.75 * len(data)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_each_bytes_like_type_parses_as_its_text(self, kind):
        text = "# A000326\n1 1\n2 5\r\n3 12\u2028"
        assert parse_bfile(kind(text.encode())) == parse_bfile(text)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"1 1\n2 \xff\n", "not UTF-8 at byte 6: invalid start byte"),
            (b"1 1\n2 \xc3x\n", "not UTF-8 at byte 6: invalid continuation byte"),
            (b"1 1\n2 \xc3", "not UTF-8 at byte 6: unexpected end of data"),
        ],
    )
    def test_bytes_not_utf8_raise_what_the_sequence_reader_raises(self, data, message):
        for parse in (parse_bfile, parse_sequence_file):
            with pytest.raises(ValueError, match=f"^{message}$"):
                parse(data)


class TestEmitBFile:
    def test_basic(self):
        assert emit_bfile(1, [1, 6, 15]) == "1 1\n2 6\n3 15\n"

    def test_custom_offset(self):
        assert emit_bfile(0, [7, 8]) == "0 7\n1 8\n"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            emit_bfile(1, [])

    def test_one_shot_iterator(self):
        # the values are read once, so an iterator serves
        assert emit_bfile(1, iter([1, 2, 3])) == "1 1\n2 2\n3 3\n"
        with pytest.raises(TypeError, match="b-file value 2 is a float"):
            emit_bfile(5, iter([1, 2.0]))

    def test_rejects_empty_iterator(self):
        with pytest.raises(ValueError, match="cannot emit an empty b-file"):
            emit_bfile(1, iter([]))

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bytes_are_not_values(self, kind):
        # iterated, b"12" would be the values 49 and 50
        message = f"b-file values are a {kind.__name__}, whose items are byte values, not terms"
        with pytest.raises(TypeError, match=f"^{message}$"):
            emit_bfile(1, kind(b"12"))

    @pytest.mark.parametrize("offset", [0, -3])
    def test_lines_across_a_block_edge(self, offset):
        # lines are rendered _BLOCK_TERMS at a time; the last one is in a block of its own
        values = [k * k - 50 for k in range(_BLOCK_TERMS + 1)]
        expected = "".join(f"{offset + k} {k * k - 50}\n" for k in range(_BLOCK_TERMS + 1))
        assert emit_bfile(offset, values) == expected

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

    def test_rows_across_a_block_edge(self):
        # the header and _BLOCK_TERMS - 1 rows fill the first block, so two rows are in the second
        rows = range(1, _BLOCK_TERMS + 2)
        columns = {"n": list(rows), "x": [Fraction(2 * k + 1, 2) for k in rows], "y": [-k for k in rows]}
        expected = "n,x,y\n" + "".join(f"{k},{2 * k + 1}/2,-{k}\n" for k in rows)
        assert emit_csv(columns) == expected

    def test_one_shot_iterator_columns(self):
        # each column is read once, so an iterator or a generator serves as a list does
        expected = emit_csv({"n": [1, 2], "x": [Fraction(3, 2), 4]})
        assert emit_csv({"n": iter([1, 2]), "x": (v for v in [Fraction(3, 2), 4])}) == expected
        with pytest.raises(ValueError, match=re.escape("column lengths differ: [1, 2]")):
            emit_csv({"a": iter([1]), "b": [1, 2]})
        with pytest.raises(TypeError, match="column 'a' holds float"):
            emit_csv({"a": (v for v in [1, 2.0])})

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

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_a_bytes_column_is_not_values(self, kind):
        # iterated, b"12" would be the values 49 and 50; the lengths agree, so the type decides
        message = f"column 'b' is a {kind.__name__}, whose items are byte values, not terms"
        with pytest.raises(TypeError, match=f"^{message}$"):
            emit_csv({"a": [1, 2], "b": kind(b"12")})

    @pytest.mark.parametrize("name", ["a,b", "a\rb", "a\nb", ",", "a\r\n"])
    def test_rejects_a_name_that_would_split_the_header(self, name):
        # {"a,b": [1]} would give two header fields over one-field rows
        with pytest.raises(ValueError, match=re.escape(f"column {name!r} has a comma")):
            emit_csv({"x": [1], name: [2]})

    @pytest.mark.parametrize("name", [1, None, b"a", ("a",)])
    def test_rejects_a_name_that_is_not_a_str(self, name):
        message = f"column {name!r} is named by a {type(name).__name__}, not a str"
        with pytest.raises(TypeError, match=re.escape(message)):
            emit_csv({"x": [1], name: [2]})


class TestTermLines:
    @pytest.mark.parametrize("count", [0, 1, _BLOCK_TERMS, _BLOCK_TERMS + 1, 2 * _BLOCK_TERMS + 1])
    def test_plain_is_one_line_in_blocks(self, count):
        # _BLOCK_TERMS terms to a piece, a space before each piece but the first, then "\n"
        texts = [str(k * k) for k in range(count)]
        pieces = list(_term_lines("plain", "S", texts))
        assert "".join(pieces) == " ".join(texts) + "\n"
        assert len(pieces) == -(-count // _BLOCK_TERMS) + 1


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
        "token",
        ["\u0663", "3/\u0664", "+\uff13", "1_0"],
        ids=["arabic", "arabic-denominator", "fullwidth", "underscore"],
    )
    def test_only_ascii_digits_make_a_number(self, token):
        with pytest.raises(SequenceParseError, match="^token 3: cannot parse") as excinfo:
            parse_sequence_file(f"1 2 {token} 4")
        assert excinfo.value.position == 3

    def test_the_whitespace_of_the_cut_rule_is_what_split_splits_on(self):
        # a chunk with no match of \s is taken to lie inside one token
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]

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

    def test_open_file_memory_stays_below_its_size(self, tmp_path):
        # Read in chunks, the file's text and its tokens are never all held at
        # once: the peak is about the parsed integers, near half the file here,
        # where holding the text, a token list and the integers is over twice.
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{7 * 10**999 + k}\n" for k in range(4000)))
        size = path.stat().st_size
        with path.open() as source:
            tracemalloc.start()
            try:
                sequence = parse_sequence_file(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(sequence) == 4000
        assert peak < 0.75 * size
