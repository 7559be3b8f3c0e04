"""The integer analyze path against the Fraction oracle in fraction_analyze.py.

Both sides get the same input and must return identical reports, or raise
the same exception type with the same message. figurate's parser gets each
sequence file as a str, as bytes, as a text stream and as a binary stream,
also read one, two or seven characters or bytes at a time, so that chunk
edges fall inside tokens and inside characters. The block reader of both
routes gets a sequence in blocks split anywhere, and `figurate analyze` must
print what the oracle's reports and errors render to, at the same read sizes.
"""

import io
import re
import time
from fractions import Fraction
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_analyze as oracle
from figurate import seqio
from figurate.cli import cli
from figurate.logbehavior import (
    LogBehavior,
    PositiveSequence,
    _classify_blocks,
    classify_log_behavior,
    quotient_monotonicity,
)
from figurate.seqio import SequenceParseError, parse_sequence_file

small = st.integers(min_value=1, max_value=10**6)
huge = st.integers(min_value=10**1000, max_value=10**1100)
numerators = st.one_of(small, small, huge)
positive_rationals = st.builds(Fraction, numerators, numerators)
positive_terms = st.one_of(small, huge, positive_rationals)
small_rationals = st.builds(Fraction, small, small)
# Non-positive, inexact and non-number terms, mixed in rarely so most draws are valid.
bad_terms = st.one_of(
    st.integers(min_value=-3, max_value=0),
    st.builds(Fraction, st.integers(min_value=-10**6, max_value=0), small),
    st.just(1.5),
    st.just("3"),
    st.booleans(),
)


@st.composite
def shaped_terms(draw):
    """Term lists built from a monotone or constant quotient list, so that
    every classification is drawn, not only "neither"; or wide near ties."""
    shape = draw(st.sampled_from(["down", "up", "flat", "raw", "near-tie"]))
    if shape == "near-tie":
        # ~3000-bit terms a unit or two apart, over one wide denominator or
        # none: margins near 2^-3000 of the terms, which their leading bits
        # cannot decide. x is a 60-bit top, shifted, plus a small offset, so
        # that carries run through the leading bits.
        x = (draw(st.integers(2**59, 2**61)) << 2940) + draw(st.integers(-2, 2))
        y = draw(st.sampled_from([1, 2**3001 - 1]))  # its prime factors exceed 6000
        offsets = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=26))
        return [Fraction(x + offset, y) if y > 1 else x + offset for offset in offsets]
    start = draw(positive_terms)
    # Small ratios keep every term well below the 4300-digit int/str limit.
    ratios = draw(st.lists(small_rationals, min_size=0, max_size=25))
    if shape == "down":
        ratios.sort(reverse=True)
    elif shape == "up":
        ratios.sort()
    elif shape == "flat" and ratios:
        ratios = [ratios[0]] * len(ratios)
    terms = [start]
    for ratio in ratios:
        terms.append(terms[-1] * ratio)
    if draw(st.booleans()):
        # Integer-valued terms stay ints, as a file of integers parses.
        terms = [int(t) if Fraction(t).denominator == 1 else t for t in terms]
    return terms


term_lists = st.one_of(
    shaped_terms(),
    st.lists(positive_terms, min_size=0, max_size=25),
    st.lists(st.one_of(positive_terms, positive_terms, positive_terms, bad_terms), max_size=12),
)


def outcome(function, *args, **kwargs):
    """(result, None) or (None, (exception type, message))."""
    try:
        return function(*args, **kwargs), None
    except (TypeError, ValueError) as error:
        return None, (type(error), str(error))


def same_sequence(new, old):
    assert repr(new) == repr(old)
    assert new.terms == old.terms
    assert list(new) == list(old)
    assert len(new) == len(old)
    assert hash(new) == hash(old)


def same_analysis(new, old):
    assert classify_log_behavior(new) == oracle.classify_log_behavior(old)
    assert quotient_monotonicity(new) == oracle.quotient_monotonicity(old)


class TestSequences:
    @settings(max_examples=300, deadline=None)
    @given(terms=term_lists)
    def test_reports_and_errors_match_the_oracle(self, terms):
        new, new_error = outcome(PositiveSequence, terms)
        old, old_error = outcome(oracle.FractionSequence, terms)
        assert new_error == old_error
        if new is not None:
            same_sequence(new, old)
            same_analysis(new, old)

    @pytest.mark.parametrize("terms", [[True], [1, False, 2], [3, 2, True]])
    def test_bool_terms_raise_the_same_error(self, terms):
        error = outcome(PositiveSequence, terms)[1]
        assert error is not None and error[0] is TypeError
        assert outcome(oracle.FractionSequence, terms)[1] == error

    @settings(max_examples=100, deadline=None)
    @given(terms=term_lists)
    def test_classifiers_accept_plain_iterables(self, terms):
        new = outcome(classify_log_behavior, terms)
        old = outcome(oracle.classify_log_behavior, terms)
        assert new == old
        assert outcome(quotient_monotonicity, terms) == outcome(
            oracle.quotient_monotonicity, terms
        )


def render(term, scale, plus):
    """A token for a term: p/q scaled by `scale` (so not reduced), maybe signed '+'."""
    value = Fraction(term)
    if value.denominator == 1 and scale == 1:
        text = str(value.numerator)
    else:
        text = f"{value.numerator * scale}/{value.denominator * scale}"
    return ("+" if plus and value >= 0 else "") + text


@st.composite
def sequence_texts(draw):
    non_positive = st.one_of(
        st.integers(min_value=-3, max_value=0),
        st.builds(Fraction, st.integers(min_value=-9, max_value=-1), small),
    )
    terms = draw(
        st.one_of(
            shaped_terms(),
            st.lists(positive_terms, max_size=12),
            st.lists(st.one_of(positive_terms, positive_terms, non_positive), max_size=12),
        )
    )
    tokens = [
        render(term, draw(st.sampled_from([1, 1, 2, 7])), draw(st.booleans()))
        for term in terms
    ]
    extras = st.sampled_from(
        ["-0/5", "+0", "-0", "3/0", "0/0", "1.5", "x", "2/-3", "4//2", "1_0", "3/1_0"]
    )
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(min_value=0, max_value=len(tokens))), draw(extras))
    # NEL and the ideographic space are whitespace to str.split, and two and three UTF-8 bytes long
    separators = st.sampled_from([" ", "\n", "\t", "  \n ", "\x85", "\u3000"])
    return "".join(token + draw(separators) for token in tokens)


def sources(text):
    """The same sequence file as a str, as UTF-8 bytes, and as a text and a binary stream."""
    return text, text.encode(), io.StringIO(text), io.BytesIO(text.encode())


def parses_as_the_oracle(text, read_size=seqio._READ_SIZE):
    """Each form of `text`, read `read_size` characters at a time, parses as the oracle parses it."""
    old, old_error = outcome(oracle.parse_sequence_file, text)
    with mock.patch.object(seqio, "_READ_SIZE", read_size):
        for source in sources(text):
            new, new_error = outcome(parse_sequence_file, source)
            assert new_error == old_error, (text, type(source))
            if new is not None:
                same_sequence(new, old)
    if old is not None:
        same_analysis(new, old)


# (bytes with a bad token before any bytes that are not UTF-8, the error):
# bytes that are not UTF-8 come first, then the first bad token
BAD_TOKEN_THEN_BAD_BYTES = [
    (b"x 1 2 \xff 3\n", "not UTF-8 at byte 6: invalid start byte"),
    # past the first chunk at the default read size, and inside it
    (b"x " + b"1 " * 40000 + b"\xff 3\n", "not UTF-8 at byte 80002: invalid start byte"),
    (b"x " + b"1 " * 20000 + b"\xff 3\n", "not UTF-8 at byte 40002: invalid start byte"),
    (b"x 1 2 \xc3\xa9 3\n", "token 1: cannot parse 'x'"),
]
BAD_TOKEN_IDS = ["short", "past-the-first-chunk", "in-the-first-chunk", "utf8"]


class TestParsing:
    @settings(max_examples=300, deadline=None)
    @given(text=sequence_texts())
    def test_parse_matches_the_oracle(self, text):
        parses_as_the_oracle(text)

    @pytest.mark.parametrize("read_size", [1, 2, 7])
    @settings(max_examples=100, deadline=None)
    @given(text=sequence_texts())
    def test_chunk_edges_match_the_oracle(self, read_size, text):
        parses_as_the_oracle(text, read_size)

    @pytest.mark.parametrize("read_size", [1, 2, 7])
    @pytest.mark.parametrize(
        "text",
        [
            "12 345 6789 1234567/89",  # tokens longer than a chunk
            "1\r\n2\r\n4\r\n",  # "\r\n" split by an edge at read sizes 1 and 2
            "1\x852\x854 8\x85",  # NEL is whitespace to str.split
            "1\u20282 é 4",  # characters of two and three UTF-8 bytes, cut by read edges
            "1 2  4   8 ",
            "  \n\t ",
            "7 x 3/0",
            "-1 2 " + "3" * 20 + "/0",
        ],
    )
    def test_fixed_chunk_edges_match_the_oracle(self, read_size, text):
        parses_as_the_oracle(text, read_size)

    @pytest.mark.parametrize("read_size", [1, 2, 7, 1000])
    def test_long_token_over_many_chunks_names_its_position(self, read_size):
        # The oracle's Fraction raises Python's own message here, so the error
        # is checked directly: the token's position, the digit limit.
        with mock.patch.object(seqio, "_READ_SIZE", read_size):
            for source in sources("1 2 " + "9" * 5000 + " 4"):
                with pytest.raises(SequenceParseError, match="^token 3: over 4300 digits"):
                    parse_sequence_file(source)

    def test_a_long_token_read_a_character_at_a_time_takes_linear_time(self):
        # the token is joined once, when whitespace ends it: about 1 s on a 2-vCPU
        # VM, where a join at every chunk, quadratic in the length, took 21 s
        start = time.perf_counter()
        with mock.patch.object(seqio, "_READ_SIZE", 1):
            with pytest.raises(SequenceParseError, match="^token 2: over 4300 digits"):
                parse_sequence_file("1 " + "9" * 10**6 + " 2")
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("read_size", [1, 2, 7])
    def test_whitespace_stream_has_no_terms(self, read_size):
        with mock.patch.object(seqio, "_READ_SIZE", read_size):
            with pytest.raises(ValueError, match="needs at least one term"):
                parse_sequence_file(io.StringIO(" \n\r\n\t\x85 "))

    def test_binary_stream_parses_as_its_utf8_text(self):
        assert parse_sequence_file(io.BytesIO(b"1 2 3")) == parse_sequence_file("1 2 3")

    @pytest.mark.parametrize("read_size", [seqio._READ_SIZE, 1, 2, 7])
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"1 " * 70000 + b"\xff 2\n", "not UTF-8 at byte 140000: invalid start byte"),
            (b"12\xc3x 5", "not UTF-8 at byte 2: invalid continuation byte"),
            (b"1 2 \xc3", "not UTF-8 at byte 4: unexpected end of data"),
        ],
        ids=["after-many-reads", "cut-then-bad", "cut-at-the-end"],
    )
    def test_bytes_not_utf8_name_their_offset(self, read_size, data, message):
        with mock.patch.object(seqio, "_READ_SIZE", read_size):
            for source in (data, io.BytesIO(data)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    parse_sequence_file(source)

    @pytest.mark.parametrize("read_size", [seqio._READ_SIZE, 1, 2, 7])
    @pytest.mark.parametrize("data, message", BAD_TOKEN_THEN_BAD_BYTES, ids=BAD_TOKEN_IDS)
    def test_bytes_not_utf8_outrank_an_earlier_bad_token(self, read_size, data, message):
        # the same error wherever the chunk edges fall: the first chunk's
        # bad token is held back until the rest of the bytes are decoded
        with mock.patch.object(seqio, "_READ_SIZE", read_size):
            for source in (data, io.BytesIO(data)):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    parse_sequence_file(source)

    def test_fixed_cases_match_the_oracle(self):
        texts = [
            "4/6 +3 1/1",
            "-0/5",
            "1 -4/6 abc",
            "-1 abc",
            "2/4 4/8 8/16 16/32",
            "1 3/0",
            "0/0",
            f"{10**1500} {10**1500 + 1}/2 3",
            "",
        ]
        for text in texts:
            parses_as_the_oracle(text)


def rendered(text):
    """(exit code, stdout, stderr) of `figurate analyze` on text, as the oracle's
    reports and errors render."""
    try:
        sequence = oracle.parse_sequence_file(text)
    except ValueError as error:
        return 2, "", f"error: {error}\n"
    behavior = oracle.classify_log_behavior(sequence)
    direction = oracle.quotient_monotonicity(sequence)
    word = behavior.classification.value
    if behavior.classification is LogBehavior.GEOMETRIC:
        word += " (both)"
    lines = [f"classification: {word}"]
    if behavior.first_concavity_violation is not None:
        lines.append(f"first concavity violation: j={behavior.first_concavity_violation}")
    if behavior.first_convexity_violation is not None:
        lines.append(f"first convexity violation: j={behavior.first_convexity_violation}")
    lines.append(f"quotient direction: {direction.direction.value}")
    if direction.first_violation is not None:
        lines.append(f"first monotonicity break: step {direction.first_violation}")
    code = 1 if behavior.classification is LogBehavior.NEITHER else 0
    return code, "\n".join(lines) + "\n", ""


class TestCommandLine:
    """`figurate analyze` streams its input through both routes block by block;
    what it prints must be what the oracle's reports and errors render to."""

    @pytest.mark.parametrize("read_size", [seqio._READ_SIZE, 1, 2, 7])
    @settings(max_examples=60, deadline=None)
    @given(text=sequence_texts())
    def test_output_matches_the_oracle(self, read_size, text):
        with mock.patch.object(seqio, "_READ_SIZE", read_size):
            result = CliRunner().invoke(cli, ["analyze"], input=text)
        assert (result.exit_code, result.stdout, result.stderr) == rendered(text)

    @pytest.mark.parametrize("read_size", [seqio._READ_SIZE, 1, 2, 7])
    @pytest.mark.parametrize("data, message", BAD_TOKEN_THEN_BAD_BYTES, ids=BAD_TOKEN_IDS)
    def test_bytes_not_utf8_outrank_an_earlier_bad_token(self, read_size, data, message):
        with mock.patch.object(seqio, "_READ_SIZE", read_size):
            result = CliRunner().invoke(cli, ["analyze"], input=data)
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


class TestBlocks:
    @settings(max_examples=200, deadline=None)
    @given(terms=shaped_terms(), data=st.data())
    def test_any_split_into_blocks_gives_the_oracle_reports(self, terms, data):
        sequence = PositiveSequence(terms)
        nums, dens = sequence._numerators, sequence._denominators
        expected = oracle.classify_log_behavior(terms), oracle.quotient_monotonicity(terms)
        drawn = sorted(data.draw(st.lists(st.integers(0, len(nums)), max_size=6)))
        # blocks of any size, empty ones included, and every term in its own block
        for cuts in (drawn, range(1, len(nums))):
            edges = zip([0, *cuts], [*cuts, len(nums)])
            blocks = ((list(nums[start:stop]), list(dens[start:stop])) for start, stop in edges)
            assert _classify_blocks(blocks) == expected, list(cuts)
