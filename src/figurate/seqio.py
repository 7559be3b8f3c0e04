"""Reading and writing sequence data: OEIS b-files, CSV, and term lists.

Formats are deliberately rigid, and one writer renders every b-file, CSV and
plain term list, _BLOCK_TERMS lines or terms to a text piece, so that emitted
files are bit-exact and a writer holds one block of text at a time:

* b-file: one "<index> <value>" line per term, '#' comment lines, indices
  strictly increasing by 1;
* CSV: header row then rows, integers in decimal, rationals as "p/q" in
  lowest terms, never decimal expansions;
* sequence file: whitespace-separated integers or "p/q" rationals;
* every number read is ASCII digits with an optional sign, no "_" separators.

A sequence file may be given as a str, as UTF-8 bytes or as an open text or
binary file. It is read in chunks of a fixed size and parsed token by token,
so the memory it takes grows with the integers kept, not with the text or its
token count. A token cut by chunk edges waits, in pieces, for the whitespace
that ends it. For bytes that are not UTF-8, both readers raise one error
naming the offset, before any other error. The sequence-file reader alone
orders its errors (see :func:`parse_sequence_file`) and yields positive terms only.
"""

from __future__ import annotations

import codecs
import io
import itertools
import re
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, BinaryIO, TextIO

from figurate.core import _is_int
from figurate.logbehavior import _NO_TERMS, PositiveSequence, _not_positive

# emit_csv imports fractions itself, as core does: the command line never loads it.
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BFileRecord",
    "BFileParseError",
    "BFileStructureError",
    "SequenceParseError",
    "parse_bfile",
    "emit_bfile",
    "emit_csv",
    "parse_sequence_file",
]

# ASCII digits only: int() alone would also take "1_0" and non-ASCII digits such as "\u0663"
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_TOKEN_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")
# The line boundaries of str.splitlines, so that b-file lines are read one at a time.
# The pattern is compiled (and cached by re) at first use, not at every start-up.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE = f"[^{_LINE_BREAKS}]*(?:\r\n|[{_LINE_BREAKS}])|[^{_LINE_BREAKS}]+"
# Characters or bytes taken at a time from a sequence file: a slice, or one read() of a stream.
# Set by the max RSS of `figurate analyze` on the benchmark's analyze-mixed files (CPython
# 3.11, 2 vCPUs): 17.4-17.6 MB at 32 Ki, 17.7 at 48 Ki and 18.1 at 64 Ki; 16 Ki held 0.1 MB
# less but cost the files of wide terms 2-3 % in time, where 32 Ki moved no file beyond noise.
_READ_SIZE = 1 << 15
# Lines (or plain terms) that a writer joins into one text piece. Set by the max RSS of the
# benchmark's gen and quotients writes: 17.5-17.6 MB at 2048, 17.8 at 3072 and 18.0-18.2 at
# 4096, with pieces joined twice; 1024 held 0.1 MB less but took a b-file write 8 % longer,
# where 2048 took no longer. Joining each piece once took 2048 to 17.3-17.4 MB.
_BLOCK_TERMS = 2048


class BFileParseError(ValueError):
    """A b-file line does not parse as "<index> <value>"."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class BFileStructureError(ValueError):
    """b-file indices do not increase by exactly 1."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SequenceParseError(ValueError):
    """A sequence-file token is not an integer or "p/q" rational."""

    def __init__(self, position: int, message: str):
        super().__init__(f"token {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class BFileRecord:
    index: int
    value: int


def _over_limit() -> str:
    return f"over {sys.get_int_max_str_digits()} digits, Python's limit for converting text to int"


def _not_utf8(error: UnicodeDecodeError, offset: int = 0) -> ValueError:
    """The error for bytes that are not UTF-8; `offset` bytes came before the decoded ones."""
    return ValueError(f"not UTF-8 at byte {offset + error.start}: {error.reason}")


def parse_bfile(text: str | bytes) -> list[BFileRecord]:
    """Parse b-file text into records, enforcing the +1 index progression.

    `text` is a str or UTF-8 bytes (a bytearray and a memoryview too); bytes
    that are not UTF-8 raise ValueError naming their 0-based byte offset.
    Lines beginning with '#' and blank lines are skipped. A malformed line,
    or a field longer than Python's int/str digit limit, raises
    :class:`BFileParseError` naming the line; an index gap raises
    :class:`BFileStructureError` naming the line and the gap.
    """
    if not isinstance(text, str):
        try:
            text = str(text, "utf-8")  # in one piece: joined pieces would hold the text twice
        except UnicodeDecodeError as error:
            raise _not_utf8(error) from None
    records: list[BFileRecord] = []
    for line_number, match in enumerate(re.finditer(_LINE, text), start=1):
        raw = match.group().rstrip(_LINE_BREAKS)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise BFileParseError(
                line_number, f"expected '<index> <value>', got {raw!r}"
            )
        if not all(map(_INTEGER_RE.match, fields)):
            raise BFileParseError(line_number, f"non-integer field in {raw!r}")
        numbers = []
        for name, field in zip(("index", "value"), fields):
            try:
                numbers.append(int(field))
            except ValueError:
                # The regex admits only digits, so int() fails only on the digit limit.
                raise BFileParseError(line_number, f"{name} {_over_limit()}") from None
        index, value = numbers
        if records and index != records[-1].index + 1:
            raise BFileStructureError(
                line_number,
                f"index gap: expected {records[-1].index + 1}, found {index}",
            )
        records.append(BFileRecord(index, value))
    return records


def emit_bfile(offset: int, values: Iterable[int]) -> str:
    """Render values as b-file text, indices starting at `offset`.

    Round-trips through :func:`parse_bfile`, so the offset and every value
    must be an int (not a bool); anything else raises TypeError, naming the
    1-based position of a bad value, and so do bytes, a bytearray or a
    memoryview as the values. The values are read once, so an iterator
    serves; none at all raises ValueError.
    """
    if not _is_int(offset):
        raise TypeError(f"b-file offset must be an int, got {type(offset).__name__}")
    if isinstance(values, (bytes, bytearray, memoryview)):
        raise TypeError(
            f"b-file values are a {type(values).__name__}, whose items are byte values, not terms"
        )
    values = list(values)
    for position, value in enumerate(values, start=1):
        if not _is_int(value):
            raise TypeError(
                f"b-file value {position} is a {type(value).__name__}; only ints are accepted"
            )
    if not values:
        raise ValueError("cannot emit an empty b-file")
    rows = zip(map(str, itertools.count(offset)), map(str, values))
    return "".join(_joined(map(" ".join, rows), "\n"))


def emit_csv(columns: Mapping[str, Iterable[int | Fraction]]) -> str:
    """Render named columns as CSV with exact values.

    Integers render in decimal, rationals as "p/q" in lowest terms; any other
    value, a bool or a float included, raises TypeError, and so does a column
    given as bytes, a bytearray or a memoryview. A column name must
    be a str without ",", "\\r" or "\\n", so that the header has one field
    per column. Each column is read once, so an iterator serves. All columns
    must be the same length; an empty mapping is an error.
    """
    from fractions import Fraction
    if not columns:
        raise ValueError("cannot emit CSV with no columns")
    for name, values in columns.items():
        if not isinstance(name, str):
            raise TypeError(f"column {name!r} is named by a {type(name).__name__}, not a str")
        if any(mark in name for mark in ",\r\n"):
            raise ValueError(f"column {name!r} has a comma or a line break in its name")
        if isinstance(values, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"column {name!r} is a {type(values).__name__}, whose items are byte values, not terms"
            )
    columns = {name: list(values) for name, values in columns.items()}
    lengths = {len(values) for values in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {sorted(lengths)}")
    for name, values in columns.items():
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise TypeError(
                    f"column {name!r} holds {type(value).__name__}; "
                    "only exact ints or Fractions are accepted"
                )
    rows = zip(*(map(str, values) for values in columns.values()))
    return "".join(_joined(map(",".join, itertools.chain([tuple(columns)], rows)), "\n"))


def _term_lines(fmt: str, column: str, texts: Iterable[str]) -> Iterator[str]:
    """Rendered terms n = 1, 2, ... as text pieces: "plain" is one line of terms separated by
    spaces, "bfile" a b-file, and "csv" a CSV with the columns "n" and `column`."""
    if fmt == "plain":
        return _joined(texts, " ")
    # each row is joined as it is read, so zip can reuse its tuple, and a block holds lines only
    rows = zip(map(str, itertools.count(1)), texts)
    if fmt == "bfile":
        return _joined(map(" ".join, rows), "\n")
    return _joined(map(",".join, itertools.chain([("n", column)], rows)), "\n")


def _joined(items: Iterable[str], separator: str) -> Iterator[str]:
    """The items joined by `separator`, then "\n", as text pieces of _BLOCK_TERMS items each.

    Each piece is one join of its block, which starts with "" when a block came before it,
    so that the join also separates the two. The block is dropped before the piece is
    handed on, so that a piece is held once while it is written.
    """
    items = iter(items)
    later = False  # whether a block came before this one
    for block in iter(lambda: list(itertools.islice(items, _BLOCK_TERMS)), []):
        if later:
            block.insert(0, "")
        piece = separator.join(block)
        del block
        yield piece
        later = True
    yield "\n"


def parse_sequence_file(source: str | bytes | BinaryIO | TextIO) -> PositiveSequence:
    """Parse whitespace-separated integers or "p/q" rationals.

    `source` is the text, as a str or UTF-8 bytes (a bytearray and a
    memoryview too), or a text or binary file object open for reading, which
    is read to its end in chunks; a binary one is read as UTF-8. Each token
    becomes an integer numerator and denominator, not reduced. Errors come in
    one order, wherever the chunk edges fall, as :func:`_pair_blocks` decides
    it: bytes that are not UTF-8, anywhere in the input, raise ValueError with
    their 0-based byte offset; then an unparseable token, a zero denominator,
    or a number longer than Python's int/str digit limit (4300 digits by
    default) raises :class:`SequenceParseError` with its 1-based position;
    then the first term <= 0 raises ValueError as
    :class:`~figurate.logbehavior.PositiveSequence` raises it, with its
    position named; last, an input with no terms raises ValueError.
    """
    return PositiveSequence._from_blocks(_pair_blocks(source))


def _pair_blocks(source: str | bytes | BinaryIO | TextIO) -> Iterator[tuple[list[int], list[int]]]:
    """The positive terms of a sequence file as blocks of (numerators, denominators).

    A block per chunk that holds whitespace, empty when no token ends there:
    the text read since the last whitespace is kept in pieces and joined
    once, by the next chunk that holds whitespace, so a token cut by chunk
    edges is parsed in time linear in its length. The same two lists are
    refilled for every block, and each chunk's tokens are dropped before the
    next chunk is read, so a caller copies what it keeps before it asks for
    the next block, and the reader holds one chunk's worth.

    Only this reader reads the text to its end, so it alone orders the input
    errors, as :func:`parse_sequence_file` lists them: it raises a bad token
    or the first term <= 0 once the rest of the text is read, and yields no
    block from the first that holds a term <= 0 on.
    """
    numerators: list[int] = []
    denominators: list[int] = []
    position = 0
    error = None  # the first term <= 0, raised once the text is read
    cut: list[str] = []  # the text read since the last whitespace, in pieces
    # a last blank chunk ends the token that ends the text
    chunks = itertools.chain(_chunks(source), " ")
    for chunk in chunks:
        cut.append(chunk)
        if not re.search(r"\s", chunk):  # \s is what str.split splits on
            continue
        tokens = "".join(cut).split()
        cut.clear()
        if not chunk[-1].isspace():
            cut.append(tokens.pop())  # the chunk ends inside this token
        try:
            for position, token in enumerate(tokens, start=position + 1):
                if not _TOKEN_RE.match(token):
                    raise SequenceParseError(position, f"cannot parse {token!r}")
                numerator, slash, denominator = token.partition("/")
                try:
                    numerators.append(int(numerator))
                    denominators.append(int(denominator) if slash else 1)
                except ValueError:
                    # The regex admits only digits, so int() fails only on the digit limit.
                    raise SequenceParseError(position, _over_limit()) from None
                if not denominators[-1]:
                    raise SequenceParseError(position, f"zero denominator in {token!r}")
        except SequenceParseError:
            for _ in chunks:  # bytes that are not UTF-8, later in the text, raise first
                pass
            raise
        del tokens
        if error is None:
            if min(numerators, default=1) > 0:
                yield numerators, denominators
            else:
                index = next(i for i, numerator in enumerate(numerators) if numerator <= 0)
                error = _not_positive(
                    position - len(numerators) + index + 1, numerators[index], denominators[index]
                )
        numerators.clear()
        denominators.clear()
    if error is not None:
        raise error
    if not position:
        raise ValueError(_NO_TERMS)


def _chunks(source: str | bytes | BinaryIO | TextIO) -> Iterator[str]:
    """The text of a sequence file in pieces, some of which may be empty.

    A str is sliced _READ_SIZE characters at a time. Bytes, whole or read
    _READ_SIZE at a time from a binary stream, are decoded as UTF-8, and a
    character cut by a read edge goes with the next piece. Bytes that are not
    UTF-8, a cut last character included, raise ValueError naming their
    0-based offset.
    """
    if isinstance(source, str):
        for start in range(0, len(source), _READ_SIZE):
            yield source[start : start + _READ_SIZE]
        return
    if isinstance(source, (bytes, bytearray, memoryview)):
        source = io.BytesIO(source)
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # bytes read before this piece
    reads = itertools.takewhile(len, map(source.read, itertools.repeat(_READ_SIZE)))
    # a last b"" flushes the decoder, so that a cut last character is an error
    for piece in itertools.chain(reads, [b""]):
        if isinstance(piece, str):
            yield piece
            continue
        try:
            text = decoder.decode(piece, final=not piece)
        except UnicodeDecodeError as error:
            # error.start counts from the bytes of a cut character that the decoder holds
            raise _not_utf8(error, offset - len(decoder.getstate()[0])) from None
        offset += len(piece)
        yield text
