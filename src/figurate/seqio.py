"""Reading and writing sequence data: OEIS b-files, CSV, and term lists.

Formats are deliberately rigid so that emitted files are bit-exact:

* b-file: one "<index> <value>" line per term, '#' comment lines, indices
  strictly increasing by 1;
* CSV: header row then rows, integers in decimal, rationals as "p/q" in
  lowest terms, never decimal expansions;
* sequence file: whitespace-separated integers or "p/q" rationals;
* every number read is ASCII digits with an optional sign, no "_" separators.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from figurate.core import _is_int
from figurate.logbehavior import PositiveSequence

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


def _as_text(data: str | bytes) -> str:
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def parse_bfile(text: str | bytes) -> list[BFileRecord]:
    """Parse b-file text into records, enforcing the +1 index progression.

    Lines beginning with '#' and blank lines are skipped. A malformed line,
    or a field longer than Python's int/str digit limit, raises
    :class:`BFileParseError` naming the line; an index gap raises
    :class:`BFileStructureError` naming the line and the gap.
    """
    records: list[BFileRecord] = []
    for line_number, raw in enumerate(_as_text(text).splitlines(), start=1):
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


def emit_bfile(offset: int, values: Sequence[int]) -> str:
    """Render values as b-file text, indices starting at `offset`.

    Round-trips through :func:`parse_bfile`, so the offset and every value
    must be an int (not a bool); anything else raises TypeError, naming the
    1-based position of a bad value.
    """
    if not _is_int(offset):
        raise TypeError(f"b-file offset must be an int, got {type(offset).__name__}")
    if not values:
        raise ValueError("cannot emit an empty b-file")
    for position, value in enumerate(values, start=1):
        if not _is_int(value):
            raise TypeError(
                f"b-file value {position} is a {type(value).__name__}; only ints are accepted"
            )
    return "".join(
        f"{offset + position} {value}\n" for position, value in enumerate(values)
    )


def emit_csv(columns: Mapping[str, Sequence[int | Fraction]]) -> str:
    """Render named columns as CSV with exact values.

    Integers render in decimal, rationals as "p/q" in lowest terms; any other
    value, a bool or a float included, raises TypeError. All columns must be
    the same length; an empty mapping is an error.
    """
    if not columns:
        raise ValueError("cannot emit CSV with no columns")
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
    lines = [",".join(columns)]
    for row in zip(*columns.values()):
        lines.append(",".join(str(value) for value in row))
    return "\n".join(lines) + "\n"


def parse_sequence_file(text: str | bytes) -> PositiveSequence:
    """Parse whitespace-separated integers or "p/q" rationals.

    Each token becomes an integer pair (p, q), not reduced. An unparseable
    token, a zero denominator, or a number longer than Python's int/str
    digit limit (4300 digits by default) raises :class:`SequenceParseError`
    with its 1-based position. Only then is a non-positive term rejected by
    :class:`~figurate.logbehavior.PositiveSequence`, with its position named.
    """
    pairs: list[tuple[int, int]] = []
    for position, token in enumerate(_as_text(text).split(), start=1):
        if not _TOKEN_RE.match(token):
            raise SequenceParseError(position, f"cannot parse {token!r}")
        numerator, slash, denominator = token.partition("/")
        try:
            pair = int(numerator), int(denominator) if slash else 1
        except ValueError:
            # The regex admits only digits, so int() fails only on the digit limit.
            raise SequenceParseError(position, _over_limit()) from None
        if not pair[1]:
            raise SequenceParseError(position, f"zero denominator in {token!r}")
        pairs.append(pair)
    return PositiveSequence._from_pairs(pairs)
