"""The analyze path as it was before the integer kernels: a Fraction-based test oracle.

PositiveSequence, classify_log_behavior, quotient_monotonicity and
parse_sequence_file below are the former figurate.logbehavior and
figurate.seqio code, kept verbatim (the class renamed to FractionSequence)
except for two rules taken over from figurate since: bool terms are rejected,
and a classification carries no margins.
Every term is a Fraction, and every margin, quotient and comparison is
Fraction arithmetic. tests/test_analyze_oracle.py requires these and the
integer versions in figurate to return identical reports and to raise
identical errors. The token rule is spelled out here, not imported, so that
a wrong rule in figurate.seqio fails that comparison.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from fractions import Fraction

from figurate.logbehavior import (
    LogBehavior,
    LogBehaviorReport,
    Monotonicity,
    MonotonicityReport,
)
from figurate.seqio import SequenceParseError

# an optional sign, ASCII digits, and optionally "/" and ASCII digits
_TOKEN_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")


class FractionSequence(Sequence):
    """Immutable sequence of strictly positive exact rationals.

    Terms may be given as ints or Fractions; they are stored as Fractions.
    Floats (not exact) and bools (not numbers) are rejected outright, and any
    term <= 0 is rejected with an error naming its 1-based position.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[int | Fraction]):
        checked = []
        for position, term in enumerate(terms, start=1):
            if isinstance(term, (bool, float)):
                raise TypeError(
                    f"term {position} is a {type(term).__name__};"
                    " only exact ints or Fractions are accepted"
                )
            if not isinstance(term, (int, Fraction)):
                raise TypeError(
                    f"term {position} has unsupported type {type(term).__name__};"
                    " only exact ints or Fractions are accepted"
                )
            value = Fraction(term)
            if value <= 0:
                raise ValueError(f"term {position} is not positive: {value}")
            checked.append(value)
        if not checked:
            raise ValueError("a positive sequence needs at least one term")
        self._terms = tuple(checked)

    @property
    def terms(self) -> tuple[Fraction, ...]:
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __getitem__(self, index):
        return self._terms[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, FractionSequence):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        rendered = ", ".join(str(t) for t in self._terms)
        return f"PositiveSequence([{rendered}])"


def _as_sequence(seq: FractionSequence | Iterable[int | Fraction]) -> FractionSequence:
    if isinstance(seq, FractionSequence):
        return seq
    return FractionSequence(seq)


def classify_log_behavior(
    seq: FractionSequence | Iterable[int | Fraction],
) -> LogBehaviorReport:
    """Classify a positive sequence by the signs of its exact margins.

    A sequence shorter than 3 terms is INDETERMINATE (there is no interior
    index to test), not an error.
    """
    terms = _as_sequence(seq).terms
    length = len(terms)
    if length < 3:
        return LogBehaviorReport(LogBehavior.INDETERMINATE)

    first_negative: int | None = None
    first_positive: int | None = None
    for j in range(2, length):
        margin = terms[j - 1] * terms[j - 1] - terms[j - 2] * terms[j]
        if margin < 0 and first_negative is None:
            first_negative = j
        if margin > 0 and first_positive is None:
            first_positive = j

    if first_negative is None and first_positive is None:
        classification = LogBehavior.GEOMETRIC
    elif first_negative is None:
        classification = LogBehavior.LOG_CONCAVE
    elif first_positive is None:
        classification = LogBehavior.LOG_CONVEX
    else:
        classification = LogBehavior.NEITHER

    return LogBehaviorReport(
        classification,
        first_concavity_violation=first_negative,
        first_convexity_violation=first_positive,
    )


def quotient_monotonicity(
    seq: FractionSequence | Iterable[int | Fraction],
) -> MonotonicityReport:
    """Exact monotonicity direction of the quotient sequence s(n+1)/s(n).

    For positive sequences this agrees with :func:`classify_log_behavior`:
    non-increasing quotients match log-concave, non-decreasing match
    log-convex, constant matches geometric.
    """
    terms = _as_sequence(seq).terms
    quotients = [terms[i + 1] / terms[i] for i in range(len(terms) - 1)]
    if len(quotients) < 2:
        return MonotonicityReport(Monotonicity.INDETERMINATE)

    first_increase: int | None = None
    first_decrease: int | None = None
    for step in range(1, len(quotients)):
        if quotients[step] > quotients[step - 1] and first_increase is None:
            first_increase = step
        if quotients[step] < quotients[step - 1] and first_decrease is None:
            first_decrease = step

    if first_increase is None and first_decrease is None:
        return MonotonicityReport(Monotonicity.CONSTANT)
    if first_increase is None:
        return MonotonicityReport(Monotonicity.NON_INCREASING)
    if first_decrease is None:
        return MonotonicityReport(Monotonicity.NON_DECREASING)
    return MonotonicityReport(
        Monotonicity.NEITHER,
        first_violation=max(first_increase, first_decrease),
    )


def parse_sequence_file(text: str | bytes) -> FractionSequence:
    """Parse whitespace-separated integers or "p/q" rationals.

    An unparseable token raises :class:`SequenceParseError` with its 1-based
    position; a non-positive term is rejected by
    :class:`~figurate.logbehavior.PositiveSequence` with its position named.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    terms: list[Fraction] = []
    for position, token in enumerate(text.split(), start=1):
        if not _TOKEN_RE.match(token):
            raise SequenceParseError(position, f"cannot parse {token!r}")
        try:
            terms.append(Fraction(token))
        except ZeroDivisionError:
            raise SequenceParseError(position, f"zero denominator in {token!r}") from None
    return FractionSequence(terms)
