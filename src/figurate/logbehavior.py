"""Log-behavior classification of positive sequences, with exact arithmetic.

A positive sequence s(1), s(2), ... is log-concave when every interior margin
s(j)^2 - s(j-1) * s(j+1) is >= 0, log-convex when every margin is <= 0, and
geometric when every margin is exactly zero (both at once). Equivalently, the
sequence is log-concave (log-convex) exactly when its quotient sequence
s(n+1)/s(n) is non-increasing (non-decreasing).

This module classifies finite sequences by the margin definition, measures
quotient monotonicity independently, and checks two finite-window conditions
for the m-gonal figurate families: the quotient bounds 1 < x(n) <= m on the
quotients a caller supplies, and the Doslic sufficient criterion for
log-concavity of sequences defined by a two-term recurrence with variable
coefficients on [3, n_max], since the recurrence starts at n = 3. The Doslic
scan itself is `figurate.verify`'s, shared with its `doslic` check.

All verdicts are exact and window-scoped: a passing window means "no
counterexample found on this window", never a claim about all n.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from figurate import core, verify
from figurate.core import _check_index, _check_polygon_order, _compare, _is_int

__all__ = [
    "LogBehavior",
    "Monotonicity",
    "PositiveSequence",
    "LogBehaviorReport",
    "MonotonicityReport",
    "BoundsReport",
    "CriterionReport",
    "classify_log_behavior",
    "quotient_monotonicity",
    "check_quotient_bounds",
    "check_doslic_criterion",
    "margin_sequence",
]


class LogBehavior(Enum):
    """Classification of a finite positive sequence by its margin signs."""

    LOG_CONCAVE = "log-concave"
    LOG_CONVEX = "log-convex"
    GEOMETRIC = "geometric"
    NEITHER = "neither"
    INDETERMINATE = "indeterminate"


class Monotonicity(Enum):
    """Direction of a quotient sequence."""

    NON_INCREASING = "non-increasing"
    NON_DECREASING = "non-decreasing"
    CONSTANT = "constant"
    NEITHER = "neither"
    INDETERMINATE = "indeterminate"


class PositiveSequence(Sequence):
    """Immutable sequence of strictly positive exact rationals.

    Terms may be given as ints or Fractions. Each is stored as a positive
    integer numerator and denominator, not necessarily in lowest terms, so
    the classifiers below work on integers only. `terms`, indexing,
    iteration, equality, hashing and repr use Fractions, built from those
    integers on first use. Floats (not exact) and bools (not numbers) are
    rejected outright, and any term <= 0 is rejected with an error naming
    its 1-based position and its value in lowest terms. Bytes, a bytearray or
    a memoryview as the whole input is a TypeError: their items are byte
    values, not terms (`figurate.parse_sequence_file` reads text as bytes).
    """

    __slots__ = ("_numerators", "_denominators", "_terms")

    def __init__(self, terms: Iterable[int | Fraction]):
        _reject_bytes(terms)
        numerators: list[int] = []
        denominators: list[int] = []
        for position, term in enumerate(terms, start=1):
            numerator, denominator = _exact_pair(position, term)
            if numerator <= 0:
                raise _not_positive(position, numerator, denominator)
            numerators.append(numerator)
            denominators.append(denominator)
        if not numerators:
            raise ValueError(_NO_TERMS)
        self._store(numerators, denominators)

    @classmethod
    def _from_blocks(cls, blocks: Iterable[tuple[list[int], list[int]]]) -> PositiveSequence:
        """A sequence from blocks of positive terms, each a list of numerators and one of
        denominators, as the reader `figurate.seqio._pair_blocks` yields them."""
        numerators: list[int] = []
        denominators: list[int] = []
        for block_nums, block_dens in blocks:
            numerators += block_nums
            denominators += block_dens
        sequence = cls.__new__(cls)
        sequence._store(numerators, denominators)
        return sequence

    def _store(self, numerators: Sequence[int], denominators: Sequence[int]) -> None:
        self._numerators = tuple(numerators)
        self._denominators = tuple(denominators)
        self._terms = None

    @property
    def terms(self) -> tuple[Fraction, ...]:
        if self._terms is None:
            self._terms = tuple(map(Fraction, self._numerators, self._denominators))
        return self._terms

    def __len__(self) -> int:
        return len(self._numerators)

    def __getitem__(self, index):
        return self.terms[index]

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, PositiveSequence):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        rendered = ", ".join(str(t) for t in self.terms)
        return f"PositiveSequence([{rendered}])"


def _exact_pair(position: int, term: int | Fraction) -> tuple[int, int]:
    if _is_int(term):
        return term, 1
    if isinstance(term, Fraction):
        return term.numerator, term.denominator
    if isinstance(term, (bool, float)):
        raise TypeError(
            f"term {position} is a {type(term).__name__};"
            " only exact ints or Fractions are accepted"
        )
    raise TypeError(
        f"term {position} has unsupported type {type(term).__name__};"
        " only exact ints or Fractions are accepted"
    )


def _reject_bytes(values) -> None:
    if isinstance(values, (bytes, bytearray, memoryview)):
        raise TypeError(
            f"got a {type(values).__name__}, whose items are byte values, not terms;"
            " parse it with figurate.parse_sequence_file"
        )


_NO_TERMS = "a positive sequence needs at least one term"


def _not_positive(position: int, numerator: int, denominator: int) -> ValueError:
    return ValueError(f"term {position} is not positive: {core._ratio_text(numerator, denominator)}")


def _as_sequence(seq: PositiveSequence | Iterable[int | Fraction]) -> PositiveSequence:
    if isinstance(seq, PositiveSequence):
        return seq
    return PositiveSequence(seq)


@dataclass(frozen=True)
class LogBehaviorReport:
    """Exact classification of a finite positive sequence.

    Margin indices are 1-based interior positions j in [2, len - 1];
    first_concavity_violation is the smallest j with margin < 0,
    first_convexity_violation the smallest j with margin > 0.
    """

    classification: LogBehavior
    first_concavity_violation: int | None = None
    first_convexity_violation: int | None = None


@dataclass(frozen=True)
class MonotonicityReport:
    """Direction of the quotient sequence q(n) = s(n+1)/s(n).

    When the direction is NEITHER, first_violation is the smallest step t
    such that q(1)..q(t+1) is already neither non-increasing nor
    non-decreasing (step t compares q(t) with q(t+1)).
    """

    direction: Monotonicity
    first_violation: int | None = None


@dataclass(frozen=True)
class BoundsReport:
    """Check of the quotient bounds 1 < x(n) <= m at the positions 1..len(quotients).

    first_lower_violation is the smallest position n with x(n) <= 1,
    first_upper_violation the smallest with x(n) > m; None where none fails.
    """

    first_lower_violation: int | None = None
    first_upper_violation: int | None = None


@dataclass(frozen=True)
class CriterionReport:
    """Check of the Doslic log-concavity criterion on the window [3, n_max].

    Each field is the first n in the window where its condition fails, or
    None where it holds: first_r_violation the first n with R(n) < 0,
    first_t_violation the first with T(n) > 0, seed_step_violation 3 when
    x(3) < x(4) (the quotient sequence increases at the window start), and
    first_delta_violation the first n with dR(n) * x(n - 2) + dT(n) > 0, where
    dR(n) = R(n+1) - R(n) and dT(n) = T(n+1) - T(n).
    """

    first_r_violation: int | None = None
    first_t_violation: int | None = None
    seed_step_violation: int | None = None
    first_delta_violation: int | None = None

    @property
    def verdict(self) -> bool:
        """True when all four conditions hold on the window."""
        return self == CriterionReport()


def classify_log_behavior(
    seq: PositiveSequence | Iterable[int | Fraction],
) -> LogBehaviorReport:
    """Classify a positive sequence by the signs of its exact margins.

    A sequence shorter than 3 terms is INDETERMINATE (there is no interior
    index to test), not an error. With terms p0/d0, a/b and p2/d2 at j - 1,
    j and j + 1, the margin has the sign of the integer a^2 d0 d2 - p0 p2 b^2.
    The scan stops once both first violations are known.
    """
    seq = _as_sequence(seq)
    nums, dens = seq._numerators, seq._denominators
    return _margin_report(len(nums), *_margin_signs(1, nums, dens))


def quotient_monotonicity(
    seq: PositiveSequence | Iterable[int | Fraction],
) -> MonotonicityReport:
    """Exact monotonicity direction of the quotient sequence s(n+1)/s(n).

    For positive sequences this agrees with :func:`classify_log_behavior`:
    non-increasing quotients match log-concave, non-decreasing match
    log-convex, constant matches geometric. Each quotient is a gcd-reduced
    integer pair, neighbours are compared by cross-multiplying, and the
    scan stops once both directions have been seen.
    """
    seq = _as_sequence(seq)
    nums, dens = seq._numerators, seq._denominators
    return _quotient_report(len(nums), *_quotient_signs(1, nums, dens))


def _classify_blocks(
    blocks: Iterable[tuple[list[int], list[int]]],
) -> tuple[LogBehaviorReport, MonotonicityReport]:
    """Both routes' reports on blocks of positive terms, each a list of
    numerators and one of denominators, as `figurate.seqio._pair_blocks`
    yields them.

    Each block is scanned with the two terms before it, so every three-term
    window is scanned once and one block is held at a time.
    """
    seen = 0  # terms read so far
    nums: list[int] = []  # between blocks, the last two of them
    dens: list[int] = []
    margin = quotient = (None, None)  # each route's first index of each sign
    for block_nums, block_dens in blocks:
        first = seen - len(nums) + 1  # the index of the first term scanned
        nums, dens = nums + block_nums, dens + block_dens
        if not all(margin):
            margin = _margin_signs(first, nums, dens, *margin)
        if not all(quotient):
            quotient = _quotient_signs(first, nums, dens, *quotient)
        seen += len(block_nums)
        nums, dens = nums[-2:], dens[-2:]  # drops this block before the next is read
    return _margin_report(seen, *margin), _quotient_report(seen, *quotient)


_WIDE_BITS = 1024  # a wider middle term goes to _wide_margin: the crossover measured on integers
_TOP_BITS = 64  # the leading bits of each factor that a bracket reads


def _margin_signs(
    first: int, nums: Sequence[int], dens: Sequence[int], first_negative=None, first_positive=None
) -> tuple[int | None, int | None]:
    """The first index j with a negative margin and the first with a positive
    one, in terms whose first has index `first`; an index given is kept.

    With terms p0/d0, a/b and p2/d2 at j - 1, j and j + 1, the margin has the
    sign of the integer a^2 d0 d2 - p0 p2 b^2. When a or b is wider than
    _WIDE_BITS, :func:`_wide_margin` finds that sign, mostly without the long
    products; either way the sign is exact.
    """
    wide = 1 << _WIDE_BITS
    triples = zip(itertools.count(first + 1), nums, dens, nums[1:], dens[1:], nums[2:], dens[2:])
    for j, p0, d0, a, b, p2, d2 in triples:
        if a < wide and b < wide:
            scaled = a * a * (d0 * d2) - p0 * p2 * (b * b)
        else:
            scaled = _wide_margin(p0, d0, a, b, p2, d2)
        if scaled < 0 and first_negative is None:
            first_negative = j
        elif scaled > 0 and first_positive is None:
            first_positive = j
        else:
            continue
        if first_negative and first_positive:
            break
    return first_negative, first_positive


def _wide_margin(p0: int, d0: int, a: int, b: int, p2: int, d2: int) -> int:
    """An int with the sign of a^2 d0 d2 - p0 p2 b^2, for positive ints.

    Each factor x lies in [t 2^s, (t + 1) 2^s) for its top bits t (:func:`_top`).
    So each side lies in [low 2^e, high 2^e) for integers low and high formed
    from the six t's, and two brackets that do not overlap give the sign. When
    they overlap, a^2 = p0 p2 and d0 d2 = b^2 give an exact 0, as at every step
    of a geometric run in lowest terms; otherwise the exact difference is formed.
    """
    (ta, sa), (tb, sb) = _top(a), _top(b)
    (tp0, sp0), (td0, sd0) = _top(p0), _top(d0)
    (tp2, sp2), (td2, sd2) = _top(p2), _top(d2)
    left_low = ta * ta * td0 * td2
    left_high = (ta + 1) * (ta + 1) * (td0 + 1) * (td2 + 1)
    right_low = tp0 * tp2 * tb * tb
    right_high = (tp0 + 1) * (tp2 + 1) * (tb + 1) * (tb + 1)
    shift = (2 * sa + sd0 + sd2) - (sp0 + sp2 + 2 * sb)  # both sides to the smaller e
    if shift > 0:
        left_low, left_high = left_low << shift, left_high << shift
    else:
        right_low, right_high = right_low << -shift, right_high << -shift
    if left_low >= right_high:
        return 1
    if left_high <= right_low:
        return -1
    squared, outer, across, inner = a * a, p0 * p2, d0 * d2, b * b
    if squared == outer and across == inner:
        return 0
    return squared * across - outer * inner


def _top(x: int) -> tuple[int, int]:
    """(t, s) with t the top _TOP_BITS bits of x > 0, zero-filled when x is
    narrower, so that t 2^s <= x < (t + 1) 2^s."""
    shift = x.bit_length() - _TOP_BITS
    return (x >> shift, shift) if shift >= 0 else (x << -shift, shift)


def _quotient_signs(
    first: int, nums: Sequence[int], dens: Sequence[int], first_increase=None, first_decrease=None
) -> tuple[int | None, int | None]:
    """The first step t where the quotients increase and the first where they
    decrease, in terms whose first has index `first`; a step given is kept.
    Step t compares x(t) with x(t + 1)."""
    quotients = _reduced_quotients(nums, dens)
    for step, (before, after) in enumerate(itertools.pairwise(quotients), start=first):
        order = _compare(after, before)
        if order > 0 and first_increase is None:
            first_increase = step
        elif order < 0 and first_decrease is None:
            first_decrease = step
        else:
            continue
        if first_increase and first_decrease:
            break
    return first_increase, first_decrease


def _margin_report(length: int, first_negative, first_positive) -> LogBehaviorReport:
    if length < 3:
        return LogBehaviorReport(LogBehavior.INDETERMINATE)
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


def _quotient_report(length: int, first_increase, first_decrease) -> MonotonicityReport:
    if length < 3:
        return MonotonicityReport(Monotonicity.INDETERMINATE)
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


def _reduced_quotients(nums: Sequence[int], dens: Sequence[int]) -> Iterator[tuple[int, int]]:
    """s(n+1)/s(n) = (p1/d1)/(p0/d0) = (p1 d0)/(d1 p0) as a pair with a positive denominator.

    The gcds of the two numerators and of the two denominators are divided
    out before multiplying, as Fraction division does: the pair is in lowest
    terms when both terms are, and the gcds stay on the smaller numbers.
    """
    for p0, d0, p1, d1 in zip(nums, dens, nums[1:], dens[1:]):
        g, h = gcd(p1, p0), gcd(d0, d1)
        yield (p1 // g) * (d0 // h), (d1 // h) * (p0 // g)


def check_quotient_bounds(
    m: int, quotients: Sequence[Fraction | int]
) -> BoundsReport:
    """Verify 1 < x(n) <= m for every supplied quotient (1-based positions).

    Each quotient must be an int or a Fraction; anything else, floats and
    bools included, raises TypeError naming its position, and bytes, a
    bytearray or a memoryview as the whole input raises it as
    :class:`PositiveSequence` does. With x = p/q and q > 0,
    the bounds are decided on integers: x <= 1 when p <= q, x > m when
    p > m q.
    """
    _check_polygon_order(m)
    _reject_bytes(quotients)
    first_low: int | None = None
    first_high: int | None = None
    position = 0
    for position, x in enumerate(quotients, start=1):
        p, q = _exact_pair(position, x)
        if p <= q and first_low is None:
            first_low = position
        if p > m * q and first_high is None:
            first_high = position
    if not position:
        raise ValueError("bounds check needs at least one quotient")
    return BoundsReport(first_low, first_high)


def check_doslic_criterion(m: int, n_max: int) -> CriterionReport:
    """Check the Doslic log-concavity conditions on the window [3, n_max].

    The recurrence S(n) = R(n) S(n-1) + T(n) S(n-2) starts at n = 3, and so
    does the window. For the m-gonal family with recurrence coefficients
    R(n), T(n) and quotients x(n), this evaluates, with exact arithmetic:

    * R(n) >= 0 and T(n) <= 0 for n in [3, n_max];
    * x(3) >= x(4);
    * dR(n) * x(n - 2) + dT(n) <= 0 for n in [3, n_max].

    The scan is `figurate.verify`'s, the one its `doslic` check runs, and
    decides every condition on integers.
    """
    _check_polygon_order(m)
    _check_index(n_max, minimum=3, what="n_max")
    quotients = core._direct_quotients(m, core._closed_form_terms(m))
    scan = verify._doslic_failures(m, n_max, quotients, core._coefficients(m))
    return CriterionReport(*verify._finish(scan))


def margin_sequence(m: int, count: int) -> list[int]:
    """Margins S(j)^2 - S(j-1) * S(j+1) of the first `count` m-gonal numbers.

    Returns one entry per interior index j = 2..count-1. Log-concavity of the
    family means every entry is >= 0.
    """
    _check_polygon_order(m)
    _check_index(count, minimum=3, what="count")
    terms = list(itertools.islice(core._closed_form_terms(m), count))
    return [
        terms[j - 1] * terms[j - 1] - terms[j - 2] * terms[j] for j in range(2, count)
    ]
