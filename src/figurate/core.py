"""Generation of m-gonal figurate numbers by independent, cross-checkable formulas.

An m-gonal figurate number counts the points in a triangular (m=3), square
(m=4), pentagonal (m=5), ... arrangement. The n-th term is

    S(m, n) = n * ((m - 2) * n - m + 4) / 2

and equals the sum of the first n elements of the arithmetic progression
1, 1 + (m - 2), 1 + 2(m - 2), ...

Every operation here is a pure function. Conventions:

* m is an integer >= 3 (the polygon order), n is a 1-based term index >= 1;
  a list of terms maps position k to index n = k.
* All arithmetic is exact: terms are Python ints, quotients and recurrence
  coefficients are `fractions.Fraction` at the public API and integer pairs
  inside. The command line computes on the pairs and never loads `fractions`.
  No floating point, ever.

The module deliberately provides several routes to the same values (two
closed forms, a first-order recurrence, a second-order recurrence with
rational coefficients, and a term-by-term progression sum) so that they can
be checked against each other; none of them delegates to another.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

# The functions that build a Fraction import fractions themselves, so that the command line,
# which computes on integer pairs, never loads it, nor the decimal and numbers that it imports.
if TYPE_CHECKING:
    from fractions import Fraction

MIN_POLYGON_ORDER = 3

__all__ = [
    "MIN_POLYGON_ORDER",
    "InvariantViolation",
    "closed_form",
    "closed_form_alt",
    "gnomon",
    "generate_first_order",
    "generate_second_order",
    "coefficient_r",
    "coefficient_t",
    "progression_sums",
    "quotient_direct",
    "quotient_recurrence",
]


class InvariantViolation(RuntimeError):
    """An internal exactness invariant failed; this always indicates a bug."""


def _is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_polygon_order(m: int) -> None:
    if not _is_int(m):
        raise TypeError(f"polygon order must be an int, got {type(m).__name__}")
    if m < MIN_POLYGON_ORDER:
        raise ValueError(f"polygon order must be >= {MIN_POLYGON_ORDER}, got {m}")


def _check_index(n: int, minimum: int = 1, what: str = "term index") -> None:
    if not _is_int(n):
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")
    if n < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {n}")


# Unchecked kernels. Each route is an infinite iterator of exact ints (the
# second-order route yields a step that does not divide as a Fraction) that
# trusts its polygon order; the public functions below validate their
# arguments once and then slice an iterator. No route reads another route.
# The three derived streams take the stream they read as an argument: the
# direct quotients read the closed-form terms, and the second-order route and
# the recurrence quotients read the coefficients, the one source that routes
# share. So a caller that makes a source once can hand it to each reader.
# Callers in other modules look a kernel up on this module when they call it
# (`core._coefficients(m)`, never an imported name), so a test that replaces
# one attribute here reaches every reader of that stream.
#
# A default sweep makes each stream once per m and steps these kernels about
# 0.8 M times, so each step is kept lean. Each form below was timed on CPython
# 3.11 against the obvious one it replaced, and a default `figurate verify` got
# a fifth to a third faster:
# - the closed forms test parity with `& 1` and halve with `>> 1`, not
#   `divmod(..., 2)`, with `m - 2` and `4 - m` computed once;
# - a stream whose step is a fixed increment (a progression, its running sums,
#   the coefficients) is an `itertools.count`, `accumulate` or `zip` of counts,
#   which run in C, not a Python loop that multiplies by n;
# - the second-order step floors and multiplies back, not `divmod`;
# - the direct quotients zip two `tee` copies of one closed-form stream, not a
#   generator expression over `pairwise`.
# Each guard stays as it was.


def _closed_form_terms(m: int, first: int = 1) -> Iterator[int]:
    stretch, shift = m - 2, 4 - m
    for n in itertools.count(first):
        product = n * (stretch * n + shift)
        if product & 1:
            raise InvariantViolation(f"n((m - 2)n - m + 4) is odd at m={m} n={n}")
        yield product >> 1


def _alt_form_terms(m: int, first: int = 1) -> Iterator[int]:
    stretch = m - 2
    for n in itertools.count(first):
        product = stretch * (n * n - n)
        if product & 1:
            raise InvariantViolation(f"(m - 2)(n^2 - n) is odd at m={m} n={n}")
        yield (product >> 1) + n


def _first_order_terms(m: int) -> Iterator[int]:
    # S(1) = 1, then S(n + 1) = S(n) + gnomon(n), gnomon(n) = 1 + (m - 2)n for n = 1, 2, ...
    stretch = m - 2
    return itertools.accumulate(itertools.count(1 + stretch, stretch), initial=1)


def _coefficients(m: int, first: int = 3) -> Iterator[tuple[int, int, int]]:
    """(r, t, d) with R(n) = r/d, T(n) = t/d and d = 1 + (n - 2)(m - 2) > 0, for n = first, ...

    With stretch = (n - 2)(m - 2), r = m + 2 stretch, t = -(m - 1 + stretch)
    and d = 1 + stretch. Stretch grows by m - 2 per step, so r, t and d are
    counts from their values at n = first.
    """
    step = m - 2
    stretch = (first - 2) * step
    return zip(
        itertools.count(m + 2 * stretch, 2 * step),
        itertools.count(-(m - 1 + stretch), -step),
        itertools.count(1 + stretch, step),
    )


def _second_order_terms(
    m: int, coefficients: Iterator[tuple[int, int, int]]
) -> Iterator[int | Fraction]:
    """Like the other routes, from the coefficients at n = 3, 4, ..., except that a
    step that does not divide is a Fraction."""
    older, old = 1, m
    yield older
    yield old
    for r, t, d in coefficients:
        step = r * old + t * older
        value = step // d
        if value * d != step:
            from fractions import Fraction
            value = Fraction(step, d)
        yield value
        older, old = old, value


def _progression_terms(m: int) -> Iterator[int]:
    # running sums of the progression 1 + k(m - 2), k = 0, 1, ...
    return itertools.accumulate(itertools.count(1, m - 2))


def _direct_quotients(m: int, terms: Iterator[int]) -> Iterator[tuple[int, int]]:
    """x(n) = S(n+1)/S(n) for n = 1, 2, ... as unreduced pairs (S(n+1), S(n)), from the terms."""
    terms, after = itertools.tee(terms)
    next(after, None)
    return zip(after, terms)


def _recurrence_quotients(
    m: int, coefficients: Iterator[tuple[int, int, int]]
) -> Iterator[tuple[int, int]]:
    """x(n) for n = 1, 2, ... via x(n) = R(n+1) + T(n+1)/x(n-1), as pairs (p, q) in lowest
    terms, from the coefficients at n = 3, 4, ..."""
    p, q = m, 1
    yield p, q
    for r, t, d in coefficients:
        if p <= 0:
            # unreachable: every quotient exceeds 1; guarded anyway
            raise InvariantViolation(f"non-positive quotient {_ratio_text(p, q)} at m={m}")
        numerator, denominator = r * p + t * q, d * p
        common = math.gcd(numerator, denominator)
        p, q = numerator // common, denominator // common
        yield p, q


class _StreamEnded(InvariantViolation):
    """A stream ended before index n of the window it was read over."""

    def __init__(self, n: int):
        super().__init__(f"stream ended before n={n}")
        self.n = n


def _window(first: int, last: int, *streams: Iterator) -> Iterator[tuple]:
    """Rows (value of each stream, ..., n) for n = first..last; each stream starts at n = first.

    The streams are read when this is called, one list each. A stream
    that cannot fill row n, because it ends or raises there, raises
    `_StreamEnded(n)` or its own exception after the rows before it, as a read
    row by row would. No stream is read past `last`, nor past a row that a
    stream before it could not fill.
    """
    count = last - first + 1
    columns, failure = [], None
    for stream in streams:
        values, raised = [], None
        try:
            values.extend(itertools.islice(stream, count))  # keeps what it read on a raise
        except Exception as error:  # raised after the rows before it
            raised = error
        if len(values) < count:  # so each stream after it is read for fewer rows
            count = len(values)
            failure = raised or _StreamEnded(first + count)
        columns.append(values)
    rows = zip(*columns, range(first, first + count))
    return rows if failure is None else itertools.chain(rows, _unfilled(failure))


def _unfilled(failure: Exception) -> Iterator:
    """Yields nothing; raises `failure`."""
    raise failure
    yield


def _compare(x: tuple[int, int], y: tuple[int, int]) -> int:
    """An int with the sign of x - y, for rationals given as pairs with positive denominators."""
    return x[0] * y[1] - y[0] * x[1]


def _ratio_text(p: int, q: int) -> str:
    """p/q as `str(Fraction(p, q))` renders it, without building the Fraction; p/0 as is."""
    if not q:
        return f"{p}/0"
    common = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    p, q = p // common, q // common
    return str(p) if q == 1 else f"{p}/{q}"


def _doslic_delta(
    here: tuple[int, int, int], ahead: tuple[int, int, int], x: tuple[int, int]
) -> int:
    """dR(n) * x + dT(n), scaled by D(n) * D(n+1) * (denominator of x) > 0.

    `here` and `ahead` are the coefficient triples (r, t, d) at n and n + 1,
    with d > 0; x is a pair with a positive denominator. The result is an
    int with the sign of the Doslic difference expression.
    """
    r, t, d = here
    r_ahead, t_ahead, d_ahead = ahead
    numerator, denominator = x
    return (r_ahead * d - r * d_ahead) * numerator + (t_ahead * d - t * d_ahead) * denominator


def closed_form(m: int, n: int) -> int:
    """n-th m-gonal number, S(m, n) = n * ((m - 2) * n - m + 4) / 2.

    The product is always even, so the division is exact.
    """
    _check_polygon_order(m)
    _check_index(n)
    return next(_closed_form_terms(m, n))


def closed_form_alt(m: int, n: int) -> int:
    """n-th m-gonal number in the form ((m - 2) / 2) * (n^2 - n) + n.

    Agrees with :func:`closed_form` everywhere; kept as an independent route
    for cross-checking. n^2 - n is always even, so the division is exact.
    """
    _check_polygon_order(m)
    _check_index(n)
    return next(_alt_form_terms(m, n))


def gnomon(m: int, n: int) -> int:
    """Increment 1 + (m - 2) * n that carries S(m, n) to S(m, n + 1)."""
    _check_polygon_order(m)
    _check_index(n)
    return 1 + (m - 2) * n


def generate_first_order(m: int, count: int) -> list[int]:
    """First `count` m-gonal numbers via S(n+1) = S(n) + gnomon, S(1) = 1."""
    _check_polygon_order(m)
    _check_index(count, what="count")
    return list(itertools.islice(_first_order_terms(m), count))


def coefficient_r(m: int, n: int) -> Fraction:
    """Coefficient of S(m, n-1) in the second-order recurrence, for n >= 3.

    R(n) = (m + 2(n - 2)(m - 2)) / (1 + (n - 2)(m - 2)); always positive.
    """
    from fractions import Fraction
    _check_polygon_order(m)
    _check_index(n, minimum=3)
    r, _, d = next(_coefficients(m, n))
    return Fraction(r, d)


def coefficient_t(m: int, n: int) -> Fraction:
    """Coefficient of S(m, n-2) in the second-order recurrence, for n >= 3.

    T(n) = -(m - 1 + (n - 2)(m - 2)) / (1 + (n - 2)(m - 2)); always negative.
    """
    from fractions import Fraction
    _check_polygon_order(m)
    _check_index(n, minimum=3)
    _, t, d = next(_coefficients(m, n))
    return Fraction(t, d)


def generate_second_order(m: int, count: int) -> list[int]:
    """First `count` m-gonal numbers via S(n) = R(n) S(n-1) + T(n) S(n-2).

    Starts from S(1) = 1, S(2) = m. The coefficients are rational, but every
    step must simplify to an integer; a non-integer step raises
    :class:`InvariantViolation` instead of being rounded.
    """
    _check_polygon_order(m)
    _check_index(count, minimum=1, what="count")
    terms = list(itertools.islice(_second_order_terms(m, _coefficients(m)), count))
    for n, term in enumerate(terms, start=1):
        if not isinstance(term, int):
            raise InvariantViolation(f"second-order step gave non-integer {term} at m={m} n={n}")
    return terms


def progression_sums(m: int, count: int) -> list[int]:
    """Running sums of the progression 1, 1 + (m - 2), 1 + 2(m - 2), ...

    Term-by-term summation, the slowest and most elementary route to the
    m-gonal numbers. Exists purely as a cross-check for the other routes;
    nothing here uses it as a shortcut.
    """
    _check_polygon_order(m)
    _check_index(count, what="count")
    return list(itertools.islice(_progression_terms(m), count))


def quotient_direct(m: int, count: int) -> list[Fraction]:
    """Quotients x(n) = S(m, n+1) / S(m, n) for n = 1..count, in lowest terms.

    x(1) equals m exactly.
    """
    from fractions import Fraction
    _check_polygon_order(m)
    _check_index(count, what="count")
    quotients = _direct_quotients(m, _closed_form_terms(m))
    return [Fraction(p, q) for p, q in itertools.islice(quotients, count)]


def quotient_recurrence(m: int, count: int) -> list[Fraction]:
    """Quotients x(n) via their own recurrence, starting from x(1) = m.

    For n >= 2,

        x(n) = (m + 2(n - 1)(m - 2)) / (1 + (n - 1)(m - 2))
               - (m - 1 + (n - 1)(m - 2)) / ((1 + (n - 1)(m - 2)) * x(n - 1))

    which is R(n + 1) + T(n + 1) / x(n - 1) in terms of the recurrence
    coefficients. Must agree with :func:`quotient_direct` element-wise.
    """
    from fractions import Fraction
    _check_polygon_order(m)
    _check_index(count, what="count")
    quotients = _recurrence_quotients(m, _coefficients(m))
    return [Fraction(p, q) for p, q in itertools.islice(quotients, count)]
