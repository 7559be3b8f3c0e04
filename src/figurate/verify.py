"""Exact verification sweeps over ranges of polygon orders.

Each check sweeps every m in the configured range and fails on the first
exact counterexample, reported as (check, m, n, witness). The checks:

* cross-formula: all five generation routes agree term-by-term;
* bounds: 1 < x(n) <= m with x(1) = m, plus the closed-form seed values
  x(2) = 3 - 3/m and x(3) = 2 - 2/(3(m - 1));
* monotonicity: quotients strictly decrease and the direct and recurrence
  quotient routes agree;
* margins: every log-concavity margin is > 0;
* doslic: the Doslic criterion conditions hold on [3, n_max]. Its scan,
  `_doslic_failures`, also serves `logbehavior.check_doslic_criterion`.

Both strict conditions hold for every m >= 3 and n >= 1, so a tied quotient
or a zero margin is a counterexample like any other.

Sweeps are pure and deterministic. A check that has failed is not evaluated
for later m. Each check is one row of `_CHECKS`: its name, its `_check_*`
kernel and the `figurate.core` streams that kernel reads. The sweep goes m by
m. At each m it makes each stream that an open check reads once, shares it
between its readers through `itertools.tee`, and makes a derived stream (the
direct quotients from the closed form, the second-order terms and the
recurrence quotients from the coefficients) from its own copy of the source.
A kernel takes (m, n_max, its streams) and is a generator: it reads its rows
n = 1..n_max in blocks of `_BLOCK_ROWS` rows through `core._window`, pauses
after each block, and returns (n, witness) for its first counterexample at m,
or None; only the sweep names the check. Every open check reads a block
before any reads the next, so the streams' shared buffers hold about one
block and memory does not grow with n_max; the block size is set by the
sweep's measured time (see `_BLOCK_ROWS`). A stream that ends before n_max is
a counterexample, "stream ended before n=...", at the first index it could
not fill. Rationals are integer pairs compared by cross-multiplication and
rendered by `core._ratio_text`, never as a `Fraction`; a zero or negative
S(n) is a counterexample of each check whose condition it breaks. Any other
exception stops the sweep: the first raised, by m, then by block, then in
check order. So when checks raise at different m, the sweep raises the one
of the lowest m, not the one of the earliest check.

The generators and the Doslic delta are looked up on `figurate.core` at each
m, and the kernels on this module at each sweep, never imported by name:
replacing a generator there puts a fault into every check that reads it, and a
kernel its check.

`run_verify_sweep` runs in the calling process. Where `os.fork` exists, the
`figurate verify` command splits the m range in two halves, each run in its
own process, with the same output (`_run_forked`); any failure there means
the serial sweep.
"""

from __future__ import annotations

import collections
import itertools
import marshal
import os
from collections.abc import Iterable
from dataclasses import astuple, dataclass, field, replace

from figurate import core
from figurate.core import _check_index, _compare, _is_int, _ratio_text

__all__ = [
    "CHECK_NAMES",
    "VerifySweepConfig",
    "Counterexample",
    "CheckSummary",
    "SweepReport",
    "run_verify_sweep",
]

# (label, name of the route generator in figurate.core)
_ROUTES = (
    ("closed-form", "_closed_form_terms"),
    ("alt-form", "_alt_form_terms"),
    ("first-order", "_first_order_terms"),
    ("second-order", "_second_order_terms"),
    ("progression-sum", "_progression_terms"),
)

# One row per check, in run order: (name, kernel in this module, the figurate.core
# streams it reads, in the order the kernel takes them)
_CHECKS = (
    ("cross-formula", "_check_cross_formula", tuple(name for _, name in _ROUTES)),
    ("bounds", "_check_bounds", ("_direct_quotients",)),
    ("monotonicity", "_check_monotonicity", ("_direct_quotients", "_recurrence_quotients")),
    ("margins", "_check_margins", ("_closed_form_terms",)),
    ("doslic", "_check_doslic", ("_direct_quotients", "_coefficients")),
)
# each derived stream: the stream it reads
_SOURCES = {
    "_direct_quotients": "_closed_form_terms",
    "_second_order_terms": "_coefficients",
    "_recurrence_quotients": "_coefficients",
}
CHECK_NAMES = tuple(name for name, *_ in _CHECKS)


@dataclass(frozen=True)
class VerifySweepConfig:
    """Sweep parameters; defaults cover m in [3, 50] up to n = 2000."""

    m_from: int = 3
    m_to: int = 50
    n_max: int = 2000
    checks: tuple[str, ...] = CHECK_NAMES

    def __post_init__(self):
        _check_index(self.m_from, 3, "m_from")
        _check_index(self.n_max, 3, "n_max")
        if not _is_int(self.m_to):
            raise TypeError(f"m_to must be an int, got {type(self.m_to).__name__}")
        if self.m_to < self.m_from:
            raise ValueError(f"m_to must be >= m_from, got {self.m_to} < {self.m_from}")
        strings = (str, bytes, bytearray, memoryview)  # their items are characters or byte values
        if isinstance(self.checks, strings) or not isinstance(self.checks, Iterable):
            raise TypeError(
                "checks must be a sequence of check names,"
                f" not the {type(self.checks).__name__} {self.checks!r}"
            )
        checks = tuple(self.checks)
        unknown = [name for name in checks if name not in CHECK_NAMES]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; valid names: {', '.join(CHECK_NAMES)}"
            )
        if not checks:
            raise ValueError("at least one check must be selected")
        # normalize to canonical order, dropping duplicates
        ordered = tuple(name for name in CHECK_NAMES if name in checks)
        object.__setattr__(self, "checks", ordered)


@dataclass(frozen=True)
class Counterexample:
    check: str
    m: int
    n: int
    witness: str


@dataclass(frozen=True)
class CheckSummary:
    check: str
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def notes(self) -> tuple[str, ...]:
        """Always (): kept only because bench/workloads.py and `bench/run.py --smoke` read it."""
        return ()


@dataclass(frozen=True)
class SweepReport:
    config: VerifySweepConfig
    summaries: tuple[CheckSummary, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(summary.passed for summary in self.summaries)

    @property
    def first_counterexample(self) -> Counterexample | None:
        for summary in self.summaries:
            if summary.counterexample is not None:
                return summary.counterexample
        return None

    def summary_for(self, check: str) -> CheckSummary:
        for summary in self.summaries:
            if summary.check == check:
                return summary
        raise KeyError(f"no summary for check {check!r}")


# Rows that each check reads before the next check reads its block. Set at the in-process
# optimum of the default sweep (CPython 3.11, 2 vCPUs, best of 41 interleaved runs): 175 ms
# at 96 rows, 163 at 256, 158 at 512 to 1024 and 170 at 2000; of those, 512 holds the least.
# The memory a sweep holds grows with the block, not with n_max: the traced peak at m = 3 is
# 172 KB at n_max 5000 and 20000 alike (47 KB at 96 rows), and without each kernel's
# `del block` it would be twice that.
_BLOCK_ROWS = 512


def _blocks(first, last, *streams):
    """`core._window(first, last, *streams)` in windows of at most _BLOCK_ROWS rows each.

    A kernel reads its rows in these blocks, deletes each block and pauses after
    it, so that it holds no block while the other checks read theirs.
    """
    for start in range(first, last + 1, _BLOCK_ROWS):
        yield core._window(start, min(start + _BLOCK_ROWS - 1, last), *streams)


def _check_cross_formula(m, n_max, *routes):
    """Reports the first route, in route order, that disagrees with the closed form."""
    first = {}  # route position -> (n, witness) of its first disagreement
    for block in _blocks(1, n_max, *routes):
        for anchor, alt, first_order, second_order, progression, n in block:
            if anchor == alt == first_order == second_order == progression:
                continue
            for position, value in enumerate((alt, first_order, second_order, progression), 1):
                if value != anchor and position not in first:
                    labels = _ROUTES[0][0], _ROUTES[position][0]
                    first[position] = (n, f"{labels[0]}={anchor} {labels[1]}={value}")
        del block
        yield
    return first[min(first)] if first else None


def _seed_quotients(m):
    """x(1), x(2), x(3) in closed form, m, 3 - 3/m and 2 - 2/(3(m - 1)), as pairs."""
    return (m, 1), (3 * m - 3, m), (6 * m - 8, 3 * m - 3)


def _check_bounds(m, n_max, quotients):
    """1 < x(n) <= m and the seeds x(1..3).

    At the first failing n the witness is, in this order: S(n) < 0, above m,
    off its seed, not > 1. The comparisons after the first assume S(n) >= 0.
    """
    seeds = _seed_quotients(m)
    for block in _blocks(1, n_max, quotients):
        for x, n in block:
            p, q = x
            if q < p <= m * q and n > 3:
                continue
            value = _ratio_text(p, q)
            if q < 0:
                witness = f"x({n})={p}/{q} has S({n})={q} < 0"
            elif p > m * q:
                witness = f"x({n})={value} exceeds m={m}"
            elif n <= 3 and _compare(x, seeds[n - 1]) != 0:
                witness = f"x({n})={value} expected {_ratio_text(*seeds[n - 1])}"
            elif p <= q:
                witness = f"x({n})={value} is not > 1"
            else:
                continue
            return n, witness
        del block
        yield
    return None


def _check_monotonicity(m, n_max, direct_quotients, recurrence_quotients):
    """The two quotient routes agree on the whole window, then x(n) < x(n - 1) for every n.

    A disagreement anywhere outranks an earlier tie or increase. The order is
    read from the reduced recurrence pairs, never from the margins, so the
    quotient and margin routes to log-concavity stay independent.
    """
    step = None  # the first tie or increase
    previous = None  # carried across blocks
    for block in _blocks(1, n_max, direct_quotients, recurrence_quotients):
        for direct, recurred, n in block:
            (a, b), (p, q) = direct, recurred
            if a * q != p * b:
                witness = f"direct={_ratio_text(*direct)} recurrence={_ratio_text(*recurred)}"
                return n, witness
            if step is None and previous is not None and p * previous[1] >= previous[0] * q:
                relation = "<" if p * previous[1] > previous[0] * q else "="
                before, after = _ratio_text(*previous), _ratio_text(*recurred)
                witness = f"x({n - 1})={before} {relation} x({n})={after}"
                step = n, witness
            previous = recurred
        del block
        yield
    return step


def _check_margins(m, n_max, terms):
    """S(j)^2 - S(j-1) S(j+1) > 0 for j = 2..n_max-1."""
    (older, _), (old, _) = core._window(1, 2, terms)  # n_max >= 3; carried across blocks
    for block in _blocks(3, n_max, terms):
        for term, n in block:
            margin = old * old - older * term
            if margin <= 0:
                return n - 1, f"margin={margin}"
            older, old = old, term
        del block
        yield
    return None


def _doslic_failures(m, n_max, quotients, coefficients):
    """The first n on [3, n_max] where each Doslic condition fails, or None where it holds:
    R(n) < 0, T(n) > 0, x(3) < x(4) (at n = 3) and dR(n) x(n - 2) + dT(n) > 0, in
    that order. R(n) = r/d and T(n) = t/d with d > 0, and a quotient pair whose
    denominator is <= 0 fails its condition. A kernel: it pauses after each block."""
    # read first, so that a short quotient stream names its earliest missing index
    quotients, seeds = itertools.tee(quotients)
    (seed, _), (following, _) = core._window(3, 4, itertools.islice(seeds, 2, None))
    del seeds  # so that the shared stream keeps no values for it
    seed_ok = min(seed[1], following[1]) > 0 and _compare(seed, following) >= 0
    first_r = first_t = first_delta = None
    delta = core._doslic_delta
    ((here, _),) = core._window(3, 3, coefficients)  # carried across blocks
    # the rest of the coefficients, from n + 1, and x(n - 2), for each n
    for block in _blocks(3, n_max, coefficients, quotients):
        for ahead, x, n in block:
            delta_fails = x[1] <= 0 or delta(here, ahead, x) > 0
            if here[0] < 0 or here[1] > 0 or delta_fails:
                if here[0] < 0 and first_r is None:
                    first_r = n
                if here[1] > 0 and first_t is None:
                    first_t = n
                if delta_fails and first_delta is None:
                    first_delta = n
            here = ahead
        del block
        yield
    return first_r, first_t, None if seed_ok else 3, first_delta


# the witness of each condition, in the order of _doslic_failures
_DOSLIC_WITNESSES = (
    "R(n) < 0",
    "T(n) > 0",
    "quotient increases at the window start",
    "dR(n)x(n-2) + dT(n) > 0",
)


def _check_doslic(m, n_max, quotients, coefficients):
    """The four Doslic conditions on [3, n_max], reported in the order R, T, seed step, delta."""
    failures = yield from _doslic_failures(m, n_max, quotients, coefficients)
    return next(
        ((n, witness) for n, witness in zip(failures, _DOSLIC_WITNESSES) if n is not None), None
    )


def _finish(scan):
    """What a kernel's scan returns, run to its end without pausing."""
    while True:
        try:
            next(scan)
        except StopIteration as stop:
            return stop.value


def _streams(m, wanted):
    """For each tuple of `figurate.core` stream names in `wanted`, a tuple of those streams at m.

    Each stream is made once and shared by its readers through tee, and a derived
    stream reads its own copy of its source. A stream that no one reads is not made.
    """
    readers = collections.Counter(name for names in wanted for name in names)
    for derived, source in _SOURCES.items():
        if readers[derived]:
            readers[source] += 1
    copies = {}
    for name in sorted(readers, key=_SOURCES.__contains__):  # sources first
        source = _SOURCES.get(name)
        stream = getattr(core, name)(m, *([copies[source].pop()] if source else []))
        count = readers[name]
        copies[name] = list(itertools.tee(stream, count)) if count > 1 else [stream]
    return [tuple(copies[name].pop() for name in names) for names in wanted]


def run_verify_sweep(config: VerifySweepConfig | None = None) -> SweepReport:
    """Run the configured checks over every m in the range.

    Each check stops at its first counterexample; a stream that ends early is one.
    The sweep goes m by m: it makes each stream that an open check reads once,
    and every open check reads its next block of rows before any reads the one
    after. An exception other than a stream that ends early stops the sweep: the
    first one raised, at the lowest m, then the earliest block, then in check order.
    """
    if config is None:
        config = VerifySweepConfig()
    if not isinstance(config, VerifySweepConfig):
        raise TypeError(f"config must be a VerifySweepConfig or None, got {type(config).__name__}")
    rows = [row for row in _CHECKS if row[0] in config.checks]
    found = {}  # check -> its first counterexample
    for m in range(config.m_from, config.m_to + 1):
        rows = [row for row in rows if row[0] not in found]
        if not rows:
            break
        streams = _streams(m, [names for _, _, names in rows])
        # each scan holds its streams alone, so that a scan that ends frees its copies
        scans = {
            check: globals()[kernel](m, config.n_max, *streams.pop(0))
            for check, kernel, _ in rows
        }
        while scans:
            for check, scan in list(scans.items()):
                try:
                    next(scan)
                    continue
                except StopIteration as stop:
                    result = stop.value
                except core._StreamEnded as ended:
                    result = ended.n, str(ended)
                del scans[check]
                if result is not None:
                    found[check] = Counterexample(check, m, *result)
    summaries = tuple(CheckSummary(check, found.get(check)) for check in config.checks)
    return SweepReport(config, summaries)


def _run_forked(config: VerifySweepConfig) -> SweepReport:
    """`run_verify_sweep(config)`, with the upper half of the m range run in a forked child.

    Each m is checked apart from the others, so the report is the serial one: a
    check's first counterexample in the lower half, else its first in the upper.
    The child sends its summaries back through a pipe as marshalled tuples; when
    every check has failed in the lower half, the child is killed unread. Any
    failure, of the pipe, the fork, the parent's half or a child that ends
    without a complete result, kills the child and returns the serial sweep, so
    every exception is the one a serial run raises: that of the lowest m, not
    that of the earliest check. The child is always reaped.
    """
    if config.m_from == config.m_to or not hasattr(os, "fork"):
        return run_verify_sweep(config)
    middle = (config.m_from + config.m_to + 1) // 2
    pid = child = None
    try:
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as source, open(write_end, "wb") as sink:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    summaries = run_verify_sweep(replace(config, m_from=middle)).summaries
                    marshal.dump(tuple(map(astuple, summaries)), sink)
                    sink.flush()
                    status = 0
                finally:
                    # never return into the caller's stack, flush its buffers or run its atexit hooks
                    os._exit(status)
            sink.close()
            own = run_verify_sweep(replace(config, m_to=middle - 1)).summaries
            if not any(summary.passed for summary in own):
                return SweepReport(config, own)  # the child is killed below
            child = tuple(
                CheckSummary(check, None if found is None else Counterexample(*found))
                for check, found in marshal.load(source)
            )
    except Exception:
        pass  # child stays None
    finally:
        if pid:
            if child is None:
                import signal  # here, not at the top: it takes ~1.5 ms to import

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if child is None:
        # a serial run raises the exception of the first check that raises one
        return run_verify_sweep(config)
    # both halves list their summaries in the order of config.checks
    return SweepReport(config, tuple(high if low.passed else low for low, high in zip(own, child)))
