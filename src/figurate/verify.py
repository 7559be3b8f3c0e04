"""Exact verification sweeps over ranges of polygon orders.

Each check sweeps every m in the configured range and fails on the first
exact counterexample, reported as (check, m, n, witness). The checks:

* cross-formula: all five generation routes agree term-by-term;
* bounds: 1 < x(n) <= m with x(1) = m, plus the closed-form seed values
  x(2) = 3 - 3/m and x(3) = 2 - 2/(3(m - 1));
* monotonicity: quotients strictly decrease and the direct and recurrence
  quotient routes agree;
* margins: every log-concavity margin is > 0;
* doslic: the Doslic criterion conditions hold on [3, n_max].

Both strict conditions hold for every m >= 3 and n >= 1, so a tied quotient
or a zero margin is a counterexample like any other.

Sweeps are pure and deterministic; checks run in the canonical order above,
each over ascending m, and a check that has failed is not evaluated for
later m. Each `_check_*` kernel takes (m, n_max) and returns its first
counterexample at m, or None. It makes one streaming pass over n = 1..n_max
through `core._window`, in O(1) memory per route; a stream that ends before
n_max is a counterexample, "stream ended before n=...", at the first index it
could not fill. Rationals are integer pairs compared by cross-multiplication
and rendered by `core._ratio_text`, never as a `Fraction`; a zero or negative
S(n) is a counterexample of each check whose condition it breaks.

The generators are looked up on `figurate.core` at each call, never imported
by name, so replacing one there puts a fault into every check that reads it.

`run_verify_sweep` runs in the calling process. Where `os.fork` exists, the
`figurate verify` command runs the checks in two processes instead, with the
same output (`_run_forked`); any failure there means the serial sweep.
"""

from __future__ import annotations

import marshal
import os
from collections.abc import Iterable
from dataclasses import astuple, dataclass, field, replace

from figurate import core
from figurate.core import _compare, _is_int, _ratio_text
from figurate.logbehavior import check_doslic_criterion

__all__ = [
    "CHECK_NAMES",
    "VerifySweepConfig",
    "Counterexample",
    "CheckSummary",
    "SweepReport",
    "run_verify_sweep",
]

CHECK_NAMES = ("cross-formula", "bounds", "monotonicity", "margins", "doslic")


@dataclass(frozen=True)
class VerifySweepConfig:
    """Sweep parameters; defaults cover m in [3, 50] up to n = 2000."""

    m_from: int = 3
    m_to: int = 50
    n_max: int = 2000
    checks: tuple[str, ...] = CHECK_NAMES

    def __post_init__(self):
        for name in ("m_from", "m_to", "n_max"):
            value = getattr(self, name)
            if not _is_int(value):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if isinstance(self.checks, str) or not isinstance(self.checks, Iterable):
            raise TypeError(
                "checks must be a sequence of check names,"
                f" not the {type(self.checks).__name__} {self.checks!r}"
            )
        if self.m_from < 3:
            raise ValueError(f"m_from must be >= 3, got {self.m_from}")
        if self.m_to < self.m_from:
            raise ValueError(f"m_to must be >= m_from, got {self.m_to} < {self.m_from}")
        if self.n_max < 3:
            raise ValueError(f"n_max must be >= 3, got {self.n_max}")
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


# (label, name of the route generator in figurate.core)
_ROUTES = (
    ("closed-form", "_closed_form_terms"),
    ("alt-form", "_alt_form_terms"),
    ("first-order", "_first_order_terms"),
    ("second-order", "_second_order_terms"),
    ("progression-sum", "_progression_terms"),
)


def _check_cross_formula(m, n_max):
    """Reports the first route, in route order, that disagrees with the closed form."""
    rows = core._window(1, n_max, *(getattr(core, name)(m) for _, name in _ROUTES))
    first = {}  # route position -> (n, witness) of its first disagreement
    for anchor, alt, first_order, second_order, progression, n in rows:
        if anchor == alt == first_order == second_order == progression:
            continue
        for position, value in enumerate((alt, first_order, second_order, progression), 1):
            if value != anchor and position not in first:
                first[position] = (n, f"{_ROUTES[0][0]}={anchor} {_ROUTES[position][0]}={value}")
    if first:
        return Counterexample("cross-formula", m, *first[min(first)])
    return None


def _seed_quotients(m):
    """x(1), x(2), x(3) in closed form, m, 3 - 3/m and 2 - 2/(3(m - 1)), as pairs."""
    return (m, 1), (3 * m - 3, m), (6 * m - 8, 3 * m - 3)


def _check_bounds(m, n_max):
    """1 < x(n) <= m and the seeds x(1..3).

    At the first failing n the witness is, in this order: S(n) < 0, above m,
    off its seed, not > 1. The comparisons after the first assume S(n) >= 0.
    """
    seeds = _seed_quotients(m)
    for x, n in core._window(1, n_max, core._direct_quotients(m)):
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
        return Counterexample("bounds", m, n, witness)
    return None


def _check_monotonicity(m, n_max):
    """The two quotient routes agree on the whole window, then x(n) < x(n - 1) for every n.

    A disagreement anywhere outranks an earlier tie or increase. The order is
    read from the reduced recurrence pairs, never from the margins, so the
    quotient and margin routes to log-concavity stay independent.
    """
    step = None  # the first tie or increase
    previous = None
    rows = core._window(1, n_max, core._direct_quotients(m), core._recurrence_quotients(m))
    for direct, recurred, n in rows:
        (a, b), (p, q) = direct, recurred
        if a * q != p * b:
            witness = f"direct={_ratio_text(*direct)} recurrence={_ratio_text(*recurred)}"
            return Counterexample("monotonicity", m, n, witness)
        if step is None and previous is not None and p * previous[1] >= previous[0] * q:
            relation = "<" if p * previous[1] > previous[0] * q else "="
            before, after = _ratio_text(*previous), _ratio_text(*recurred)
            witness = f"x({n - 1})={before} {relation} x({n})={after}"
            step = Counterexample("monotonicity", m, n, witness)
        previous = recurred
    return step


def _check_margins(m, n_max):
    """S(j)^2 - S(j-1) S(j+1) > 0 for j = 2..n_max-1."""
    rows = core._window(1, n_max, core._closed_form_terms(m))
    (older, _), (old, _) = next(rows), next(rows)  # n_max >= 3, and a short stream raises
    for term, n in rows:
        margin = old * old - older * term
        if margin <= 0:
            return Counterexample("margins", m, n - 1, f"margin={margin}")
        older, old = old, term
    return None


def _check_doslic(m, n_max):
    """The four Doslic conditions on [3, n_max], reported in the order R, T, seed step, delta."""
    report = check_doslic_criterion(m, 3, n_max)
    conditions = (
        (report.r_nonneg, "R(n) < 0"),
        (report.t_nonpos, "T(n) > 0"),
        (report.seed_step_ok, "quotient increases at the window start"),
        (report.delta_condition, "dR(n)x(n-2) + dT(n) > 0"),
    )
    for flag, witness in conditions:
        if not flag.ok:
            return Counterexample("doslic", m, flag.first_failure, witness)
    return None


_CHECK_FUNCTIONS = {
    "cross-formula": _check_cross_formula,
    "bounds": _check_bounds,
    "monotonicity": _check_monotonicity,
    "margins": _check_margins,
    "doslic": _check_doslic,
}


def run_verify_sweep(config: VerifySweepConfig | None = None) -> SweepReport:
    """Run the configured checks over every m in the range.

    Each check stops at its first counterexample; a stream that ends early is one.
    """
    if config is None:
        config = VerifySweepConfig()
    if not isinstance(config, VerifySweepConfig):
        raise TypeError(f"config must be a VerifySweepConfig or None, got {type(config).__name__}")
    summaries = []
    for check in config.checks:
        function = _CHECK_FUNCTIONS[check]
        counterexample = None
        for m in range(config.m_from, config.m_to + 1):
            try:
                counterexample = function(m, config.n_max)
            except core._StreamEnded as ended:
                counterexample = Counterexample(check, m, ended.n, str(ended))
            if counterexample is not None:
                break
        summaries.append(CheckSummary(check, counterexample))
    return SweepReport(config, tuple(summaries))


# Checks that `_run_forked` runs in the child; the others run in the parent.
# The two lanes take about the same time on the default window.
_CHILD_LANE = ("bounds", "monotonicity", "margins")


def _run_forked(config: VerifySweepConfig) -> SweepReport:
    """`run_verify_sweep(config)`, with the checks of `_CHILD_LANE` run in a forked child.

    Checks are independent, so the report is the serial one. The child sends
    its summaries back through a pipe as marshalled tuples. Any failure, of the
    pipe, the fork, the parent's own checks or a child that ends without a
    complete result, kills the child and returns the serial sweep, so every
    exception is the one a serial run raises. The child is always reaped.
    """
    lanes = (
        tuple(check for check in config.checks if check not in _CHILD_LANE),
        tuple(check for check in config.checks if check in _CHILD_LANE),
    )
    if not all(lanes) or not hasattr(os, "fork"):
        return run_verify_sweep(config)
    pid = child = None
    try:
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as source, open(write_end, "wb") as sink:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    summaries = run_verify_sweep(replace(config, checks=lanes[1])).summaries
                    marshal.dump(tuple(map(astuple, summaries)), sink)
                    sink.flush()
                    status = 0
                finally:
                    # never return into the caller's stack, flush its buffers or run its atexit hooks
                    os._exit(status)
            sink.close()
            own = run_verify_sweep(replace(config, checks=lanes[0])).summaries
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
    by_check = {summary.check: summary for summary in own + child}
    return SweepReport(config, tuple(by_check[check] for check in config.checks))
