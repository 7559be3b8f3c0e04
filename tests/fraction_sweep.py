"""The verify sweep as it was before the integer engine: a Fraction-based test oracle.

The _check_* functions, the sweep loop and the Doslic criterion below are
the former figurate.verify and figurate.logbehavior code, kept verbatim
(the criterion renamed to fraction_doslic_criterion) except that, as in
figurate.verify now, the checks are strict: a zero margin or a tied quotient
is a counterexample, and a summary carries no notes. Every condition is
decided on Fractions, and each check builds full lists of length n_max and
runs its own loop over m.
tests/test_verify.py requires run_fraction_sweep and
figurate.verify.run_verify_sweep to return identical SweepReports.
"""

from fractions import Fraction

from figurate.core import (
    closed_form,
    closed_form_alt,
    coefficient_r,
    coefficient_t,
    generate_first_order,
    generate_second_order,
    progression_sums,
    quotient_direct,
    quotient_recurrence,
)
from figurate.logbehavior import (
    ConditionFlag,
    CriterionReport,
    check_quotient_bounds,
    margin_sequence,
)
from figurate.verify import CheckSummary, Counterexample, SweepReport, VerifySweepConfig


def _check_cross_formula(m, config, corrupt_at):
    n_max = config.n_max
    routes = (
        ("closed-form", [closed_form(m, n) for n in range(1, n_max + 1)]),
        ("alt-form", [closed_form_alt(m, n) for n in range(1, n_max + 1)]),
        ("first-order", generate_first_order(m, n_max)),
        ("second-order", generate_second_order(m, n_max)),
        ("progression-sum", progression_sums(m, n_max)),
    )
    if corrupt_at is not None and corrupt_at[0] == m and 1 <= corrupt_at[1] <= n_max:
        routes[2][1][corrupt_at[1] - 1] += 1
    anchor_name, anchor = routes[0]
    for name, values in routes[1:]:
        for n in range(1, n_max + 1):
            if values[n - 1] != anchor[n - 1]:
                witness = f"{anchor_name}={anchor[n - 1]} {name}={values[n - 1]}"
                return Counterexample("cross-formula", m, n, witness)
    return None


def _check_bounds(m, config, corrupt_at):
    quotients = quotient_direct(m, config.n_max)
    report = check_quotient_bounds(m, quotients)
    violations = []
    if not report.lower.ok:
        n = report.lower.first_failure
        violations.append((n, f"x({n})={quotients[n - 1]} is not > 1"))
    if not report.upper.ok:
        n = report.upper.first_failure
        violations.append((n, f"x({n})={quotients[n - 1]} exceeds m={m}"))
    seeds = (
        (1, Fraction(m)),
        (2, 3 - Fraction(3, m)),
        (3, 2 - Fraction(2, 3 * (m - 1))),
    )
    for n, expected in seeds:
        if n <= config.n_max and quotients[n - 1] != expected:
            violations.append((n, f"x({n})={quotients[n - 1]} expected {expected}"))
    if violations:
        n, witness = min(violations)
        return Counterexample("bounds", m, n, witness)
    return None


def _check_monotonicity(m, config, corrupt_at):
    direct = quotient_direct(m, config.n_max)
    recurred = quotient_recurrence(m, config.n_max)
    for n in range(1, config.n_max + 1):
        if direct[n - 1] != recurred[n - 1]:
            witness = f"direct={direct[n - 1]} recurrence={recurred[n - 1]}"
            return Counterexample("monotonicity", m, n, witness)
    for n in range(1, config.n_max):
        if direct[n] >= direct[n - 1]:
            relation = "<" if direct[n] > direct[n - 1] else "="
            witness = f"x({n})={direct[n - 1]} {relation} x({n + 1})={direct[n]}"
            return Counterexample("monotonicity", m, n + 1, witness)
    return None


def _check_margins(m, config, corrupt_at):
    for position, margin in enumerate(margin_sequence(m, config.n_max)):
        if margin <= 0:
            return Counterexample("margins", m, position + 2, f"margin={margin}")
    return None


def fraction_doslic_criterion(m, n_start, n_end, *, r_of=None, t_of=None):
    if r_of is None:
        r_of = lambda n: coefficient_r(m, n)
    if t_of is None:
        t_of = lambda n: coefficient_t(m, n)

    first_r = None
    first_t = None
    first_delta = None
    for n in range(n_start, n_end + 1):
        if r_of(n) < 0 and first_r is None:
            first_r = n
        if t_of(n) > 0 and first_t is None:
            first_t = n
        delta = (r_of(n + 1) - r_of(n)) * _quotient(m, n - 2) + (
            t_of(n + 1) - t_of(n)
        )
        if delta > 0 and first_delta is None:
            first_delta = n

    seeds = quotient_direct(m, n_start + 1)
    seed_ok = seeds[n_start - 1] >= seeds[n_start]

    return CriterionReport(
        window=(n_start, n_end),
        r_nonneg=ConditionFlag(first_r),
        t_nonpos=ConditionFlag(first_t),
        seed_step_ok=ConditionFlag(None if seed_ok else n_start),
        delta_condition=ConditionFlag(first_delta),
    )


def _quotient(m, n):
    return Fraction(closed_form(m, n + 1), closed_form(m, n))


def _check_doslic(m, config, corrupt_at):
    report = fraction_doslic_criterion(m, 3, config.n_max)
    if report.verdict:
        return None
    if not report.r_nonneg.ok:
        n, witness = report.r_nonneg.first_failure, "R(n) < 0"
    elif not report.t_nonpos.ok:
        n, witness = report.t_nonpos.first_failure, "T(n) > 0"
    elif not report.seed_step_ok.ok:
        n, witness = report.seed_step_ok.first_failure, "quotient increases at the window start"
    else:
        n = report.delta_condition.first_failure
        witness = "dR(n)x(n-2) + dT(n) > 0"
    return Counterexample("doslic", m, n, witness)


_CHECK_FUNCTIONS = {
    "cross-formula": _check_cross_formula,
    "bounds": _check_bounds,
    "monotonicity": _check_monotonicity,
    "margins": _check_margins,
    "doslic": _check_doslic,
}


def run_fraction_sweep(config: VerifySweepConfig, corrupt_at=None) -> SweepReport:
    summaries = []
    for check in config.checks:
        function = _CHECK_FUNCTIONS[check]
        counterexample = None
        for m in range(config.m_from, config.m_to + 1):
            counterexample = function(m, config, corrupt_at)
            if counterexample is not None:
                break
        summaries.append(CheckSummary(check, counterexample))
    return SweepReport(config, tuple(summaries))
