"""Correctness oracle for the benchmark, independent of the figurate package.

Everything here is plain integer arithmetic: the m-gonal terms come from
S(n) = n((m-2)n - m + 4)/2, quotients are reduced with math.gcd, and the
log-behavior verdict of a sequence of positive rationals p/q is decided by
cross-multiplying, never by building Fraction objects. The check_* functions
take what a `python -m figurate ...` process produced (exit code and stdout)
and return True only when it is exactly what the program must print.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

CHECK_NAMES = ("cross-formula", "bounds", "monotonicity", "margins", "doslic")


def term(m: int, n: int) -> int:
    return n * ((m - 2) * n - m + 4) // 2


def ratio_text(p: int, q: int) -> str:
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def gen_bfile_text(m: int, count: int) -> str:
    return "".join(f"{n} {term(m, n)}\n" for n in range(1, count + 1))


def quotients_csv_text(m: int, count: int) -> str:
    rows = "".join(
        f"{n},{ratio_text(term(m, n + 1), term(m, n))}\n" for n in range(1, count + 1)
    )
    return "n,x\n" + rows


def check_sweep(code: int, stdout: str, m_from: int, m_to: int, n_max: int) -> bool:
    """A passing sweep prints the header, one pass row per check, and the verdict."""
    expected = [["check", "m-range", "n-max", "result"]]
    expected += [[name, f"{m_from}..{m_to}", str(n_max), "pass"] for name in CHECK_NAMES]
    expected.append(["all", "checks", "passed"])
    return code == 0 and [line.split() for line in stdout.splitlines()] == expected


@dataclass(frozen=True)
class Verdict:
    """What `figurate analyze` must report for one sequence."""

    classification: str
    concavity_violation: int | None
    convexity_violation: int | None
    direction: str
    monotonicity_break: int | None

    @property
    def exit_code(self) -> int:
        return 1 if self.classification == "neither" else 0

    def text(self) -> str:
        word = "geometric (both)" if self.classification == "geometric" else self.classification
        lines = [f"classification: {word}"]
        if self.concavity_violation is not None:
            lines.append(f"first concavity violation: j={self.concavity_violation}")
        if self.convexity_violation is not None:
            lines.append(f"first convexity violation: j={self.convexity_violation}")
        lines.append(f"quotient direction: {self.direction}")
        if self.monotonicity_break is not None:
            lines.append(f"first monotonicity break: step {self.monotonicity_break}")
        return "\n".join(lines) + "\n"


def analyze_verdict(terms: list[tuple[int, int]]) -> Verdict:
    """Verdict for positive rationals p/q given as (p, q) pairs, q > 0.

    The margin s(j)^2 - s(j-1)s(j+1) has the sign of
    p_j^2 q_{j-1} q_{j+1} - p_{j-1} p_{j+1} q_j^2. Quotient step t compares
    q(t) = s(t+1)/s(t) with q(t+1); q(t+1) > q(t) exactly when the margin at
    j = t+1 is negative, so the first increase sits one step before the first
    concavity violation and the first decrease one before the first convexity
    violation.
    """
    if len(terms) < 3:
        return Verdict("indeterminate", None, None, "indeterminate", None)
    negative = positive = None
    for j in range(2, len(terms)):
        (a, da), (b, db), (c, dc) = terms[j - 2], terms[j - 1], terms[j]
        sign = b * b * da * dc - a * c * db * db
        if sign < 0 and negative is None:
            negative = j
        if sign > 0 and positive is None:
            positive = j
        if negative is not None and positive is not None:
            break
    if negative is None and positive is None:
        return Verdict("geometric", None, None, "constant", None)
    if negative is None:
        return Verdict("log-concave", None, positive, "non-increasing", None)
    if positive is None:
        return Verdict("log-convex", negative, None, "non-decreasing", None)
    return Verdict("neither", negative, positive, "neither", max(negative, positive) - 1)


def check_analyze(code: int, stdout: str, verdict: Verdict) -> bool:
    return code == verdict.exit_code and stdout == verdict.text()


def check_analyze_reports(behavior, direction, verdict: Verdict) -> bool:
    """Compare in-process LogBehaviorReport and MonotonicityReport with the verdict."""
    return (
        behavior.classification.value,
        behavior.first_concavity_violation,
        behavior.first_convexity_violation,
        direction.direction.value,
        direction.first_violation,
    ) == (
        verdict.classification,
        verdict.concavity_violation,
        verdict.convexity_violation,
        verdict.direction,
        verdict.monotonicity_break,
    )
