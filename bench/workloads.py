"""The benchmark's workloads: each is a round of operations, run in order.

An operation is one `python -m figurate ...` invocation (its argv), the same
work done through the library in-process (`run_lib`), and oracle checks for
both. A sweep workload's round is one `verify` operation; the analyze-mixed
round writes two sequences through `gen` and `quotients`, then classifies
six seeded sequence files with `analyze`.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from math import factorial, gcd
from pathlib import Path

import oracle

WORKLOADS = ("sweep-default", "sweep-deep", "analyze-mixed")
DEFAULT_WINDOW = (3, 50, 2000)

# Sweep windows (m_from, m_to, n_max) and analyze-mixed sizes per profile.
# The full analyze sizes make each operation several times the ~0.15 s CLI
# start-up, and keep every term below Python's 4300-digit int/str limit.
SIZES = {
    "full": {
        "sweep-default": DEFAULT_WINDOW,
        "sweep-deep": (3, 4, 50000),
        "gen": 42000,
        "quotients": 36000,
        "binomial": 6300,
        "factorial": 1400,
        "geometric": 1100,
        "random": 39000,
    },
    "smoke": {
        "sweep-default": (3, 5, 40),
        "sweep-deep": (3, 4, 300),
        "gen": 30,
        "quotients": 30,
        "binomial": 30,
        "factorial": 20,
        "geometric": 20,
        "random": 30,
    },
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    terms: int
    check_cli: Callable[[int, str], bool]
    run_lib: Callable[[object], object]
    check_lib: Callable[[object], bool]
    notes: Callable[[object], int] = lambda result: 0


def build_round(workload: str, seed: int, profile: str, input_dir: Path) -> list[Op]:
    sizes = SIZES[profile]
    if workload in ("sweep-default", "sweep-deep"):
        return [_sweep_op(*sizes[workload])]
    if workload == "analyze-mixed":
        return _analyze_round(random.Random(seed), sizes, input_dir, f"seed{seed}-{profile}")
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_op(m_from: int, m_to: int, n_max: int) -> Op:
    from figurate import verify

    argv = ("verify",)
    if (m_from, m_to, n_max) != DEFAULT_WINDOW:
        argv += ("--m-from", str(m_from), "--m-to", str(m_to), "--n-max", str(n_max))

    def run_lib(probe):
        reports = []
        for check in verify.CHECK_NAMES:
            config = verify.VerifySweepConfig(m_from, m_to, n_max, checks=(check,))
            with probe.span("verify." + check.replace("-", "_")):
                reports.append(verify.run_verify_sweep(config))
        return reports

    return Op(
        "verify",
        argv,
        len(oracle.CHECK_NAMES) * (m_to - m_from + 1) * n_max,
        lambda code, out: oracle.check_sweep(code, out, m_from, m_to, n_max),
        run_lib,
        lambda reports: all(report.passed for report in reports),
        lambda reports: sum(len(s.notes) for report in reports for s in report.summaries),
    )


def _write_op(label: str, argv: tuple[str, ...], expected: str, count: int, run_lib) -> Op:
    return Op(
        label,
        argv,
        count,
        lambda code, out: code == 0 and out == expected,
        run_lib,
        lambda text: text == expected,
    )


def _analyze_op(label: str, path: Path, terms: list[tuple[int, int]]) -> Op:
    from figurate import logbehavior, seqio

    text = "\n".join(oracle.ratio_text(p, q) for p, q in terms) + "\n"
    path.write_text(text)
    verdict = oracle.analyze_verdict(terms)

    def run_lib(probe):
        sequence = seqio.parse_sequence_file(text)
        return (
            logbehavior.classify_log_behavior(sequence),
            logbehavior.quotient_monotonicity(sequence),
        )

    return Op(
        label,
        ("analyze", "--input", str(path)),
        len(terms),
        lambda code, out: oracle.check_analyze(code, out, verdict),
        run_lib,
        lambda reports: oracle.check_analyze_reports(*reports, verdict),
    )


def _analyze_round(rng: random.Random, sizes: dict, input_dir: Path, tag: str) -> list[Op]:
    from figurate import core, seqio

    input_dir.mkdir(parents=True, exist_ok=True)
    gen_m, quot_m = rng.randint(3, 60), rng.randint(3, 60)
    gen_count, quot_count = sizes["gen"], sizes["quotients"]
    gen_text = oracle.gen_bfile_text(gen_m, gen_count)
    quot_text = oracle.quotients_csv_text(quot_m, quot_count)
    ops = [
        _write_op(
            "gen",
            ("gen", "--m", str(gen_m), "--count", str(gen_count), "--format", "bfile"),
            gen_text,
            gen_count,
            lambda probe: seqio.emit_bfile(1, core.generate_first_order(gen_m, gen_count)),
        ),
        _write_op(
            "quotients",
            ("quotients", "--m", str(quot_m), "--count", str(quot_count), "--format", "csv"),
            quot_text,
            quot_count,
            lambda probe: seqio.emit_csv(
                {"n": list(range(1, quot_count + 1)), "x": core.quotient_direct(quot_m, quot_count)}
            ),
        ),
    ]

    # Sequence sources, one file each. The first two are the value columns of
    # the gen and quotients output above, which the oracle has checked.
    binomial_row = sizes["binomial"] + rng.randint(0, 50)
    factorial_start = rng.randint(1, 40)
    while True:
        p, q = rng.randint(1000, 1100), rng.randint(700, 800)
        if gcd(p, q) == 1:
            break
    scale = rng.randint(1, 10**6)
    sources = {
        "gen": [(int(line.split()[1]), 1) for line in gen_text.splitlines()],
        "quotients": [_ratio(line.split(",")[1]) for line in quot_text.splitlines()[1:]],
        "binomial": [(c, 1) for c in _binomial_row(binomial_row)],
        "factorial": [
            (factorial(k), 1) for k in range(factorial_start, factorial_start + sizes["factorial"])
        ],
        "geometric": [(scale * p**k, q**k) for k in range(sizes["geometric"])],
        "random": [
            (rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(sizes["random"])
        ],
    }
    for kind, terms in sources.items():
        ops.append(_analyze_op(f"analyze:{kind}", input_dir / f"{tag}-{kind}.txt", terms))
    return ops


def _binomial_row(n: int) -> list[int]:
    row = [1]
    for k in range(n):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def _ratio(text: str) -> tuple[int, int]:
    p, _, q = text.partition("/")
    return int(p), int(q or 1)
