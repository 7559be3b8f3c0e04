"""Command-line surface: generate, analyze, verify.

Exit codes: 0 on success, 1 on a mathematical violation (a "neither"
classification or a failed verification check), 2 on usage or input errors.
Reports go to stdout, diagnostics to stderr, and every number printed is
exact (integers or "p/q" rationals, never decimals).
"""

from __future__ import annotations

import itertools
import sys

import click

from figurate import core
from figurate.core import generate_first_order
from figurate.logbehavior import (
    LogBehavior,
    classify_log_behavior,
    quotient_monotonicity,
)
from figurate.seqio import emit_bfile, emit_csv, parse_sequence_file
from figurate.verify import CHECK_NAMES, SweepReport, VerifySweepConfig, _run_forked

EXIT_VIOLATION = 1
EXIT_USAGE = 2

@click.group()
def cli():
    """Exact m-gonal figurate numbers and log-concavity verification."""


@cli.command()
@click.option("--m", "m", required=True, type=click.IntRange(min=3), help="Polygon order (>= 3).")
@click.option("--count", required=True, type=click.IntRange(min=1), help="How many terms.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["plain", "bfile", "csv"]),
    default="plain",
    show_default=True,
    help="Output format.",
)
def gen(m: int, count: int, fmt: str):
    """Print the first COUNT m-gonal figurate numbers."""
    terms = generate_first_order(m, count)
    if fmt == "plain":
        click.echo(" ".join(str(term) for term in terms))
    elif fmt == "bfile":
        click.echo(emit_bfile(1, terms), nl=False)
    else:
        click.echo(emit_csv({"n": list(range(1, count + 1)), "S": terms}), nl=False)


@cli.command()
@click.option("--m", "m", required=True, type=click.IntRange(min=3), help="Polygon order (>= 3).")
@click.option("--count", required=True, type=click.IntRange(min=1), help="How many quotients.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["plain", "bfile", "csv"]),
    default="plain",
    show_default=True,
    help="Output format.",
)
def quotients(m: int, count: int, fmt: str):
    """Print the exact quotients x(n) = S(n+1)/S(n) for n = 1..COUNT."""
    if fmt == "bfile":
        raise click.UsageError("b-file records hold integers; quotients are rationals")
    values = [
        core._ratio_text(p, q) for p, q in itertools.islice(core._direct_quotients(m), count)
    ]
    if fmt == "plain":
        click.echo(" ".join(values))
    else:
        # the CSV that emit_csv writes for these values as Fractions
        rows = "".join(f"{n},{value}\n" for n, value in enumerate(values, start=1))
        click.echo(f"n,x\n{rows}", nl=False)


@cli.command()
@click.option(
    "--input",
    "source",
    type=click.File("r"),
    default="-",
    help="Sequence file (whitespace-separated integers or p/q rationals); defaults to stdin.",
)
def analyze(source):
    """Classify a positive sequence as log-concave, log-convex, geometric, or neither."""
    try:
        sequence = parse_sequence_file(source.read())
    except ValueError as error:
        click.echo(f"error: {error}", err=True)
        sys.exit(EXIT_USAGE)

    behavior = classify_log_behavior(sequence)
    direction = quotient_monotonicity(sequence)

    word = behavior.classification.value
    if behavior.classification is LogBehavior.GEOMETRIC:
        word += " (both)"
    click.echo(f"classification: {word}")
    if behavior.first_concavity_violation is not None:
        click.echo(f"first concavity violation: j={behavior.first_concavity_violation}")
    if behavior.first_convexity_violation is not None:
        click.echo(f"first convexity violation: j={behavior.first_convexity_violation}")
    click.echo(f"quotient direction: {direction.direction.value}")
    if direction.first_violation is not None:
        click.echo(f"first monotonicity break: step {direction.first_violation}")

    if behavior.classification is LogBehavior.NEITHER:
        sys.exit(EXIT_VIOLATION)


@cli.command()
@click.option("--m-from", default=3, type=click.IntRange(min=3), show_default=True, help="Lowest polygon order.")
@click.option("--m-to", default=50, type=click.IntRange(min=3), show_default=True, help="Highest polygon order.")
@click.option("--n-max", default=2000, type=click.IntRange(min=3), show_default=True, help="Highest term index.")
@click.option(
    "--checks",
    default=None,
    metavar="LIST",
    help=f"Comma-separated subset of: {', '.join(CHECK_NAMES)}. Default: all.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["plain", "csv"]),
    default="plain",
    show_default=True,
    help="Summary format.",
)
def verify(m_from, m_to, n_max, checks, fmt):
    """Run the exact verification sweep and report a per-check summary.

    Exits 0 when every selected check passes, 1 with the first
    counterexample otherwise.
    """
    selected = CHECK_NAMES if checks is None else tuple(
        name.strip() for name in checks.split(",") if name.strip()
    )
    try:
        config = VerifySweepConfig(m_from, m_to, n_max, selected)
    except ValueError as error:
        raise click.UsageError(str(error)) from None

    report = _run_forked(config)
    _print_sweep_report(report, fmt)
    if not report.passed:
        sys.exit(EXIT_VIOLATION)


def _print_sweep_report(report: SweepReport, fmt: str) -> None:
    config = report.config
    rows = []  # (check, result, detail)
    for summary in report.summaries:
        c = summary.counterexample
        detail = "" if c is None else f"m={c.m} n={c.n} {c.witness}"
        rows.append((summary.check, "pass" if summary.passed else "FAIL", detail))
    if fmt == "csv":
        # stdout is CSV rows only: a FAIL row's detail holds the counterexample
        click.echo("check,m_from,m_to,n_max,result,detail")
        for check, result, detail in rows:
            click.echo(f"{check},{config.m_from},{config.m_to},{config.n_max},{result},{detail}")
        return
    m_range, n_max = f"{config.m_from}..{config.m_to}", str(config.n_max)
    table = [("check", "m-range", "n-max", "result")]
    table += [(check, m_range, n_max, result) for check, result, _ in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    for row in table:
        click.echo("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    counterexample = report.first_counterexample
    if counterexample is None:
        click.echo("all checks passed")
    else:
        click.echo(
            f"counterexample: check={counterexample.check} m={counterexample.m} "
            f"n={counterexample.n} {counterexample.witness}"
        )


def main():
    """Console entry point."""
    cli()


if __name__ == "__main__":
    main()
