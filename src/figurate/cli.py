"""Command-line surface: generate, analyze, verify; seqio lays out every term list printed.

Exit codes: 0 on success, 1 on a mathematical violation (a "neither"
classification or a failed verification check), 2 on usage or input errors.
A closed stdout ends the process by SIGPIPE, as it ends `seq`.
Reports go to stdout, diagnostics to stderr, and every number printed is
exact (integers or "p/q" rationals, never decimals).
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator

import click

from figurate import core, seqio
from figurate.logbehavior import LogBehavior, _classify_blocks
from figurate.verify import CHECK_NAMES, SweepReport, VerifySweepConfig, _run_forked

EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _format(*choices: str, help: str = "Output format."):
    """The --format option: one of `choices`, "plain" by default."""
    return click.option(
        "--format", "fmt", type=click.Choice(choices), default="plain", show_default=True, help=help
    )


@click.group()
def cli():
    """Exact m-gonal figurate numbers and log-concavity verification."""


@cli.command()
@click.option("--m", "m", required=True, type=click.IntRange(min=3), help="Polygon order (>= 3).")
@click.option("--count", required=True, type=click.IntRange(min=1), help="How many terms.")
@_format("plain", "bfile", "csv")
def gen(m: int, count: int, fmt: str):
    """Print the first COUNT m-gonal figurate numbers."""
    terms = itertools.islice(core._first_order_terms(m), count)
    _echo_sequence(map(str, terms), fmt, "S")


@cli.command()
@click.option("--m", "m", required=True, type=click.IntRange(min=3), help="Polygon order (>= 3).")
@click.option("--count", required=True, type=click.IntRange(min=1), help="How many quotients.")
@_format("plain", "csv")
def quotients(m: int, count: int, fmt: str):
    """Print the exact quotients x(n) = S(n+1)/S(n) for n = 1..COUNT."""
    quotients = itertools.islice(core._direct_quotients(m), count)
    _echo_sequence(itertools.starmap(core._ratio_text, quotients), fmt, "x")


def _echo_sequence(texts: Iterator[str], fmt: str, column: str) -> None:
    """Write rendered terms n = 1, 2, ... as seqio lays them out in `fmt`."""
    for piece in seqio._term_lines(fmt, column, texts):
        click.echo(piece, nl=False)


@cli.command()
@click.option(
    "--input",
    "source",
    type=click.File("rb"),
    default="-",
    help="Sequence file (whitespace-separated integers or p/q rationals); defaults to stdin.",
)
def analyze(source):
    """Classify a positive sequence as log-concave, log-convex, geometric, or neither."""
    # one chunk's terms are held at a time; the input is still read to its end
    try:
        behavior, direction = _classify_blocks(seqio._pair_blocks(source))
    except ValueError as error:
        click.echo(f"error: {error}", err=True)
        sys.exit(EXIT_USAGE)

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
@_format("plain", "csv", help="Summary format.")
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
    import signal  # here, not at the top: only the console entry pays its ~1.5 ms import

    # a closed stdout ends the process as it ends `seq`, by SIGPIPE, not with exit code 1
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    cli()


if __name__ == "__main__":
    main()
