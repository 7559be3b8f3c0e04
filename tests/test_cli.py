"""End-to-end tests for the command-line interface."""

import csv
import io
import os
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner

from figurate import seqio, verify
from figurate.cli import cli
from figurate.core import closed_form, generate_first_order, quotient_direct
from figurate.seqio import _BLOCK_TERMS, emit_bfile, emit_csv, parse_bfile
from faults import geometric, perturb, substitute, truncate


INDETERMINATE = "classification: indeterminate\nquotient direction: indeterminate\n"
# `figurate COMMAND --help` at a terminal width of 80
HELP = {
    "gen": """\
Usage: figurate gen [OPTIONS]

  Print the first COUNT m-gonal figurate numbers.

Options:
  --m INTEGER RANGE           Polygon order (>= 3).  [x>=3; required]
  --count INTEGER RANGE       How many terms.  [x>=1; required]
  --format [plain|bfile|csv]  Output format.  [default: plain]
  --help                      Show this message and exit.
""",
    "quotients": """\
Usage: figurate quotients [OPTIONS]

  Print the exact quotients x(n) = S(n+1)/S(n) for n = 1..COUNT.

Options:
  --m INTEGER RANGE      Polygon order (>= 3).  [x>=3; required]
  --count INTEGER RANGE  How many quotients.  [x>=1; required]
  --format [plain|csv]   Output format.  [default: plain]
  --help                 Show this message and exit.
""",
    "verify": """\
Usage: figurate verify [OPTIONS]

  Run the exact verification sweep and report a per-check summary.

  Exits 0 when every selected check passes, 1 with the first counterexample
  otherwise.

Options:
  --m-from INTEGER RANGE  Lowest polygon order.  [default: 3; x>=3]
  --m-to INTEGER RANGE    Highest polygon order.  [default: 50; x>=3]
  --n-max INTEGER RANGE   Highest term index.  [default: 2000; x>=3]
  --checks LIST           Comma-separated subset of: cross-formula, bounds,
                          monotonicity, margins, doslic. Default: all.
  --format [plain|csv]    Summary format.  [default: plain]
  --help                  Show this message and exit.
""",
}


@pytest.fixture
def runner():
    return CliRunner()


class TestGen:
    def test_plain(self, runner):
        result = runner.invoke(cli, ["gen", "--m", "3", "--count", "10"])
        assert result.exit_code == 0
        assert result.output == "1 3 6 10 15 21 28 36 45 55\n"

    def test_bfile(self, runner):
        result = runner.invoke(
            cli, ["gen", "--m", "6", "--count", "5", "--format", "bfile"]
        )
        assert result.exit_code == 0
        assert result.output == "1 1\n2 6\n3 15\n4 28\n5 45\n"

    def test_bfile_reparses_losslessly(self, runner):
        result = runner.invoke(
            cli, ["gen", "--m", "7", "--count", "20", "--format", "bfile"]
        )
        records = parse_bfile(result.output)
        assert [r.index for r in records] == list(range(1, 21))
        plain = runner.invoke(cli, ["gen", "--m", "7", "--count", "20"])
        assert [str(r.value) for r in records] == plain.output.split()

    def test_csv(self, runner):
        result = runner.invoke(
            cli, ["gen", "--m", "3", "--count", "2", "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output == "n,S\n1,1\n2,3\n"

    def test_missing_order_is_usage_error(self, runner):
        result = runner.invoke(cli, ["gen", "--count", "3"])
        assert result.exit_code == 2

    def test_order_below_three_is_usage_error(self, runner):
        result = runner.invoke(cli, ["gen", "--m", "2", "--count", "3"])
        assert result.exit_code == 2
        assert "--m" in result.stderr

    def test_zero_count_is_usage_error(self, runner):
        result = runner.invoke(cli, ["gen", "--m", "3", "--count", "0"])
        assert result.exit_code == 2

    def test_unknown_format_is_usage_error(self, runner):
        result = runner.invoke(
            cli, ["gen", "--m", "3", "--count", "3", "--format", "json"]
        )
        assert result.exit_code == 2


class TestQuotients:
    def test_plain(self, runner):
        result = runner.invoke(cli, ["quotients", "--m", "3", "--count", "3"])
        assert result.exit_code == 0
        assert result.output == "3 2 5/3\n"

    def test_csv(self, runner):
        result = runner.invoke(
            cli, ["quotients", "--m", "4", "--count", "2", "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output == "n,x\n1,4\n2,9/4\n"

    @pytest.mark.parametrize("m", range(3, 41))
    def test_output_matches_fraction_rendering(self, runner, m):
        # The command prints integer pairs in lowest terms; the output must
        # stay byte for byte what printing each quotient as a Fraction gives.
        for count in (1, 2, 3, 17, 200):
            values = [
                Fraction(closed_form(m, n + 1), closed_form(m, n)) for n in range(1, count + 1)
            ]
            argv = ["quotients", "--m", str(m), "--count", str(count)]
            plain = runner.invoke(cli, argv)
            assert plain.exit_code == 0
            assert plain.output == " ".join(str(value) for value in values) + "\n"
            csv = runner.invoke(cli, [*argv, "--format", "csv"])
            assert csv.exit_code == 0
            assert csv.output == emit_csv({"n": list(range(1, count + 1)), "x": values})

    def test_bfile_is_refused(self, runner):
        result = runner.invoke(
            cli, ["quotients", "--m", "3", "--count", "3", "--format", "bfile"]
        )
        assert result.exit_code == 2
        assert "'bfile'" in result.stderr
        assert "'plain'" in result.stderr and "'csv'" in result.stderr


BLOCK_EDGE_COUNTS = [1, _BLOCK_TERMS - 1, _BLOCK_TERMS, _BLOCK_TERMS + 1, 2 * _BLOCK_TERMS + 1]


class TestBlockEdges:
    # gen and quotients write _BLOCK_TERMS terms per write; the output must be
    # the one-string rendering of all terms, at every count near a block edge.
    @pytest.mark.parametrize("count", BLOCK_EDGE_COUNTS)
    def test_gen(self, runner, count):
        terms = generate_first_order(9, count)
        expected = {
            "plain": " ".join(map(str, terms)) + "\n",
            "bfile": emit_bfile(1, terms),
            "csv": emit_csv({"n": list(range(1, count + 1)), "S": terms}),
        }
        for fmt, text in expected.items():
            result = runner.invoke(cli, ["gen", "--m", "9", "--count", str(count), "--format", fmt])
            assert result.exit_code == 0
            assert result.output == text, fmt

    @pytest.mark.parametrize("count", BLOCK_EDGE_COUNTS)
    def test_quotients(self, runner, count):
        values = quotient_direct(9, count)
        expected = {
            "plain": " ".join(map(str, values)) + "\n",
            "csv": emit_csv({"n": list(range(1, count + 1)), "x": values}),
        }
        for fmt, text in expected.items():
            argv = ["quotients", "--m", "9", "--count", str(count), "--format", fmt]
            result = runner.invoke(cli, argv)
            assert result.exit_code == 0
            assert result.output == text, fmt


class TestAnalyze:
    def test_log_concave_from_stdin(self, runner):
        result = runner.invoke(cli, ["analyze"], input="1 3 6 10 15\n")
        assert result.exit_code == 0
        assert "classification: log-concave" in result.output
        assert "quotient direction: non-increasing" in result.output

    def test_log_convex(self, runner):
        result = runner.invoke(cli, ["analyze"], input="1 1 2 6 24\n")
        assert result.exit_code == 0
        assert "classification: log-convex" in result.output
        assert "quotient direction: non-decreasing" in result.output

    def test_geometric(self, runner):
        result = runner.invoke(cli, ["analyze"], input="2 4 8 16\n")
        assert result.exit_code == 0
        assert "classification: geometric (both)" in result.output
        assert "quotient direction: constant" in result.output

    def test_neither_exits_one_with_witnesses(self, runner):
        result = runner.invoke(cli, ["analyze"], input="1 1 2 3 5 8\n")
        assert result.exit_code == 1
        assert "classification: neither" in result.output
        assert "first concavity violation: j=2" in result.output
        assert "first convexity violation: j=3" in result.output
        assert "first monotonicity break" in result.output

    def test_rational_input(self, runner):
        # 2^2 - 3*(5/3) = -1 and (5/3)^2 - 2*(3/2) = -2/9, both negative.
        result = runner.invoke(cli, ["analyze"], input="3 2 5/3 3/2\n")
        assert result.exit_code == 0
        assert "classification: log-convex" in result.output

    @pytest.mark.parametrize("m", [3, 7, 60])
    def test_plain_gen_output_round_trips(self, runner, m):
        # one term past a block edge, so gen writes it in a second block
        gen = runner.invoke(cli, ["gen", "--m", str(m), "--count", str(_BLOCK_TERMS + 1)])
        assert gen.exit_code == 0
        result = runner.invoke(cli, ["analyze"], input=gen.output)
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "classification: log-concave"

    def test_file_input(self, runner, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("1 2 4 8\n")
        result = runner.invoke(cli, ["analyze", "--input", str(path)])
        assert result.exit_code == 0
        assert "geometric" in result.output

    def test_non_positive_term_exits_two(self, runner):
        result = runner.invoke(cli, ["analyze"], input="1 0 2\n")
        assert result.exit_code == 2
        assert "term 2 is not positive" in result.stderr

    def test_unparseable_token_exits_two(self, runner):
        result = runner.invoke(cli, ["analyze"], input="1 2 x\n")
        assert result.exit_code == 2
        assert "cannot parse" in result.stderr

    def test_oversized_token_exits_two_with_position(self, runner):
        result = runner.invoke(cli, ["analyze"], input="1 2 " + "9" * 5000 + "\n")
        assert result.exit_code == 2
        assert result.stderr.startswith("error: token 3: over 4300 digits")
        assert result.stdout == ""

    def test_empty_input_exits_two(self, runner):
        result = runner.invoke(cli, ["analyze"], input="")
        assert result.exit_code == 2

    def test_invalid_utf8_after_the_first_chunk_exits_two(self, runner):
        result = runner.invoke(cli, ["analyze"], input=b"1 " * seqio._READ_SIZE + b"\xff 2\n")
        stderr = f"error: not UTF-8 at byte {2 * seqio._READ_SIZE}: invalid start byte\n"
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr)

    # analyze feeds each chunk's terms to both routes as it reads them, so its
    # output must not depend on where the chunk edges fall
    @pytest.fixture(params=[None, 1, 2, 7], ids=["default", "1", "2", "7"])
    def read_size(self, request, monkeypatch):
        # edges inside tokens, and inside the three-term window of the margins
        if request.param is not None:
            monkeypatch.setattr(seqio, "_READ_SIZE", request.param)

    @pytest.mark.parametrize(
        "text, stderr",
        [
            # a parse error after a non-positive term
            ("12 -34 56 7x8 9\n", "error: token 4: cannot parse '7x8'\n"),
            # a non-positive term after both margin violations and both quotient directions
            ("1 1 2 3 5 8 0\n", "error: term 7 is not positive: 0\n"),
            ("1 1 2 3 5 8 13 -4/6\n", "error: term 8 is not positive: -2/3\n"),
            (" \n\t \r\n ", "error: a positive sequence needs at least one term\n"),
            # no block from the first term <= 0 on reaches a classifier: the quotient
            # route, given two zero terms, would end analyze in a ZeroDivisionError
            ("0 0\n", "error: term 1 is not positive: 0\n"),
            ("1 0 0 2\n", "error: term 2 is not positive: 0\n"),
            ("3 -1 -1\n", "error: term 2 is not positive: -1\n"),
        ],
        ids=[
            "parse-after-non-positive", "zero-after-both", "negative-after-both", "whitespace",
            "zeros", "zeros-inside", "negatives",
        ],
    )
    def test_input_errors(self, runner, read_size, text, stderr):
        result = runner.invoke(cli, ["analyze"], input=text)
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr)
        with pytest.raises(ValueError) as raised:  # the library's reader raises the same error
            seqio.parse_sequence_file(text)
        assert f"error: {raised.value}\n" == stderr

    def test_utf8_error_after_a_non_positive_term(self, runner, read_size):
        result = runner.invoke(cli, ["analyze"], input=b"1 0 22 \xff 3\n")
        stderr = "error: not UTF-8 at byte 7: invalid start byte\n"
        assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr)

    @pytest.mark.parametrize("text", ["5\n", "5 7\n", "  1234567/89  \n1/2\n"])
    def test_one_or_two_terms_are_indeterminate(self, runner, read_size, text):
        result = runner.invoke(cli, ["analyze"], input=text)
        assert (result.exit_code, result.stdout, result.stderr) == (0, INDETERMINATE, "")

    @pytest.mark.parametrize("separator", [" ", "\n"], ids=["space", "newline"])
    def test_memory_does_not_grow_with_the_input(self, runner, tmp_path, separator):
        # One chunk's terms are held at a time, so ten times the terms (each a
        # little longer) must not raise the peak; holding them all raised it by 7 MB.
        paths = {}
        for count in (10**4, 10**5):
            paths[count] = tmp_path / f"{count}.txt"
            terms = runner.invoke(cli, ["gen", "--m", "5", "--count", str(count)]).output
            paths[count].write_text(terms.replace(" ", separator))
        assert paths[10**4].stat().st_size > seqio._READ_SIZE
        analyze_peak(runner, paths[10**4])  # warm-up: first-use allocations are not the input's
        small, large = (analyze_peak(runner, paths[count]) for count in (10**4, 10**5))
        assert small[1] == large[1] == "classification: log-concave"
        assert large[0] <= small[0] + 4096

    def test_a_second_chunk_adds_nothing_to_the_peak(self, runner, tmp_path, monkeypatch):
        # Each chunk's text, tokens and integers are dropped before the next
        # chunk is read, so two equal chunks peak as high as one.
        monkeypatch.setattr(seqio, "_READ_SIZE", 8192)
        paths = [tmp_path / "1.txt", tmp_path / "2.txt"]
        for chunks, path in enumerate(paths, start=1):
            path.write_text("1234567 " * 1024 * chunks)
        analyze_peak(runner, paths[0])  # warm-up
        one, two = (analyze_peak(runner, path) for path in paths)
        assert one[1] == two[1] == "classification: geometric (both)"
        assert two[0] <= one[0] + 1024


def analyze_peak(runner, path):
    """The tracemalloc peak of `figurate analyze --input PATH`, and its first line of output."""
    tracemalloc.start()
    try:
        result = runner.invoke(cli, ["analyze", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result.output.splitlines()[0]


class TestVerify:
    NARROW = ["verify", "--m-to", "6", "--n-max", "50"]

    def test_narrow_sweep_passes(self, runner):
        result = runner.invoke(cli, self.NARROW)
        assert result.exit_code == 0
        assert "all checks passed" in result.output

    def test_plain_report_lists_every_check(self, runner):
        result = runner.invoke(cli, self.NARROW)
        for check in ("cross-formula", "bounds", "monotonicity", "margins", "doslic"):
            assert check in result.output

    def test_csv_report(self, runner):
        result = runner.invoke(cli, self.NARROW + ["--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "check,m_from,m_to,n_max,result,detail"
        assert len(lines) == 6
        assert all(line.endswith(",pass,") for line in lines[1:])

    def test_failing_csv_report_prints_only_csv(self, runner, monkeypatch):
        perturb(monkeypatch, "_first_order_terms", (4, 7), lambda term: term + 1)
        result = runner.invoke(cli, self.NARROW + ["--format", "csv"])
        assert result.exit_code == 1
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows and all(len(row) == 6 for row in rows)
        assert rows[1] == [
            "cross-formula", "3", "6", "50", "FAIL", "m=4 n=7 closed-form=49 first-order=50"
        ]

    def test_csv_zero_margin_is_a_counterexample(self, runner, monkeypatch):
        # S(4, 5) - 1 = 27 = sqrt(S(4, 4) S(4, 6)) = sqrt(16 * 36)
        perturb(monkeypatch, "_closed_form_terms", (4, 5), lambda term: term - 1)
        result = runner.invoke(cli, self.NARROW + ["--format", "csv", "--checks", "margins"])
        assert result.exit_code == 1
        assert result.stdout == (
            "check,m_from,m_to,n_max,result,detail\nmargins,3,6,50,FAIL,m=4 n=5 margin=0\n"
        )
        assert result.stderr == ""

    def test_a_geometric_stream_gives_a_report_of_fixed_size(self, runner, monkeypatch):
        # every margin of S(n) = 2^(n - 1) is 0; the report names the first and stops
        substitute(monkeypatch, "_closed_form_terms", 3, geometric)
        outputs = []
        for n_max in ("50", "2000"):
            result = runner.invoke(cli, ["verify", "--n-max", n_max])
            assert result.exit_code == 1
            assert result.stderr == ""
            outputs.append(result.stdout.splitlines())
        assert len(outputs[0]) == len(outputs[1]) == 7
        assert outputs[1][-1] == (
            "counterexample: check=cross-formula m=3 n=2 closed-form=2 alt-form=3"
        )
        assert outputs[1][4].split() == ["margins", "3..50", "2000", "FAIL"]

    def test_check_subset_runs_in_canonical_order(self, runner):
        result = runner.invoke(
            cli, self.NARROW + ["--checks", "bounds,cross-formula"]
        )
        assert result.exit_code == 0
        body = result.output
        assert "cross-formula" in body and "bounds" in body
        assert "monotonicity" not in body
        assert body.index("cross-formula") < body.index("bounds")

    def test_unknown_check_is_usage_error(self, runner):
        result = runner.invoke(cli, self.NARROW + ["--checks", "bogus"])
        assert result.exit_code == 2
        assert "bogus" in result.stderr

    def test_no_check_named_is_usage_error(self, runner):
        result = runner.invoke(cli, self.NARROW + ["--checks", ",,"])
        assert result.exit_code == 2
        assert "at least one check must be selected" in result.stderr

    def test_reversed_order_range_is_usage_error(self, runner):
        result = runner.invoke(cli, ["verify", "--m-from", "6", "--m-to", "5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "option",
        [["--delta-offset", "1"], ["--delta-offset", "3"], ["--inject-corruption", "4;7"]],
        ids=["delta-offset-1", "delta-offset-3", "inject-corruption"],
    )
    def test_removed_option_is_usage_error(self, runner, option):
        # the Doslic lag is fixed at 2, and faults are put in by tests, not by a flag
        result = runner.invoke(cli, self.NARROW + option)
        assert result.exit_code == 2
        assert "No such option" in result.stderr and option[0] in result.stderr

    def test_injected_corruption_is_reported(self, runner, monkeypatch):
        perturb(monkeypatch, "_first_order_terms", (4, 7), lambda term: term + 1)
        result = runner.invoke(cli, self.NARROW)
        assert result.exit_code == 1
        assert "counterexample" in result.output
        assert "m=4" in result.output and "n=7" in result.output

    def test_injected_doslic_fault_is_reported(self, runner, monkeypatch):
        perturb(monkeypatch, "_coefficients", (5, 20), lambda c: (c[0], -c[1], c[2]))
        result = runner.invoke(cli, self.NARROW + ["--checks", "doslic"])
        assert result.exit_code == 1
        assert result.output.endswith("counterexample: check=doslic m=5 n=20 T(n) > 0\n")

    def test_a_short_stream_is_a_counterexample(self, runner, monkeypatch):
        truncate(monkeypatch, "_closed_form_terms", (5, 1))
        result = runner.invoke(cli, self.NARROW)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.endswith(
            "counterexample: check=cross-formula m=5 n=1 stream ended before n=1\n"
        )

    def test_a_zero_term_is_a_counterexample(self, runner, monkeypatch):
        # x(1) = S(2)/S(1) = 4/0 is rendered, never divided
        perturb(monkeypatch, "_closed_form_terms", (4, 1), lambda term: 0)
        arguments = ["verify", "--m-to", "8", "--n-max", "60", "--checks", "bounds"]
        result = runner.invoke(cli, arguments)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.endswith(
            "counterexample: check=bounds m=4 n=1 x(1)=4/0 exceeds m=4\n"
        )

    def test_margins_runs_in_a_forked_child(self, runner, monkeypatch):
        parent = os.getpid()

        def stand_in(m, n_max, terms):
            yield from ()  # a kernel is a generator
            if os.getpid() == parent:
                return None
            return 1, "in a child"

        monkeypatch.setattr(verify, "_check_margins", stand_in)
        result = runner.invoke(cli, self.NARROW)
        assert result.exit_code == 1
        # NARROW is m = 3..6, and the child runs its upper half, m = 5..6
        assert result.output.endswith("counterexample: check=margins m=5 n=1 in a child\n")

    def test_non_integer_second_order_step_is_reported(self, runner, monkeypatch):
        perturb(monkeypatch, "_coefficients", (5, 20), lambda c: (-c[0], c[1], c[2]))
        result = runner.invoke(cli, self.NARROW)
        # exit 1 through sys.exit, not through an escaped InvariantViolation
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.endswith(
            "counterexample: check=cross-formula m=5 n=20 closed-form=590 second-order=-87782/55\n"
        )


class TestEntryPoints:
    def test_module_invocation(self, runner):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "figurate", "gen", "--m", "3", "--count", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1 3 6\n"

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_a_closed_stdout_ends_the_writer_by_sigpipe(self):
        # click would turn the EPIPE into exit code 1, the code of a failed claim
        argv = [sys.executable, "-m", "figurate", "gen", "--m", "3", "--count", "3000000"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b"1 3 6 10 1"
            proc.stdout.close()
            assert proc.wait(timeout=60) == -signal.SIGPIPE
            assert proc.stderr.read() == b""

    def test_runtime_imports_only_click_and_the_standard_library(self):
        # click is the one declared runtime dependency: importing the package
        # and its entry points may load no other top-level module outside the
        # standard library (no sympy, no test tools).
        import subprocess
        import sys

        def loaded(modules):
            script = f"import sys, {modules}; print(' '.join(sys.modules))"
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True
            )
            return {name.partition(".")[0] for name in proc.stdout.split()}

        extra = loaded("figurate, figurate.cli, figurate.__main__") - loaded("click")
        assert "figurate" in extra
        assert extra - set(sys.stdlib_module_names) == {"figurate"}

    def test_package_re_exports_each_module_all(self):
        import figurate
        from figurate import core, logbehavior, seqio, verify

        modules = (core, logbehavior, seqio, verify)
        names = [name for module in modules for name in module.__all__]
        assert figurate.__all__ == names
        assert len(set(names)) == len(names)
        for module in modules:
            for name in module.__all__:
                assert getattr(figurate, name) is getattr(module, name)
        for name in (
            "RecurrenceCoefficients",
            "recurrence_coefficients",
            "ReferenceTable",
            "REFERENCE_TABLES",
            "ConditionFlag",
        ):
            assert not hasattr(figurate, name)
            assert not any(hasattr(module, name) for module in modules)

    def test_help_shows_subcommands(self, runner):
        result = runner.invoke(cli, ["--help"])
        assert result.exit_code == 0
        for name in ("gen", "quotients", "analyze", "verify"):
            assert name in result.output

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text(self, runner, command):
        # click wraps help to the terminal's width, so the width is pinned
        result = runner.invoke(cli, [command, "--help"], prog_name="figurate", terminal_width=80)
        assert result.exit_code == 0
        assert result.output == HELP[command]
