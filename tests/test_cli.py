"""End-to-end tests for the command-line interface."""

import csv
import io
import os
from fractions import Fraction

import pytest
from click.testing import CliRunner

from figurate import verify
from figurate.cli import cli
from figurate.core import closed_form
from figurate.seqio import emit_csv, parse_bfile
from faults import geometric, perturb, substitute, truncate


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
        assert "integer" in result.stderr


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

    def test_short_input_is_indeterminate(self, runner):
        result = runner.invoke(cli, ["analyze"], input="5 7\n")
        assert result.exit_code == 0
        assert "classification: indeterminate" in result.output

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

        def stand_in(m, n_max):
            if os.getpid() == parent:
                return None
            return verify.Counterexample("margins", m, 1, "in a child")

        monkeypatch.setitem(verify._CHECK_FUNCTIONS, "margins", stand_in)
        result = runner.invoke(cli, self.NARROW)
        assert result.exit_code == 1
        assert result.output.endswith("counterexample: check=margins m=3 n=1 in a child\n")

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
        ):
            assert not hasattr(figurate, name)
            assert not any(hasattr(module, name) for module in modules)

    def test_help_shows_subcommands(self, runner):
        result = runner.invoke(cli, ["--help"])
        assert result.exit_code == 0
        for name in ("gen", "quotients", "analyze", "verify"):
            assert name in result.output
