"""Tests for sweep configuration and the cross-checking sweep itself."""

import collections
import dataclasses
import errno
import importlib.util
import itertools
import math
import os
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figurate import core, verify
from figurate.core import (
    _closed_form_terms,
    _coefficients,
    _compare,
    _direct_quotients,
    _doslic_delta,
    _recurrence_quotients,
    closed_form,
    coefficient_r,
    coefficient_t,
    gnomon,
)
from figurate.logbehavior import check_doslic_criterion
from figurate.verify import (
    CHECK_NAMES,
    CheckSummary,
    Counterexample,
    VerifySweepConfig,
    _seed_quotients,
    run_verify_sweep,
)
from faults import geometric, perturb, substitute, truncate
from fraction_sweep import run_fraction_sweep


class TestConfig:
    def test_defaults(self):
        config = VerifySweepConfig()
        assert config.m_from == 3
        assert config.m_to == 50
        assert config.n_max == 2000
        assert config.checks == CHECK_NAMES
        assert [field.name for field in dataclasses.fields(config)] == [
            "m_from", "m_to", "n_max", "checks"
        ]

    def test_the_bench_oracle_names_the_same_checks(self, monkeypatch):
        # bench/oracle.py keeps its own copy of the names, apart from the package
        path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
        spec = importlib.util.spec_from_file_location("bench_oracle", path)
        oracle = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, oracle)  # its dataclasses look it up
        spec.loader.exec_module(oracle)
        assert oracle.CHECK_NAMES == CHECK_NAMES

    def test_checks_normalized_to_canonical_order(self):
        config = VerifySweepConfig(checks=("bounds", "cross-formula"))
        assert config.checks == ("cross-formula", "bounds")

    def test_rejects_order_below_three(self):
        with pytest.raises(ValueError):
            VerifySweepConfig(m_from=2)

    def test_rejects_reversed_order_range(self):
        with pytest.raises(ValueError):
            VerifySweepConfig(m_from=6, m_to=5)

    def test_rejects_unknown_check(self):
        with pytest.raises(ValueError, match="bogus"):
            VerifySweepConfig(checks=("bogus",))

    def test_rejects_no_checks(self):
        with pytest.raises(ValueError, match="^at least one check must be selected$"):
            VerifySweepConfig(checks=())

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_rejects_bytes_checks(self, kind):
        # iterated, b"bounds" would be the names 98, 111, ...
        checks = kind(b"bounds")
        message = f"checks must be a sequence of check names, not the {kind.__name__} {checks!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            VerifySweepConfig(checks=checks)

    def test_rejects_tiny_index_cap(self):
        with pytest.raises(ValueError):
            VerifySweepConfig(n_max=2)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("m_from", 3.0),
            ("m_to", 4.5),
            ("n_max", 60.0),
            ("m_from", True),
            ("n_max", "60"),
            ("checks", "margins"),
            ("checks", None),
            ("checks", 3),
        ],
    )
    def test_rejects_wrong_types_naming_the_field(self, name, value):
        with pytest.raises(TypeError, match=name):
            VerifySweepConfig(**{name: value})

    @pytest.mark.parametrize(
        "name, value, error, message",
        [
            ("m_from", True, TypeError, "m_from must be an int, got bool"),
            ("m_from", 3.0, TypeError, "m_from must be an int, got float"),
            ("m_from", 2, ValueError, "m_from must be >= 3, got 2"),
            ("m_to", True, TypeError, "m_to must be an int, got bool"),
            ("m_to", 50.0, TypeError, "m_to must be an int, got float"),
            ("m_to", 2, ValueError, "m_to must be >= m_from, got 2 < 3"),
            ("n_max", True, TypeError, "n_max must be an int, got bool"),
            ("n_max", 2000.0, TypeError, "n_max must be an int, got float"),
            ("n_max", 2, ValueError, "n_max must be >= 3, got 2"),
        ],
    )
    def test_each_bad_number_alone_gives_its_message(self, name, value, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            VerifySweepConfig(**{name: value})


class TestSweep:
    def test_narrow_sweep_passes_cleanly(self):
        report = run_verify_sweep(VerifySweepConfig(m_to=8, n_max=60))
        assert report.passed
        assert report.first_counterexample is None
        assert [s.check for s in report.summaries] == list(CHECK_NAMES)
        for summary in report.summaries:
            assert summary.passed
            assert summary.counterexample is None

    @pytest.mark.parametrize("config", [{"m_to": 4}, "bounds", VerifySweepConfig])
    def test_rejects_anything_but_a_config_or_none_naming_its_type(self, config):
        with pytest.raises(TypeError, match=f"got {type(config).__name__}$"):
            run_verify_sweep(config)

    @pytest.mark.parametrize(
        "summary, passed",
        [
            (CheckSummary("bounds"), True),
            (CheckSummary("bounds", Counterexample("bounds", 3, 1, "w")), False),
        ],
    )
    def test_a_summary_passes_exactly_when_it_has_no_counterexample(self, summary, passed):
        assert summary.passed is passed

    def test_a_summary_has_no_passed_field(self):
        names = [field.name for field in dataclasses.fields(CheckSummary)]
        assert names == ["check", "counterexample"]
        with pytest.raises(TypeError):
            CheckSummary("bounds", None, ())
        for name in ("passed", "notes"):
            with pytest.raises(TypeError):
                CheckSummary("bounds", **{name: True})
        assert CheckSummary("bounds").notes == ()

    def test_summary_lookup(self):
        report = run_verify_sweep(VerifySweepConfig(m_to=5, n_max=30))
        assert report.summary_for("bounds").check == "bounds"
        with pytest.raises(KeyError):
            report.summary_for("nonsense")

    def test_subset_runs_only_selected_checks(self):
        report = run_verify_sweep(
            VerifySweepConfig(m_to=5, n_max=30, checks=("margins",))
        )
        assert [s.check for s in report.summaries] == ["margins"]

    def test_corruption_is_caught_by_cross_formula(self, monkeypatch):
        perturb(monkeypatch, "_first_order_terms", (4, 7), lambda term: term + 1)
        report = run_verify_sweep(VerifySweepConfig(m_to=8, n_max=60))
        assert not report.passed
        failing = report.summary_for("cross-formula")
        assert not failing.passed
        counterexample = failing.counterexample
        assert isinstance(counterexample, Counterexample)
        assert (counterexample.m, counterexample.n) == (4, 7)
        assert counterexample.witness
        assert report.first_counterexample is counterexample

    def test_first_counterexample_skips_passing_checks(self, monkeypatch):
        # only monotonicity reads the recurrence quotients
        perturb(monkeypatch, "_recurrence_quotients", (5, 10), lambda x: (x[0] + 1, x[1]))
        report = run_verify_sweep(VerifySweepConfig(m_to=8, n_max=60))
        assert [s.passed for s in report.summaries] == [True, True, False, True, True]
        assert report.first_counterexample is report.summary_for("monotonicity").counterexample
        assert (report.first_counterexample.m, report.first_counterexample.n) == (5, 10)

    def test_memory_does_not_grow_with_n_max(self):
        # every kernel streams its window; one that held it would add ~100 B a row. Both
        # windows are past n_max = 2000, below which a block's values are narrower, so
        # the two peaks differ only by what the sweep keeps.
        run_verify_sweep(VerifySweepConfig(m_to=3, n_max=500))  # warm-up
        small, large = sweep_peak(5000), sweep_peak(20000)
        assert large <= small + 4096, (small, large)

    def test_a_check_that_ends_first_holds_no_stream(self, monkeypatch):
        # margins ends at once, at a counterexample; were its copy of the closed-form terms
        # kept, the shared buffer would keep every term the other checks read after it
        def margins_failing_at_once(m, n_max, terms):
            return 2, "margin=0"
            yield  # a kernel is a generator

        monkeypatch.setattr(verify, "_check_margins", margins_failing_at_once)
        run_verify_sweep(VerifySweepConfig(m_to=3, n_max=500))  # warm-up
        small, large = sweep_peak(5000), sweep_peak(20000)
        assert large <= small + 4096, (small, large)

    def test_corruption_outside_window_is_invisible(self, monkeypatch):
        perturb(monkeypatch, "_first_order_terms", (9, 3), lambda term: term + 1)
        report = run_verify_sweep(VerifySweepConfig(m_to=5, n_max=30))
        assert report.passed


def sweep_peak(n_max):
    """The tracemalloc peak of a sweep of m = 3 up to n_max."""
    tracemalloc.start()
    try:
        run_verify_sweep(VerifySweepConfig(m_to=3, n_max=n_max))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneStreamPerM:
    """The sweep makes each core stream once per m, and only those that an open check reads."""

    NAMES = ("_closed_form_terms", "_coefficients", "_direct_quotients")

    def count_calls(self, monkeypatch):
        calls = collections.Counter()  # (name, m) -> calls
        for name in self.NAMES:
            real = getattr(core, name)

            def counted(m, *args, name=name, real=real):
                calls[name, m] += 1
                return real(m, *args)

            monkeypatch.setattr(core, name, counted)
        return calls

    def test_every_check_reads_one_stream_of_each(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        assert run_verify_sweep(VerifySweepConfig(m_from=3, m_to=6, n_max=60)).passed
        assert calls == {(name, m): 1 for name in self.NAMES for m in range(3, 7)}

    def test_the_margins_check_makes_no_coefficients(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        config = VerifySweepConfig(m_from=3, m_to=6, n_max=60, checks=("margins",))
        assert run_verify_sweep(config).passed
        assert calls == {("_closed_form_terms", m): 1 for m in range(3, 7)}


class TestBlocks:
    """`verify._blocks` reads a window in blocks of at most `_BLOCK_ROWS` rows."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 9, 256])
    def test_the_blocks_are_the_window_in_order(self, monkeypatch, rows):
        monkeypatch.setattr(verify, "_BLOCK_ROWS", rows)
        streams = [iter(range(10, 30)), iter(range(50, 70))]
        blocks = [list(block) for block in verify._blocks(4, 12, *streams)]
        assert all(len(block) == rows for block in blocks[:-1])
        assert 1 <= len(blocks[-1]) <= rows
        # rows start at `first`, and no stream is read past the window end
        assert [row for block in blocks for row in block] == [
            (10 + k, 50 + k, 4 + k) for k in range(9)
        ]
        assert (next(streams[0]), next(streams[1])) == (19, 59)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_a_short_stream_raises_after_the_rows_before_it(self, monkeypatch, rows):
        monkeypatch.setattr(verify, "_BLOCK_ROWS", rows)
        read = []
        with pytest.raises(core._StreamEnded, match="^stream ended before n=8$"):
            for block in verify._blocks(3, 20, iter(range(100)), iter(range(5))):
                read += block
        assert [n for _, _, n in read] == [3, 4, 5, 6, 7]


def fixed(values):
    """A stand-in for a core generator, (m, its source stream if any) -> a stream of `values`."""
    return lambda m, *source: iter(values)


def kernel_result(check, m, n_max):
    """(n, witness) of the first counterexample of `check` in a sweep of m alone, or None."""
    counterexample = run_verify_sweep(VerifySweepConfig(m, m, n_max, (check,))).first_counterexample
    return None if counterexample is None else (counterexample.n, counterexample.witness)


class TestCheckFunctions:
    """Failure order and witnesses on crafted streams that real terms never produce.

    Each n_max is at most the length of the crafted streams: a stream that ends
    before n_max is a counterexample of its own.
    """

    def test_cross_formula_reports_the_first_route_in_route_order(self, monkeypatch):
        # second-order disagrees first (n = 2), but alt-form comes first in route
        # order; its first disagreement (n = 4, not 5) is the one reported
        terms = [
            (1, 1, 1, 1, 1),
            (3, 3, 3, 4, 3),
            (6, 6, 6, 6, 6),
            (10, 9, 10, 10, 10),
            (15, 14, 15, 15, 15),
        ]
        for (_, name), column in zip(verify._ROUTES, zip(*terms)):
            monkeypatch.setattr(core, name, fixed(column))
        assert kernel_result("cross-formula", 3, 5) == (4, "closed-form=10 alt-form=9")

    @pytest.mark.parametrize(
        "direct, expected",
        [
            ([(5, 1), (12, 5), (22, 12), (22, 22)], (4, "x(4)=1 is not > 1")),
            # S(n) < 0 comes before above m, above m before off its seed, and off
            # its seed before not > 1
            ([(6, -1)], (1, "x(1)=6/-1 has S(1)=-1 < 0")),
            ([(6, 1)], (1, "x(1)=6 exceeds m=5")),
            ([(5, 1), (12, 5), (23, 12)], (3, "x(3)=23/12 expected 11/6")),
            ([(5, 1), (5, 5)], (2, "x(2)=1 expected 12/5")),
        ],
    )
    def test_bounds(self, monkeypatch, direct, expected):
        monkeypatch.setattr(core, "_direct_quotients", fixed(direct))
        assert kernel_result("bounds", 5, 10) == expected

    def test_monotonicity_stops_at_the_first_tie_or_increase(self, monkeypatch):
        direct = [(4, 1), (18, 8), (9, 4), (2, 1), (3, 1)]
        recurred = [(4, 1), (9, 4), (9, 4), (2, 1), (3, 1)]
        monkeypatch.setattr(core, "_direct_quotients", fixed(direct))
        monkeypatch.setattr(core, "_recurrence_quotients", fixed(recurred))
        assert kernel_result("monotonicity", 4, 5) == (3, "x(2)=9/4 = x(3)=9/4")
        # without the tie, the increase after it is the counterexample
        monkeypatch.setattr(core, "_direct_quotients", fixed(direct[:2] + direct[3:]))
        monkeypatch.setattr(core, "_recurrence_quotients", fixed(recurred[:2] + recurred[3:]))
        assert kernel_result("monotonicity", 4, 4) == (4, "x(3)=2 < x(4)=3")
        # a disagreement of the two routes anywhere, either way round, outranks
        # the tie and the increase
        mismatches = [
            ((5, 4), (6, 5), "direct=5/4 recurrence=6/5"),
            ((6, 5), (5, 4), "direct=6/5 recurrence=5/4"),
        ]
        for x, y, witness in mismatches:
            monkeypatch.setattr(core, "_direct_quotients", fixed(direct + [x]))
            monkeypatch.setattr(core, "_recurrence_quotients", fixed(recurred + [y]))
            assert kernel_result("monotonicity", 4, 6) == (6, witness)

    @pytest.mark.parametrize(
        "terms, expected",
        [([1, 2, 4, 7, 20, 21], (2, "margin=0")), ([1, 3, 6, 7, 20, 21], (4, "margin=-71"))],
        ids=["zero", "negative"],
    )
    def test_margins(self, monkeypatch, terms, expected):
        monkeypatch.setattr(core, "_closed_form_terms", fixed(terms))
        assert kernel_result("margins", 3, 6) == expected

    # At m = 3, dR(n)x + dT(n) > 0 exactly when x < 1, for every n. The delta
    # condition reads x(1), x(2), x(3) at n = 3, 4, 5, and of those only the
    # one named is below 1; x(3) >= x(4) keeps the seed step.
    @pytest.mark.parametrize(
        "direct, n",
        [
            ([(1, 2), (10, 6), (15, 10), (21, 15), (28, 21)], 3),
            ([(3, 1), (1, 2), (10, 6), (15, 10), (21, 15)], 4),
            ([(3, 1), (6, 3), (1, 2), (1, 3), (21, 15)], 5),
        ],
        ids=["x(1)", "x(2)", "x(3)"],
    )
    def test_doslic_delta_reads_the_lagged_quotient(self, monkeypatch, direct, n):
        monkeypatch.setattr(core, "_direct_quotients", fixed(direct))
        assert kernel_result("doslic", 3, 5) == (n, "dR(n)x(n-2) + dT(n) > 0")

    @pytest.mark.parametrize(
        "negative_r, positive_t, expected",
        [((), (5,), (5, "T(n) > 0")), ((7,), (5,), (7, "R(n) < 0"))],
    )
    def test_doslic_reports_r_then_t(self, monkeypatch, negative_r, positive_t, expected):
        for n in negative_r:
            perturb(monkeypatch, "_coefficients", (3, n), lambda c: (-c[0], c[1], c[2]))
        for n in positive_t:
            perturb(monkeypatch, "_coefficients", (3, n), lambda c: (c[0], -c[1], c[2]))
        config = VerifySweepConfig(m_from=3, m_to=4, n_max=10, checks=("doslic",))
        summary = run_verify_sweep(config).summary_for("doslic")
        assert summary.counterexample == Counterexample("doslic", 3, *expected)


# (check, core generator, change at (m, n), witness the check must report at (m, n))
SEAM_FAULTS = [
    ("cross-formula", "_alt_form_terms", lambda s: s + 1, "closed-form=3940 alt-form=3941"),
    ("cross-formula", "_first_order_terms", lambda s: s + 1, "closed-form=3940 first-order=3941"),
    ("cross-formula", "_second_order_terms", lambda s: s + 1, "closed-form=3940 second-order=3941"),
    (
        "cross-formula",
        "_progression_terms",
        lambda s: s + 1,
        "closed-form=3940 progression-sum=3941",
    ),
    ("bounds", "_direct_quotients", lambda x: (1, 1), "x(40)=1 is not > 1"),
    (
        "monotonicity",
        "_recurrence_quotients",
        lambda x: (x[0] + 1, x[1]),
        "direct=4141/3940 recurrence=2071/1970",
    ),
    # S(40) - gnomon(39) = S(39): the margin at j = 40 is S(39) (S(39) - S(41)) < 0
    ("margins", "_closed_form_terms", lambda s: s - gnomon(7, 39), "margin=-1486368"),
    ("doslic", "_coefficients", lambda c: (-c[0], c[1], c[2]), "R(n) < 0"),
    ("doslic", "_coefficients", lambda c: (c[0], -c[1], c[2]), "T(n) > 0"),
]
SEAM_IDS = [
    "alt-form",
    "first-order",
    "second-order",
    "progression-sum",
    "bounds",
    "monotonicity",
    "margins",
    "doslic-R",
    "doslic-T",
]


# core stream -> {check that reads it: the first window index that check cannot fill
# when the stream at m = 7 yields no value, one value, or ends before its index 40}.
# The direct quotients read the closed form, and the second-order route and the
# recurrence quotients read the coefficients, which start at n = 3; the Doslic
# check reads its seed step x(3), x(4) first, then x(n - 2) for n = 3..n_max.
TRUNCATIONS = {
    "_closed_form_terms": {
        "cross-formula": (1, 2, 40),
        "bounds": (1, 1, 39),
        "monotonicity": (1, 1, 39),
        "margins": (1, 2, 40),
        "doslic": (3, 3, 41),
    },
    "_alt_form_terms": {"cross-formula": (1, 2, 40)},
    "_first_order_terms": {"cross-formula": (1, 2, 40)},
    "_second_order_terms": {"cross-formula": (1, 2, 40)},
    "_progression_terms": {"cross-formula": (1, 2, 40)},
    "_direct_quotients": {"bounds": (1, 2, 40), "monotonicity": (1, 2, 40), "doslic": (3, 3, 42)},
    "_recurrence_quotients": {"monotonicity": (1, 2, 40)},
    "_coefficients": {"cross-formula": (3, 4, 40), "monotonicity": (2, 3, 39), "doslic": (3, 3, 39)},
}


DELTA = "dR(n)x(n-2) + dT(n) > 0"

# A zero or negative value put into a core stream at (m, n), or a whole stream
# replaced at m: each check that it breaks names the index at which it reads it;
# every other check passes. (fault(monkeypatch), m, {check: (n, witness)})
# A margin is defined for any integers: S(n) = 0 breaks the margin after it,
# -S(n) none, and a zero S(1) leaves the first margin S(2)^2 > 0.
NON_POSITIVE = [
    (
        partial(perturb, name="_closed_form_terms", at=(4, 1), change=lambda s: 0),
        4,
        {
            "cross-formula": (1, "closed-form=0 alt-form=1"),
            "bounds": (1, "x(1)=4/0 exceeds m=4"),
            "monotonicity": (1, "direct=4/0 recurrence=4"),
            "doslic": (3, DELTA),
        },
    ),
    (
        partial(perturb, name="_closed_form_terms", at=(7, 5), change=lambda s: 0),
        7,
        {
            "cross-formula": (5, "closed-form=0 alt-form=55"),
            "bounds": (4, "x(4)=0 is not > 1"),
            "monotonicity": (4, "direct=0 recurrence=55/34"),
            "margins": (5, "margin=-2754"),
            "doslic": (6, DELTA),
        },
    ),
    (
        partial(perturb, name="_closed_form_terms", at=(7, 5), change=lambda s: -s),
        7,
        {
            "cross-formula": (5, "closed-form=-55 alt-form=55"),
            "bounds": (4, "x(4)=-55/34 is not > 1"),
            "monotonicity": (4, "direct=-55/34 recurrence=55/34"),
            "doslic": (6, DELTA),
        },
    ),
    (
        partial(perturb, name="_direct_quotients", at=(7, 5), change=lambda x: (x[0], 0)),
        7,
        {
            "bounds": (5, "x(5)=81/0 exceeds m=7"),
            "monotonicity": (5, "direct=81/0 recurrence=81/55"),
            "doslic": (7, DELTA),
        },
    ),
    (
        partial(perturb, name="_direct_quotients", at=(7, 5), change=lambda x: (x[0], -x[1])),
        7,
        {
            "bounds": (5, "x(5)=81/-55 has S(5)=-55 < 0"),
            "monotonicity": (5, "direct=-81/55 recurrence=81/55"),
            "doslic": (7, DELTA),
        },
    ),
    (
        partial(perturb, name="_recurrence_quotients", at=(7, 5), change=lambda x: (x[0], 0)),
        7,
        {"monotonicity": (5, "direct=81/55 recurrence=81/0")},
    ),
    (
        partial(perturb, name="_recurrence_quotients", at=(7, 5), change=lambda x: (x[0], -x[1])),
        7,
        {"monotonicity": (5, "direct=81/55 recurrence=-81/55")},
    ),
    # a log-linear stream: the margins route must fail on the first zero margin,
    # where the quotient routes disagree; the Doslic conditions hold for x(n) = 2
    (
        partial(substitute, name="_closed_form_terms", m_at=3, stream=geometric),
        3,
        {
            "cross-formula": (2, "closed-form=2 alt-form=3"),
            "bounds": (1, "x(1)=2 expected 3"),
            "monotonicity": (1, "direct=2 recurrence=3"),
            "margins": (2, "margin=0"),
        },
    ),
]


NON_POSITIVE_CHECKS = dict(
    argvalues=[(check,) for check in CHECK_NAMES] + [CHECK_NAMES], ids=[*CHECK_NAMES, "all"]
)
NON_POSITIVE_IDS = [
    "zero-S(1)",
    "zero-S(5)",
    "negative-S(5)",
    "direct-over-0",
    "direct-over-negative",
    "recurrence-over-0",
    "recurrence-over-negative",
    "geometric",
]


def assert_non_positive_report(report, checks, m, expected):
    """`report` has one summary per check, failing as `expected` at m names and passing elsewhere."""
    assert [summary.check for summary in report.summaries] == list(checks)
    for summary in report.summaries:
        if summary.check in expected:
            n, witness = expected[summary.check]
            assert summary.counterexample == Counterexample(summary.check, m, n, witness)
        else:
            assert summary.passed


class TestFaultsThroughTheSeam:
    """Each check fails on a fault put into a `figurate.core` generator, naming its (m, n)."""

    CONFIG = dict(m_to=8, n_max=60)

    @pytest.mark.parametrize("check, name, change, witness", SEAM_FAULTS, ids=SEAM_IDS)
    def test_the_check_names_the_fault(self, monkeypatch, check, name, change, witness):
        # Only the named check runs: most faults also reach other checks (a
        # crooked coefficient stream, for one, also breaks the second-order route).
        perturb(monkeypatch, name, (7, 40), change)
        report = run_verify_sweep(VerifySweepConfig(**self.CONFIG, checks=(check,)))
        assert report.first_counterexample == Counterexample(check, 7, 40, witness)

    def test_a_non_integer_second_order_step_is_a_cross_formula_counterexample(
        self, monkeypatch
    ):
        # With R(40) negated at m=7 the second-order step does not divide: the
        # route yields it as a Fraction, and cross-formula reports it.
        perturb(monkeypatch, "_coefficients", (7, 40), lambda c: (-c[0], c[1], c[2]))
        report = run_verify_sweep(VerifySweepConfig(**self.CONFIG))
        assert report.first_counterexample == Counterexample(
            "cross-formula", 7, 40, "closed-form=3940 second-order=-2145316/191"
        )

    @pytest.mark.parametrize(
        "check, witness",
        [("bounds", "x(39)=1 is not > 1"), ("monotonicity", "direct=1 recurrence=985/936")],
    )
    def test_the_direct_quotients_read_the_closed_form_through_core(
        self, monkeypatch, check, witness
    ):
        # `_direct_quotients` pairs two copies of the sweep's one
        # `_closed_form_terms` stream, looked up on figurate.core, so a
        # closed-form fault reaches the quotient checks: S(40) - gnomon(39) =
        # S(39) makes x(39) = 1.
        perturb(monkeypatch, "_closed_form_terms", (7, 40), lambda s: s - gnomon(7, 39))
        report = run_verify_sweep(VerifySweepConfig(**self.CONFIG, checks=(check,)))
        assert report.first_counterexample == Counterexample(check, 7, 39, witness)

    @pytest.mark.parametrize("terms", [(), (1,)], ids=["empty", "one-term"])
    def test_a_short_closed_form_stream_gives_no_quotient(self, monkeypatch, terms):
        # `_direct_quotients` reads one term ahead when it is called; a bare
        # StopIteration from that read must not escape the call.
        monkeypatch.setattr(core, "_closed_form_terms", lambda m, first=1: iter(terms))
        assert list(core._direct_quotients(7, core._closed_form_terms(7))) == []
        assert core.quotient_direct(7, 3) == []

    # Every check reads indices up to n_max + 1 (x(n_max) = S(n_max + 1)/S(n_max)
    # and the coefficients at n_max + 1), so n_max + 2 is the first index outside.
    @pytest.mark.parametrize("at", [(9, 40), (7, 62)], ids=["m-above-m_to", "n-above-n_max"])
    @pytest.mark.parametrize("check, name, change, witness", SEAM_FAULTS, ids=SEAM_IDS)
    def test_a_fault_outside_the_window_is_invisible(
        self, monkeypatch, check, name, change, witness, at
    ):
        perturb(monkeypatch, name, at, change)
        assert run_verify_sweep(VerifySweepConfig(**self.CONFIG)).passed

    @pytest.mark.parametrize("cut", [0, 1, 2], ids=["no-value", "one-value", "before-40"])
    @pytest.mark.parametrize("name", TRUNCATIONS)
    def test_every_reader_names_the_first_index_it_could_not_fill(self, monkeypatch, name, cut):
        start = 3 if name == "_coefficients" else 1
        truncate(monkeypatch, name, (7, (start, start + 1, 40)[cut]))
        report = run_verify_sweep(VerifySweepConfig(**self.CONFIG))
        for summary in report.summaries:
            if summary.check in TRUNCATIONS[name]:
                n = TRUNCATIONS[name][summary.check][cut]
                expected = Counterexample(summary.check, 7, n, f"stream ended before n={n}")
                assert summary.counterexample == expected
            else:
                assert summary.passed

    # Every check reads indices up to n_max + 1, as above.
    @pytest.mark.parametrize("name", TRUNCATIONS)
    def test_a_stream_that_ends_after_the_window_passes(self, monkeypatch, name):
        truncate(monkeypatch, name, (7, 62))
        assert run_verify_sweep(VerifySweepConfig(**self.CONFIG)).passed

    @pytest.mark.parametrize("checks", **NON_POSITIVE_CHECKS)
    @pytest.mark.parametrize("fault, m, expected", NON_POSITIVE, ids=NON_POSITIVE_IDS)
    def test_a_non_positive_value_is_a_counterexample(self, monkeypatch, fault, m, expected, checks):
        fault(monkeypatch)
        report = run_verify_sweep(VerifySweepConfig(**self.CONFIG, checks=checks))
        assert_non_positive_report(report, checks, m, expected)

    @pytest.mark.parametrize(
        "change", [lambda x: (x[0], 0), lambda x: (x[0], -x[1])], ids=["over-0", "over-negative"]
    )
    def test_a_seed_quotient_with_a_non_positive_denominator_fails_the_seed_step(
        self, monkeypatch, change
    ):
        # x(3) = p/0 or -p/q would compare as x(3) >= x(4) by cross-multiplying
        perturb(monkeypatch, "_direct_quotients", (7, 3), change)
        config = VerifySweepConfig(**self.CONFIG, checks=("doslic",))
        assert run_verify_sweep(config).first_counterexample == Counterexample(
            "doslic", 7, 3, "quotient increases at the window start"
        )

    def test_a_quotient_of_two_negative_terms_is_named_by_its_negative_s(self, monkeypatch):
        # x(1) = -4/-1 = 4 = m is in bounds and on its seed; only S(1) = -1 < 0 is wrong
        for n in (1, 2):
            perturb(monkeypatch, "_closed_form_terms", (4, n), lambda s: -s)
        report = run_verify_sweep(VerifySweepConfig(**self.CONFIG, checks=("bounds",)))
        assert report.first_counterexample == Counterexample(
            "bounds", 4, 1, "x(1)=-4/-1 has S(1)=-1 < 0"
        )

    # The delta condition at n reads x(n - 2), so a quotient stream that ends
    # before x(k) is first missed at n = k + 2; x(58) is the last it reads.
    @pytest.mark.parametrize("k", [5, 20, 40, 58])
    def test_the_doslic_index_follows_the_lag(self, monkeypatch, k):
        truncate(monkeypatch, "_direct_quotients", (7, k))
        config = VerifySweepConfig(**self.CONFIG, checks=("doslic",))
        assert run_verify_sweep(config).first_counterexample == Counterexample(
            "doslic", 7, k + 2, f"stream ended before n={k + 2}"
        )


# (core stream, index of the changed value, change, CriterionReport field of the
# first violation, its n, the doslic witness): one fault aimed at each condition
DOSLIC_FAULTS = [
    ("_coefficients", 12, lambda c: (-c[0], c[1], c[2]), "first_r_violation", 12, "R(n) < 0"),
    ("_coefficients", 12, lambda c: (c[0], -c[1], c[2]), "first_t_violation", 12, "T(n) > 0"),
    (
        "_direct_quotients",
        4,
        lambda x: (2 * x[0], x[1]),
        "seed_step_violation",
        3,
        "quotient increases at the window start",
    ),
    ("_direct_quotients", 10, lambda x: (0, x[1]), "first_delta_violation", 12, DELTA),
]


class TestOneDoslicScan:
    """`check_doslic_criterion` and the `doslic` check read one scan, so they name one n."""

    @pytest.mark.parametrize("m", [3, 7, 50])
    @pytest.mark.parametrize(
        "name, index, change, first, n, witness", DOSLIC_FAULTS, ids=["R", "T", "seed-step", "delta"]
    )
    def test_the_report_names_the_counterexample(
        self, monkeypatch, m, name, index, change, first, n, witness
    ):
        perturb(monkeypatch, name, (m, index), change)
        report = check_doslic_criterion(m, 60)
        failures = [(f.name, getattr(report, f.name)) for f in dataclasses.fields(report)]
        assert [failure for failure in failures if failure[1] is not None][0] == (first, n)
        # a window of two m, so that _run_forked forks
        config = VerifySweepConfig(m_from=m, m_to=m + 1, n_max=60)
        for sweep in (run_verify_sweep, verify._run_forked):
            summary = sweep(config).summary_for("doslic")
            assert summary.counterexample == Counterexample("doslic", m, n, witness)


def raise_both_quotients(monkeypatch):
    """x(40) = 7 = m at m = 7 on both quotient routes: an increase that only the
    monotonicity order reads, with x(39) carried from the row before."""
    for name in ("_direct_quotients", "_recurrence_quotients"):
        perturb(monkeypatch, name, (7, 40), lambda x: (7, 1))


def truncation(name, cut):
    start = 3 if name == "_coefficients" else 1
    return partial(truncate, name=name, at=(7, (start, start + 1, 40)[cut]))


# Every fault of the tables above, each at m = 7 or at the m of its table entry
FAULT_TABLE = {
    **{
        f"seam-{label}": partial(perturb, name=name, at=(7, 40), change=change)
        for label, (_, name, change, _) in zip(SEAM_IDS, SEAM_FAULTS)
    },
    "non-integer-second-order": partial(
        perturb, name="_coefficients", at=(7, 40), change=lambda c: (-c[0], c[1], c[2])
    ),
    "closed-form-under-the-quotients": partial(
        perturb, name="_closed_form_terms", at=(7, 40), change=lambda s: s - gnomon(7, 39)
    ),
    **{
        f"truncated-{name}-{cut}": truncation(name, cut)
        for name in TRUNCATIONS
        for cut in range(3)
    },
    **{
        f"non-positive-{label}": fault
        for label, (fault, _, _) in zip(NON_POSITIVE_IDS, NON_POSITIVE)
    },
    **{
        f"doslic-{label}": partial(perturb, name=name, at=(7, index), change=change)
        for label, (name, index, change, *_) in zip(["R", "T", "seed-step", "delta"], DOSLIC_FAULTS)
    },
    "increase-at-40": raise_both_quotients,
}


class TestBlockEdges:
    """Every fault gives the same report whatever the block size, as a fault may
    sit at a block edge, where a kernel reads the rows it carried from the block before."""

    CONFIG = dict(m_to=8, n_max=60)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    @pytest.mark.parametrize("fault", FAULT_TABLE.values(), ids=FAULT_TABLE.keys())
    def test_the_report_does_not_depend_on_the_block_size(self, monkeypatch, fault, rows):
        fault(monkeypatch)
        config = VerifySweepConfig(**self.CONFIG)
        expected = run_verify_sweep(config)
        assert not expected.passed
        monkeypatch.setattr(verify, "_BLOCK_ROWS", rows)
        assert run_verify_sweep(config) == expected


def open_fds():
    """This process's open file descriptors, or None where /proc/self/fd does not exist."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


# each check's kernel, by its name in `verify`
KERNELS = {check: kernel for check, kernel, _ in verify._CHECKS}


class TestForkedLanes:
    """`verify._run_forked`, which `figurate verify` runs, returns `run_verify_sweep`'s report.

    After every test the process has no child left, reaped or running, and the
    file descriptors it had before.
    """

    CONFIG = dict(m_to=8, n_max=60)
    MIDDLE = 6  # the first m of the upper half, which the child runs

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        fds = open_fds()
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds

    def assert_serial(self, config):
        report = verify._run_forked(config)
        assert report == run_verify_sweep(config)
        return report

    @pytest.mark.parametrize(
        "checks",
        [subset for k in range(1, 6) for subset in itertools.combinations(CHECK_NAMES, k)],
        ids="+".join,
    )
    @pytest.mark.parametrize("faulted", [False, True], ids=["passing", "zero-S(5)"])
    def test_every_subset_of_checks(self, monkeypatch, checks, faulted):
        # S(5) = 0 at m = 7 breaks all five checks (see NON_POSITIVE)
        if faulted:
            NON_POSITIVE[1][0](monkeypatch)
        report = self.assert_serial(VerifySweepConfig(**self.CONFIG, checks=checks))
        assert [summary.passed for summary in report.summaries] == [not faulted] * len(checks)

    @staticmethod
    def fail_outside(monkeypatch):
        """Make every check fail only where it runs outside this process."""
        parent = os.getpid()

        def elsewhere(check):
            def stand_in(m, n_max, *streams):
                yield from ()  # a kernel is a generator
                if os.getpid() == parent:
                    return None
                return 1, "ran in a child"

            return stand_in

        for check in CHECK_NAMES:
            monkeypatch.setattr(verify, KERNELS[check], elsewhere(check))

    def test_the_upper_half_runs_in_another_process(self, monkeypatch):
        self.fail_outside(monkeypatch)
        report = verify._run_forked(VerifySweepConfig(**self.CONFIG))
        assert report.summaries == tuple(
            verify.CheckSummary(check, Counterexample(check, self.MIDDLE, 1, "ran in a child"))
            for check in CHECK_NAMES
        )

    def test_one_check_forks(self, monkeypatch):
        self.fail_outside(monkeypatch)
        report = verify._run_forked(VerifySweepConfig(**self.CONFIG, checks=("doslic",)))
        expected = Counterexample("doslic", self.MIDDLE, 1, "ran in a child")
        assert report.first_counterexample == expected

    def test_one_process_for_a_window_of_one_m(self, monkeypatch):
        self.fail_outside(monkeypatch)
        assert verify._run_forked(VerifySweepConfig(m_from=5, m_to=5, n_max=60)).passed

    def test_one_process_without_fork(self, monkeypatch):
        self.fail_outside(monkeypatch)
        monkeypatch.delattr(os, "fork")
        assert verify._run_forked(VerifySweepConfig(**self.CONFIG)).passed

    # S(5) = 0 breaks all five checks at its m; the lower m is the first counterexample
    @pytest.mark.parametrize(
        "faulted", [(MIDDLE - 1,), (MIDDLE,), (4, 7)], ids=["lower-edge", "upper-edge", "both"]
    )
    def test_a_fault_at_the_split(self, monkeypatch, faulted):
        for m in faulted:
            perturb(monkeypatch, "_closed_form_terms", (m, 5), lambda s: 0)
        report = self.assert_serial(VerifySweepConfig(**self.CONFIG))
        assert [summary.counterexample.m for summary in report.summaries] == [faulted[0]] * 5

    @pytest.mark.parametrize("check, name, change, witness", SEAM_FAULTS, ids=SEAM_IDS)
    def test_a_seam_fault(self, monkeypatch, check, name, change, witness):
        perturb(monkeypatch, name, (7, 40), change)
        report = self.assert_serial(VerifySweepConfig(**self.CONFIG))
        assert report.summary_for(check).counterexample == Counterexample(check, 7, 40, witness)

    @pytest.mark.parametrize("fault", [None, SEAM_FAULTS[4]], ids=["passing", SEAM_IDS[4]])
    @pytest.mark.parametrize(
        "name, error",
        [
            ("pipe", OSError(errno.EMFILE, "Too many open files")),
            ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
        ],
        ids=["pipe-EMFILE", "fork-EAGAIN"],
    )
    def test_a_pipe_or_fork_that_fails(self, monkeypatch, name, error, fault):
        if fault is not None:
            perturb(monkeypatch, fault[1], (7, 40), fault[2])

        def fail():
            raise error

        monkeypatch.setattr(os, name, fail)
        assert self.assert_serial(VerifySweepConfig(**self.CONFIG)).passed is (fault is None)

    @pytest.mark.parametrize("cut", [0, 1, 2], ids=["no-value", "one-value", "before-40"])
    @pytest.mark.parametrize("name", TRUNCATIONS)
    def test_a_truncation(self, monkeypatch, name, cut):
        start = 3 if name == "_coefficients" else 1
        truncate(monkeypatch, name, (7, (start, start + 1, 40)[cut]))
        assert not self.assert_serial(VerifySweepConfig(**self.CONFIG)).passed

    @pytest.mark.parametrize("checks", **NON_POSITIVE_CHECKS)
    @pytest.mark.parametrize("fault, m, expected", NON_POSITIVE, ids=NON_POSITIVE_IDS)
    def test_a_non_positive_value(self, monkeypatch, fault, m, expected, checks):
        fault(monkeypatch)
        report = self.assert_serial(VerifySweepConfig(**self.CONFIG, checks=checks))
        assert_non_positive_report(report, checks, m, expected)

    @staticmethod
    def in_the_child(monkeypatch, check, act):
        """Make `check` call act() first where it runs outside this process."""
        parent = os.getpid()
        real = getattr(verify, KERNELS[check])

        def stand_in(m, n_max, *streams):
            if os.getpid() != parent:
                act()
            return (yield from real(m, n_max, *streams))

        monkeypatch.setattr(verify, KERNELS[check], stand_in)

    @pytest.mark.parametrize("check", CHECK_NAMES)
    @pytest.mark.parametrize("status", [9, 0], ids=["exit-9", "exit-0-unwritten"])
    def test_a_child_that_exits_early(self, monkeypatch, check, status):
        self.in_the_child(monkeypatch, check, lambda: os._exit(status))
        perturb(monkeypatch, "_recurrence_quotients", (5, 10), lambda x: (x[0] + 1, x[1]))
        assert not self.assert_serial(VerifySweepConfig(**self.CONFIG)).passed

    @pytest.mark.parametrize("check", CHECK_NAMES)
    def test_a_child_that_raises_only_in_the_child(self, monkeypatch, check):
        def fail():
            raise core.InvariantViolation("in the child")

        self.in_the_child(monkeypatch, check, fail)
        assert self.assert_serial(VerifySweepConfig(**self.CONFIG)).passed

    # (checks that raise, the one whose exception a serial run raises)
    @pytest.mark.parametrize(
        "raising, first",
        [
            (("bounds",), "bounds"),
            (("margins",), "margins"),
            (("cross-formula",), "cross-formula"),
            (("doslic",), "doslic"),
            (("cross-formula", "monotonicity"), "cross-formula"),
            (("monotonicity", "doslic"), "monotonicity"),
        ],
    )
    def test_an_exception_is_the_one_a_serial_run_raises(self, monkeypatch, raising, first):
        def stand_in(check):
            def raise_it(m, n_max, *streams):
                raise core.InvariantViolation(f"{check} at m={m}")

            return raise_it

        for check in raising:
            monkeypatch.setattr(verify, KERNELS[check], stand_in(check))
        config = VerifySweepConfig(**self.CONFIG)
        with pytest.raises(core.InvariantViolation, match=f"^{first} at m=3$"):
            run_verify_sweep(config)
        with pytest.raises(core.InvariantViolation, match=f"^{first} at m=3$"):
            verify._run_forked(config)

    def test_a_lower_half_where_every_check_fails_does_not_wait_for_the_child(self, monkeypatch):
        config = VerifySweepConfig()  # the default window: the child's half takes a while

        def best_time():
            times = []
            for _ in range(3):
                start = time.perf_counter()
                report = verify._run_forked(config)
                times.append(time.perf_counter() - start)
            return report, min(times)

        passing, passing_time = best_time()
        assert passing.passed
        # S(5) = 0 at m = 3 breaks all five checks there (see NON_POSITIVE)
        perturb(monkeypatch, "_closed_form_terms", (3, 5), lambda s: 0)
        report, failing_time = best_time()
        assert report == run_verify_sweep(config)
        assert [summary.counterexample.m for summary in report.summaries] == [3] * 5
        assert failing_time < passing_time / 3, (failing_time, passing_time)

    def test_an_interrupt_in_the_parent_kills_the_child(self, monkeypatch):
        def interrupt(m, n_max, *streams):
            raise KeyboardInterrupt

        self.in_the_child(monkeypatch, "bounds", lambda: time.sleep(60))  # unless it is killed
        monkeypatch.setattr(verify, "_check_doslic", interrupt)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            verify._run_forked(VerifySweepConfig(m_to=4, n_max=60))  # the child sleeps at m = 4
        assert time.monotonic() - start < 30


@st.composite
def sweeps(draw):
    """A sweep configuration and a corruption point inside, outside or absent."""
    m_from = draw(st.integers(3, 40))
    m_to = draw(st.integers(m_from, 40))
    n_max = draw(st.integers(3, 300))
    checks = tuple(draw(st.sets(st.sampled_from(CHECK_NAMES), min_size=1)))
    inside = st.tuples(st.integers(m_from, m_to), st.integers(1, n_max))
    anywhere = st.tuples(st.integers(0, 45), st.integers(-2, 310))
    corrupt_at = draw(st.none() | inside | anywhere)
    return VerifySweepConfig(m_from, m_to, n_max, checks), corrupt_at


class TestFractionOracle:
    # None: the default block size; the others put a block edge near every fault
    @pytest.mark.parametrize("rows", [None, 1, 2, 7])
    @settings(max_examples=60, deadline=None)
    @given(sweeps())
    def test_reports_match_the_fraction_sweep(self, rows, sweep):
        # The oracle runs first: its first-order route reads the core
        # generator too, and takes its corruption from its own corrupt_at.
        config, corrupt_at = sweep
        expected = run_fraction_sweep(config, corrupt_at)
        # hypothesis rejects function-scoped fixtures, so no monkeypatch fixture
        with pytest.MonkeyPatch.context() as patch:
            if rows is not None:
                patch.setattr(verify, "_BLOCK_ROWS", rows)
            if corrupt_at is not None:
                perturb(patch, "_first_order_terms", corrupt_at, lambda term: term + 1)
            assert run_verify_sweep(config) == expected


def sign(value):
    return (value > 0) - (value < 0)


class TestIntegerConditions:
    """Each cross-multiplied condition against its Fraction definition.

    The scaled values must equal the Fraction expressions times the positive
    factors they were multiplied by, so a dropped denominator or a flipped
    sign shows even where every condition holds.
    """

    M_RANGE = range(3, 41)
    N_MAX = 300

    def test_quotient_comparisons(self):
        for m in self.M_RANGE:
            direct = _direct_quotients(m, _closed_form_terms(m))
            recurred = _recurrence_quotients(m, _coefficients(m))
            direct = list(itertools.islice(direct, self.N_MAX + 1))
            recurred = list(itertools.islice(recurred, self.N_MAX + 1))
            assert all(math.gcd(*y) == 1 for y in recurred)
            comparisons = []
            for x, y in zip(direct, recurred):
                comparisons += [(x, (1, 1)), (x, (m, 1)), (x, y)]  # bounds, route agreement
            comparisons += zip(recurred[1:], recurred)  # quotient ordering
            comparisons += zip(direct[:3], _seed_quotients(m))
            for x, y in comparisons:
                assert x[1] > 0 and y[1] > 0
                difference = Fraction(*x) - Fraction(*y)
                assert _compare(x, y) == difference * x[1] * y[1]
                assert sign(_compare(x, y)) == sign(difference)

    def test_seed_quotients(self):
        for m in self.M_RANGE:
            expected = (Fraction(m), 3 - Fraction(3, m), 2 - Fraction(2, 3 * (m - 1)))
            assert tuple(Fraction(*pair) for pair in _seed_quotients(m)) == expected
            assert all(q > 0 for _, q in _seed_quotients(m))

    def test_coefficient_signs(self):
        # R(n) S(n-1) + T(n) S(n-2) = S(n) with R(n) + T(n) = 1 pins both down.
        for m in self.M_RANGE:
            for n, (r, t, d) in zip(range(3, self.N_MAX + 2), _coefficients(m)):
                older, old, term = (closed_form(m, k) for k in (n - 2, n - 1, n))
                big_r = Fraction(term - older, old - older)
                assert d > 0
                assert (Fraction(r, d), Fraction(t, d)) == (big_r, 1 - big_r)
                assert (r >= 0) == (big_r >= 0)
                assert (t <= 0) == (1 - big_r <= 0)

    @pytest.mark.parametrize("lag", [1, 2])
    def test_doslic_delta(self, lag):
        for m in self.M_RANGE:
            direct = list(itertools.islice(_direct_quotients(m, _closed_form_terms(m)), self.N_MAX))
            coefficients = itertools.pairwise(_coefficients(m))
            for n, (here, ahead) in zip(range(3, self.N_MAX + 1), coefficients):
                x = direct[n - lag - 1]
                delta = (coefficient_r(m, n + 1) - coefficient_r(m, n)) * Fraction(*x) + (
                    coefficient_t(m, n + 1) - coefficient_t(m, n)
                )
                scaled = _doslic_delta(here, ahead, x)
                assert scaled == delta * here[2] * ahead[2] * x[1]
                assert sign(scaled) == sign(delta)
