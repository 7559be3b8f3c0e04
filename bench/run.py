#!/usr/bin/env python3
"""Benchmark of the figurate command line and library, stdlib only.

Run from the repository root:

    python3 bench/run.py --workload sweep-default --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --workload all --seconds 56     # every workload in turn
    python3 bench/run.py --smoke                         # self-test at tiny sizes

One closed-loop client runs one `python -m figurate ...` process at a time,
starting the next when the previous one exits, for --seconds seconds (whole
rounds of the workload, at least one). Every output is checked against the
oracle in oracle.py. With --trace 0 it prints the end-to-end metrics; with
--trace 1 it runs the same round through the library in-process, once
untraced and once traced, and prints the per-layer metrics. The last line of
standard output is a JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the environment and a metric table. The
full record, spans included, goes to .bench_out/. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import CHECK_NAMES
from tracer import Timer, Tracer
from workloads import WORKLOADS, build_round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = {"full": 11, "smoke": 3}

END_TO_END = {
    "verdict_s": "s",
    "verdict_cpu_s": "s",
    "terms_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
CHECKS = tuple(name.replace("-", "_") for name in CHECK_NAMES)
CORE = (
    "closed_form",
    "closed_form_alt",
    "generate_first_order",
    "generate_second_order",
    "progression_sums",
    "quotient_direct",
    "quotient_recurrence",
)
LOGBEHAVIOR = (
    "check_doslic_criterion",
    "margin_sequence",
    "check_quotient_bounds",
    "PositiveSequence",
    "classify_log_behavior",
    "quotient_monotonicity",
)
PER_LAYER = {
    **{f"verify.{check}_s": "s" for check in CHECKS},
    "verify.notes": "count",
    **{f"core.{fn}.{kind}": unit for fn in CORE for kind, unit in (("s", "s"), ("calls", "count"))},
    "core.coefficient.calls": "count",
    **{f"logbehavior.{fn}.s": "s" for fn in LOGBEHAVIOR},
    "fraction.constructed": "count",
    **{f"seqio.{fn}.s": "s" for fn in ("parse_sequence_file", "emit_bfile", "emit_csv")},
    "seqio.bytes_in": "B",
    "seqio.bytes_out": "B",
    "cli.overhead_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
}
# Per-layer values that are exact counts: every round, and every traced run of
# the same code and seed, must give the same value.
EXACT = {name for name, unit in PER_LAYER.items() if unit in ("count", "B")}


@dataclass
class Outcome:
    ok: bool
    wall: float
    cpu: float
    rss_mb: float
    stdout_bytes: int


class Launcher:
    """Runs `python -m figurate ARGV` processes through launcher.py, one at a time."""

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def capture(self, argv):
        """Exit code, stdout, stderr and the launcher's reply (wall, cpu, maxrss_kb)."""
        streams = OUT / "op.stdout", OUT / "op.stderr"
        request = {
            "argv": [sys.executable, "-m", "figurate", *argv],
            "stdout": str(streams[0]),
            "stderr": str(streams[1]),
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        out, err = (path.read_text() for path in streams)
        return reply["code"], out, err, reply

    def spawn(self, argv, check) -> Outcome:
        code, out, err, reply = self.capture(argv)
        ok = check(code, out)
        if not ok:
            print(f"wrong output: figurate {' '.join(argv)} exited {code}: {err[-400:]}", file=sys.stderr)
        return Outcome(ok, reply["wall"], reply["cpu"], reply["maxrss_kb"] / 1024, len(out.encode()))


def measure_setup(launcher, samples):
    """Median wall time of a fresh `python -m figurate --help`, after one warm-up."""
    check = lambda code, out: code == 0 and "verify" in out
    launcher.spawn(("--help",), check)
    outcomes = [launcher.spawn(("--help",), check) for _ in range(samples)]
    return statistics.median(o.wall for o in outcomes), outcomes


def run_rounds(seconds, one_round):
    """Closed loop: whole rounds until another would pass the deadline."""
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(one_round())
        walls.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return rounds


def end_to_end(launcher, ops, seconds, setup_s):
    rounds = run_rounds(seconds, lambda: [launcher.spawn(op.argv, op.check_cli) for op in ops])
    outcomes = [o for r in rounds for o in r]
    terms = sum(op.terms for op in ops)
    metrics = {
        "verdict_s": statistics.median(o.wall for o in outcomes),
        "verdict_cpu_s": statistics.median(o.cpu for o in outcomes),
        "terms_per_s": statistics.median(terms / sum(o.wall for o in r) for r in rounds),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "setup_s": setup_s,
    }
    samples = {"rounds": len(rounds), "operations": len(outcomes)}
    record = {
        "operations": [
            {"label": op.label, "wall_s": o.wall, "cpu_s": o.cpu, "rss_mb": o.rss_mb}
            for r in rounds
            for op, o in zip(ops, r)
        ]
    }
    return metrics, [o.ok for o in outcomes], samples, record


def traced(launcher, ops, seconds):
    tracer = Tracer()

    def one_round():
        cli = [launcher.spawn(op.argv, op.check_cli) for op in ops]
        plain, timers = [], []
        for op in ops:
            timer = Timer()
            start = time.perf_counter()
            result = op.run_lib(timer)
            plain.append((time.perf_counter() - start, op.check_lib(result), op.notes(result)))
            timers.append(timer.times)
        results, durations = [], []
        with tracer.installed():
            for op in ops:
                start = time.perf_counter()
                with tracer.span(op.label, "operation"):
                    results.append(op.run_lib(tracer))
                durations.append(time.perf_counter() - start)
        flat = tracer.take()
        layer = {name: flat.get(name, 0) for name in PER_LAYER}
        layer["core.coefficient.calls"] = flat.get("core.coefficient_r.calls", 0) + flat.get(
            "core.coefficient_t.calls", 0
        )
        for check in CHECKS:
            layer[f"verify.{check}_s"] = sum(t.get(f"verify.{check}", 0.0) for t in timers)
        layer["verify.notes"] = sum(notes for _, _, notes in plain)
        layer["cli.stdout_bytes"] = sum(o.stdout_bytes for o in cli)
        oks = [o.ok for o in cli] + [ok for _, ok, _ in plain]
        oks += [op.check_lib(result) for op, result in zip(ops, results)]
        overheads = [c.wall - p[0] for c, p in zip(cli, plain)]
        trace_costs = [t - p[0] for t, p in zip(durations, plain)]
        return layer, oks, overheads, trace_costs

    rounds = run_rounds(seconds, one_round)
    metrics = {}
    for name in PER_LAYER:
        values = [layer[name] for layer, _, _, _ in rounds]
        metrics[name] = values[0] if name in EXACT else statistics.median(values)
    metrics["cli.overhead_s"] = statistics.median(x for r in rounds for x in r[2])
    metrics["trace.overhead_s"] = statistics.median(x for r in rounds for x in r[3])
    oks = [ok for r in rounds for ok in r[1]]
    unstable = sorted(n for n in EXACT if len({layer[n] for layer, _, _, _ in rounds}) > 1)
    if unstable:
        print(f"counts differ between rounds: {unstable}", file=sys.stderr)
    samples = {"rounds": len(rounds), "operations": len(oks)}
    record = {
        "unstable": unstable,
        "rounds": [layer for layer, _, _, _ in rounds],
        "spans": tracer.spans,
    }
    return metrics, oks, samples, record


def run_workload(launcher, workload, seed, seconds, trace, profile="full"):
    ops = build_round(workload, seed, profile, OUT / "inputs")
    if trace:
        metrics, oks, samples, record = traced(launcher, ops, seconds)
        units = PER_LAYER
    else:
        setup_s, setup_outcomes = measure_setup(launcher, SETUP_SAMPLES[profile])
        metrics, oks, samples, record = end_to_end(launcher, ops, seconds, setup_s)
        oks += [o.ok for o in setup_outcomes]
        samples["setup"] = len(setup_outcomes)
        units = END_TO_END
    failed = oks.count(False)
    result = {
        "correct": failed == 0 and not record.get("unstable"),
        "attempted": len(oks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(workload, seed, seconds, trace, samples)
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"environment": env, "result": result, **record}) + "\n")
    return result, env


def environment(workload, seed, seconds, trace, samples):
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = done.stdout.strip() or None
        except FileNotFoundError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "figurate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "samples": samples,
    }


def print_result(result, env):
    print(json.dumps({"environment": env}))
    failed_ratio = result["failed"] / result["attempted"]
    for name, metric in result["metrics"].items():
        print(f"{env['workload']:14} {name:40} {metric['value']:<22} {metric['unit']}")
    print(f"{env['workload']:14} {'failed_ratio':40} {failed_ratio:<22} 1")


def smoke(launcher):
    """Run every workload at tiny size and check the harness itself."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py prints")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload that workloads.py lacks")
    for workload in WORKLOADS:
        counts = []
        for trace in (False, True, True):
            result, env = run_workload(launcher, workload, 1, 0, trace, "smoke")
            print_result(result, env)
            expected = PER_LAYER if trace else END_TO_END
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            if printed != expected or not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: wrong metrics or outputs")
            if trace:
                counts.append({n: result["metrics"][n]["value"] for n in EXACT})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: exact counts differ between two traced runs")
        for op in build_round(workload, 1, "smoke", OUT / "inputs"):
            code, out, _, _ = launcher.capture(op.argv)
            if not op.check_cli(code, out):
                problems.append(f"{op.label}: oracle rejects the real output")
            for label, bad_code, bad_out in _tampered(code, out):
                if op.check_cli(bad_code, bad_out):
                    problems.append(f"{op.label}: oracle accepts output with {label}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def _tampered(code, out):
    yield "the exit code flipped", 1 - code if code in (0, 1) else 0, out
    lines = out.splitlines(keepends=True)
    yield "its last line dropped", code, "".join(lines[:-1])
    digits = [i for i, ch in enumerate(out) if ch.isdigit()]
    if digits:
        i = digits[-1]
        yield "a digit changed", code, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)

    if not (SRC / "figurate" / "__init__.py").is_file():
        print(f"error: no figurate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Started before anything large is loaded; see launcher.py.
    with Launcher() as launcher:
        if args.smoke:
            return smoke(launcher)
        combined = run_all(launcher, args)
    print(json.dumps(combined))
    return 0


def run_all(launcher, args):
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result, env = run_workload(launcher, workload, args.seed, args.seconds, args.trace)
        print_result(result, env)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if len(workloads) == 1:
            combined["metrics"] = result["metrics"]
            break
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
        ratio = result["failed"] / result["attempted"]
        combined["metrics"][f"{workload}.failed_ratio"] = {"value": ratio, "unit": "1"}
    return combined


if __name__ == "__main__":
    sys.exit(main())
