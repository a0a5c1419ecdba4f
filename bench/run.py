"""Benchmark of the simplexlattice CLI, driven from outside as a user runs it.

    python3 bench/run.py --workload single-pi --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  The workloads (single-pi, all-pi,
oracle) and why each was chosen are in workloads.py; BENCHMARK.json lists
the metrics.

--trace 0 measures end to end.  Every invocation is a fresh interpreter
running ``python -m simplexlattice.cli`` with the checkout's src first on
PYTHONPATH, one at a time: a closed loop with one client.  Passes over the
workload's invocation list repeat until --seconds have gone by.  gate.py
checks the outputs of every pass outside the timed spans.  Each timed child
runs right after a fixed reference job and its time is reported at
reference speed (see REFERENCE); the times as measured go to the record.

--trace 1 measures per layer.  Passes alternate between an untraced and a
traced run of the same invocations through cli.main, each pass in a fresh
interpreter (traced_pass.py), until --seconds have gone by.

The last line of stdout is one JSON object with correct, attempted, failed
and the metrics.  ``correct`` is false when any output is wrong or an exact
count does not repeat; ``failed`` counts invocations that delivered no
correct result, crashes included.  The full record of the run (provenance,
samples, problems and spans) goes to .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import gate
import workloads
from workloads import Call

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150  # far above any single invocation here
SETUP_SAMPLES_PER_PASS = 2
IMPORT_CLI = ["-c", "import simplexlattice.cli"]
# A fixed pure-Python job in a fresh interpreter, sharing nothing with the
# program.  On a shared 2-core machine the speed of every child drifts by up
# to a third within minutes, and a reference run just before a child drifts
# with it.  So each timed child runs right after one reference run, and its
# time is reported scaled by REFERENCE_S / (that reference run's time): the
# seconds it would take at the speed where the reference takes REFERENCE_S.
REFERENCE = ["-c", "d = {}\nfor i in range(100000):\n    d[i % 1009] = (i, i * 7 % 13)"]
REFERENCE_S = 0.12

# per-layer time metrics: the span names each one sums
LAYER_SPANS = {
    "lattice.enumerate_vertices_s": ("lattice.enumerate_vertices",),
    "lattice.cells_s": ("lattice.cells",),
    "lattice.facets_s": ("lattice.enumerate_facets",),
    "labeling.label_all_s.identity": ("labeling.label_all.identity",),
    "labeling.label_all_s.pi": ("labeling.label_all.pi",),
    "verify.check_sperner_s": ("verify.check_sperner",),
    "verify.check_colors_s": ("verify.check_colors",),
    "verify.full_report_s": ("verify.full_report",),
    "verify.check_all_pi_s": ("verify.check_all_pi",),
    "io.write_labeling_s.json": ("io.write_labeling.json",),
    "io.write_labeling_s.csv": ("io.write_labeling.csv",),
    "io.read_labeling_s.json": ("io.read_labeling.json",),
    "io.read_labeling_s.csv": ("io.read_labeling.csv",),
    "io.write_report_s": ("io.write_report", "io.report_to_dict", "io.write_oracle_result"),
    "io.render_svg_s": ("io.render_svg",),
    "oracle.min_max_colors_s": ("oracle.min_max_colors",),
}
LAYER_COUNTS = ("lattice.vertices", "lattice.cells", "labeling.vertices_labeled",
                "verify.cells_checked", "io.bytes_written", "io.bytes_read",
                "oracle.nodes", "oracle.decided", "oracle.failed")


@dataclass
class Pass:
    """One pass over the workload's invocations, and what the gate found.

    Times of CLI passes are scaled to reference speed (see REFERENCE).
    """

    wall_s: float
    call_s: list[float]
    verdicts: list[gate.Verdict] = field(default_factory=list)
    cells: int = 0  # cells checked by the verify invocations
    verify_s: float = 0.0  # their time


class Runner:
    """Runs children in one work directory and gates what they write."""

    def __init__(self, workdir: Path, hashes: dict[str, str]):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.hashes = hashes
        self.raw: list[tuple[float, float]] = []  # (reference, child) seconds as measured

    def child(self, args: list[str]) -> tuple[float, int | None, str | None]:
        """Run one child to completion: (wall seconds, exit code, crash text or None)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=self.workdir, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, None, f"killed after {CHILD_TIMEOUT_S} s"
        wall = time.perf_counter() - start
        stderr = proc.stderr.decode(errors="replace")
        if "Traceback (most recent call last)" in stderr:
            return wall, proc.returncode, stderr.strip().splitlines()[-1][:300]
        return wall, proc.returncode, None

    def scaled(self, args: list[str]) -> tuple[float, int | None, str | None]:
        """Run REFERENCE, then the child; the child's time is scaled to reference speed."""
        reference = self.child(REFERENCE)[0]
        seconds, code, crash = self.child(args)
        self.raw.append((reference, seconds))
        return seconds * REFERENCE_S / reference, code, crash

    def cli(self, call: Call) -> tuple[float, int | None, str | None]:
        (self.workdir / call.out).unlink(missing_ok=True)
        return self.scaled(["-m", "simplexlattice.cli", *call.argv])

    def judge(self, one_pass: Pass, calls: list[Call], outcomes) -> None:
        """Gate every invocation of a pass; re-verify oracle witnesses by the CLI."""
        for call, (seconds, code, crash) in zip(calls, outcomes):
            verdict = gate.check(call, code, crash, self.workdir, self.hashes)
            if call.argv[0] == "verify":
                one_pass.cells += verdict.cells
                one_pass.verify_s += seconds
            if verdict.witness is not None:
                seconds, code, crash = self.cli(verdict.witness)
                checked = gate.check(verdict.witness, code, crash, self.workdir, self.hashes)
                for problem in checked.problems:
                    verdict.reject(f"witness re-verify: {problem}")
                one_pass.cells += checked.cells
                one_pass.verify_s += seconds
            one_pass.verdicts.append(verdict)

    def cli_pass(self, calls: list[Call]) -> Pass:
        outcomes = [self.cli(call) for call in calls]
        call_s = [seconds for seconds, _, _ in outcomes]
        one_pass = Pass(sum(call_s), call_s)
        self.judge(one_pass, calls, outcomes)
        return one_pass

    def traced_pass(self, calls: list[Call], traced: bool) -> tuple[Pass, dict]:
        """One pass through cli.main in a fresh interpreter; see traced_pass.py."""
        for call in calls:
            (self.workdir / call.out).unlink(missing_ok=True)
        result_file = self.workdir / "pass-result.json"
        _, code, crash = self.child([str(BENCH / "traced_pass.py"), "plan.json",
                                     result_file.name, str(int(traced))])
        if code != 0 or crash is not None:
            raise RuntimeError(f"traced_pass.py failed (exit {code}): {crash}")
        result = json.loads(result_file.read_text())
        outcomes = [(0.0, exit_code, result["crashes"].get(str(i)))
                    for i, exit_code in enumerate(result["codes"])]
        one_pass = Pass(result["wall_s"], [])
        self.judge(one_pass, calls, outcomes)
        return one_pass, result


def percentile(samples: list[float], p: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(passes: list[Pass], setup: list[float], tail: int) -> tuple[dict[str, float], dict]:
    verdicts = [v for p in passes for v in p.verdicts]
    cmd_ms = [1000 * s for p in passes for s in p.call_s]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cmd_ms.p50": statistics.median(cmd_ms),
        "cmd_ms.tail": percentile(cmd_ms, tail),
        "cells_per_s": sum(p.cells for p in passes) / sum(p.verify_s for p in passes),
        "decided_share": sum(v.decided for v in verdicts) / len(verdicts),
        "ok_share": 1 - sum(v.failed for v in verdicts) / len(verdicts),
        # ru_maxrss is in KiB on Linux: the largest of all children waited for
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    samples = {"setup_s": setup, "pass_s": [p.wall_s for p in passes], "cmd_ms": cmd_ms,
               "cmd_ms.tail_percentile": tail,
               "cmd_ms.beyond_tail": sum(ms > metrics["cmd_ms.tail"] for ms in cmd_ms)}
    return metrics, samples


def pass_layers(result: dict) -> dict[str, float]:
    """Layer times of one traced pass: span totals, cli self time, derived."""
    spans = result["spans"]
    duration = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    total: Counter[str] = Counter()
    for (name, _, _, parent, _), seconds in zip(spans, duration):
        total[name] += seconds
        if parent is not None:
            children[parent] += seconds
    layers = {metric: sum((total[n] for n in names), 0.0) for metric, names in LAYER_SPANS.items()}
    layers["cli.self_s"] = sum((seconds - inner for (name, *_), seconds, inner
                                in zip(spans, duration, children) if name == "cli.main"), 0.0)
    # derived: a color check minus building the same cells (same k, q, pi)
    cells_s = {detail: s for (name, _, _, _, detail), s in zip(spans, duration)
               if name == "lattice.cells"}
    layers["verify.color_scan_s"] = sum((s - cells_s[detail] for (name, _, _, _, detail), s
                                         in zip(spans, duration) if name == "verify.check_colors"),
                                        0.0)
    budget_s = sum(s for (name, _, _, _, detail), s in zip(spans, duration)
                   if name == "oracle.min_max_colors" and detail.endswith("undecided"))
    layers["oracle.nodes_per_s"] = result["counts"].get("oracle.budget_nodes", 0) / budget_s \
        if budget_s else 0.0
    return layers


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    layers = [pass_layers(r) for r in traced]
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    metrics["cli.import_s"] = statistics.median(r["import_s"] for r in traced + untraced)
    for name in LAYER_COUNTS:
        metrics[name] = traced[0]["counts"].get(name, 0)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    return metrics


def count_problems(traced: list[dict], expected: dict[str, int]) -> list[str]:
    """Exact counts must repeat in every traced pass and match the closed forms."""
    problems = []
    first = traced[0]["counts"]
    for index, result in enumerate(traced[1:], start=2):
        if result["counts"] != first:
            problems.append(f"counts of traced pass {index} differ from pass 1: "
                            f"{result['counts']} != {first}")
    for name, want in expected.items():
        if first.get(name, 0) != want:
            problems.append(f"{name} = {first.get(name, 0)}, the closed form gives {want}")
    for result in traced:
        problems.extend(result["probe_errors"])
    return problems


def node_problems(passes: list[Pass], calls: list[Call]) -> list[str]:
    """Each oracle invocation must explore the same number of nodes every pass."""
    problems = []
    for index, call in enumerate(calls):
        nodes = {p.verdicts[index].nodes for p in passes} - {None}
        if len(nodes) > 1:
            problems.append(f"{call.out}: nodes_explored differs between passes: {sorted(nodes)}")
    return problems


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; never ask a parent repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(args, calls: list[Call], probes: list[dict],
            runner: Runner) -> tuple[list[Pass], dict[str, float], dict, list[str]]:
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        # the first import compiles bytecode once per checkout; users pay that once
        _, code, crash = runner.child(IMPORT_CLI)
        if code != 0 or crash is not None:
            raise RuntimeError(f"cannot import simplexlattice.cli (exit {code}): {crash}")
        passes, setup = [], []
        while not passes or time.perf_counter() < deadline:
            for _ in range(SETUP_SAMPLES_PER_PASS):
                setup.append(runner.scaled(IMPORT_CLI)[0])
            passes.append(runner.cli_pass(calls))
        metrics, record = end_to_end(passes, setup, workloads.TAIL_PERCENTILE[args.workload])
        return passes, metrics, {**record, "raw_s": runner.raw}, []

    (runner.workdir / "plan.json").write_text(json.dumps(
        {"calls": [list(call.argv) for call in calls], "probes": probes}))
    passes, results = [], {False: [], True: []}
    while not results[True] or time.perf_counter() < deadline:
        for traced in (False, True):
            one_pass, result = runner.traced_pass(calls, traced)
            passes.append(one_pass)
            results[traced].append(result)
    problems = count_problems(results[True], workloads.expected_counts(calls, probes))
    record = {"spans": [{"pass": index, "spans": r["spans"]}
                        for index, r in enumerate(results[True])],
              "counts": results[True][0]["counts"]}
    return passes, per_layer(results[True], results[False]), record, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "simplexlattice" / "cli.py").is_file():
        print(f"error: no simplexlattice sources under {SRC}; run this from a checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    hashes = json.loads((BENCH / "expected.json").read_text())["sha256"]
    calls, probes = workloads.plan(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    passes, metrics, record, count_errors = measure(args, calls, probes, Runner(workdir, hashes))
    count_errors += node_problems(passes, calls)
    verdicts = [v for p in passes for v in p.verdicts]
    correct = not count_errors and not any(v.wrong for v in verdicts)
    problems = count_errors + [f"{calls[index % len(calls)].out}: {problem}"
                               for index, verdict in enumerate(verdicts)
                               for problem in verdict.problems]
    for problem in dict.fromkeys(problems):
        print(f"problem: {problem}", file=sys.stderr)

    provenance = {"git_sha": git_sha(), "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
                  "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "passes": len(passes)}
    (WORK / f"{workdir.name}.json").write_text(json.dumps(
        {"provenance": provenance, "metrics": metrics, "problems": problems, **record}))
    shutil.rmtree(workdir)
    summary = {
        "correct": correct,
        "attempted": len(verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(provenance))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
