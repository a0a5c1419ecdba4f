"""The CLI invocations of one pass of each workload, made from the seed.

Nothing here imports simplexlattice: the expected counts are closed forms,
so they check the program rather than repeat it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, factorial

WORKLOADS = ("single-pi", "all-pi", "oracle")

# single-pi: the cold once-per-process path, every io writer and reader
SINGLE_PI = ((8, 8), (6, 10), (3, 50))
RENDER = (3, 50)
# all-pi: the same layers reused once per permutation, io nearly idle
ALL_PI = ((6, 8), (5, 10), (4, 30))
# oracle: three instances the seed certifies, two that hit the default
# budget, and (3, 50), which crashes with RecursionError at the seed and
# stays in the workload so that the defect shows
ORACLE = ((5, 3), (6, 6), (3, 40), (6, 4), (7, 5), (3, 50))
ORACLE_EXACT = {(5, 3): 3, (6, 6): 2, (3, 40): 2}
ORACLE_BUDGET = 1_000_000  # the CLI default

# cmd_ms.tail reads a percentile that keeps at least ten of a run's
# invocation times beyond it at the default run length (about 95, 42 and 24
# invocations): the highest in steps of 5, except on all-pi, where p60 keeps
# just ten and sits where two commands' times meet, so it moved by 12%
# between runs against 7% for p55.  Fixed per workload so that runs compare.
TAIL_PERCENTILE = {"single-pi": 85, "oracle": 75, "all-pi": 55}


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the output file it writes."""

    kind: str  # label, report, all-pi, svg, oracle, or witness for a re-verify
    k: int
    q: int
    argv: tuple[str, ...]
    out: str
    pi: tuple[int, ...] | None = None  # the cell set a report covers
    labels: str | None = None  # the labeling file a verify reads
    threshold: int = 2  # the colors per cell a report allows


def num_vertices(k: int, q: int) -> int:
    return comb(q + k - 1, k - 1)


def inverse_descents(pi: tuple[int, ...]) -> int:
    """How many i have i+1 before i in ``pi``; each forbids a tie v_i = v_{i+1}."""
    position = {image: pos for pos, image in enumerate(pi)}
    return sum(position[i] > position[i + 1] for i in range(1, len(pi)))


def num_cells(k: int, q: int, pi: tuple[int, ...] | None) -> int:
    """Cells of the pi-subdivision: base points of V_{k,q-1} strictly rising
    at each inverse descent of pi, a binomial after removing those steps."""
    n = q - 1 - (0 if pi is None else inverse_descents(pi))
    return comb(n + k - 1, k - 1) if n >= 0 else 0


def one_descent_perms(k: int) -> list[tuple[int, ...]]:
    """Permutations with exactly one inverse descent.  All give the same
    cell count, so the seed changes which pi is checked but not how much
    work it takes."""
    return [pi for pi in itertools.permutations(range(1, k)) if inverse_descents(pi) == 1]


def _tag(k: int, q: int) -> str:
    return f"k{k}q{q}"


def _instance(k: int, q: int) -> tuple[str, ...]:
    return ("--k", str(k), "--q", str(q))


def single_pi_calls(k: int, q: int, pi: tuple[int, ...]) -> list[Call]:
    tag, inst = _tag(k, q), _instance(k, q)
    image = ",".join(map(str, pi))
    pi_out = f"{tag}.verify-pi{image.replace(',', '_')}.json"
    return [
        Call("label", k, q, ("label", *inst, "--out", f"{tag}.label.json"), f"{tag}.label.json"),
        Call("label", k, q, ("label", *inst, "--format", "csv", "--out", f"{tag}.label.csv"),
             f"{tag}.label.csv"),
        Call("report", k, q, ("verify", *inst, "--labels", f"{tag}.label.json",
                              "--out", f"{tag}.verify-json.json"),
             f"{tag}.verify-json.json", labels=f"{tag}.label.json"),
        Call("report", k, q, ("verify", *inst, "--labels", f"{tag}.label.csv",
                              "--out", f"{tag}.verify-csv.json"),
             f"{tag}.verify-csv.json", labels=f"{tag}.label.csv"),
        Call("report", k, q, ("verify", *inst, "--out", f"{tag}.verify-id.json"),
             f"{tag}.verify-id.json"),
        Call("report", k, q, ("verify", *inst, "--pi", image, "--out", pi_out), pi_out, pi=pi),
    ]


def render_call(k: int, q: int) -> Call:
    out = f"{_tag(k, q)}.render.svg"
    return Call("svg", k, q, ("render", *_instance(k, q), "--out", out), out)


def all_pi_call(k: int, q: int) -> Call:
    out = f"{_tag(k, q)}.all-pi.json"
    return Call("all-pi", k, q, ("verify", *_instance(k, q), "--all-pi", "--out", out), out)


def oracle_call(k: int, q: int) -> Call:
    out = f"{_tag(k, q)}.oracle.json"
    return Call("oracle", k, q, ("oracle", *_instance(k, q), "--out", out), out)


def witness_call(k: int, q: int, threshold: int) -> Call:
    """The untimed re-verification of an oracle witness."""
    tag = _tag(k, q)
    return Call("witness", k, q,
                ("verify", *_instance(k, q), "--labels", f"{tag}.witness.json",
                 "--threshold", str(threshold), "--out", f"{tag}.witness-report.json"),
                f"{tag}.witness-report.json", labels=f"{tag}.witness.json", threshold=threshold)


def plan(workload: str, seed: int) -> tuple[list[Call], list[dict]]:
    """The pass's invocations in order, and the probes the traced run adds.

    The seed orders the instances and, on single-pi, picks each pi.  A probe
    names an instance, the cell sets to build (None is the identity rule),
    whether to run the Sperner and color checks on them, and whether to run
    check_all_pi.
    """
    rng = random.Random(seed)
    if workload == "single-pi":
        blocks = []
        probes = []
        for k, q in SINGLE_PI:
            pi = rng.choice(one_descent_perms(k))
            blocks.append(single_pi_calls(k, q, pi))
            probes.append({"k": k, "q": q, "pis": [None, list(pi)], "checks": True,
                           "all_pi": False})
        blocks.append([render_call(*RENDER)])
        rng.shuffle(blocks)
        return [call for block in blocks for call in block], probes
    if workload == "all-pi":
        instances = list(ALL_PI)
        rng.shuffle(instances)
        probes = [{"k": k, "q": q, "pis": [list(pi) for pi in itertools.permutations(range(1, k))],
                   "checks": True, "all_pi": True} for k, q in instances]
        return [all_pi_call(k, q) for k, q in instances], probes
    if workload == "oracle":
        instances = list(ORACLE)
        rng.shuffle(instances)
        # labels are undefined for q < k, so only the lattice is probed here
        probes = [{"k": k, "q": q, "pis": [None], "checks": False, "all_pi": False}
                  for k, q in instances]
        return [oracle_call(k, q) for k, q in instances], probes
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def expected_counts(calls: list[Call], probes: list[dict]) -> dict[str, int]:
    """Closed-form counts a traced pass must reproduce exactly."""
    counts = {"lattice.vertices": 0, "lattice.cells": 0,
              "labeling.vertices_labeled": 0, "verify.cells_checked": 0}
    for probe in probes:
        k, q = probe["k"], probe["q"]
        counts["lattice.vertices"] += num_vertices(k, q)
        counts["lattice.cells"] += sum(
            num_cells(k, q, None if pi is None else tuple(pi)) for pi in probe["pis"])
    for call in calls:
        n = num_vertices(call.k, call.q)
        if call.kind in ("label", "svg"):
            counts["labeling.vertices_labeled"] += n
        elif call.kind == "report":
            counts["verify.cells_checked"] += num_cells(call.k, call.q, call.pi)
            if call.labels is None:
                counts["labeling.vertices_labeled"] += n
        elif call.kind == "all-pi":
            counts["verify.cells_checked"] += call.q ** (call.k - 1)
            counts["labeling.vertices_labeled"] += factorial(call.k - 1) * n
    return counts
