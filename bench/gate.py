"""Correctness gate for CLI outputs that shares no code with simplexlattice.

Each check reads one output file and recomputes from the instance alone
what it must say: |V| = C(q+k-1, k-1) rows in lexicographic order, every
color admissible (v_c > v_{c-1} with v_0 = 0 and v_k = q), the cell count
of each subdivision, two colors per cell at most, and the SVG's shape
counts.  Label files, reports and the SVG must also match, by sha256, the
bytes recorded from the seed commit in expected.json.  Oracle results are
checked by value instead, since a better search may change its node count
and witness.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

from workloads import (
    ORACLE_BUDGET,
    ORACLE_EXACT,
    Call,
    num_cells,
    num_vertices,
    witness_call,
)

HASHED = ("label", "report", "all-pi", "svg")


@dataclass
class Verdict:
    """What the gate found for one invocation.

    Any problem makes the invocation failed.  ``wrong`` marks the problems
    where the program delivered an output and it is incorrect, as opposed
    to delivering none (a traceback, a bad exit code, no parseable file).
    """

    code: int | None = None
    problems: list[str] = field(default_factory=list)
    wrong: bool = False
    cells: int = 0  # edges_checked summed over the reports in the output
    nodes: int | None = None  # an oracle result's nodes_explored
    witness: Call | None = None  # oracle witness still to re-verify

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def decided(self) -> bool:
        """Exit 0 with a checked result: a passed report or a certified value."""
        return self.code == 0 and not self.failed

    def reject(self, message: str) -> None:
        self.wrong = True
        self.problems.append(message)


def check(call: Call, code: int | None, crash: str | None, workdir: Path,
          hashes: dict[str, str]) -> Verdict:
    """Judge one invocation from its exit code, crash text and output file.

    For an oracle result with a witness, this writes the witness to a
    labeling file in ``workdir`` and names the re-verify in ``witness``.
    """
    verdict = Verdict(code)
    if crash is not None:
        verdict.problems.append(f"traceback: {crash}")
        return verdict
    if code not in (0, 1, 2):
        verdict.problems.append(f"exit code {code} is outside the 0/1/2 contract")
        return verdict
    if code == 2:
        verdict.problems.append("exit 2: the CLI rejected the invocation")
        return verdict
    try:
        data = (workdir / call.out).read_bytes()
    except OSError:
        verdict.problems.append(f"exit {code} without writing {call.out}")
        return verdict
    try:
        if call.kind == "label":
            _check_label(call, data, code, verdict)
        elif call.kind in ("report", "witness"):
            _check_report(call, json.loads(data), code, verdict)
        elif call.kind == "all-pi":
            _check_all_pi(call, json.loads(data), code, verdict)
        elif call.kind == "svg":
            _check_svg(call, data.decode(), code, verdict)
        else:
            _check_oracle(call, json.loads(data), code, workdir, verdict)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        verdict.problems.append(f"unparseable {call.out}: {type(exc).__name__}: {exc}")
        return verdict
    if call.kind in HASHED and hashes.get(call.out) != hashlib.sha256(data).hexdigest():
        verdict.reject(f"{call.out} differs from the bytes recorded at the seed commit")
    return verdict


def _expect(ok: bool, verdict: Verdict, message: str) -> None:
    if not ok:
        verdict.reject(message)


def _check_rows(k: int, q: int, rows: list[tuple[tuple[int, ...], int]], verdict: Verdict,
                where: str) -> None:
    vertices = list(itertools.combinations_with_replacement(range(q + 1), k - 1))
    if len(rows) != num_vertices(k, q):
        verdict.reject(f"{where}: {len(rows)} rows, |V| = {num_vertices(k, q)}")
        return
    for (v, c), want in zip(rows, vertices):
        if v != want:
            verdict.reject(f"{where}: row {v} where {want} belongs")
            return
        point = (0, *v, q)
        if not (1 <= c <= k and point[c] > point[c - 1]):
            verdict.reject(f"{where}: color {c} at {v} is not admissible")
            return


def _labeling_rows(data: dict) -> list[tuple[tuple[int, ...], int]]:
    return [(tuple(row["v"]), row["color"]) for row in data["labels"]]


def _check_label(call: Call, data: bytes, code: int, verdict: Verdict) -> None:
    text = data.decode()
    if call.out.endswith(".json"):
        parsed = json.loads(text)
        header = {key: str(parsed[key]) for key in ("k", "q", "rule")}
        rows = _labeling_rows(parsed)
    else:
        lines = text.splitlines()
        header = {}
        for line in lines:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
        body = [line for line in lines if line and not line.startswith("#")]
        want_columns = [f"v{i}" for i in range(1, call.k)] + ["color"]
        _expect(body[0].split(",") == want_columns, verdict, f"{call.out}: column row {body[0]!r}")
        rows = [(tuple(values[:-1]), values[-1])
                for values in ([int(x) for x in cells] for cells in csv.reader(body[1:]))]
    header = {key: header.get(key) for key in ("k", "q", "rule")}
    _expect(header == {"k": str(call.k), "q": str(call.q), "rule": "identity"}, verdict,
            f"{call.out}: header {header}")
    _expect(code == 0, verdict, f"{call.out}: exit {code}")
    _check_rows(call.k, call.q, rows, verdict, call.out)


def _check_report(call: Call, report: dict, code: int, verdict: Verdict,
                  where: str | None = None) -> None:
    where = where or call.out
    threshold = call.threshold
    cells = num_cells(call.k, call.q, call.pi)
    _expect((report["k"], report["q"]) == (call.k, call.q), verdict, f"{where}: wrong instance")
    _expect(report["threshold"] == threshold, verdict, f"{where}: threshold {report['threshold']}")
    _expect(report["edges_checked"] == cells, verdict,
            f"{where}: {report['edges_checked']} cells checked, the subdivision has {cells}")
    _expect(report["sperner_ok"] is True and report["sperner_violation_count"] == 0, verdict,
            f"{where}: admissibility failed")
    # every instance here has q > k, where the rule guarantees exactly 2;
    # an oracle witness need only stay within its own threshold
    limit_ok = (report["max_colors_per_edge"] == 2 if call.kind == "report"
                else report["max_colors_per_edge"] <= threshold)
    _expect(limit_ok, verdict, f"{where}: {report['max_colors_per_edge']} colors on a cell")
    _expect(report["passed"] is True and code == 0, verdict, f"{where}: not passed (exit {code})")
    verdict.cells += report["edges_checked"]


def _check_all_pi(call: Call, reports: list, code: int, verdict: Verdict) -> None:
    perms = list(itertools.permutations(range(1, call.k)))
    _expect(len(reports) == factorial(call.k - 1), verdict,
            f"{call.out}: {len(reports)} reports for {len(perms)} permutations")
    for report, pi in zip(reports, perms):
        rule = "pi:" + ",".join(map(str, pi))
        _expect(report["edge_rule"] == rule, verdict,
                f"{call.out}: {report['edge_rule']} out of order")
        _check_report(Call("report", call.k, call.q, call.argv, call.out, pi=pi), report, code,
                      verdict, f"{call.out} {rule}")
    _expect(verdict.cells == call.q ** (call.k - 1), verdict,
            f"{call.out}: {verdict.cells} cells over all pi, q^(k-1) = {call.q ** (call.k - 1)}")


def _check_svg(call: Call, text: str, code: int, verdict: Verdict) -> None:
    _expect(text.count("<polygon ") == call.q ** 2, verdict, f"{call.out}: polygon count")
    _expect(text.count("<circle ") == num_vertices(call.k, call.q), verdict,
            f"{call.out}: circle count")
    _expect(code == 0, verdict, f"{call.out}: exit {code}")


def _check_oracle(call: Call, result: dict, code: int, workdir: Path, verdict: Verdict) -> None:
    where = call.out
    _expect((result["k"], result["q"]) == (call.k, call.q), verdict, f"{where}: wrong instance")
    exhausted = result["exhausted"]
    # exit 0 certifies the value; exit 1 with a result is a budget stop, undecided
    _expect(code == (0 if exhausted else 1), verdict,
            f"{where}: exit {code}, exhausted={exhausted}")
    _expect(0 < result["nodes_explored"] <= ORACLE_BUDGET, verdict,
            f"{where}: {result['nodes_explored']} nodes for a budget of {ORACLE_BUDGET}")
    verdict.nodes = result["nodes_explored"]
    value = result["min_max_colors"]
    if exhausted:
        want = ORACLE_EXACT.get((call.k, call.q))
        _expect(want is None or value == want, verdict,
                f"{where}: certified {value}, the exact value is {want}")
        _expect(result["witness"] is not None, verdict, f"{where}: certified without a witness")
    witness = result["witness"]
    if witness is None:
        return
    _check_rows(call.k, call.q, _labeling_rows(witness), verdict, f"{where} witness")
    again = witness_call(call.k, call.q, value)
    (workdir / again.labels).write_text(json.dumps(witness))
    verdict.witness = again
