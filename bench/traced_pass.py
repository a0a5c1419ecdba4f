"""One pass of a workload inside one fresh interpreter, for the traced run.

    python bench/traced_pass.py PLAN.json RESULT.json TRACED

run.py starts it with the work directory as cwd and the repository's src
first on PYTHONPATH.  It times the import of simplexlattice.cli, then calls
cli.main(argv) for each invocation in the plan, as the console script
would.  With TRACED=1, the names cli.py calls into the other modules are
first replaced by wrappers that record a span (name, start, end, parent,
detail) and counts around each call; after the pass, probes call the
public lattice and verify functions directly on the workload's instances.
The package itself is not changed.  Spans stay in memory and are written
with the result when the pass ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, detail]
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def call(self, name: str, fn, *args, detail: str = ""):
        index = len(self.spans)
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, detail]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()


def instrument(tracer: Tracer) -> None:
    """Wrap every call cli.py makes into labeling, verify, io and oracle."""
    from simplexlattice import cli, lattice

    t, counts = tracer, tracer.counts
    label_all, full_report = cli.label_all, cli.full_report
    write_labeling, read_labeling = cli.write_labeling, cli.read_labeling
    write_report, report_to_dict = cli.write_report, cli.report_to_dict
    write_oracle_result, render_svg = cli.write_oracle_result, cli.render_svg
    min_max_colors, enumerate_facets = cli.min_max_colors, lattice.enumerate_facets

    def traced_label_all(params, pi=None, *rest):
        rule = "identity" if pi is None else "pi"
        labeling = t.call(f"labeling.label_all.{rule}", label_all, params, pi, *rest)
        counts["labeling.vertices_labeled"] += len(labeling.colors)
        return labeling

    def traced_full_report(*args):
        report = t.call("verify.full_report", full_report, *args)
        counts["verify.cells_checked"] += report.edges_checked
        return report

    def written(name, fn, *args):
        data = t.call(name, fn, *args)
        counts["io.bytes_written"] += len(data)
        return data

    def traced_write_labeling(labeling, fmt="json"):
        return written(f"io.write_labeling.{fmt}", write_labeling, labeling, fmt)

    def traced_read_labeling(data):
        fmt = "json" if data.lstrip()[:1] == b"{" else "csv"
        counts["io.bytes_read"] += len(data)
        return t.call(f"io.read_labeling.{fmt}", read_labeling, data)

    def traced_min_max_colors(params, budget):
        span = len(t.spans)
        try:
            result = t.call("oracle.min_max_colors", min_max_colors, params, None, budget,
                            detail=f"{params.k},{params.q}")
        except Exception:
            counts["oracle.failed"] += 1
            raise
        counts["oracle.nodes"] += result.nodes_explored
        if result.exhausted:
            counts["oracle.decided"] += 1
        else:  # budget-bound: these give the search's node rate
            counts["oracle.budget_nodes"] += result.nodes_explored
            t.spans[span][4] += " undecided"
        return result

    def traced_report_to_dict(report):
        return t.call("io.report_to_dict", report_to_dict, report)

    def traced_enumerate_facets(params):
        return t.call("lattice.enumerate_facets", enumerate_facets, params)

    cli.label_all = traced_label_all
    cli.full_report = traced_full_report
    cli.write_labeling = traced_write_labeling
    cli.read_labeling = traced_read_labeling
    cli.write_report = lambda report: written("io.write_report", write_report, report)
    cli.report_to_dict = traced_report_to_dict
    cli.write_oracle_result = lambda result: written("io.write_oracle_result",
                                                     write_oracle_result, result)
    cli.render_svg = lambda labeling: written("io.render_svg", render_svg, labeling)
    cli.min_max_colors = traced_min_max_colors
    # render_svg imports enumerate_facets from the lattice module at call time
    lattice.enumerate_facets = traced_enumerate_facets


def probe(tracer: Tracer, probes: list[dict], errors: list[str]) -> None:
    """Time the lattice and verify layers on the pass's own instances."""
    from simplexlattice import (
        Params, check_all_pi, check_colors, check_sperner, enumerate_hyperedges,
        enumerate_vertices, is_consistent, label_all, pi_hyperedge,
    )

    def cells(params, pi):
        # the two routes verify takes to build one subdivision
        if pi is None:
            return enumerate_hyperedges(params)
        return [pi_hyperedge(v, pi, params) for v in enumerate_vertices(params.base())
                if is_consistent(pi, v)]

    t, counts = tracer, tracer.counts
    for spec in probes:
        params = Params(spec["k"], spec["q"])
        where = f"{params.k},{params.q}"
        vertices = t.call("lattice.enumerate_vertices", enumerate_vertices, params, detail=where)
        counts["lattice.vertices"] += len(vertices)
        for pi in spec["pis"]:
            pi = None if pi is None else tuple(pi)
            detail = f"{where} {pi}"
            counts["lattice.cells"] += len(t.call("lattice.cells", cells, params, pi,
                                                  detail=detail))
            if not spec["checks"]:
                continue
            labeling = label_all(params, pi)
            sperner = t.call("verify.check_sperner", check_sperner, labeling, detail=detail)
            colors = t.call("verify.check_colors", check_colors, labeling, pi, 2, detail=detail)
            if not sperner.sperner_ok or colors.max_colors_per_edge != 2:
                errors.append(f"probe {detail}: check_sperner or check_colors failed")
        if spec["all_pi"]:
            reports = t.call("verify.check_all_pi", check_all_pi, params, detail=where)
            if not all(r.passed and r.max_colors_per_edge == 2 for r in reports):
                errors.append(f"probe {where}: check_all_pi failed")


def main() -> int:
    plan_path, result_path, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(plan_path) as f:
        plan = json.load(f)
    start = time.perf_counter()
    from simplexlattice import cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    if traced:
        instrument(tracer)
    codes: list[int | None] = []
    crashes: dict[int, str] = {}
    start = time.perf_counter()
    for index, argv in enumerate(plan["calls"]):
        try:
            if traced:
                codes.append(tracer.call("cli.main", cli.main, argv, detail=" ".join(argv)))
            else:
                codes.append(cli.main(argv))
        except Exception as exc:  # what a CLI user would see as a traceback
            codes.append(None)
            crashes[index] = f"{type(exc).__name__}: {exc}"[:300]
    wall_s = time.perf_counter() - start

    probe_errors: list[str] = []
    if traced:
        probe(tracer, plan["probes"], probe_errors)
    with open(result_path, "w") as f:
        json.dump({"import_s": import_s, "wall_s": wall_s, "codes": codes, "crashes": crashes,
                   "spans": tracer.spans, "counts": tracer.counts, "probe_errors": probe_errors},
                  f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
