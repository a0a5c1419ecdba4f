#!/usr/bin/env python3
"""
Exhaustive verification of the two-color bound
==============================================

For q > k the deficiency labeling is total, Sperner-admissible, and no
cell of H_{k,q} sees more than two colors; the permutation variant does
the same on each subdivision H^pi_{k,q}.  Nothing here is sampled: every
vertex and every cell in range is checked.
"""

from simplexlattice import (Params, check_all_pi, enumerate_vertices, full_report,
                            is_consistent, is_lattice_point, label_all, label_pi)

print("plain rule, identity cells:")
print(f"{'k':>2} {'q':>2} {'cells':>6} {'histogram':>16} {'max':>4}  verdict")
for k in (3, 4, 5, 6):
    for q in range(k + 1, k + 7):
        report = full_report(label_all(Params(k, q)), None, 2)
        verdict = "ok" if report.passed else "VIOLATED"
        print(f"{k:>2} {q:>2} {report.edges_checked:>6} "
              f"{str(report.histogram):>16} {report.max_colors_per_edge:>4}  {verdict}")

print("\npermutation rule, per-subdivision cells:")
for k in (3, 4):
    q = k + 2
    reports = check_all_pi(Params(k, q), 2)
    all_ok = all(r.passed for r in reports)
    print(f"  k={k}, q={q}: {len(reports)} permutations, "
          f"all pass = {all_ok}")
    for r in reports:
        print(f"    {r.edge_rule:>10}: {r.edges_checked} cells, "
              f"histogram {r.histogram}")

print("\nthe probe at q = k (outside the guarantee) still comes out clean:")
for k in (3, 4):
    reports = check_all_pi(Params(k, k), 2)
    print(f"  k={k}, q={k}: all pass = {all(r.passed for r in reports)}")

print("\nbut threshold 1 is hopeless as soon as there are ties to break:")
report = full_report(label_all(Params(3, 4)), None, 1)
print(f"  k=3, q=4 at threshold 1: {len(report.violating_edges)} violating cells, "
      f"first is base {report.violating_edges[0][0]} "
      f"with colors {report.violating_edges[0][2]}")

# the non-cells: where pi breaks a tie v_1 = v_2 the wrong way, stepping the
# coordinates leaves the lattice, so no cell is based there (and the rule,
# like every per-point function, refuses a point off the lattice)
params, pi = Params(3, 4), (2, 1)
print(f"\nbases of V_(3,3) inconsistent with pi={pi}, stepped anyway:")
for v in enumerate_vertices(params.base()):
    if not is_consistent(pi, v):
        steps = [v]
        for i in reversed(pi):  # e_pi(k-1) first, as a cell steps
            steps.append(tuple(x + (j == i) for j, x in enumerate(steps[-1], 1)))
        off = next(u for u in steps if not is_lattice_point(u, params))
        print(f"  {v} -> {' -> '.join(map(str, steps[1:]))}: leaves the lattice at {off}")
try:
    label_pi((1, 0), pi, params)
except ValueError as exc:
    print(f"  label_pi((1, 0), {pi}, ...) raises ValueError: {exc}")
