"""Exact ground truth by brute force, independent of the labeling rule.

The search answers: over ALL admissible labelings of an instance, what is
the smallest achievable maximum number of colors on a cell?  It exists so
the constructive rule has something to be measured against; the two code
paths share only geometry (the vertices and the cells as vertex ranks,
from the lattice's instance index), none of the rule's deficiency
arithmetic, and the witness a search returns is always re-checkable
through :mod:`simplexlattice.verify`.

The point is auditability, not speed.  The search is a deterministic
depth-first backtracking over vertices in rank order with ascending colors,
so repeated runs explore identical node sequences.  Its cost is the number
of nodes, not the number of vertices: some instances with hundreds or
thousands of vertices finish in a few thousand nodes (``(6, 6)``, 462
vertices; ``(3, 50)``, 1326 vertices), while ``(6, 4)`` with 126 vertices
spends the default budget of a million nodes without finishing.
"""

from __future__ import annotations

from .labeling import Labeling, _pi_descriptor
from .lattice import Params, Perm, Point, _instance_index, _Record, coordinate


class OracleResult(_Record):
    """Outcome of one exact search.

    When ``exhausted`` is True, ``min_max_colors`` is exact: the search
    proved no admissible labeling does better, and ``witness`` achieves it.
    Otherwise the value is only the best bound found before the node budget
    ran out.
    """

    _fields = ("params", "edge_rule", "min_max_colors", "witness", "nodes_explored",
               "exhausted")

    def __init__(self, params: Params, edge_rule: str, min_max_colors: int,
                 witness: Labeling | None, nodes_explored: int, exhausted: bool) -> None:
        self.params = params
        self.edge_rule = edge_rule
        self.min_max_colors = min_max_colors
        self.witness = witness
        self.nodes_explored = nodes_explored
        self.exhausted = exhausted


def admissible_colors(v: Point, params: Params) -> frozenset[int]:
    """Colors ``c`` with ``v_c > v_{c-1}``; nonempty whenever ``q >= 1``
    because the virtual coordinates rise from 0 to q overall."""
    return frozenset(
        c for c in range(1, params.k + 1)
        if coordinate(v, c, params) > coordinate(v, c - 1, params)
    )


def _search(domains, incidence, num_edges, threshold, node_budget):
    """First admissible assignment with every edge at <= threshold colors.

    Depth-first over vertices in rank order, colors ascending, with an
    explicit stack so that depth is not bounded by the interpreter's
    recursion limit.  Returns (assignment or None, nodes used, completed
    flag); completed is False when the node budget ran out before the
    search finished.
    """
    n = len(domains)
    if n == 0:
        return [], 0, True
    assignment = [0] * n
    edge_sets: list[set[int]] = [set() for _ in range(num_edges)]
    colors_left: list = [None] * n  # at each depth, the colors not yet tried
    entered_at: list = [None] * n  # edges the color at each depth entered
    nodes = 0
    i = 0
    colors, edges = iter(domains[0]), incidence[0]
    while True:
        for c in colors:
            if nodes >= node_budget:
                return None, nodes, False
            nodes += 1
            entered = []
            for e in edges:
                present = edge_sets[e]
                if c in present:
                    continue
                if len(present) >= threshold:
                    break
                present.add(c)
                entered.append(e)
            else:
                break  # feasible: descend
            for e in entered:
                edge_sets[e].remove(c)
        else:
            # out of colors at depth i: take back the color one level up and
            # resume that level's scan where it stopped
            i -= 1
            if i < 0:
                return None, nodes, True
            c, colors, edges = assignment[i], colors_left[i], incidence[i]
            for e in entered_at[i]:
                edge_sets[e].remove(c)
            continue
        assignment[i], colors_left[i], entered_at[i] = c, colors, entered
        i += 1
        if i == n:
            return list(assignment), nodes, True
        colors, edges = iter(domains[i]), incidence[i]


def min_max_colors(params: Params, pi: Perm | None = None,
                   budget: int = 1_000_000) -> OracleResult:
    """Exact minimum of the per-cell color count over admissible labelings.

    Strategy: threshold k is feasible outright (a cell has only k vertices),
    then re-search at threshold - 1 until infeasible; the last feasible
    threshold is the exact answer.  This is slower than branch and bound but
    each stage is a plain yes/no search that is easy to audit.

    The budget caps color-assignment attempts across all stages.  On
    exhaustion the result carries the best bound found so far and
    ``exhausted=False``; no exception escapes.
    """
    if params.q < 1:
        raise ValueError("oracle needs q >= 1 (no edges otherwise)")
    if budget < 0:
        raise ValueError("budget must be nonnegative")

    index = _instance_index(params)
    cells = index.cells(pi)
    incidence: list[list[int]] = [[] for _ in index.vertices]
    for e_index, cell in enumerate(cells):
        for r in cell:
            incidence[r].append(e_index)
    domains = [sorted(admissible_colors(v, params)) for v in index.vertices]

    nodes_total = 0
    best = params.k  # k-uniform cells never exceed k colors
    witness_colors = None
    exhausted = False

    threshold = params.k
    while threshold >= 1:
        solution, nodes, completed = _search(
            domains, incidence, len(cells), threshold, budget - nodes_total
        )
        nodes_total += nodes
        if not completed:
            break
        if solution is None:
            exhausted = True  # infeasible here, so the previous level is exact
            break
        best = threshold
        witness_colors = solution
        threshold -= 1
    else:
        exhausted = True  # feasible all the way down to one color

    witness = (
        Labeling(params, tuple(witness_colors), "oracle-witness")
        if witness_colors is not None
        else None
    )
    return OracleResult(
        params=params,
        edge_rule=_pi_descriptor(pi),
        min_max_colors=best,
        witness=witness,
        nodes_explored=nodes_total,
        exhausted=exhausted,
    )
