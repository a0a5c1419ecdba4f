"""Exact ground truth by brute force, independent of the labeling rule.

The search answers: over ALL admissible labelings of an instance, what is
the smallest achievable maximum number of colors on a cell?  It exists so
the constructive rule has something to be measured against; the two code
paths share only geometry (the vertices, their tie table and the cells as
vertex ranks, from the lattice's instance index), none of the rule's
deficiency arithmetic, and the witness a search returns is always
re-checkable through :mod:`simplexlattice.verify`.

The point is auditability, not speed.  The search is a deterministic
depth-first backtracking over vertices in rank order with ascending colors,
so repeated runs explore identical node sequences.  A node is one color
tried at one vertex, whether it fits or is rejected; the budget counts
nodes.  Its cost is the number of nodes, not the number of vertices: some
instances with hundreds or thousands of vertices finish in a few thousand
nodes (``(6, 6)``, 462 vertices; ``(3, 50)``, 1326 vertices), while
``(6, 4)`` with 126 vertices spends the default budget of a million nodes
without finishing.

Each threshold stage is one :func:`_search` call returning ``(assignment or
None, nodes, completed)``: no assignment with ``completed`` true makes the
previous threshold exact, and ``completed`` false leaves a bound.  The
search keeps each cell's colors as a bit set, deciding all of a vertex's
colors with one AND, and counts the nodes that trying them one by one
would have taken.  The auditable color-by-color loop over Python sets that
it replays node for node is the reference in ``tests/test_oracle.py``.
"""

from __future__ import annotations

from .labeling import Labeling, _pi_descriptor
from .lattice import Params, Perm, _instance_index, _Record


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


def _search_tables(params: Params, pi: Perm | None):
    """What every threshold stage of the search reads, built once per instance.

    ``domains[r]`` holds vertex ``r``'s admissible colors as a bit set: bit
    ``c`` where its tie bit ``c - 1`` is clear.  A cell lists its vertices
    in rising rank, so it is empty when its first vertex is colored and
    nothing reads it after its last: ``reads[r]`` holds the cells of ``r``
    that ``r`` does not start, ``writes[r]`` those that ``r`` does not end.
    """
    index = _instance_index(params)
    cells = index.cells(pi)
    reads: list[list[int]] = [[] for _ in index.vertices]
    writes: list[list[int]] = [[] for _ in index.vertices]
    for e, cell in enumerate(cells):
        for r in cell[1:]:
            reads[r].append(e)
        for r in cell[:-1]:
            writes[r].append(e)
    domains = [(2 << params.k) - 2] * len(index.vertices)  # bits 1..k
    for shift, plane in zip(range(1, params.k + 1, 8), index._ties):
        domains = [d & ~(t << shift) for d, t in zip(domains, plane)]
    return domains, reads, writes, len(cells)


def _search(domains, reads, writes, num_cells, threshold, node_budget):
    """First admissible assignment with every cell at <= threshold colors.

    Depth-first over vertices in rank order, colors ascending, on an
    explicit stack so that depth is not bounded by the interpreter's
    recursion limit.  A node is one color tried at one vertex, whether it
    fits or not.  Returns (assignment or None, nodes used, completed flag);
    completed is False when the node budget ran out before the search
    finished.

    Each cell's colors are one bit set, and ``limit[e]`` is that set once
    cell ``e`` holds ``threshold`` colors (-1 before): a color fits iff
    every cell the vertex reads has room or holds it already.  Those cells
    do not change while one depth's colors are tried, so one AND on entering
    the depth leaves exactly the colors that trying each in turn would
    accept.  The lowest is taken, and each untried color below it counts as
    the node that would have been tried and rejected first; a depth with
    none left counts all its untried colors and backtracks.  A step that
    would pass the budget stops the search at the budget, where trying one
    color at a time stops too.  That color-by-color loop, which this
    replays node for node, is the reference in ``tests/test_oracle.py``.
    """
    n = len(domains)
    colors = [0] * num_cells
    limit = [-1] * num_cells
    # Per depth: the allowed colors above the one taken, that color, and how
    # many cells `entered` held before it: one stack of the cells each color
    # entered, deepest last, so the search makes no container per depth.
    rest, chosen, start, entered = [0] * n, [0] * n, [0] * n, []
    nodes = 0
    i = 0
    untried = allowed = domains[0]
    while True:
        if allowed:
            c = allowed & -allowed
            nodes += (untried & (c - 1)).bit_count() + 1
            if nodes > node_budget:
                return None, node_budget, False
            rest[i], chosen[i], start[i] = allowed & (allowed - 1), c, len(entered)
            for e in writes[i]:
                s = colors[e]
                if not s & c:
                    colors[e] = s = s | c
                    entered.append(e)
                    if s.bit_count() == threshold:
                        limit[e] = s
            i += 1
            if i == n:
                return [c.bit_length() - 1 for c in chosen], nodes, True
            untried = allowed = domains[i]
            for e in reads[i]:
                allowed &= limit[e]
        else:
            # out of colors at depth i: take back the color one level up
            nodes += untried.bit_count()
            if nodes > node_budget:
                return None, node_budget, False
            i -= 1
            if i < 0:
                return None, nodes, True
            allowed, c = rest[i], chosen[i]
            untried = domains[i] & -(c << 1)
            while len(entered) > start[i]:
                e = entered.pop()
                colors[e] ^= c
                limit[e] = -1

def min_max_colors(params: Params, pi: Perm | None = None,
                   budget: int = 1_000_000) -> OracleResult:
    """Exact minimum of the per-cell color count over admissible labelings.

    Strategy: threshold k is feasible outright (a cell has only k vertices);
    each stage re-searches one threshold lower with one plain yes/no
    :func:`_search` call, which returns ``(assignment or None, nodes,
    completed)``.  The first stage with no assignment ends the descent: its
    ``completed`` true makes the previous threshold exact (``exhausted``),
    false leaves a bound.  The budget caps color-assignment attempts across
    all stages; no exception escapes when it runs out.
    """
    if params.q < 1:
        raise ValueError("oracle needs q >= 1 (no edges otherwise)")
    if type(budget) is not int or budget < 0:  # exact: bool subclasses int
        raise ValueError(f"budget must be an int >= 0, got {budget!r}")

    tables = _search_tables(params, pi)
    nodes_total = 0
    best, witness_colors = params.k, None  # k-uniform cells never exceed k colors
    for threshold in range(params.k, 0, -1):
        solution, nodes, exhausted = _search(*tables, threshold, budget - nodes_total)
        nodes_total += nodes
        if solution is None:
            break
        best, witness_colors = threshold, solution

    witness = (None if witness_colors is None
               else Labeling(params, tuple(witness_colors), "oracle-witness"))
    return OracleResult(
        params=params,
        edge_rule=_pi_descriptor(pi),
        min_max_colors=best,
        witness=witness,
        nodes_explored=nodes_total,
        exhausted=exhausted,
    )
