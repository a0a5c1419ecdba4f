import itertools

import pytest

from simplexlattice import (
    Params,
    admissible_colors,
    check_sperner,
    compare_pi_readings,
    enumerate_hyperedges,
    enumerate_vertices,
    full_report,
    label,
    min_max_colors,
)
from simplexlattice.labeling import LabelUndefined
from simplexlattice.lattice import _instance_index, coordinate
from simplexlattice.oracle import _search, _search_tables


def brute_force_min_max(params):
    """Reference answer by sheer enumeration of every admissible labeling.

    Deliberately shares nothing with the backtracking search beyond the
    lattice enumeration; itertools.product does the walking.
    """
    vertices = enumerate_vertices(params)
    edges = [
        [vertices.index(u) for u in e.vertices]
        for e in enumerate_hyperedges(params)
    ]
    domains = [sorted(admissible_colors(v, params)) for v in vertices]
    best = params.k
    for colors in itertools.product(*domains):
        worst = max(len({colors[i] for i in edge}) for edge in edges)
        best = min(best, worst)
    return best


# The search as it was written before its state became bit sets, kept
# verbatim as the auditable spelling of the node sequence: one node per color
# tried, each checked against every cell of the vertex in turn.
def reference_search(domains, incidence, num_edges, threshold, node_budget):
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


def reference_tables(params, pi):
    """The cell incidence lists and sorted domains ``reference_search`` takes."""
    cells = _instance_index(params).cells(pi)
    incidence = [[] for _ in range(params.num_vertices)]
    for e_index, cell in enumerate(cells):
        for r in cell:
            incidence[r].append(e_index)
    domains = [sorted(admissible_colors(v, params)) for v in enumerate_vertices(params)]
    return domains, incidence, len(cells)


def reference_descent(params, budget):
    """(value, witness colors, nodes, exhausted) of the threshold descent
    over ``reference_search``: from threshold k down to the first stage with
    no assignment, whose completed flag says whether the value is exact."""
    tables = reference_tables(params, None)
    value, witness, nodes = params.k, None, 0
    threshold = params.k
    while threshold >= 1:
        assignment, used, completed = reference_search(*tables, threshold, budget - nodes)
        nodes += used
        if assignment is None:
            return value, witness, nodes, completed
        value, witness = threshold, tuple(assignment)
        threshold -= 1
    return value, witness, nodes, True


def three_pis(k):
    """The identity, the reversed image and a rotation of ``1..k-1``."""
    return [None, tuple(range(k - 1, 0, -1)), (*range(2, k), 1)]


def test_search_replays_the_reference_node_sequence():
    budgets = [*range(40), 997, 20_000]
    # every kind of stage: solved, proved infeasible, and out of budget
    for k, q in [(3, 1), (3, 2), (3, 3), (3, 8), (4, 1), (4, 2), (4, 3), (4, 4), (5, 1),
                 (5, 2), (5, 3), (5, 4), (6, 1), (6, 2), (6, 3), (7, 1), (7, 2), (7, 3)]:
        params = Params(k, q)
        for pi in three_pis(k):
            # reads and writes rest on each cell rising in rank
            assert all(list(cell) == sorted(set(cell))
                       for cell in _instance_index(params).cells(pi))
            reference, tables = reference_tables(params, pi), _search_tables(params, pi)
            for threshold in range(1, k + 1):
                for budget in budgets:
                    assert _search(*tables, threshold, budget) == \
                        reference_search(*reference, threshold, budget), \
                        (k, q, pi, threshold, budget)


def test_search_replays_the_reference_on_budget_bound_instances():
    for k, q in [(6, 4), (7, 5)]:
        params = Params(k, q)
        expected = reference_search(*reference_tables(params, None), 2, 50_000)
        assert expected[1:] == (50_000, False)
        assert _search(*_search_tables(params, None), 2, 50_000) == expected


def test_search_domains_match_admissible_colors_at_every_width():
    # the domains come from the index's tie table, ceil(k / 8) byte planes:
    # one for k <= 8, two at k = 9 and 10, three at k = 17; admissible_colors
    # reads the coordinates
    for k in [*range(3, 11), 17]:
        for q in range(1, k + 3 if k < 9 else 5 if k < 17 else 3):
            params = Params(k, q)
            ties = _instance_index(params)._ties
            assert type(ties) is tuple and len(ties) == -(-k // 8), params
            assert {type(plane) for plane in ties} == {bytes}, params
            want = [sum(1 << c for c in admissible_colors(v, params))
                    for v in enumerate_vertices(params)]
            for pi in (None, tuple(range(k - 1, 0, -1))):
                assert _search_tables(params, pi)[0] == want, (k, q, pi)


def test_admissible_colors_match_the_coordinate_definition():
    for params in [Params(3, 4), Params(4, 5), Params(6, 3), Params(8, 2)]:
        for v in enumerate_vertices(params):
            assert admissible_colors(v, params) == {
                c for c in range(1, params.k + 1)
                if coordinate(v, c, params) > coordinate(v, c - 1, params)
            }, (params, v)


def test_admissible_colors_examples():
    p = Params(3, 4)
    assert admissible_colors((0, 0), p) == {3}
    assert admissible_colors((4, 4), p) == {1}
    assert admissible_colors((0, 2), p) == {2, 3}
    assert admissible_colors((0, 0, 0), Params(4, 2)) == {4}


def test_admissible_colors_nonempty_and_contains_label():
    for p in [Params(3, 4), Params(4, 3), Params(5, 2)]:
        for v in enumerate_vertices(p):
            colors = admissible_colors(v, p)
            assert colors
            try:
                assert label(v, p) in colors
            except LabelUndefined:
                pass


def test_min_max_matches_brute_force():
    for k, q in [(3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2)]:
        p = Params(k, q)
        result = min_max_colors(p)
        assert result.exhausted
        assert result.min_max_colors == brute_force_min_max(p)


def test_min_max_examples():
    assert min_max_colors(Params(3, 2)).min_max_colors == 2
    assert min_max_colors(Params(3, 4)).min_max_colors == 2
    # q=1: the lone cell {(0,0),(0,1),(1,1)} has singleton admissible sets
    # {3},{2},{1}, so all three colors appear on it in every labeling
    assert min_max_colors(Params(3, 1)).min_max_colors == 3


def test_witness_reverifies_independently():
    for k, q in [(3, 1), (3, 2), (3, 4), (4, 2)]:
        result = min_max_colors(Params(k, q))
        assert result.exhausted and result.witness is not None
        assert result.witness.rule == "oracle-witness"
        assert check_sperner(result.witness).sperner_ok
        report = full_report(result.witness, None, result.min_max_colors)
        assert report.passed
        assert report.max_colors_per_edge == result.min_max_colors


def test_optimality_when_guaranteed():
    # q > k: a 2-color-per-cell labeling exists, so the exact value is <= 2
    result = min_max_colors(Params(3, 4))
    assert result.exhausted
    assert result.min_max_colors <= 2


def test_pi_edge_rule():
    result = min_max_colors(Params(3, 4), (2, 1))
    assert result.edge_rule == "pi:2,1"
    assert result.exhausted
    assert result.min_max_colors == 2
    report = full_report(result.witness, (2, 1), result.min_max_colors)
    assert report.passed


def test_budget_exhaustion_returns_partial_result():
    starved = min_max_colors(Params(3, 4), budget=10)
    assert not starved.exhausted
    assert starved.nodes_explored <= 10
    assert starved.min_max_colors == 3  # trivially valid bound, nothing proven
    zero = min_max_colors(Params(3, 2), budget=0)
    assert not zero.exhausted and zero.nodes_explored == 0 and zero.witness is None


def test_descent_matches_the_reference_at_every_budget():
    # every budget that stops a stage, at each threshold of the descent,
    # and the first budgets that let it finish
    for k, q in [(3, 1), (3, 2), (3, 4), (4, 2), (4, 3), (5, 3)]:
        params = Params(k, q)
        for budget in range(min_max_colors(params).nodes_explored + 2):
            result = min_max_colors(params, budget=budget)
            witness = None if result.witness is None else result.witness.colors
            assert (result.min_max_colors, witness, result.nodes_explored, result.exhausted) \
                == reference_descent(params, budget), (k, q, budget)


def test_search_node_counts_are_pinned():
    # (value, nodes) at every instance whose exact value is known; a changed
    # count means a changed node sequence.  The first four are as the earlier
    # recursive search gave them; (3, 50) has 1326 vertices, deeper than the
    # default recursion limit: the recursive search needed a raised limit to
    # finish it.  Each value is 1 + ceil((k - 1) / q).
    pinned = {(5, 3): (3, 1994), (6, 6): (2, 2607), (3, 40): (2, 1803), (3, 50): (2, 2753),
              (3, 1): (3, 6), (4, 1): (4, 8), (6, 1): (6, 12),
              (3, 2): (2, 17), (3, 3): (2, 27), (4, 3): (2, 74), (4, 4): (2, 122),
              (4, 5): (2, 188), (5, 4): (2, 332), (5, 5): (2, 568), (5, 6): (2, 917),
              (6, 5): (2, 1490), (7, 6): (2, 6581), (8, 7): (2, 28674), (8, 8): (2, 51536),
              (4, 2): (3, 52), (5, 2): (3, 80), (6, 3): (3, 2128), (7, 3): (3, 2355),
              (6, 2): (4, 896), (7, 2): (4, 951), (8, 2): (5, 187795), (9, 2): (5, 187886)}
    assert len(pinned) == 27
    for (k, q), (value, nodes) in pinned.items():
        assert value == 1 + -(-(k - 1) // q), (k, q)
        result = min_max_colors(Params(k, q))
        assert (result.min_max_colors, result.exhausted, result.nodes_explored) == \
            (value, True, nodes), (k, q)
        report = full_report(result.witness, None, value)
        assert report.passed and report.max_colors_per_edge == value


def test_search_is_deterministic():
    a = min_max_colors(Params(3, 3))
    b = min_max_colors(Params(3, 3))
    assert a == b


def test_oracle_validation():
    with pytest.raises(ValueError):
        min_max_colors(Params(3, 0))
    with pytest.raises(ValueError):
        min_max_colors(Params(3, 2), budget=-1)


def test_budget_must_be_an_exact_int():
    # 10.5 would be written back as "nodes_explored": 10.5
    for budget in (10.5, True, 10.0, "10", None):
        with pytest.raises(ValueError, match=r"^budget must be an int >= 0, got "):
            min_max_colors(Params(3, 2), budget=budget)


def test_compare_pi_readings_identity():
    sel, pos = compare_pi_readings(Params(3, 4), (1, 2))
    assert sel == pos
    assert sel.passed


def test_compare_pi_readings_swap():
    sel, pos = compare_pi_readings(Params(3, 4), (2, 1))
    assert sel.passed
    assert sel.sperner_ok
    assert not pos.sperner_ok
    assert pos.sperner_violations == (((0, 0), 2), ((0, 4), 3), ((1, 1), 2))
    assert not pos.passed
