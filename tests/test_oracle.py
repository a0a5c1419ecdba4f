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
    label_all,
    min_max_colors,
)
from simplexlattice.labeling import LabelUndefined


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


def test_search_node_counts_are_pinned():
    # (value, nodes) as the earlier recursive search gave them; a changed
    # count means a changed node sequence.  (3, 50) has 1326 vertices, deeper
    # than the default recursion limit: the recursive search needed a raised
    # limit to finish it.
    pinned = {(5, 3): (3, 1994), (6, 6): (2, 2607), (3, 40): (2, 1803), (3, 50): (2, 2753)}
    for (k, q), (value, nodes) in pinned.items():
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
