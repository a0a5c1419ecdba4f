import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplexlattice import (
    Labeling,
    LabelUndefined,
    Params,
    argmin_index,
    coordinate,
    deficiency,
    enumerate_vertices,
    is_lattice_point,
    label,
    label_all,
    label_pi,
    rule_descriptor,
    selected_index_pi,
    vertex_rank,
)
from simplexlattice.labeling import READING_POSITION, READING_SELECTED

# colors of V_{3,4} under the plain rule, vertex-rank order
L34 = (3, 2, 2, 2, 2, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1)


def test_deficiency_examples():
    assert deficiency((0, 0), Params(3, 4)) == 2
    assert deficiency((4, 4), Params(3, 4)) == 0
    assert deficiency((5, 5, 5), Params(4, 5)) == 0
    assert deficiency((0, 2, 3), Params(4, 5)) == 1


def test_deficiency_nonnegative():
    for p in [Params(3, 2), Params(4, 3), Params(5, 2)]:
        for v in enumerate_vertices(p):
            assert deficiency(v, p) >= 0


def test_argmin_index_examples():
    assert argmin_index((0, 0), Params(3, 4)) == 2
    assert argmin_index((4, 4), Params(3, 4)) == 0
    assert argmin_index((1, 1), Params(3, 4)) == 2


def test_argmin_zero_iff_deficiency_zero():
    for p in [Params(3, 4), Params(4, 3)]:
        for v in enumerate_vertices(p):
            assert (argmin_index(v, p) == 0) == (deficiency(v, p) == 0)


def test_label_examples():
    assert label((0, 0), Params(3, 4)) == 3
    assert label((4, 4), Params(3, 4)) == 1
    with pytest.raises(LabelUndefined) as err:
        label((1, 1), Params(3, 1))
    assert err.value.vertex == (1, 1)


def test_label_is_admissible_wherever_defined():
    for p in [Params(k, q) for k in (3, 4, 5) for q in range(1, 7)]:
        for v in enumerate_vertices(p):
            try:
                c = label(v, p)
            except LabelUndefined:
                assert p.q <= p.k
                continue
            assert coordinate(v, c, p) > coordinate(v, c - 1, p)


def test_every_maximizer_below_k_steps_up():
    # at any t < k attaining the deficiency, the next coordinate is larger
    for p in [Params(3, 5), Params(4, 4), Params(5, 3)]:
        for v in enumerate_vertices(p):
            r = deficiency(v, p)
            for t in range(0, p.k):
                if t - coordinate(v, t, p) == r:
                    assert coordinate(v, t + 1, p) >= coordinate(v, t, p) + 1


def test_monotone_stability():
    # bumping a coordinate above the argmin changes neither r nor i
    for p in [Params(3, 5), Params(4, 4)]:
        for v in enumerate_vertices(p):
            i = argmin_index(v, p)
            for j in range(i + 1, p.k):
                bumped = tuple(
                    x + 1 if idx == j - 1 else x for idx, x in enumerate(v)
                )
                if not is_lattice_point(bumped, p):
                    continue
                assert deficiency(bumped, p) == deficiency(v, p)
                assert argmin_index(bumped, p) == i


def test_selected_index_pi_examples():
    p = Params(3, 4)
    for v in enumerate_vertices(p):
        assert selected_index_pi(v, (1, 2), p) == argmin_index(v, p)
    assert selected_index_pi((1, 2), (2, 1), p) == 0
    assert selected_index_pi((0, 1, 1), (3, 1, 2), Params(4, 6)) == 3


def test_label_pi_examples():
    p = Params(3, 4)
    for v in enumerate_vertices(p):
        assert label_pi(v, (1, 2), p) == label(v, p)
    assert label_pi((1, 2), (2, 1), p) == 1
    assert label_pi((0, 1, 1), (3, 1, 2), Params(4, 6)) == 4


def test_label_pi_readings_differ():
    p = Params(3, 4)
    assert label_pi((0, 0), (2, 1), p, READING_SELECTED) == 3
    assert label_pi((0, 0), (2, 1), p, READING_POSITION) == 2
    # one check, one message: label_all refuses the reading before it
    # labels anything, so the identity labeling is no answer to a bad reading
    with pytest.raises(ValueError, match="^unknown reading 'literal'"):
        label_pi((0, 0), (2, 1), p, "literal")
    for pi in (None, (2, 1)):
        with pytest.raises(ValueError, match="^unknown reading 'literal'"):
            label_all(p, pi, "literal")
    with pytest.raises(ValueError, match=r"^not a permutation image over 1\.\.2: \(1, 1\)$"):
        label_all(p, (1, 1))


@given(st.integers(3, 5), st.integers(1, 8), st.data())
def test_label_pi_selected_reading_admissible(k, q, data):
    p = Params(k, q)
    v = data.draw(st.sampled_from(enumerate_vertices(p)))
    pi = tuple(data.draw(st.permutations(range(1, k))))
    try:
        c = label_pi(v, pi, p)
    except LabelUndefined:
        assert q <= k
        return
    assert coordinate(v, c, p) > coordinate(v, c - 1, p)


def test_label_all_example():
    lab = label_all(Params(3, 4))
    assert lab.colors == L34
    assert lab.colors[0] == 3 and lab.colors[-1] == 1
    assert lab.rule == "identity"
    assert lab.color_of((1, 1)) == 3


def test_label_all_totality_boundary():
    # total exactly when q >= k
    for k in (3, 4):
        label_all(Params(k, k))
        with pytest.raises(LabelUndefined):
            label_all(Params(k, k - 1))
    with pytest.raises(LabelUndefined) as err:
        label_all(Params(3, 2))
    assert err.value.vertex == (1, 2)


def test_labeling_validation():
    p = Params(3, 1)
    lab = Labeling(p, (3, 2, 1), "external")
    assert lab.color_of((0, 1)) == 2
    with pytest.raises(ValueError):
        Labeling(p, (3, 2), "external")
    with pytest.raises(ValueError, match=r"^color 0 outside \[1, 3\]$"):
        Labeling(p, (3, 2, 0), "external")
    with pytest.raises(ValueError, match=r"^color 4 outside \[1, 3\]$"):
        Labeling(p, (3, 2, 4), "external")
    # the first bad color in rank order is the one named
    with pytest.raises(ValueError, match=r"^color 5 outside \[1, 3\]$"):
        Labeling(p, (5, 0, 1), "external")
    # exact ints: bool subclasses int, and the CSV writer would emit "True"
    with pytest.raises(ValueError, match=r"^color True outside \[1, 3\]$"):
        Labeling(p, (3, 2, True), "external")
    with pytest.raises(ValueError, match=r"^color 1\.0 outside \[1, 3\]$"):
        Labeling(p, (3, 2, 1.0), "external")
    with pytest.raises(ValueError, match=r"^color '2' outside \[1, 3\]$"):
        Labeling(p, (3, "2", 9), "external")
    with pytest.raises(ValueError, match=r"^color 9 outside \[1, 3\]$"):
        Labeling(p, (9, True, 1), "external")
    with pytest.raises(ValueError):
        lab.color_of((1, 0))


def test_bools_are_not_coordinates():
    # bool subclasses int, so (True, 1) would otherwise pass for (1, 1)
    p = Params(3, 4)
    assert not is_lattice_point((True, 1), p)
    with pytest.raises(ValueError):
        vertex_rank((True, 1), p)
    with pytest.raises(ValueError):
        label_all(p).color_of((True, 1))


def test_rule_descriptor():
    assert rule_descriptor(None) == "identity"
    assert rule_descriptor((1, 2)) == "identity"
    assert rule_descriptor((1, 2), READING_POSITION) == "identity"
    assert rule_descriptor((2, 1)) == "pi:2,1"
    assert rule_descriptor((2, 1), READING_POSITION) == "pi:2,1:position"


def test_per_point_rules_refuse_what_is_no_permutation():
    # (1, 1) used to end in the scan's AssertionError, (7, 1) in a message
    # about a coordinate index and (2, True) in a color
    p = Params(3, 4)
    for pi in ((1, 1), (2, True), (7, 1)):
        for rule in (label_pi, selected_index_pi):
            with pytest.raises(ValueError, match=r"^not a permutation image over 1\.\.2: "):
                rule((0, 0), pi, p)
    assert label_pi((0, 0), [2, 1], p) == label_pi((0, 0), (2, 1), p)


def test_label_all_rank_alignment():
    p = Params(4, 5)
    lab = label_all(p)
    for v in enumerate_vertices(p):
        assert lab.colors[vertex_rank(v, p)] == label(v, p)


def test_label_all_pi_variants_cover_all_perms():
    p = Params(3, 4)
    for pi in itertools.permutations((1, 2)):
        lab = label_all(p, pi)
        assert len(lab.colors) == p.num_vertices
