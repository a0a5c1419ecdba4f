import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simplexlattice import (
    InconsistentPair,
    Params,
    coordinate,
    enumerate_facets,
    enumerate_hyperedges,
    enumerate_vertices,
    hyperedge,
    identity_permutation,
    is_consistent,
    is_lattice_point,
    is_permutation,
    pi_hyperedge,
    rule_descriptor,
    vertex_rank,
    vertex_unrank,
)

SMALL = [Params(k, q) for k in (3, 4, 5) for q in range(0, 6)]


def test_params_validation():
    with pytest.raises(ValueError):
        Params(2, 4)
    with pytest.raises(ValueError):
        Params(3, -1)
    # exact ints: bool subclasses int, so Params(3, True) would pass for q = 1
    for k, q in ((3, True), (True, 3), (3.0, 4), (3, 4.0), ("3", 4)):
        with pytest.raises(ValueError, match="^k and q must be ints"):
            Params(k, q)
    assert Params(3, 4).num_vertices == 15
    assert Params(3, 4).base() == Params(3, 3)
    with pytest.raises(ValueError):
        Params(3, 0).base()


def test_coordinate_extended_accessor():
    p = Params(3, 4)
    v = (1, 3)
    assert coordinate(v, 0, p) == 0
    assert coordinate(v, 1, p) == 1
    assert coordinate(v, 2, p) == 3
    assert coordinate(v, 3, p) == 4
    with pytest.raises(ValueError):
        coordinate(v, 4, p)
    with pytest.raises(ValueError):
        coordinate(v, -1, p)


def test_enumerate_vertices_examples():
    assert enumerate_vertices(Params(3, 1)) == [(0, 0), (0, 1), (1, 1)]
    assert len(enumerate_vertices(Params(3, 4))) == 15
    assert enumerate_vertices(Params(3, 0)) == [(0, 0)]


def test_enumerate_vertices_properties():
    for p in SMALL:
        points = enumerate_vertices(p)
        assert len(points) == comb(p.q + p.k - 1, p.k - 1) == p.num_vertices
        assert points == sorted(points)
        assert len(set(points)) == len(points)
        for v in points:
            assert is_lattice_point(v, p)
            assert all(0 <= a <= b <= p.q for a, b in zip((0,) + v, v + (p.q,)))


def test_vertex_rank_examples():
    assert vertex_rank((0, 0), Params(3, 4)) == 0
    assert vertex_rank((1, 1), Params(3, 1)) == 2


def test_rank_unrank_roundtrip_exhaustive():
    for p in SMALL:
        for i, v in enumerate(enumerate_vertices(p)):
            assert vertex_rank(v, p) == i
            assert vertex_unrank(i, p) == v


def test_rank_rejects_bad_input():
    p = Params(3, 4)
    with pytest.raises(ValueError):
        vertex_rank((2, 1), p)  # not weakly increasing
    with pytest.raises(ValueError):
        vertex_rank((0, 5), p)  # exceeds q
    with pytest.raises(ValueError):
        vertex_rank((0,), p)  # wrong arity
    with pytest.raises(ValueError):
        vertex_unrank(15, p)
    with pytest.raises(ValueError):
        vertex_unrank(-1, p)


@given(st.integers(3, 6), st.integers(0, 9), st.data())
def test_rank_unrank_roundtrip_random(k, q, data):
    p = Params(k, q)
    rank = data.draw(st.integers(0, p.num_vertices - 1))
    v = vertex_unrank(rank, p)
    assert is_lattice_point(v, p)
    assert vertex_rank(v, p) == rank


def test_is_permutation():
    p = Params(4, 5)
    assert is_permutation((1, 2, 3), p)
    assert is_permutation((3, 1, 2), p)
    assert not is_permutation((1, 2), p)
    assert not is_permutation((1, 1, 3), p)
    assert not is_permutation((0, 1, 2), p)
    assert identity_permutation(p) == (1, 2, 3)
    # exact ints: True == 1 and 3.0 == 3, but neither is an image entry
    assert not is_permutation((3, True, 2), p)
    assert not is_permutation((3.0, 1, 2), p)
    assert is_permutation([3, 1, 2], p)
    # without params, an image over 1..len(pi)
    assert is_permutation((2, 1)) and is_permutation(()) and not is_permutation((1, 3))


def test_pi_hyperedge_takes_its_image_as_a_tuple():
    p = Params(3, 4)
    edge = pi_hyperedge((0, 1), [2, 1], p)
    assert edge.perm == (2, 1) and edge == pi_hyperedge((0, 1), (2, 1), p)
    assert hash(edge) == hash(pi_hyperedge((0, 1), (2, 1), p))
    with pytest.raises(ValueError, match=r"^not a permutation image over 1\.\.2: "):
        pi_hyperedge((0, 1), (2, True), p)


def test_is_consistent_examples():
    # all three adjacent equalities force the order 1 < 2 < 3
    assert [pi for pi in itertools.permutations((1, 2, 3)) if is_consistent(pi, (0, 0, 0))] == [(1, 2, 3)]
    # strictly increasing base: vacuous condition
    assert all(is_consistent(pi, (0, 1, 2)) for pi in itertools.permutations((1, 2, 3)))
    assert is_consistent((1, 2), (0, 1)) and is_consistent((2, 1), (0, 1))


def test_is_consistent_and_rule_descriptor_check_the_image():
    # neither takes params, so each reads k off the image itself: it must be
    # a permutation of 1..len(pi) in exact ints, and the point must have
    # len(pi) coordinates
    for pi in ((1, 1), (2, True), [2, 1, 9], (0, 1), (1, 3)):
        with pytest.raises(ValueError, match=r"^not a permutation image over 1\.\."):
            is_consistent(pi, (0,) * len(pi))
        with pytest.raises(ValueError, match=r"^not a permutation image over 1\.\."):
            rule_descriptor(pi)
    for v in ((0,), (0, 0, 0), ()):
        with pytest.raises(ValueError, match=r"^point .* does not have the 2 coordinates"):
            is_consistent((2, 1), v)
    # valid lists keep working, and None is still the identity
    assert is_consistent([2, 1], (0, 1)) and not is_consistent([2, 1], [1, 1])
    assert rule_descriptor([2, 1, 3]) == "pi:2,1,3"
    assert rule_descriptor([1, 2, 3]) == rule_descriptor(None) == "identity"


def test_hyperedge_examples():
    e = hyperedge((0, 0), Params(3, 4))
    assert e.vertices == ((0, 0), (0, 1), (1, 1))
    e = hyperedge((0, 0, 0), Params(4, 5))
    assert e.vertices == ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
    e = hyperedge((0, 0), Params(3, 1))
    assert set(e.vertices) == set(enumerate_vertices(Params(3, 1)))


def test_pi_hyperedge_examples():
    p = Params(3, 4)
    e = pi_hyperedge((0, 1), (2, 1), p)
    assert e.vertices == ((0, 1), (1, 1), (1, 2))
    assert pi_hyperedge((0, 1), (1, 2), p) == hyperedge((0, 1), p)
    with pytest.raises(InconsistentPair):
        pi_hyperedge((0, 0), (2, 1), p)
    with pytest.raises(ValueError):
        pi_hyperedge((0, 4), (1, 2), p)  # base outside V_{k,q-1}
    with pytest.raises(ValueError, match=r"^not a permutation image over 1\.\.2: \(1, 1\)$"):
        pi_hyperedge((0, 1), (1, 1), p)


def test_hyperedge_value_semantics():
    p = Params(3, 4)
    a = hyperedge((0, 1), p)
    b = pi_hyperedge((0, 1), (1, 2), p)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != hyperedge((0, 0), p)


def test_enumerate_hyperedges_counts():
    assert len(enumerate_hyperedges(Params(3, 4))) == 10
    assert len(enumerate_hyperedges(Params(3, 1))) == 1
    # one edge per base point of V_{4,4}; enumeration is its own check
    edges = enumerate_hyperedges(Params(4, 5))
    assert len(edges) == len(enumerate_vertices(Params(4, 4))) == comb(7, 3) == 35


def test_enumerate_facets_example_k3_q2():
    assert enumerate_facets(Params(3, 2)) == [
        ((0, 0), (1, 2)),
        ((0, 1), (1, 2)),
        ((0, 1), (2, 1)),
        ((1, 1), (1, 2)),
    ]


def test_enumerate_facets_counts():
    assert len(enumerate_facets(Params(3, 1))) == 1
    assert len(enumerate_facets(Params(4, 3))) == 27
    for p in SMALL:
        if p.q >= 1:
            assert len(enumerate_facets(p)) == p.q ** (p.k - 1)


def test_facet_structure():
    for p in SMALL:
        if p.q < 1:
            continue
        vertex_set = set(enumerate_vertices(p))
        covered = set()
        for v, pi in enumerate_facets(p):
            cell = pi_hyperedge(v, pi, p)
            assert cell.base == v and cell.perm == pi
            assert len(set(cell.vertices)) == p.k
            for u in cell.vertices:
                assert u in vertex_set
            for a, b in zip(cell.vertices, cell.vertices[1:]):
                diff = [y - x for x, y in zip(a, b)]
                assert sorted(diff) == [0] * (p.k - 2) + [1]
            covered.update(cell.vertices)
        assert covered == vertex_set


def test_identity_edges_are_identity_facets():
    for p in SMALL:
        if p.q < 1:
            continue
        ident = identity_permutation(p)
        from_facets = [
            pi_hyperedge(v, pi, p)
            for v, pi in enumerate_facets(p)
            if pi == ident
        ]
        assert from_facets == enumerate_hyperedges(p)


def test_inconsistent_pairs_leave_the_lattice():
    # the consistency predicate is exactly "every prefix stays in V_{k,q}",
    # and the facets are the pairs it admits, in (base, image) order
    for p in [Params(3, 3), Params(4, 3), Params(5, 3)]:
        facets = []
        for v in enumerate_vertices(p.base()):
            for pi in itertools.permutations(range(1, p.k)):
                prefixes_ok = True
                current = list(v)
                for t in range(p.k - 1, 0, -1):
                    current[pi[t - 1] - 1] += 1
                    if not is_lattice_point(tuple(current), p):
                        prefixes_ok = False
                        break
                assert prefixes_ok == is_consistent(pi, v)
                if prefixes_ok:
                    facets.append((v, pi))
        assert enumerate_facets(p) == facets
