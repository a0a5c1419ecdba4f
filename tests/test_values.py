"""Value semantics of the package's record classes.

Params, Hyperedge, Labeling and the instance index are frozen;
VerificationReport and OracleResult are mutable and unhashable.  All of
them construct by position and by keyword, compare by value (the index by
identity), and print their fields by name.
"""

import copy
import functools
import pickle

import pytest

from simplexlattice import (
    Hyperedge,
    Labeling,
    OracleResult,
    Params,
    VerificationReport,
    enumerate_vertices,
    full_report,
    hyperedge,
    label_all,
    min_max_colors,
    read_labeling,
    rule_descriptor,
    vertex_rank,
    write_labeling,
)
from simplexlattice.lattice import _instance_index, _InstanceIndex, _permutations, _tie_mask


def test_params():
    p = Params(3, 1)
    assert p == Params(k=3, q=1) == Params(3, q=1)
    assert p != Params(3, 2) and p != Params(4, 1)
    assert p != (3, 1) and p.__eq__((3, 1)) is NotImplemented
    assert hash(p) == hash(Params(3, 1)) == hash((3, 1))
    assert {p: 1}[Params(3, 1)] == 1
    assert repr(p) == "Params(k=3, q=1)"
    assert vars(p) == {"k": 3, "q": 1}
    with pytest.raises(TypeError):
        Params(3)
    with pytest.raises(TypeError):
        Params(3, 1, 2)


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 4), "k must be >= 3, got 2"),
        ((3, -1), "q must be >= 0, got -1"),
        ((3.0, 4), "k and q must be ints, got 3.0 and 4"),
        ((3, True), "k and q must be ints, got 3 and True"),
        (("3", 4), "k and q must be ints, got '3' and 4"),
    ],
)
def test_params_messages(args, message):
    with pytest.raises(ValueError) as info:
        Params(*args)
    assert str(info.value) == message


def test_hyperedge():
    p = Params(3, 2)
    e = hyperedge((0, 1), p)
    assert e == Hyperedge((0, 1), (1, 2), ((0, 1), (0, 2), (1, 2)))
    assert e == Hyperedge(base=(0, 1), perm=(1, 2), vertices=((0, 1), (0, 2), (1, 2)))
    assert e != Hyperedge((0, 1), (1, 2), ())  # vertices take part in ==
    assert hash(e) == hash(Hyperedge((0, 1), (1, 2), ((0, 1), (0, 2), (1, 2))))
    assert len({e, hyperedge((0, 1), p)}) == 1
    assert e != ((0, 1), (1, 2), ((0, 1), (0, 2), (1, 2)))
    assert repr(e) == "Hyperedge(base=(0, 1), perm=(1, 2))"  # vertices left out
    assert Hyperedge.__slots__ == ("base", "perm", "vertices")
    assert not hasattr(e, "__dict__")
    with pytest.raises(TypeError):
        Hyperedge((0, 1), (1, 2))


def test_labeling():
    p = Params(3, 1)
    lab = Labeling(p, (3, 2, 1), "identity")
    assert lab == Labeling(params=p, colors=(3, 2, 1), rule="identity")
    assert lab != Labeling(p, (3, 2, 1), "other")
    assert lab != Labeling(p, (3, 1, 1), "identity")
    assert hash(lab) == hash(Labeling(p, (3, 2, 1), "identity"))
    assert hash(lab) == hash((p, (3, 2, 1), "identity"))
    assert label_all(Params(3, 3)) == Labeling(
        Params(3, 3), (3, 2, 2, 2, 3, 1, 1, 1, 1, 1), "identity"
    )
    assert repr(lab) == "Labeling(params=Params(k=3, q=1), colors=(3, 2, 1), rule='identity')"
    # colors are stored as a tuple whatever sequence gave them
    for given in ([3, 2, 1], b"\x03\x02\x01", (3, 2, 1)):
        made = Labeling(p, given, "identity")
        assert type(made.colors) is tuple
        assert made == lab and hash(made) == hash(lab) and repr(made) == repr(lab)
        for fmt in ("json", "csv"):
            assert read_labeling(write_labeling(made, fmt)) == made, (given, fmt)
    with pytest.raises(TypeError):
        Labeling(p, (3, 2, 1))
    # label_all keeps classes and builds its colors on their first read; at
    # (10,10), past a byte, the classes are the colors themselves.  Each
    # is the labeling Labeling builds from those colors, before and after
    # that read, under ==, hash, repr, pickle and deepcopy, and stays frozen
    same = [
        lambda made, twin: made == twin and twin == made,
        lambda made, twin: hash(made) == hash(twin),
        lambda made, twin: repr(made) == repr(twin),
        lambda made, twin: pickle.loads(pickle.dumps(made)) == twin,
        lambda made, twin: copy.deepcopy(made) == twin,
    ]
    for params, pi in ((Params(4, 5), None), (Params(4, 5), (3, 1, 2)), (Params(10, 10), None)):
        twin = Labeling(params, label_all(params, pi).colors, rule_descriptor(pi))
        for check in same:
            made = label_all(params, pi)
            with pytest.raises(AttributeError):
                made.colors = twin.colors
            assert "colors" not in vars(made), params
            assert check(made, twin), (params, pi)
            assert type(made.colors) is tuple and "colors" in vars(made), (params, pi)
            assert check(made, twin), (params, pi)


def test_a_labeling_copies_as_its_three_fields():
    # a labeling is made two ways: label_all's classes, which share the
    # rule's rows (one per step set any scanned pi needed), or Labeling.  A
    # pickle or copy of either is Labeling of its fields, and none of the
    # rows: after a sweep over 126 pis it pickles byte for byte as Labeling
    # of its colors does.  Past a byte the copy is the same Labeling
    params = Params(8, 8)
    made = label_all(params)
    for pi in _permutations(params)[:126]:
        full_report(made, pi)
    twin = Labeling(params, made.colors, made.rule)
    assert pickle.dumps(made) == pickle.dumps(twin)
    for copied in (copy.copy(made), copy.deepcopy(made), pickle.loads(pickle.dumps(made))):
        assert copied == twin and list(vars(copied)) == ["params", "colors", "rule"]
    wide = label_all(Params(10, 10))
    assert pickle.dumps(wide) == pickle.dumps(Labeling(wide.params, wide.colors, wide.rule))
    assert list(vars(pickle.loads(pickle.dumps(wide)))) == ["params", "colors", "rule"]


@pytest.mark.parametrize(
    "colors, message",
    [
        ((3, 2), "expected 3 colors, got 2"),
        ((3, 2, 1, 1), "expected 3 colors, got 4"),
        ((3, 2, 0), "color 0 outside [1, 3]"),
        ((4, 2, 1), "color 4 outside [1, 3]"),
        ((3, 2, True), "color True outside [1, 3]"),
        ((3, 2.0, 1), "color 2.0 outside [1, 3]"),
    ],
)
def test_labeling_messages(colors, message):
    with pytest.raises(ValueError) as info:
        Labeling(Params(3, 1), colors, "identity")
    assert str(info.value) == message


def test_instance_index():
    p = Params(3, 1)
    index = _instance_index(p)
    assert index.params == p
    assert index.vertices == ((0, 0), (0, 1), (1, 1))
    assert repr(index) == (
        "_InstanceIndex(params=Params(k=3, q=1), vertices=((0, 0), (0, 1), (1, 1)))"
    )
    # compared and hashed by identity
    twin = _InstanceIndex(p, index.vertices)
    assert twin == twin and twin != index
    assert hash(twin) == object.__hash__(twin)
    assert _InstanceIndex(params=p, vertices=index.vertices) != index
    # the tie table and the rank steps are built once per index
    for name in ("_ties", "_rank_steps"):
        assert isinstance(_InstanceIndex.__dict__[name], functools.cached_property)
        assert getattr(twin, name) is getattr(twin, name)
    # v_c = v_{c-1} with v_0 = 0 and v_3 = 1: colors {1, 2}, {1, 3}, {2, 3},
    # in one byte plane
    assert twin._ties == (bytes([0b011, 0b101, 0b110]),)
    # the one base point, (0, 0) of V_{3,0}, with its tie mask as an int:
    # bit 1 is its _tie_mask, bit 0 the tie v_1 = v_0
    ranks, ties, _ = twin._rank_steps
    assert ranks == [vertex_rank(b, p) for b in enumerate_vertices(p.base())] == [0]
    assert ties == [0b11] and ties[0] & 0b10 == _tie_mask((0, 0))
    # colors 9 and 10 go to a second plane: at (10,1) vertex (0, ..., 0)
    # ties everywhere but at color 10
    assert _instance_index(Params(10, 1))._ties[1][0] == 0b01
    assert _instance_index(Params(10, 1))._ties[0][0] == 0xFF
    # each index keeps its own keep masks, one per inverse-descent set
    assert twin._keeps == {} and twin._keeps is not index._keeps
    assert twin.cells(None) == index.cells(None) == [(0, 1, 2)]
    assert twin._keeps == {0: b"\xff"}


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: Params(3, 1), "k"),
        (lambda: Params(3, 1), "q"),
        (lambda: hyperedge((0, 0), Params(3, 1)), "base"),
        (lambda: hyperedge((0, 0), Params(3, 1)), "vertices"),
        (lambda: Labeling(Params(3, 1), (3, 2, 1), "identity"), "colors"),
        (lambda: label_all(Params(3, 3)), "rule"),
        (lambda: _instance_index(Params(3, 1)), "vertices"),
    ],
)
def test_frozen(make, field):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


def test_verification_report():
    p = Params(3, 3)
    report = VerificationReport(p, "identity", "none")
    assert report == VerificationReport(params=p, labeling_rule="identity", edge_rule="none")
    assert (report.threshold, report.sperner_ok, report.edges_checked) == (None, None, None)
    assert (report.sperner_violations, report.violating_edges) == ((), ())
    assert report.histogram is None
    assert report.passed
    assert repr(report) == (
        "VerificationReport(params=Params(k=3, q=3), labeling_rule='identity', "
        "edge_rule='none', threshold=None, sperner_ok=None, sperner_violations=(), "
        "edges_checked=None, max_colors_per_edge=None, histogram=None, violating_edges=())"
    )
    full = full_report(label_all(p))
    assert full == full_report(label_all(p)) and full != report
    assert repr(full) == (
        "VerificationReport(params=Params(k=3, q=3), labeling_rule='identity', "
        "edge_rule='identity', threshold=2, sperner_ok=True, sperner_violations=(), "
        "edges_checked=6, max_colors_per_edge=2, histogram={1: 2, 2: 4}, violating_edges=())"
    )
    positional = VerificationReport(p, "identity", "identity", 2, True, (), 6, 2, {1: 2, 2: 4})
    assert positional == full
    with pytest.raises(TypeError):
        hash(report)
    report.sperner_ok = False  # mutable
    assert not report.passed
    assert report != VerificationReport(p, "identity", "none")
    with pytest.raises(TypeError):
        VerificationReport(p, "identity")


def test_oracle_result():
    p = Params(3, 1)
    result = min_max_colors(p)
    witness = Labeling(p, (3, 2, 1), "oracle-witness")
    assert result == OracleResult(p, "identity", 3, witness, 6, True)
    assert result == OracleResult(params=p, edge_rule="identity", min_max_colors=3,
                                  witness=witness, nodes_explored=6, exhausted=True)
    assert result != OracleResult(p, "identity", 3, None, 6, True)
    assert repr(result) == (
        "OracleResult(params=Params(k=3, q=1), edge_rule='identity', min_max_colors=3, "
        "witness=Labeling(params=Params(k=3, q=1), colors=(3, 2, 1), rule='oracle-witness'), "
        "nodes_explored=6, exhausted=True)"
    )
    with pytest.raises(TypeError):
        hash(result)
    result.exhausted = False  # mutable
    assert result != min_max_colors(p)
    with pytest.raises(TypeError):
        OracleResult(p, "identity", 3, None, 6)
