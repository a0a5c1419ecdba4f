import itertools
from math import comb

import pytest

from simplexlattice import (
    Labeling,
    Params,
    check_all_pi,
    check_colors,
    check_sperner,
    edge_colors,
    enumerate_vertices,
    full_report,
    hyperedge,
    is_consistent,
    label_all,
)


def test_edge_colors_examples():
    p = Params(3, 4)
    lab = label_all(p)
    assert edge_colors(hyperedge((0, 0), p), lab) == {2, 3}
    assert edge_colors(hyperedge((3, 3), p), lab) == {1}
    constant = Labeling(p, (2,) * p.num_vertices, "external")
    assert edge_colors(hyperedge((1, 2), p), constant) == {2}


def test_edge_colors_rejects_foreign_vertices():
    lab = label_all(Params(3, 4))
    with pytest.raises(ValueError):
        edge_colors(hyperedge((0, 5), Params(3, 9)), lab)


def test_check_sperner_passes_builtin():
    for k in (3, 4, 5, 6):
        report = check_sperner(label_all(Params(k, k + 1)))
        assert report.sperner_ok and report.sperner_violations == ()
        assert report.passed


def test_check_sperner_constant_labeling():
    p = Params(3, 2)
    report = check_sperner(Labeling(p, (1,) * 6, "external"))
    assert not report.sperner_ok
    assert not report.passed
    # exactly the v1=0 vertices, in rank order
    assert report.sperner_violations == (((0, 0), 1), ((0, 1), 1), ((0, 2), 1))


def test_check_sperner_position_reading_fails():
    p = Params(3, 4)
    report = check_sperner(label_all(p, (2, 1), "position"))
    assert not report.sperner_ok
    assert report.sperner_violations == (
        ((0, 0), 2),
        ((0, 4), 3),
        ((1, 1), 2),
    )


def test_check_colors_examples():
    assert check_colors(label_all(Params(4, 5)), threshold=2).passed

    report = check_colors(label_all(Params(3, 4)), threshold=1)
    assert not report.passed
    assert report.max_colors_per_edge == 2
    assert report.histogram == {1: 5, 2: 5}
    assert len(report.violating_edges) == 5
    assert ((0, 0), (1, 2), (2, 3)) in report.violating_edges

    forced = Labeling(Params(3, 1), (3, 2, 1), "external")
    single = check_colors(forced, threshold=3)
    assert single.histogram == {3: 1}
    assert single.edges_checked == 1


def test_check_colors_validation():
    lab = label_all(Params(3, 4))
    with pytest.raises(ValueError):
        check_colors(lab, threshold=0)
    with pytest.raises(ValueError):
        check_colors(Labeling(Params(3, 0), (3,), "external"))
    with pytest.raises(ValueError):
        check_colors(lab, pi=(1, 1))


def test_threshold_must_be_an_exact_int():
    # True would be written as "threshold": true and 2.5 as 2.5
    lab = label_all(Params(3, 4))
    for threshold in (True, 2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match=r"^threshold must be an int >= 1, got "):
            full_report(lab, None, threshold)
        with pytest.raises(ValueError, match=r"^threshold must be an int >= 1, got "):
            check_colors(lab, threshold=threshold)


def test_a_list_image_checks_like_its_tuple():
    # the image is taken as a tuple, so a list names, labels and lists its
    # violating cells like the tuple it spells; bools are no image entries
    p = Params(3, 4)
    assert label_all(p, [1, 2]).rule == "identity"
    assert label_all(p, [1, 2]) == label_all(p, (1, 2)) == label_all(p)
    assert label_all(p, [2, 1]) == label_all(p, (2, 1))
    got = full_report(label_all(p), [2, 1], 1)
    assert got == full_report(label_all(p), (2, 1), 1) and got.violating_edges
    assert {type(pi) for _, pi, _ in got.violating_edges} == {tuple}
    for pi in ((2, True), (True, 2), [2.0, 1]):
        with pytest.raises(ValueError, match=r"^not a permutation image over 1\.\.2: "):
            label_all(p, pi)
        with pytest.raises(ValueError, match=r"^not a permutation image over 1\.\.2: "):
            full_report(label_all(p), pi)


def test_histogram_totals():
    for k, q in [(3, 4), (3, 5), (4, 5), (5, 6)]:
        p = Params(k, q)
        lab = label_all(p)
        report = check_colors(lab)
        assert sum(report.histogram.values()) == report.edges_checked == comb(q + k - 2, k - 1)
        assert report.max_colors_per_edge == max(report.histogram)
        for pi in itertools.permutations(range(1, k)):
            pi_report = check_colors(label_all(p, pi), pi)
            consistent = sum(
                1 for v in enumerate_vertices(p.base()) if is_consistent(pi, v)
            )
            assert sum(pi_report.histogram.values()) == consistent


def test_full_report_merges_both_checks():
    report = full_report(label_all(Params(3, 4)), None, 2)
    assert report.sperner_ok is True
    assert report.threshold == 2
    assert report.edges_checked == 10
    assert report.passed


def test_report_passed_logic():
    p = Params(3, 4)
    good = full_report(label_all(p), None, 2)
    assert good.passed
    tight = full_report(label_all(p), None, 1)
    assert not tight.passed
    sperner_only = check_sperner(label_all(p))
    assert sperner_only.passed and sperner_only.edges_checked is None


def test_check_all_pi_small():
    reports = check_all_pi(Params(3, 4), 2)
    assert [r.edge_rule for r in reports] == ["pi:1,2", "pi:2,1"]
    assert all(r.passed for r in reports)
    # identity-image labeling canonicalizes to the plain rule
    assert reports[0].labeling_rule == "identity"
    assert reports[1].labeling_rule == "pi:2,1"

    reports = check_all_pi(Params(4, 5), 2)
    assert [r.edge_rule for r in reports] == ["pi:1,2,3", "pi:1,3,2", "pi:2,1,3",
                                              "pi:2,3,1", "pi:3,1,2", "pi:3,2,1"]
    assert all(r.passed for r in reports)


def test_check_all_pi_probe_at_q_equals_k():
    # outside the guarantee: reports must still be complete and well-formed
    reports = check_all_pi(Params(3, 3), 2)
    assert len(reports) == 2
    for r in reports:
        assert r.sperner_ok is not None
        assert sum(r.histogram.values()) == r.edges_checked


def test_reports_are_deterministic():
    a = full_report(label_all(Params(4, 6), (2, 1, 3)), (2, 1, 3), 2)
    b = full_report(label_all(Params(4, 6), (2, 1, 3)), (2, 1, 3), 2)
    assert a == b


def test_external_labeling_verifies_like_builtin():
    p = Params(3, 4)
    built = label_all(p)
    external = Labeling(p, built.colors, "external")
    assert full_report(external, None, 2).passed
