"""The input contract of the public API: every call returns or raises ValueError.

A point off the lattice, of the wrong length, a rank or coordinate index
that is no exact int, or a near-permutation is a ValueError that names the
bad value, never an answer and never an ``IndexError`` from inside.  The
property test draws values of each public function's documented types
(small ``Params``, tuples of small ints of any length, near-permutations,
numbers of the wrong kind); wrong types, such as None for a ``Params``, are
out of its scope.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplexlattice
from simplexlattice import (
    READINGS,
    Labeling,
    Params,
    admissible_colors,
    argmin_index,
    check_all_pi,
    check_colors,
    check_sperner,
    compare_pi_readings,
    coordinate,
    deficiency,
    edge_colors,
    enumerate_facets,
    enumerate_hyperedges,
    enumerate_vertices,
    full_report,
    hyperedge,
    identity_permutation,
    is_consistent,
    is_lattice_point,
    is_permutation,
    label,
    label_all,
    label_pi,
    min_max_colors,
    oracle_result_to_dict,
    pi_hyperedge,
    read_labeling,
    render_svg,
    report_to_dict,
    rule_descriptor,
    selected_index_pi,
    vertex_rank,
    vertex_unrank,
    write_labeling,
    write_oracle_result,
    write_report,
)

P = Params(4, 3)


@pytest.mark.parametrize(
    "function, args, bad",
    [
        # off the lattice: each of these gave an answer
        (label, ((0, 1, 9), P), (0, 1, 9)),
        (label, ((2, 1, 0), P), (2, 1, 0)),
        (label_pi, ((0, 1, 9), (3, 2, 1), P), (0, 1, 9)),
        (admissible_colors, ((2, 1, 0), P), (2, 1, 0)),
        (deficiency, ((9, 9, 9), P), (9, 9, 9)),
        (coordinate, ((2, 1, 0), 1, P), (2, 1, 0)),
        # the wrong length: each of these ended in an IndexError, or answered
        (deficiency, ((0, 1), P), (0, 1)),
        (argmin_index, ((0, 1, 2, 3), P), (0, 1, 2, 3)),
        (label, ((0,), P), (0,)),
        (label_pi, ((0, 1), (1, 2, 3), P), (0, 1)),
        (selected_index_pi, ((), (3, 2, 1), P), ()),
        (admissible_colors, ((0, 1), P), (0, 1)),
        (coordinate, ((0, 1), 3, P), (0, 1)),
        (coordinate, ((0, 1), 1, P), (0, 1)),
        # ranks and coordinate indices are exact ints: bool subclasses int
        (vertex_unrank, (True, P), True),
        (vertex_unrank, (1.0, P), 1.0),
        (vertex_unrank, (2.5, P), 2.5),
        (coordinate, ((0, 1, 2), True, P), True),
        # a reading label_all refuses: its rule has no descriptor either
        (rule_descriptor, ((2, 1, 3), "bogus"), "bogus"),
        (rule_descriptor, (None, "bogus"), "bogus"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_per_point_functions_refuse_what_is_no_point_of_the_instance(function, args, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        function(*args)


INTS = st.integers(-1, 6)
NUMBERS = st.one_of(st.integers(-2, 40), st.booleans(), st.floats(-2, 40))
READING = st.sampled_from((*READINGS, "other"))
THRESHOLDS = st.one_of(st.integers(-1, 4), st.booleans())


def points(draw, params):
    """A tuple of small ints of any length, or a point of the instance."""
    if params.num_vertices and draw(st.booleans()):
        return vertex_unrank(draw(st.integers(0, params.num_vertices - 1)), params)
    return tuple(draw(st.lists(INTS, max_size=6)))


def near_permutation(draw, params):
    """A permutation image, over ``1..k-1`` or another length, maybe with
    one entry replaced by a small int or True."""
    m = draw(st.sampled_from((params.k - 1, params.k - 1, 0, 1, 2, 3, 4)))
    pi = list(draw(st.permutations(range(1, m + 1))))
    if pi and draw(st.booleans()):
        pi[draw(st.integers(0, m - 1))] = draw(st.one_of(INTS, st.just(True)))
    return tuple(pi)


def labeling(draw, params):
    """A labeling with colors in 1..k, the rule's where it is total."""
    if params.q >= params.k and draw(st.booleans()):
        return label_all(params)
    colors = draw(st.lists(st.integers(1, params.k), min_size=params.num_vertices,
                           max_size=params.num_vertices))
    return Labeling(params, colors, "drawn")


def report(draw, params):
    return full_report(labeling(draw, params), None, draw(st.integers(1, 3)))


def oracle_result(draw, params):
    return min_max_colors(params, None, draw(st.integers(0, 200)))


# a call of each public name that takes values, its arguments drawn for one instance
CALLS = {
    "Params": lambda d, p: Params(d(NUMBERS), d(NUMBERS)),
    "Labeling": lambda d, p: Labeling(p, d(st.lists(INTS, max_size=12)), "drawn"),
    "admissible_colors": lambda d, p: admissible_colors(points(d, p), p),
    "argmin_index": lambda d, p: argmin_index(points(d, p), p),
    "check_all_pi": lambda d, p: check_all_pi(p, d(THRESHOLDS)),
    "check_colors": lambda d, p: check_colors(labeling(d, p), near_permutation(d, p),
                                              d(THRESHOLDS)),
    "check_sperner": lambda d, p: check_sperner(labeling(d, p)),
    "compare_pi_readings": lambda d, p: compare_pi_readings(p, near_permutation(d, p),
                                                            d(THRESHOLDS)),
    "coordinate": lambda d, p: coordinate(points(d, p), d(NUMBERS), p),
    "deficiency": lambda d, p: deficiency(points(d, p), p),
    "edge_colors": lambda d, p: edge_colors(hyperedge(points(d, p), p), labeling(d, p)),
    "enumerate_facets": lambda d, p: enumerate_facets(p),
    "enumerate_hyperedges": lambda d, p: enumerate_hyperedges(p),
    "enumerate_vertices": lambda d, p: enumerate_vertices(p),
    "full_report": lambda d, p: full_report(labeling(d, p), near_permutation(d, p),
                                            d(THRESHOLDS)),
    "hyperedge": lambda d, p: hyperedge(points(d, p), p),
    "identity_permutation": lambda d, p: identity_permutation(p),
    "is_consistent": lambda d, p: is_consistent(near_permutation(d, p), points(d, p)),
    "is_lattice_point": lambda d, p: is_lattice_point(points(d, p), p),
    "is_permutation": lambda d, p: is_permutation(near_permutation(d, p),
                                                  d(st.sampled_from((p, None)))),
    "label": lambda d, p: label(points(d, p), p),
    "label_all": lambda d, p: label_all(p, near_permutation(d, p), d(READING)),
    "label_pi": lambda d, p: label_pi(points(d, p), near_permutation(d, p), p, d(READING)),
    "min_max_colors": lambda d, p: min_max_colors(p, near_permutation(d, p),
                                                  d(st.one_of(st.integers(-1, 200),
                                                              st.booleans()))),
    "oracle_result_to_dict": lambda d, p: oracle_result_to_dict(oracle_result(d, p)),
    "pi_hyperedge": lambda d, p: pi_hyperedge(points(d, p), near_permutation(d, p), p),
    "read_labeling": lambda d, p: read_labeling(
        d(st.sampled_from((b"", b"{}", b"x"))) or write_labeling(labeling(d, p))),
    "render_svg": lambda d, p: render_svg(labeling(d, p)),
    "report_to_dict": lambda d, p: report_to_dict(report(d, p), d(st.integers(0, 3))),
    "rule_descriptor": lambda d, p: rule_descriptor(near_permutation(d, p), d(READING)),
    "selected_index_pi": lambda d, p: selected_index_pi(points(d, p), near_permutation(d, p),
                                                        p),
    "vertex_rank": lambda d, p: vertex_rank(points(d, p), p),
    "vertex_unrank": lambda d, p: vertex_unrank(d(NUMBERS), p),
    "write_labeling": lambda d, p: write_labeling(labeling(d, p),
                                                  d(st.sampled_from(("json", "csv", "xml")))),
    "write_oracle_result": lambda d, p: write_oracle_result(oracle_result(d, p)),
    "write_report": lambda d, p: write_report(report(d, p)),
}
# names that take no values: constants, exceptions, and records that store
# what the package made (a Hyperedge is only ever built by the geometry)
NO_VALUES = {"__version__", "READING_POSITION", "READING_SELECTED", "READINGS",
             "InconsistentPair", "LabelUndefined", "LabelingFormatError",
             "UnsupportedDimension", "Hyperedge", "OracleResult", "VerificationReport"}


def test_the_contract_covers_every_public_name_that_takes_values():
    assert sorted(CALLS) == sorted(set(simplexlattice.__all__) - NO_VALUES)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CALLS)), st.integers(3, 5), st.integers(0, 4), st.data())
def test_public_calls_return_or_raise_value_error(name, k, q, data):
    try:
        CALLS[name](data.draw, Params(k, q))
    except ValueError:
        pass
