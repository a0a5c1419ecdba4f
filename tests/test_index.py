"""The shared instance index, the rule's classes and the verifier's scans
against the per-point reference functions.

``full_report``, io, ``render_svg`` and the oracle read one
cached index per instance: vertices, one tie table (per vertex the
neighbouring coordinates that are equal, which are the colors inadmissible
there, pick out the base points, and decide which permutations each base
is consistent with), and the cells of each permutation as tuples of
vertex ranks, stepped from each base by closed-form rank offsets; the
index holds geometry only.  ``label_all`` reads the classes that labeling
keeps beside it, a vertex's class being its set of deficiency-attaining
indices (0 where index 0 attains), checked against ``deficiency`` and
``coordinate`` at ``k = 3..9``, and walks the scan order once over them;
the rule is constant on them under every permutation for ``k <= 5`` and
a seeded sample above.  The public per-point
functions (``label``, ``label_pi``, ``pi_hyperedge``, ``is_consistent``,
``enumerate_vertices``, ``vertex_rank``, ``coordinate``,
``admissible_colors``) use neither, so they serve as the reference here,
over every permutation of every ``k <= 6`` and ``q`` from 0 (a single
point) to ``k + 1``, which takes in the ``q < k`` range where the rule is
partial, and on sampled permutations at ``q < k = 9`` and ``10``, where the
classes pass a byte; the cells are also compared at ``k = 7`` and ``8``.
The tie table, each permutation's consistent bases and the scans keep one bit per
color in ``ceil(k / 8)`` byte planes at every ``k``, checked with one for
``k <= 8``, two at ``k = 9`` and ``10``, three at ``k = 17`` and ``18``
and 32 at ``k = 255`` and ``256``.
Reports are compared byte for byte, violation lists included, with the
rule's labelings and with external ones, random and partly inadmissible,
at ``k = 3..10``, over every threshold from 1 to ``k`` and subdivisions of
0, 1 and more cells.  Every labeling whose colors fit a byte counts
through class bytes kept per step set, whatever made it: a labeling that
``label_all`` made carries the rule's classes and their rows from the
rule's cache where those fit a byte (``k <= 8``, and ``k = 9`` at
``q >= 9``), building its colors from them only when they are read, which
a passing report never does, and every other labeling takes its colors as
its own classes, keeps rows of its own and never builds the rule's.  The tests
check that the rows are read exactly for ``k <= 255``, and compare rule
labelings on every step set at ``k = 7`` and ``8``, files read back and
swept over every permutation, random colorings of the classes with and
without one changed vertex, oracle witnesses and random admissible
colors, each with cases in two planes at ``k = 9`` and ``10`` on sampled
permutations.  Colors past a byte (``k = 256``, ``q = 1``) keep the set
scan, checked against the reference too.
Sperner's lemma gives a second check of the cells that shares no code
with them: the cells of all permutations tile the simplex, so every
admissible labeling has an odd number of rainbow cells among them.
"""

import itertools
import json
import random
from collections import Counter
from functools import lru_cache
from math import comb

import pytest

from simplexlattice import (
    READINGS,
    Labeling,
    LabelUndefined,
    Params,
    VerificationReport,
    admissible_colors,
    check_all_pi,
    check_colors,
    coordinate,
    deficiency,
    enumerate_hyperedges,
    enumerate_vertices,
    full_report,
    is_consistent,
    is_lattice_point,
    label,
    label_all,
    label_pi,
    min_max_colors,
    pi_hyperedge,
    read_labeling,
    report_to_dict,
    rule_descriptor,
    vertex_rank,
    write_labeling,
)
from simplexlattice.labeling import _attaining_masks
from simplexlattice.lattice import _instance_index, _inverse_descent_mask, _tie_mask
from simplexlattice.verify import _cell_counts

INSTANCES = [Params(k, q) for k in range(3, 7) for q in range(0, k + 2)]
# cells only: k! permutations make the label and report sweeps too slow here
LARGE_INSTANCES = [Params(7, q) for q in range(0, 5)] + [Params(8, q) for q in range(0, 4)]
# external labelings: every pi for k <= 5 and a seeded sample above; k = 9
# and 10 take two byte planes
EXTERNAL_INSTANCES = [Params(k, q) for k in range(3, 11) for q in (1, 2, 3)] + \
    [Params(3, 8), Params(4, 6), Params(5, 5)]


def permutations(k):
    return list(itertools.permutations(range(1, k)))


def sample_permutations(rng, k, count):
    """``count`` permutations drawn from all of them, or for ``k >= 10``,
    where listing them costs too much, ``count`` shuffles."""
    if k < 10:
        return rng.sample(permutations(k), count)
    return [tuple(rng.sample(range(1, k), k - 1)) for _ in range(count)]


@lru_cache(maxsize=None)
def reference_colors(params, pi, reading):
    """Colors in rank order by the per-point rule, or the vertex the first
    LabelUndefined names.  ``pi=None`` is the plain identity rule."""
    try:
        if pi is None:
            return tuple(label(v, params) for v in enumerate_vertices(params))
        return tuple(label_pi(v, pi, params, reading) for v in enumerate_vertices(params))
    except LabelUndefined as exc:
        return exc.vertex


def index_colors(params, pi, reading):
    try:
        return label_all(params, pi, reading).colors
    except LabelUndefined as exc:
        return exc.vertex


@lru_cache(maxsize=None)
def reference_edges(params, pi):
    """(base, vertices) of the pi_hyperedge cells over consistent base points;
    ``pi=None`` takes the identity route, enumerate_hyperedges."""
    if pi is None:
        return [(edge.base, edge.vertices) for edge in enumerate_hyperedges(params)]
    return [(v, pi_hyperedge(v, pi, params).vertices)
            for v in enumerate_vertices(params.base()) if is_consistent(pi, v)]


def reference_report(params, colors, rule, pi, threshold):
    """A full report of ``colors`` (in rank order, made by ``rule``) built
    from coordinate, pi_hyperedge and Python sets."""
    colors = dict(zip(enumerate_vertices(params), colors))
    sperner = tuple(
        (v, c) for v, c in colors.items()
        if coordinate(v, c, params) <= coordinate(v, c - 1, params)
    )
    histogram = Counter()
    violating = []
    perm = tuple(range(1, params.k)) if pi is None else pi
    for base, vertices in reference_edges(params, pi):
        seen = {colors[u] for u in vertices}
        histogram[len(seen)] += 1
        if len(seen) > threshold:
            violating.append((base, perm, tuple(sorted(seen))))
    return VerificationReport(
        params=params,
        labeling_rule=rule,
        edge_rule="identity" if pi is None else "pi:" + ",".join(map(str, pi)),
        threshold=threshold,
        sperner_ok=not sperner,
        sperner_violations=sperner,
        edges_checked=sum(histogram.values()),
        max_colors_per_edge=max(histogram, default=0),
        histogram=dict(sorted(histogram.items())),
        violating_edges=tuple(violating),
    )


def serialized(report):
    # uncapped, and without indentation so that json's C encoder runs
    return json.dumps(report_to_dict(report, max_violations=10**6)).encode()


def test_label_all_matches_per_point_rules():
    for params in INSTANCES:
        assert index_colors(params, None, READINGS[0]) == reference_colors(params, None, None)
        for pi in permutations(params.k):
            for reading in READINGS:
                assert index_colors(params, pi, reading) == \
                    reference_colors(params, pi, reading), (params, pi, reading)
    # at q < k = 9 and 10 the classes are a tuple holding 1 << k - 1 (256 or
    # 512), where index k alone attains: both readings of sampled pi
    rng = random.Random(20261026)
    for params in (Params(9, 3), Params(10, 2)):
        classes, present, _ = _attaining_masks(params)
        assert type(classes) is tuple and 1 << params.k - 1 in present, params
        for pi in [None, *sample_permutations(rng, params.k, 2)]:
            for reading in READINGS:
                assert index_colors(params, pi, reading) == \
                    reference_colors(params, pi, reading), (params, pi, reading)
    # at (10,10) the classes pass a byte and every vertex has a color: the
    # colors label_all keeps as its classes are the per-point rule's, and so
    # is the report counted through them
    params = Params(10, 10)
    assert type(_attaining_masks(params)[0]) is tuple
    first, second = sample_permutations(rng, params.k, 2)
    for pi, reading in ((None, READINGS[0]), (first, READINGS[0]),
                        (second, READINGS[0]), (second, READINGS[1])):
        assert index_colors(params, pi, reading) == \
            reference_colors(params, pi, reading), (pi, reading)
    want = reference_report(params, reference_colors(params, first, READINGS[0]),
                            rule_descriptor(first), first, 2)
    assert serialized(full_report(label_all(params, first), first)) == serialized(want)


def test_undefined_vertex_is_first_in_rank_order():
    # q < k: the first vertex in rank order whose deficiency is attained
    # only at index k, the same vertex under every rule
    for params in INSTANCES:
        if params.q >= params.k:
            continue
        first = next(v for v in enumerate_vertices(params)
                     if params.k - params.q > max(t - x for t, x in enumerate(v, 1)))
        assert reference_colors(params, None, None) == first
        for pi in permutations(params.k):
            assert index_colors(params, pi, READINGS[1]) == first


def test_rank_step_closed_form():
    # rank(v + e_j) - rank(v) = C(q - v_j + k - 3 - j, k - 2 - j), 0-based j,
    # whatever the other coordinates are
    for k in range(3, 7):
        for q in range(0, 7):
            params = Params(k, q)
            for v in enumerate_vertices(params):
                for j in range(k - 1):
                    stepped = v[:j] + (v[j] + 1,) + v[j + 1:]
                    if not is_lattice_point(stepped, params):
                        continue
                    assert vertex_rank(stepped, params) - vertex_rank(v, params) == \
                        comb(q - v[j] + k - 3 - j, k - 2 - j), (params, v, j)


def test_rank_cells_match_pi_hyperedge():
    for params in INSTANCES + LARGE_INSTANCES:
        if params.q < 1:
            assert _instance_index(params).cells(None) == []
            continue
        index = _instance_index(params)
        rank = {v: vertex_rank(v, params) for v in enumerate_vertices(params)}
        for pi in [None, *permutations(params.k)]:
            want = [tuple(rank[u] for u in vertices)
                    for _, vertices in reference_edges(params, pi)]
            assert index.cells(pi) == want, (params, pi)
    # the message pi_hyperedge and label_all give for the same image
    with pytest.raises(ValueError, match=r"^not a permutation image over 1\.\.2: \(1, 1\)$"):
        _instance_index(Params(3, 4)).cells((1, 1))


def rainbow_cells(params, colors):
    """Cells over all permutations, and how many of them show all k colors."""
    index = _instance_index(params)
    cells = [cell for pi in permutations(params.k) for cell in index.cells(pi)]
    rainbow = sum(len({colors[r] for r in cell}) == params.k for cell in cells)
    return len(cells), rainbow


def test_sperner_parity_of_all_cells():
    rng = random.Random(20251103)
    for k in range(3, 7):
        for q in range(1, 7 if k < 6 else 5):
            params = Params(k, q)
            domains = [sorted(admissible_colors(v, params)) for v in enumerate_vertices(params)]
            labelings = [tuple(map(rng.choice, domains)) for _ in range(20)]
            if q >= k:
                labelings.append(label_all(params).colors)
            for colors in labelings:
                count, rainbow = rainbow_cells(params, colors)
                assert count == q ** (k - 1), (params, count)
                assert rainbow % 2 == 1, (params, colors, rainbow)


def test_full_report_matches_reference_bytes():
    # threshold 1 lists violating cells and the position reading lists
    # Sperner violations, so both lists are compared, not just counts
    for params in INSTANCES:
        if params.q < params.k:
            continue
        for pi in [None, *permutations(params.k)]:
            for reading in READINGS if pi is not None else READINGS[:1]:
                labeling = label_all(params, pi, reading)
                for threshold in (1, 2):
                    got = full_report(labeling, pi, threshold)
                    want = reference_report(params, reference_colors(params, pi, reading),
                                            rule_descriptor(pi, reading), pi, threshold)
                    assert serialized(got) == serialized(want), (params, pi, reading, threshold)


def tie_mask(v, params):
    """Bit c - 1 for each c with v_c = v_{c-1}, from ``coordinate``."""
    return sum(1 << c - 1 for c in range(1, params.k + 1)
               if coordinate(v, c, params) == coordinate(v, c - 1, params))


def plane_masks(planes, params, count):
    """The per-item masks that byte planes hold, plane p as bits 8p..8p+7,
    after checking that there are ceil(k / 8) planes of ``count`` bytes."""
    assert type(planes) is tuple and len(planes) == -(-params.k // 8), params
    assert {type(plane) for plane in planes} == {bytes}, params
    assert {len(plane) for plane in planes} == {count}, params
    return [sum(b << 8 * p for p, b in enumerate(column)) for column in zip(*planes)]


def test_inadmissible_bytes_match_admissible_colors():
    # the tie table in byte planes at every k: one to k = 8, two at 9 and
    # 10, three at 17
    for k in [*range(3, 11), 17]:
        for q in range(0, 5 if k < 17 else 3):
            params = Params(k, q)
            vertices = enumerate_vertices(params)
            ties = plane_masks(_instance_index(params)._ties, params, len(vertices))
            assert ties == [
                sum(1 << c - 1 for c in range(1, k + 1) if c not in admissible_colors(v, params))
                for v in vertices
            ], params
            assert ties == [tie_mask(v, params) for v in vertices]


def test_consistent_bases_match_is_consistent():
    # every pi for k <= 5; at k = 9, 10 and 18, where the inverse descents
    # reach bits of one, two and three tie planes, a seeded sample and every pi with
    # one inverse descent.  A keep mask depends on pi only through its
    # inverse-descent set, so pis that share one share the bytes object, and
    # a sweep of every pi leaves one mask per set, 2^(k-2) of them
    rng = random.Random(20261022)
    for params in [Params(k, q) for k in range(3, 6) for q in range(1, 5)] + \
            [Params(9, 2), Params(9, 3), Params(10, 2), Params(10, 3), Params(18, 2)]:
        index = _instance_index(params)
        bases = enumerate_vertices(params.base())
        k = params.k
        perms = permutations(k) if k <= 5 else \
            [tuple(rng.sample(range(1, k), k - 1)) for _ in range(40)] + \
            [(*range(1, i), i + 1, i, *range(i + 2, k)) for i in range(1, k - 1)]
        shared = {}
        for pi in perms:
            keep = index._consistent(pi)
            assert type(keep) is bytes
            assert set(keep) <= {0, 0xFF}
            assert list(map(bool, keep)) == [is_consistent(pi, b) for b in bases], (params, pi)
            assert shared.setdefault(_inverse_descent_mask(pi), keep) is keep, (params, pi)
        if k <= 5:
            assert len(index._keeps) == len(shared) == 2 ** (k - 2), params


def test_external_labelings_match_reference_bytes():
    # Labelings the rule does not make, so that the byte scans over one
    # plane (k <= 8) and two (k = 9, 10) meet Sperner violations and every
    # color count:
    # random admissible colors, the same with one vertex given its lowest or
    # its highest inadmissible color (the virtual coordinates decide those),
    # and colors uniform over 1..k.  At q = 1 the identity has one cell and
    # every other pi none; at q = 2 each pi with one inverse descent has one.
    rng = random.Random(20261018)
    seen = set()
    for params in EXTERNAL_INSTANCES:
        k = params.k
        perms = permutations(k) if k <= 5 else sample_permutations(rng, k, 4)
        domains = [sorted(admissible_colors(v, params)) for v in enumerate_vertices(params)]
        labelings = [tuple(map(rng.choice, domains)) for _ in range(2)]
        r = rng.choice([r for r, domain in enumerate(domains) if len(domain) < k])
        wrong = sorted(set(range(1, k + 1)).difference(domains[r]))
        labelings += [labelings[0][:r] + (c,) + labelings[0][r + 1:] for c in (wrong[0], wrong[-1])]
        labelings += [tuple(rng.choices(range(1, k + 1), k=len(domains))) for _ in range(2)]
        for colors in labelings:
            labeling = Labeling(params, colors, "external")
            for pi in [None, *perms]:
                for threshold in range(1, k + 1):
                    got = full_report(labeling, pi, threshold)
                    want = reference_report(params, colors, "external", pi, threshold)
                    assert serialized(got) == serialized(want), (params, pi, colors, threshold)
                    seen.add((got.sperner_ok, min(got.edges_checked, 2)))
    assert seen == {(ok, cells) for ok in (True, False) for cells in (0, 1, 2)}



def test_label_all_builds_what_the_checking_constructor_builds():
    # label_all's byte classes skip Labeling's checks; their colors must pass.
    # Where the rule's classes fit a byte (k <= 8, and k = 9 at q >= 9) the
    # labeling carries the rule's cached classes and rows (the same objects)
    # with the class -> color table, and a copy built with Labeling its
    # colors as its own classes; at (10,10) they do not, and label_all
    # keeps its colors as classes of their own, as that copy builds them.
    # The classes are no field
    for params in INSTANCES + [Params(7, 7), Params(8, 8), Params(9, 9), Params(10, 10)]:
        if params.q < params.k:
            continue
        perms = permutations(params.k)[:24] if params.k < 10 else [tuple(range(9, 0, -1))]
        for pi in [None, *perms]:
            for reading in READINGS:
                labeling = label_all(params, pi, reading)
                # one view until the colors are read: the classes
                assert "colors" not in vars(labeling), params
                assert "_classes" in vars(labeling), params
                copy = Labeling(params, labeling.colors, labeling.rule)
                assert labeling == copy and hash(labeling) == hash(copy)
                assert repr(labeling) == repr(copy)
                assert set(map(type, labeling.colors)) == {int}
                assert type(labeling.colors) is tuple
                assert copy._classes == (bytes(copy.colors), {}, bytes(range(256))), params
                if params.k < 10:
                    classes, rows, table = vars(labeling)["_classes"]
                    cached = _attaining_masks(params)
                    assert classes is cached[0] and rows is cached[2], params
                    assert len(table) == 256, params
                    assert classes.translate(table) == bytes(labeling.colors), params
                else:
                    assert type(_attaining_masks(params)[0]) is tuple, params
                    assert vars(labeling)["_classes"] == copy._classes, params


def test_a_passing_report_never_builds_the_rule_labelings_colors():
    # label_all's byte classes stand in for its colors in every scan, so a
    # sweep that passes never builds the tuple: the identity and a pi with
    # descents, each on its own cells
    for k in range(3, 9):
        params = Params(k, k)
        for pi in (None, tuple(range(k - 1, 0, -1))):
            labeling = label_all(params, pi)
            assert full_report(labeling, pi).passed, (params, pi)
            assert "colors" not in vars(labeling), (params, pi)
            assert labeling.colors == reference_colors(params, pi, READINGS[0]), (params, pi)
            assert "colors" in vars(labeling), (params, pi)


def test_files_read_back_build_their_classes_once():
    # a labeling read from a file builds its classes, its own colors, on
    # first use and keeps them, with a row for each step set the cells of
    # the identity and of the reversed image take (both take 0 and all), at
    # every k whose colors fit a byte.  It is no field, so the read labeling
    # is the written one
    for params in (Params(4, 5), Params(8, 8), Params(9, 9)):
        pi = tuple(range(params.k - 1, 0, -1))
        labeling = label_all(params, pi)
        for fmt in ("json", "csv"):
            read = read_labeling(write_labeling(labeling, fmt))
            assert "_classes" not in vars(read)
            views = []
            for report_pi in (None, pi, None):
                full_report(read, report_pi)
                views.append(vars(read)["_classes"])
            assert all(view is views[0] for view in views), (params, fmt)
            classes, rows, table = views[0]
            assert classes == bytes(labeling.colors) and table == bytes(range(256))
            assert len(rows) == 2 * params.k - 2, (params, fmt)
            assert read == labeling and labeling == read, (params, fmt)
            assert hash(read) == hash(labeling) and repr(read) == repr(labeling), (params, fmt)


def test_rank_step_offsets_match_the_per_base_formula():
    # the bases are those of V_{k,q-1} in lexicographic order, with their
    # tie masks at the instance's own q as one int each, whose bits 1..k-2
    # (those _inverse_descent_mask may set) are the base's _tie_mask
    for k in range(3, 11):
        for q in range(0, 6 if k < 9 else 4):
            params = Params(k, q)
            bases = enumerate_vertices(params.base()) if q else []
            ranks, ties, offsets = _instance_index(params)._rank_steps
            assert list(ranks) == [vertex_rank(b, params) for b in bases], (k, q)
            assert type(ties) is list and {type(t) for t in ties} <= {int}, (k, q)
            assert ties == [tie_mask(b, params) for b in bases], (k, q)
            assert [t & (1 << k - 1) - 2 for t in ties] == list(map(_tie_mask, bases)), (k, q)
            assert offsets == [
                [comb(q - b[j] + k - 3 - j, k - 2 - j) for b in bases]
                for j in range(k - 1)
            ], (k, q)


def test_step_ranks_are_ranks_of_stepped_bases():
    # list t of the chain of pi holds, over every base b, the rank of b + e_S,
    # S the last t images of pi, where that is a lattice point, and a rank in
    # range where it is not; every pi for k <= 6, and above pis whose chains
    # between them take every step set
    for k in range(3, 9):
        perms = permutations(k) if k <= 6 else step_set_cover(k)
        for q in range(1, 4):
            params = Params(k, q)
            index = _instance_index(params)
            bases = enumerate_vertices(params.base())
            for pi in perms:
                chain = list(index._chain(pi))
                assert len(chain) == k
                for t, ranks in enumerate(chain):
                    steps = set(pi[k - 1 - t:])
                    assert len(ranks) == len(bases)
                    for r, base in zip(ranks, bases):
                        v = tuple(x + (j in steps) for j, x in enumerate(base, 1))
                        if is_lattice_point(v, params):
                            assert r == vertex_rank(v, params), (params, pi, v)
                        assert 0 <= r < params.num_vertices


def deficiency_sets(params):
    """Per vertex in rank order the indices attaining its deficiency."""
    return [frozenset(t for t in range(params.k + 1)
                      if t - coordinate(v, t, params) == deficiency(v, params))
            for v in enumerate_vertices(params)]


def attaining_sets(params):
    """The deficiency sets, every set holding index 0 merged into the empty
    set: every scan order tries 0 first."""
    return [frozenset() if 0 in s else s for s in deficiency_sets(params)]


def point_colors(params, pi, reading):
    """Per vertex in rank order the per-point rule's color, 0 where it is
    undefined; ``pi=None`` is the plain identity rule."""
    colors = []
    for v in enumerate_vertices(params):
        try:
            colors.append(label(v, params) if pi is None else label_pi(v, pi, params, reading))
        except LabelUndefined:
            colors.append(0)
    return colors


def test_classes_are_the_attaining_sets():
    # bit t - 1 for each t in [1, k] attaining the deficiency, 0 where that
    # is 0; bytes wherever they fit one (every q for k <= 8), a tuple
    # elsewhere.  Every rule is constant on the classes, undefined vertices
    # included: every pi for k <= 5 and a seeded sample above.
    rng = random.Random(20261023)
    for k in range(3, 10):
        for q in range(0, (k + 3) if k < 9 else 5):
            params = Params(k, q)
            classes, present, _ = _attaining_masks(params)
            want = [sum(1 << t - 1 for t in s) for s in attaining_sets(params)]
            assert type(classes) is (bytes if max(want) < 256 else tuple), params
            assert k > 8 or type(classes) is bytes, params
            assert list(classes) == want, params
            assert present == set(classes), params
            perms = permutations(k) if k <= 5 else rng.sample(permutations(k), 1 if k > 6 else 3)
            rules = [(None, READINGS[0])] + [(pi, reading) for pi in perms for reading in READINGS]
            for pi, reading in rules:
                colors = point_colors(params, pi, reading)
                assert len(set(zip(classes, colors))) == len(present), (params, pi, reading)


def takes_class_path(labeling):
    """Whether the color scan counts through rows of classes: exactly where
    colors fit a byte, ``k <= 255``, whatever made the labeling.  Its
    classes and table give its colors back; where they are the rule's (the
    table is no identity), its colors are one color on each set of
    attaining indices, checked against the definition."""
    params = labeling.params
    index, perm = _instance_index(params), tuple(range(1, params.k))
    got = type(_cell_counts(labeling, index, perm)) is bytes
    assert got == (params.k < 256), (params, labeling.colors)
    if got:
        classes, _, table = labeling._classes
        assert classes.translate(table) == bytes(labeling.colors), params
        if table != bytes(range(256)):
            sets = attaining_sets(params)
            assert len(set(zip(sets, labeling.colors))) == len(set(sets)), params
    return got


def cells_check(labeling, pi, threshold):
    """histogram, max colors and violations of check_colors, from the
    index's cells and Python sets"""
    params, colors = labeling.params, labeling.colors
    vertices = _instance_index(params).vertices
    perm = tuple(range(1, params.k)) if pi is None else pi
    histogram, violating = Counter(), []
    for cell in _instance_index(params).cells(pi):
        seen = {colors[r] for r in cell}
        histogram[len(seen)] += 1
        if len(seen) > threshold:
            violating.append((vertices[cell[0]], perm, tuple(sorted(seen))))
    return dict(sorted(histogram.items())), max(histogram, default=0), tuple(violating)


def step_set_cover(k):
    """Permutations whose cells between them step by every set of
    coordinates: greedily, the one covering the most sets not yet seen."""
    seen, chosen = set(), []
    perms = permutations(k)
    chains = [{frozenset(pi[k - 1 - t:]) for t in range(k)} for pi in perms]
    while len(seen) < 1 << k - 1:
        best = max(range(len(perms)), key=lambda i: len(chains[i] - seen))
        seen |= chains[best]
        chosen.append(perms[best])
    return chosen


def test_rule_labelings_take_the_class_path_on_every_step_set():
    # k = 7 over every pi; both readings and two thresholds over pis whose
    # cells between them step by every set of coordinates, at k = 7 and 8
    cases = [(Params(7, 7), pi, READINGS[0], 2) for pi in permutations(7)]
    for params in (Params(7, 7), Params(8, 8)):
        cases += [(params, pi, reading, threshold) for pi in step_set_cover(params.k)
                  for reading in READINGS for threshold in (1, 2)]
    for params, pi, reading, threshold in cases:
        labeling = label_all(params, pi, reading)
        got = check_colors(labeling, pi, threshold)
        assert (got.histogram, got.max_colors_per_edge, got.violating_edges) == \
            cells_check(labeling, pi, threshold), (params, pi, reading, threshold)
    assert takes_class_path(label_all(Params(8, 8), (7, 1, 6, 2, 5, 3, 4), READINGS[1]))


def test_rule_labelings_match_reference_bytes_at_k7_k8():
    rng = random.Random(20261019)
    for params in (Params(7, 7), Params(8, 8)):
        for pi in [None, *rng.sample(permutations(params.k), 3)]:
            for reading in READINGS if pi is not None else READINGS[:1]:
                labeling = label_all(params, pi, reading)
                for threshold in (1, 2):
                    got = full_report(labeling, pi, threshold)
                    want = reference_report(params, reference_colors(params, pi, reading),
                                            rule_descriptor(pi, reading), pi, threshold)
                    assert serialized(got) == serialized(want), (params, pi, reading, threshold)


def test_class_colorings_match_reference_bytes():
    # Colors constant on the rule's classes but otherwise random, with
    # Sperner violations, every color count and subdivisions of 0, 1 and
    # more cells; then the same colors changed at one vertex of a class
    # with others, at its first vertex, its second and its last.  None of
    # them is the rule's, so each counts through rows of its own colors, in
    # two byte planes at k = 9 and 10.
    rng = random.Random(20261020)
    seen = set()
    for params in EXTERNAL_INSTANCES:
        k = params.k
        classes, present, _ = _attaining_masks(params)
        perms = permutations(k) if k <= 5 else sample_permutations(rng, k, 4)
        shared = [c for c in present if classes.count(c) > 1]
        for _ in range(2):
            table = {c: rng.randint(1, k) for c in present}
            colors = tuple(map(table.__getitem__, classes))
            labelings = [colors]
            if shared:
                c = rng.choice(shared)
                first = classes.index(c)
                last = len(classes) - 1 - classes[::-1].index(c)
                for r in (first, classes.index(c, first + 1), last):
                    other = rng.choice([x for x in range(1, k + 1) if x != colors[r]])
                    labelings.append(colors[:r] + (other,) + colors[r + 1:])
            for i, colors in enumerate(labelings):
                labeling = Labeling(params, colors, "external")
                assert takes_class_path(labeling)
                for pi in [None, *perms]:
                    for threshold in range(1, k + 1):
                        got = full_report(labeling, pi, threshold)
                        want = reference_report(params, colors, "external", pi, threshold)
                        assert serialized(got) == serialized(want), (params, pi, colors, threshold)
                        seen.add((i == 0, min(got.edges_checked, 2)))
    assert seen == {(factors, cells) for factors in (True, False) for cells in (0, 1, 2)}


def test_files_read_back_count_through_their_own_rows():
    # a file the rule wrote counts through rows of its own colors, the
    # rule's labeling through the rule's class rows, and the two reports
    # agree byte for byte, in two byte planes at k = 9; at (10,10), whose
    # classes do not fit a byte, both count through rows of their colors
    # (one pi and format there, for time), and past k = 8 the reference
    # checks the file too
    for params in (Params(4, 5), Params(6, 7), Params(8, 8), Params(9, 9), Params(10, 10)):
        k = params.k
        reverse = tuple(range(k - 1, 0, -1))
        for pi in (None, reverse) if k < 10 else (reverse,):
            labeling = label_all(params, pi)
            assert takes_class_path(labeling)
            for fmt in ("json", "csv") if k < 10 else ("json",):
                read = read_labeling(write_labeling(labeling, fmt))
                assert takes_class_path(read)
                for threshold in (1, 2):
                    assert serialized(full_report(read, pi, threshold)) == \
                        serialized(full_report(labeling, pi, threshold))
        if k > 8:
            want = reference_report(params, read.colors, read.rule, reverse, 1)
            assert serialized(full_report(read, reverse, 1)) == serialized(want), params


def test_a_file_swept_over_every_pi_keeps_one_row_per_step_set():
    # an oracle witness and a rule labeling, each read back from a file and
    # checked against every pi: each report matches the reference, the
    # file's own rows end up one per step set, and the rule's classes are
    # never built
    files = [write_labeling(min_max_colors(Params(6, 5)).witness, "json"),
             write_labeling(label_all(Params(4, 5), (3, 1, 2)), "csv")]
    for data in files:
        read = read_labeling(data)
        params = read.params
        _attaining_masks.cache_clear()
        for pi in permutations(params.k):
            for threshold in (1, 2):
                want = reference_report(params, read.colors, read.rule, pi, threshold)
                assert serialized(full_report(read, pi, threshold)) == serialized(want), \
                    (params, pi, threshold)
        assert _attaining_masks.cache_info().currsize == 0, params
        rows = read._classes[1]
        assert sorted(rows) == list(range(0, 1 << params.k, 2)), params
        assert len(rows) == 1 << params.k - 1


def test_labelings_the_rule_did_not_make_never_build_its_classes():
    # files read back, an oracle witness and a labeling built with Labeling
    # count through rows of their own colors, in two byte planes at k = 9,
    # without building the rule's classes
    labelings = [min_max_colors(Params(6, 5)).witness]
    for params in (Params(4, 5), Params(8, 8), Params(9, 9)):
        labeling = label_all(params, tuple(range(params.k - 1, 0, -1)))
        labelings += [read_labeling(write_labeling(labeling, fmt)) for fmt in ("json", "csv")]
        labelings.append(Labeling(params, labeling.colors, labeling.rule))
    for labeling in labelings:
        params = labeling.params
        for pi in (None, tuple(range(params.k - 1, 0, -1))):
            _attaining_masks.cache_clear()
            got = full_report(labeling, pi, 1)
            assert _attaining_masks.cache_info().currsize == 0, (params, pi)
            want = reference_report(params, labeling.colors, labeling.rule, pi, 1)
            assert serialized(got) == serialized(want), (params, pi)


def test_deficiency_zero_vertices_share_one_class():
    # index 0 attains there and every scan order tries it first, so those
    # vertices form class 0 whatever else attains; colors constant on each
    # unmerged set but split across class 0 count through rows of their own
    for params in (Params(4, 4), Params(5, 6)):
        sets = deficiency_sets(params)
        assert [c == 0 for c in _attaining_masks(params)[0]] == [0 in s for s in sets]
        split = {s: 1 + i % params.k for i, s in enumerate(dict.fromkeys(sets))}
        assert len({split[s] for s in sets if 0 in s}) > 1, params
        labeling = Labeling(params, tuple(map(split.__getitem__, sets)), "external")
        assert takes_class_path(labeling)
        for pi in (None, tuple(range(params.k - 1, 0, -1))):
            want = reference_report(params, labeling.colors, "external", pi, 2)
            assert serialized(full_report(labeling, pi, 2)) == serialized(want), (params, pi)


def test_witnesses_and_random_colors_match_reference_bytes():
    # most oracle witnesses happen to be constant on the rule's classes, the
    # one at (5,3) is not; random admissible colors are not.  None carries
    # the rule's tables, so all count through rows of their own colors, in
    # two byte planes at k = 9 and 10 (witnesses from a budget-bound search)
    rng = random.Random(20261021)
    labelings = [min_max_colors(Params(k, q)).witness for k, q in ((4, 3), (5, 3), (6, 5))]
    labelings += [min_max_colors(Params(k, 3), budget=20_000).witness for k in (9, 10)]
    for params in (Params(4, 4), Params(5, 5), Params(6, 6), Params(9, 3), Params(10, 3)):
        domains = [sorted(admissible_colors(v, params)) for v in enumerate_vertices(params)]
        labelings.append(Labeling(params, tuple(map(rng.choice, domains)), "external"))
    assert all(map(takes_class_path, labelings))
    for labeling in labelings:
        params = labeling.params
        for pi in [None, *sample_permutations(rng, params.k, 2)]:
            for threshold in (1, 2, 3):
                got = full_report(labeling, pi, threshold)
                want = reference_report(params, labeling.colors, labeling.rule, pi, threshold)
                assert serialized(got) == serialized(want), (params, pi, threshold)


def test_colors_past_a_byte_take_the_set_scan():
    # At q = 1 there are k vertices and one identity cell, and the oracle's
    # witness gives every vertex its one admissible color.  k = 255 is the
    # widest instance whose colors fit a byte: a witness and random colors
    # count through rows of their own colors in 32 byte planes.  At k = 256
    # they do not fit, so they count a set per cell and test each vertex's
    # ties in a loop, the scan that stays for them
    rng = random.Random(20261025)
    for k in (255, 256):
        params = Params(k, 1)
        assert len(_instance_index(params)._ties) == 32
        colors = tuple(rng.choices(range(1, k + 1), k=params.num_vertices))
        for labeling in (min_max_colors(params).witness, Labeling(params, colors, "external")):
            assert takes_class_path(labeling) == (k == 255)
            assert (labeling._classes is None) == (k == 256)
            for pi in (None, tuple(range(k - 1, 0, -1))):
                for threshold in (1, 2, k):
                    got = full_report(labeling, pi, threshold)
                    want = reference_report(params, labeling.colors, labeling.rule, pi, threshold)
                    assert serialized(got) == serialized(want), (k, pi, threshold)


def test_undefined_vertex_is_first_in_rank_order_at_k7_k8():
    for params in (Params(7, 3), Params(7, 6), Params(8, 2), Params(8, 7)):
        first = next(v for v in enumerate_vertices(params)
                     if params.k - params.q > max(t - x for t, x in enumerate(v, 1)))
        for pi in (None, *permutations(params.k)[::97]):
            for reading in READINGS:
                assert index_colors(params, pi, reading) == first


def test_class_rows_are_bytes_one_per_step_set():
    params = Params(6, 8)
    rows = _attaining_masks(params)[2]
    # one pi builds only the k rows its cells step by
    rows.clear()
    full_report(label_all(params, (2, 4, 1, 5, 3)), (2, 4, 1, 5, 3))
    assert sorted(rows) == [0, 1 << 3, 1 << 3 | 1 << 5, 1 << 1 | 1 << 3 | 1 << 5,
                            1 << 1 | 1 << 3 | 1 << 4 | 1 << 5, 0b111110]
    check_all_pi(params)
    assert len(rows) <= 1 << params.k - 1
    assert {type(row) for row in rows.values()} == {bytes}
    assert {len(row) for row in rows.values()} == {len(enumerate_vertices(params.base()))}
