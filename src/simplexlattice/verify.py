"""Exhaustive checks: admissibility of a labeling and colors-per-cell bounds.

Nothing here is sampled or probabilistic.  Every vertex and every cell of
the instance is visited, so a passing report at a given ``(k, q)`` is a
machine check of the claim at that size, and the violation lists of a
failing report are complete (serialization may cap them, the counts never
lie).

A color is one bit of a byte plane (plane ``p`` holds colors ``8p + 1`` to
``8p + 8``), and so is a cell's set of colors, so the scans read one-hot
bytes in C, a plane at a time.  A labeling whose colors fit a byte is
constant on classes it carries with a class -> color table: the rule's
where ``label_all`` kept them, else its colors as their own.  Admissibility
is one AND per plane of the classes' one-hot colors with the index's tie
planes, which mark the colors inadmissible at each vertex.  A cell's count
is the popcount of the OR of its vertices' one-hot colors, summed over the
planes: the ``t``-th vertex of the cell of ``pi`` at base ``b`` is
``b + e_S``, ``S`` the last ``t`` images of ``pi``.  The classes of each
``S`` over all bases are a row, built off one chain of ranks when a ``pi``
first needs it and kept with the classes, and each ``pi`` ORs ``k`` rows,
one-hot, masked to its consistent bases.  Colors past a byte (``k > 255``)
have no classes: the same count is a set per cell, as the tests' reference
report builds it, and each vertex's tie bit is tested in a loop, which is
how every failing labeling lists its violations.
"""

from __future__ import annotations

import itertools
import operator

from .labeling import READINGS, Labeling, _pi_descriptor, label_all
from .lattice import (
    Hyperedge,
    Params,
    Perm,
    Point,
    _check_permutation,
    _instance_index,
    _InstanceIndex,
    _Record,
    _permutations,
    identity_permutation,
)

# violation record types:
#   sperner: (vertex, color)
#   edge:    (base, perm, sorted color tuple)


class VerificationReport(_Record):
    """Outcome of checking one labeling against one edge set.

    ``sperner_*`` fields are None when only the color check ran, and the
    color-side fields are None when only the admissibility check ran.
    """

    _fields = (
        "params", "labeling_rule", "edge_rule", "threshold", "sperner_ok",
        "sperner_violations", "edges_checked", "max_colors_per_edge", "histogram",
        "violating_edges",
    )

    def __init__(
        self,
        params: Params,
        labeling_rule: str,
        edge_rule: str,
        threshold: int | None = None,
        sperner_ok: bool | None = None,
        sperner_violations: tuple[tuple[Point, int], ...] = (),
        edges_checked: int | None = None,
        max_colors_per_edge: int | None = None,
        histogram: dict[int, int] | None = None,
        violating_edges: tuple[tuple[Point, Perm, tuple[int, ...]], ...] = (),
    ) -> None:
        self.params = params
        self.labeling_rule = labeling_rule
        self.edge_rule = edge_rule
        self.threshold = threshold
        self.sperner_ok = sperner_ok
        self.sperner_violations = sperner_violations
        self.edges_checked = edges_checked
        self.max_colors_per_edge = max_colors_per_edge
        self.histogram = histogram
        self.violating_edges = violating_edges

    @property
    def passed(self) -> bool:
        if self.sperner_ok is False:
            return False
        if self.max_colors_per_edge is not None and self.violating_edges:
            return False
        return True


def edge_colors(edge: Hyperedge, labeling: Labeling) -> frozenset[int]:
    """The set of colors a labeling puts on one cell's vertices."""
    return frozenset(labeling.color_of(u) for u in edge.vertices)


# per byte plane of bits p..p+7: color c -> bit c - 1 - p there, else 0; a byte -> its popcount
_ONE_HOT = [(bytes(p + 1) + bytes([1, 2, 4, 8, 16, 32, 64, 128])).ljust(256, b"\0")[:256]
            for p in range(0, 256, 8)]
_POPCOUNT = bytes(bin(b).count("1") for b in range(256))


def _sperner_scan(labeling: Labeling) -> tuple[tuple[Point, int], ...]:
    # the vertices whose color is among their tie bits, in rank order; with
    # classes one AND per plane of those bits and the one-hot colors settles a pass
    classes = labeling._classes
    index = _instance_index(labeling.params)
    ties = index._ties
    if classes is None or any(int.from_bytes(plane, "little") & int.from_bytes(
            classes[0].translate(classes[2].translate(one_hot)), "little")
            for plane, one_hot in zip(ties, _ONE_HOT)):
        return tuple((v, c) for r, (v, c) in enumerate(zip(index.vertices, labeling.colors))
                     if ties[c - 1 >> 3][r] >> (c - 1 & 7) & 1)
    return ()


def check_sperner(labeling: Labeling) -> VerificationReport:
    """Does every vertex satisfy ``v_c > v_{c-1}`` for its color ``c``?

    Violations are listed exhaustively in vertex rank order.
    """
    violations = _sperner_scan(labeling)
    return VerificationReport(
        params=labeling.params,
        labeling_rule=labeling.rule,
        edge_rule="none",
        sperner_ok=not violations,
        sperner_violations=violations,
    )


def _cell_counts(labeling: Labeling, index: _InstanceIndex, perm: Perm) -> bytes | list[int]:
    # each cell's color count in lexicographic base order; past a byte a set per cell
    if labeling._classes is None:
        return [len(set(map(labeling.colors.__getitem__, cell))) for cell in index.cells(perm)]
    classes, rows, table = labeling._classes
    # the t-th vertex of a cell at base b is b + e_S, S the last t images of
    # pi; its class bytes over every base are kept by S alone, and the rows
    # pi lacks are read off its chain of ranks, as far as the last of them
    steps = list(itertools.accumulate([1 << j for j in reversed(perm)], operator.or_, initial=0))
    last = max((t for t, s in enumerate(steps) if s not in rows), default=-1)
    for s, ranks in zip(steps[:last + 1], index._chain(perm)):
        if s not in rows:
            rows[s] = bytes(map(classes.__getitem__, ranks))
    keep = index._consistent(perm)
    mask, n = int.from_bytes(keep, "little"), len(keep)
    # a count is at most k < 256, so no byte of the planes' sum carries, and
    # every cell shows a color, so the zero counts are the bases pi leaves out
    counts = 0
    for one_hot in _ONE_HOT[:len(index._ties)]:
        class_one_hot = table.translate(one_hot)
        union = 0
        for s in steps:
            union |= int.from_bytes(rows[s].translate(class_one_hot), "little")
        counts += int.from_bytes((union & mask).to_bytes(n, "little").translate(_POPCOUNT),
                                 "little")
    return counts.to_bytes(n, "little").translate(None, b"\0")


def check_colors(labeling: Labeling, pi: Perm | None = None,
                 threshold: int = 2) -> VerificationReport:
    """Histogram the per-cell color counts and list cells above ``threshold``.

    ``pi=None`` checks the identity edge set; a permutation checks the
    consistent cells of that permutation.
    """
    params = labeling.params
    if params.q < 1:
        raise ValueError("color check needs q >= 1 (no edges otherwise)")
    if type(threshold) is not int or threshold < 1:  # exact: bool subclasses int
        raise ValueError(f"threshold must be an int >= 1, got {threshold!r}")
    index = _instance_index(params)
    perm = identity_permutation(params) if pi is None else _check_permutation(pi, params)
    counts = _cell_counts(labeling, index, perm)
    histogram = {n: count for n in range(1, params.k + 1) if (count := counts.count(n))}
    max_colors = max(histogram, default=0)
    violating = ()
    if max_colors > threshold:
        # the cells one at a time off pi's chain: a list of them all costs more
        color = labeling.colors.__getitem__
        violating = tuple(
            (index.vertices[cell[0]], perm, tuple(sorted(set(map(color, cell)))))
            for cell, n in zip(zip(*index._chain(perm, index._consistent(perm))), counts)
            if n > threshold
        )
    return VerificationReport(
        params=params,
        labeling_rule=labeling.rule,
        edge_rule=_pi_descriptor(pi),
        threshold=threshold,
        edges_checked=sum(histogram.values()),
        max_colors_per_edge=max_colors,
        histogram=histogram,
        violating_edges=violating,
    )


def full_report(labeling: Labeling, pi: Perm | None = None,
                threshold: int = 2) -> VerificationReport:
    """Admissibility and color check in a single report."""
    report = check_colors(labeling, pi, threshold)
    report.sperner_violations = _sperner_scan(labeling)
    report.sperner_ok = not report.sperner_violations
    return report


def check_all_pi(params: Params, threshold: int = 2) -> list[VerificationReport]:
    """Build and check the permutation-rule labeling for every permutation.

    Reports come back in lexicographic permutation-image order.  For
    ``q < k`` the rule is partial and this propagates
    :class:`~simplexlattice.labeling.LabelUndefined`.
    """
    return [full_report(label_all(params, pi), pi, threshold) for pi in _permutations(params)]


def compare_pi_readings(params: Params, pi: Perm,
                        threshold: int = 2) -> tuple[VerificationReport, VerificationReport]:
    """Side-by-side verification of the two readings of the permutation rule.

    Returns (selected-index report, position report), both against the
    permutation's own edge set.  For the identity permutation the two
    labelings coincide pointwise; for others the position reading is
    expected to lose admissibility, and the reports show where.
    """
    return tuple(full_report(label_all(params, pi, reading), pi, threshold)
                 for reading in READINGS)
