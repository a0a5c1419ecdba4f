"""The per-point reference API, which no command loads.

The tests compare each fast path with one of these: :func:`pi_hyperedge`
and :func:`is_consistent` with the index's cells, :func:`label` and
:func:`label_pi` with ``label_all``, and :func:`admissible_colors` with the
scans and the oracle's domains.  They read only the fast-path names that
``tests/test_structure.py`` pins."""

from __future__ import annotations

import json

from .io import write_oracle_result
from .labeling import (READING_SELECTED, READINGS, Labeling, LabelUndefined, _check_reading,
                       label_all)
from .lattice import (Params, Perm, Point, _check_permutation, _coordinates, _Frozen,
                      _inverse_descent_mask, _prefix_count, _tie_mask, enumerate_vertices,
                      identity_permutation, is_lattice_point)
from .verify import VerificationReport, _sperner_scan, full_report


class InconsistentPair(ValueError):
    """A (point, permutation) pair that is not a cell of the subdivision."""


class Hyperedge(_Frozen):
    """An ordered k-vertex cell of the subdivision.

    ``vertices[0]`` is the base point; ``vertices[j]`` adds the unit vectors
    ``e_{perm(k-1)}, ..., e_{perm(k-j)}`` to it.  Instances compare and hash
    by value.
    """

    __slots__ = _fields = ("base", "perm", "vertices")

    def __init__(self, base: Point, perm: Perm, vertices: tuple[Point, ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "vertices", vertices)

    def __repr__(self) -> str:  # the vertices left out
        return f"Hyperedge(base={self.base!r}, perm={self.perm!r})"


def coordinate(v: Point, t: int, params: Params) -> int:
    """Coordinate ``v_t`` under the convention ``v_0 = 0`` and ``v_k = q``."""
    if type(t) is not int or not 0 <= t <= params.k:  # exact: bool subclasses int
        raise ValueError(f"coordinate index {t!r} outside [0, {params.k}]")
    return _coordinates(v, params)[t]


def vertex_unrank(rank: int, params: Params) -> Point:
    """Inverse of :func:`vertex_rank`; digits are recovered by binary search."""
    if type(rank) is not int or not 0 <= rank < params.num_vertices:
        raise ValueError(f"rank {rank!r} outside [0, {params.num_vertices})")
    coords = []
    lo = 0
    m = params.k - 1
    for i in range(m):
        tail = m - 1 - i
        # largest digit x with _prefix_count(lo, x, ...) <= rank
        low, high = lo, params.q
        while low < high:
            mid = (low + high + 1) // 2
            if _prefix_count(lo, mid, params.q, tail) <= rank:
                low = mid
            else:
                high = mid - 1
        rank -= _prefix_count(lo, low, params.q, tail)
        coords.append(low)
        lo = low
    return tuple(coords)


def is_consistent(pi: Perm, v: Point) -> bool:
    """Whether ``i`` precedes ``i + 1`` in ``pi`` wherever ``v_i = v_{i+1}``.

    Exactly the consistent pairs index cells of the subdivision; the
    identity permutation is consistent with every point.  Raises
    ValueError unless ``pi`` is a permutation image over ``1..len(pi)``
    and ``v`` has ``len(pi)`` coordinates.
    """
    pi = _check_permutation(pi)
    if len(v) != len(pi):
        raise ValueError(f"point {v!r} does not have the {len(pi)} coordinates of {pi!r}")
    return not _inverse_descent_mask(pi) & _tie_mask(v)


def pi_hyperedge(v: Point, pi: Perm, params: Params) -> Hyperedge:
    """The cell based at ``v`` with increments applied in order
    ``e_{pi(k-1)}, e_{pi(k-2)}, ..., e_{pi(1)}``.

    Raises :class:`InconsistentPair` when the pair is not a cell: an
    inconsistent pair would step outside the lattice, and silently admitting
    it would corrupt cell counts downstream.
    """
    base_params = params.base()
    if not is_lattice_point(v, base_params):
        raise ValueError(
            f"base point must lie in the ({params.k},{params.q - 1}) lattice: {v!r}"
        )
    pi = _check_permutation(pi, params)
    if _inverse_descent_mask(pi) & _tie_mask(v):
        raise InconsistentPair(f"permutation {pi} is not consistent with {v}")
    current = list(v)
    vertices = [tuple(current)]
    for t in range(params.k - 1, 0, -1):
        current[pi[t - 1] - 1] += 1
        vertices.append(tuple(current))
    return Hyperedge(v, pi, tuple(vertices))


def hyperedge(v: Point, params: Params) -> Hyperedge:
    """The identity-permutation cell based at ``v``."""
    return pi_hyperedge(v, identity_permutation(params), params)


def enumerate_hyperedges(params: Params) -> list[Hyperedge]:
    """One identity cell per base point, in lexicographic base order."""
    return [hyperedge(v, params) for v in enumerate_vertices(params.base())]


def deficiency(v: Point, params: Params) -> int:
    """``max{t - v_t}`` over the extended index range [0, k]; never negative."""
    return max(t - x for t, x in enumerate(_coordinates(v, params)))


def argmin_index(v: Point, params: Params) -> int:
    """Smallest index attaining the deficiency; 0 exactly when it is 0."""
    return selected_index_pi(v, identity_permutation(params), params)


def label(v: Point, params: Params) -> int:
    """The identity-rule color ``argmin_index(v) + 1``.

    The returned color ``c`` always satisfies ``v_c > v_{c-1}``: an index
    attaining the maximum of ``t - v_t`` has a strictly larger successor
    coordinate, otherwise the successor would exceed the maximum.
    """
    return label_pi(v, identity_permutation(params), params)


def _scan(v: Point, pi: Perm, params: Params) -> tuple[int, int]:
    # first scan position whose index attains the deficiency -> (position, index)
    gaps = [t - x for t, x in enumerate(_coordinates(v, params))]
    r = max(gaps)
    for t, idx in enumerate((0, *_check_permutation(pi, params), params.k)):
        if gaps[idx] == r:
            return t, idx
    raise AssertionError("deficiency is attained somewhere by construction")


def selected_index_pi(v: Point, pi: Perm, params: Params) -> int:
    """The attaining coordinate index found first in the scan order
    ``0, pi(1), ..., pi(k-1), k``; equals :func:`argmin_index` for the
    identity permutation."""
    return _scan(v, pi, params)[1]


def label_pi(v: Point, pi: Perm, params: Params, reading: str = READING_SELECTED) -> int:
    """The permutation-rule color.

    With the default selected-index reading the admissibility constraint
    holds for the returned color, same argument as for :func:`label`.  The
    position reading does not carry that guarantee.
    """
    _check_reading(reading)
    t, idx = _scan(v, pi, params)
    if idx == params.k:
        # both readings run out of colors in the same situation: the scan
        # found the deficiency nowhere before position k
        raise LabelUndefined(v, params)
    return idx + 1 if reading == READING_SELECTED else t + 1


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


def edge_colors(edge: Hyperedge, labeling: Labeling) -> frozenset[int]:
    """The set of colors a labeling puts on one cell's vertices."""
    return frozenset(labeling.color_of(u) for u in edge.vertices)


def admissible_colors(v: Point, params: Params) -> frozenset[int]:
    """Colors ``c`` with ``v_c > v_{c-1}``; nonempty whenever ``q >= 1``
    because the virtual coordinates rise from 0 to q overall."""
    padded = _coordinates(v, params)
    return frozenset(c for c in range(1, params.k + 1) if padded[c] > padded[c - 1])


def oracle_result_to_dict(result) -> dict:
    """The object :func:`write_oracle_result` writes, as a dict."""
    return json.loads(write_oracle_result(result))
