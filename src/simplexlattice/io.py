"""File formats, report serialization, and the k=3 SVG renderer.

Every writer returns bytes and is deterministic: identical inputs give
byte-identical output.  Labeling files carry an explicit rule descriptor in
the header so an externally stored labeling stays traceable when it is
verified later; :mod:`simplexlattice.readers` reads them back.
"""

from __future__ import annotations

import json

from ._version import __version__ as TOOL_VERSION
from .labeling import Labeling
from .lattice import Params, _instance_index

FORMATS = ("json", "csv")

# Fixed fill palette keyed by color value, for k=3 renders.
PALETTE = {1: "#e41a1c", 2: "#377eb8", 3: "#4daf4a"}


class LabelingFormatError(ValueError):
    """Malformed labeling file.  ``row`` locates the offending entry:
    the file line for CSV, the 1-based index into ``labels`` for JSON."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class UnsupportedDimension(ValueError):
    pass


def _check_renderable(params: Params) -> None:
    if params.k != 3:
        raise UnsupportedDimension(f"rendering needs k=3, got k={params.k}")


def _header_text(params: Params, rule: str, format: str) -> str:
    """The six lines :func:`write_labeling` writes above the rows, each with its line break."""
    if format == "json":
        return (f'{{\n  "k": {params.k},\n  "q": {params.q},\n  "rule": {json.dumps(rule)},\n'
                f'  "version": {json.dumps(TOOL_VERSION)},\n  "labels": [\n')
    return (f"# simplexlattice labeling\n# version: {TOOL_VERSION}\n# k: {params.k}\n"
            f"# q: {params.q}\n# rule: {rule}\n{_column_row(params.k)}\n")


def _nested(text: str) -> str:
    """JSON text laid out by ``json.dumps(indent=2)`` as it reads one level
    deeper: each line after the first shifted right by two spaces (the text
    holds no line break of its own: ``json.dumps`` escapes those in strings)."""
    return text.replace("\n", "\n  ")


def _column_row(k: int) -> str:
    return ",".join([f"v{i}" for i in range(1, k)] + ["color"])


def _labeling_text(params: Params, colors: tuple[int, ...], rule: str, format: str) -> str:
    """What :func:`write_labeling` writes, as text; the oracle's witness is its
    JSON one level deeper.  JSON is ``json.dumps(indent=2)`` of ``k``, ``q``,
    ``rule``, ``version`` and ``labels`` (``{"v": [...], "color": c}`` per
    vertex in rank order).  Each format's rows come from one ``%d`` template:
    ``str(n)`` of a Labeling's exact ints, without the pure-Python encoder ``indent`` picks."""
    if format == "json":
        coords = ",\n        ".join(["%d"] * (params.k - 1))
        row = f'    {{\n      "v": [\n        {coords}\n      ],\n      "color": %d\n    }}'
        joiner, end = ",\n", "\n  ]\n}\n"
    elif rule == rule.strip() and len(f"{rule}.".splitlines()) == 1:
        # a CSV header line holds no line break, and the reader strips its ends
        row, joiner, end = ",".join(["%d"] * params.k), "\n", "\n"
    else:
        raise ValueError(f"rule {rule!r} does not fit a CSV header line; write JSON")
    rows = joiner.join([row % (*v, c) for v, c in zip(_instance_index(params).vertices, colors)])
    return _header_text(params, rule, format) + rows + end


def write_labeling(labeling: Labeling, format: str = "json") -> bytes:
    """Serialize a labeling, rows in vertex-rank order.

    JSON is one object with the header fields inline; CSV carries the
    header as ``# key: value`` comment lines above the column row.  A rule
    that a CSV header line cannot carry (a line break, or whitespace at
    either end, which the reader strips) raises ValueError.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    return _labeling_text(labeling.params, labeling.colors, labeling.rule, format).encode()


def report_to_dict(report, max_violations: int = 100) -> dict:
    """JSON-ready view of a ``VerificationReport``.  Violation lists are cut
    to ``max_violations`` entries; the ``*_count`` fields stay exact."""
    if type(max_violations) is not int or max_violations < 0:  # exact: bool subclasses int
        raise ValueError(f"max_violations must be an int >= 0, got {max_violations!r}")
    return {
        "k": report.params.k,
        "q": report.params.q,
        "labeling_rule": report.labeling_rule,
        "edge_rule": report.edge_rule,
        "threshold": report.threshold,
        "sperner_ok": report.sperner_ok,
        "sperner_violation_count": (
            None if report.sperner_ok is None else len(report.sperner_violations)
        ),
        "sperner_violations": [
            {"v": list(v), "color": c}
            for v, c in report.sperner_violations[:max_violations]
        ],
        "edges_checked": report.edges_checked,
        "max_colors_per_edge": report.max_colors_per_edge,
        "histogram": (
            None
            if report.histogram is None
            else {str(n): count for n, count in sorted(report.histogram.items())}
        ),
        "violating_edge_count": (
            None if report.edges_checked is None else len(report.violating_edges)
        ),
        "violating_edges": [
            {"base": list(base), "pi": list(pi), "colors": list(colors)}
            for base, pi, colors in report.violating_edges[:max_violations]
        ],
        "passed": report.passed,
    }


def _report_json(view: dict) -> str:
    """A :func:`report_to_dict` view as ``json.dumps(indent=2)`` lays it out."""
    return json.dumps(view, indent=2)


def write_report(report) -> bytes:
    """A ``VerificationReport`` as :func:`report_to_dict`'s JSON and a newline."""
    return (_report_json(report_to_dict(report)) + "\n").encode()


def write_oracle_result(result) -> bytes:
    """An ``OracleResult`` as one JSON object, laid out as
    ``json.dumps(indent=2)`` lays it out, and a newline; the witness, last,
    is its :func:`_labeling_text` JSON, without the line break that ends it,
    one level deeper."""
    params = result.params
    head = json.dumps(dict(k=params.k, q=params.q, edge_rule=result.edge_rule,
                           min_max_colors=result.min_max_colors, exhausted=result.exhausted,
                           nodes_explored=result.nodes_explored), indent=2)[:-2]  # without "\n}"
    w = result.witness
    witness = "null" if w is None else _nested(_labeling_text(w.params, w.colors, w.rule,
                                                              "json")[:-1])
    return f'{head},\n  "witness": {witness}\n}}\n'.encode()


def render_svg(labeling: Labeling) -> bytes:
    """Draw the colored triangulation for k=3.

    The dilated simplex is already the planar triangle with corners
    (0,0), (0,q), (q,q), so points are placed at raw (v1, v2).  Facets
    become outlined triangles, vertices circles filled by PALETTE.
    """
    params = labeling.params
    _check_renderable(params)
    size, margin = 480.0, 40.0
    scale = (size - 2 * margin) / max(params.q, 1)

    index = _instance_index(params)
    # each vertex's x and y text, once, by rank
    placed = [(f"{margin + v[0] * scale:.1f}", f"{size - margin - v[1] * scale:.1f}")
              for v in index.vertices]
    point = [f"{x},{y}" for x, y in placed]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
    ]
    # by base rank; the stable sort keeps (1,2) before (2,1) as enumerate_facets does
    for cell in sorted(index.cells((1, 2)) + index.cells((2, 1)), key=lambda cell: cell[0]):
        points = " ".join([point[r] for r in cell])
        parts.append(
            f'  <polygon points="{points}" fill="none" '
            f'stroke="#888888" stroke-width="1"/>'
        )
    radius = min(6.0, scale * 0.3)
    for (x, y), c in zip(placed, labeling.colors):
        parts.append(
            f'  <circle cx="{x}" cy="{y}" r="{radius:.1f}" '
            f'fill="{PALETTE[c]}" stroke="#333333" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()
