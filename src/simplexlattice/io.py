"""File formats, report serialization, and the k=3 SVG renderer.

Every writer returns bytes and is deterministic: identical inputs give
byte-identical output.  Labeling files carry an explicit rule descriptor in
the header so an externally stored labeling stays traceable when it is
verified later.
"""

from __future__ import annotations

import json

from ._version import __version__ as TOOL_VERSION
from .labeling import Labeling
from .lattice import Params, Point, _instance_index, vertex_rank

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


def _labeling_json(labeling: Labeling, indent: int = 0) -> str:
    """A labeling's JSON object (``k``, ``q``, ``rule``, ``version``, then
    ``labels``: ``{"v": [...], "color": c}`` per vertex in rank order) as
    ``json.dumps(indent=2)`` lays it out, each line after the first shifted
    right by ``indent`` spaces, as it reads nested at that depth.  The rows
    come from one ``%d`` template, the text ``json.dumps`` gives the exact
    ints a Labeling holds, without the pure-Python encoder ``indent`` picks."""
    params, pad = labeling.params, " " * indent
    coords = f",\n{pad}        ".join(["%d"] * (params.k - 1))
    row = (f'{pad}    {{\n{pad}      "v": [\n{pad}        {coords}\n{pad}      ],\n'
           f'{pad}      "color": %d\n{pad}    }}')
    rows = ",\n".join([row % (*v, c) for v, c in
                       zip(_instance_index(params).vertices, labeling.colors)])
    return (
        f'{{\n{pad}  "k": {params.k},\n{pad}  "q": {params.q},\n'
        f'{pad}  "rule": {json.dumps(labeling.rule)},\n'
        f'{pad}  "version": {json.dumps(TOOL_VERSION)},\n'
        f'{pad}  "labels": [\n{rows}\n{pad}  ]\n{pad}}}'
    )


def _column_row(k: int) -> str:
    return ",".join([f"v{i}" for i in range(1, k)] + ["color"])


def write_labeling(labeling: Labeling, format: str = "json") -> bytes:
    """Serialize a labeling, rows in vertex-rank order.

    JSON is one object with the header fields inline; CSV carries the
    header as ``# key: value`` comment lines above the column row.  A rule
    that a CSV header line cannot carry (a line break, or whitespace at
    either end, which the reader strips) raises ValueError.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if format == "json":
        return (_labeling_json(labeling) + "\n").encode()

    params, rule = labeling.params, labeling.rule
    if rule != rule.strip() or len(f"{rule}.".splitlines()) > 1:
        raise ValueError(f"rule {rule!r} does not fit a CSV header line; write JSON")
    lines = [
        "# simplexlattice labeling",
        f"# version: {TOOL_VERSION}",
        f"# k: {params.k}",
        f"# q: {params.q}",
        f"# rule: {rule}",
        _column_row(params.k),
    ]
    row = ",".join(["%d"] * params.k)  # str(n) for the exact ints Labeling holds
    lines += [row % (*v, c) for v, c in zip(_instance_index(params).vertices, labeling.colors)]
    return ("\n".join(lines) + "\n").encode()


def _int(text: str) -> int | None:
    # int() also takes spaces, signs, "_" and non-ASCII digits; only the
    # writer's own spelling str(n) is an int in a labeling file
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None


def _parse_header(fields: dict, as_int) -> tuple[Params, str]:
    """``Params`` and the rule from a file's header fields; ``as_int``
    returns a value as an int, or None where the format spells no int."""
    for key in ("k", "q", "rule"):
        if key not in fields:
            raise LabelingFormatError(f"header is missing {key!r}")
    k, q, rule = as_int(fields["k"]), as_int(fields["q"]), fields["rule"]
    if k is None or q is None or type(rule) is not str:
        raise LabelingFormatError("bad header: k and q must be integers, rule a string")
    try:
        params = Params(k, q)
    except ValueError as exc:
        raise LabelingFormatError(f"bad header: {exc}") from exc
    return params, rule


def _check_rows(rows: list[tuple[Point, int, int]], params: Params,
                end_row: int) -> tuple[int, ...]:
    """Validate (vertex, color, row number) triples against V_{k,q}.

    Rows must be complete and in vertex-rank order; colors in [1, k].
    The header alone sets k and q, so the count is settled before any
    vertex is enumerated: first by |V| >= 2**min(k - 1, q), which needs no
    binomial of unbounded size, then exactly.
    """
    floor = min(params.k - 1, params.q)
    if floor >= len(rows).bit_length():
        raise LabelingFormatError(
            f"wrong row count: expected at least 2**{floor} vertices, got {len(rows)}",
            end_row,
        )
    count = params.num_vertices
    if len(rows) != count:
        row = rows[count][2] if len(rows) > count else end_row
        raise LabelingFormatError(
            f"wrong row count: expected {count} vertices, got {len(rows)}", row
        )
    index = _instance_index(params)
    for position, (v, c, row) in enumerate(rows):
        if not 1 <= c <= params.k:
            raise LabelingFormatError(
                f"color out of range: {c} not in 1..{params.k}", row
            )
        want = index.vertices[position]
        if v != want:
            # the rows before this one are exactly the vertices ranked below it
            try:
                rank = vertex_rank(v, params)
            except ValueError:
                raise LabelingFormatError(
                    f"{v} is not a point of V_{{{params.k},{params.q}}}", row
                ) from None
            if rank < position:
                raise LabelingFormatError(f"duplicate vertex {v}", row)
            raise LabelingFormatError(
                f"vertex {v} out of rank order (expected {want})", row
            )
    return tuple(c for _, c, _ in rows)


def _read_json(text: str) -> tuple[Params, str, list, int]:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals;
        # RecursionError comes from deeply nested arrays
        raise LabelingFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("labels"), list):
        raise LabelingFormatError("expected an object with a 'labels' array")
    # exact int: JSON true and false load as bool, a subclass of int
    params, rule = _parse_header(data, lambda x: x if type(x) is int else None)
    rows = []
    for i, entry in enumerate(data["labels"], start=1):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("v"), list)
            or not all(type(x) is int for x in entry["v"])
            or type(entry.get("color")) is not int
            or len(entry["v"]) != params.k - 1
        ):
            raise LabelingFormatError(
                f"malformed row: expected {{'v': [{params.k - 1} ints], 'color': int}}",
                i,
            )
        rows.append((tuple(entry["v"]), entry["color"], i))
    return params, rule, rows, len(rows) + 1


def _read_csv(text: str) -> tuple[Params, str, list, int]:
    lines = text.splitlines()
    fields = {}
    at = 0  # 0-based index of the line being read; its row number is at + 1
    while at < len(lines) and (lines[at].startswith("#") or not lines[at].strip()):
        key, sep, value = lines[at].lstrip("#").partition(":")
        if sep:
            fields[key.strip()] = value.strip()
        at += 1
    params, rule = _parse_header(fields, _int)
    if at == len(lines):
        raise LabelingFormatError("missing column header row")
    width = lines[at].count(",") + 1
    # the width first: k comes from the header and may be huge
    if width != params.k:
        raise LabelingFormatError(
            f"bad column header: expected {params.k} columns, got {width}", at + 1
        )
    want = _column_row(params.k)
    if lines[at] != want:
        raise LabelingFormatError(f"bad column header: expected {want}", at + 1)
    rows = []
    for lineno, line in enumerate(lines[at + 1:], start=at + 2):
        if not line.strip():
            continue
        if line.startswith("#"):
            raise LabelingFormatError("comment after data rows", lineno)
        cells = line.split(",")
        if len(cells) != params.k:
            raise LabelingFormatError(
                f"malformed row: expected {params.k} columns, got {len(cells)}", lineno
            )
        numbers = list(map(_int, cells))
        if None in numbers:
            raise LabelingFormatError(f"malformed row: non-integer entry in {cells}", lineno)
        rows.append((tuple(numbers[:-1]), numbers[-1], lineno))
    return params, rule, rows, len(lines) + 1


def read_labeling(data: bytes) -> Labeling:
    """Parse a labeling file written by :func:`write_labeling`.

    The format is sniffed: JSON when the first character after any
    leading whitespace is ``{``, ``[`` or a byte order mark, CSV otherwise,
    so that a JSON file of the wrong shape, or one behind a byte order
    mark, is refused as JSON.  Raises LabelingFormatError with the
    offending row number for malformed rows, wrong row counts, out-of-range
    colors, and duplicate vertices; any other undecodable input raises it
    too.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LabelingFormatError(f"not UTF-8 text: {exc}") from None
    read = _read_json if text.lstrip()[:1] in ("{", "[", "\ufeff") else _read_csv
    params, rule, rows, end_row = read(text)
    return Labeling(params, _check_rows(rows, params, end_row), rule)


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


def _report_json(view: dict, indent: int = 0) -> str:
    """A :func:`report_to_dict` view as ``json.dumps(indent=2)`` lays it out,
    each line after the first shifted right by ``indent`` spaces, as it
    reads nested at that depth (the text holds no line break of its own:
    ``json.dumps`` escapes those in strings)."""
    return json.dumps(view, indent=2).replace("\n", "\n" + " " * indent)


def write_report(report) -> bytes:
    """A ``VerificationReport`` as :func:`report_to_dict`'s JSON and a newline."""
    return (_report_json(report_to_dict(report)) + "\n").encode()


def write_oracle_result(result) -> bytes:
    """An ``OracleResult`` as one JSON object, laid out as
    ``json.dumps(indent=2)`` lays it out, and a newline; the witness, last,
    is written by :func:`_labeling_json`."""
    params = result.params
    head = json.dumps(dict(k=params.k, q=params.q, edge_rule=result.edge_rule,
                           min_max_colors=result.min_max_colors, exhausted=result.exhausted,
                           nodes_explored=result.nodes_explored), indent=2)[:-2]  # without "\n}"
    witness = "null" if result.witness is None else _labeling_json(result.witness, 2)
    return f'{head},\n  "witness": {witness}\n}}\n'.encode()


def oracle_result_to_dict(result) -> dict:
    """The object :func:`write_oracle_result` writes, as a dict."""
    return json.loads(write_oracle_result(result))


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

    def place(v: Point) -> tuple[str, str]:
        x = margin + v[0] * scale
        y = size - margin - v[1] * scale
        return f"{x:.1f}", f"{y:.1f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
    ]
    index = _instance_index(params)
    # by base rank; the stable sort keeps (1,2) before (2,1) as enumerate_facets does
    for cell in sorted(index.cells((1, 2)) + index.cells((2, 1)), key=lambda cell: cell[0]):
        points = " ".join(",".join(place(index.vertices[r])) for r in cell)
        parts.append(
            f'  <polygon points="{points}" fill="none" '
            f'stroke="#888888" stroke-width="1"/>'
        )
    radius = min(6.0, scale * 0.3)
    for v, c in zip(index.vertices, labeling.colors):
        x, y = place(v)
        parts.append(
            f'  <circle cx="{x}" cy="{y}" r="{radius:.1f}" '
            f'fill="{PALETTE[c]}" stroke="#333333" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode()
