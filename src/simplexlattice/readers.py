"""Readers of the labeling files that :mod:`simplexlattice.io` writes; of
the commands, only ``verify --labels`` loads them."""

from __future__ import annotations

import codecs
import json
import re

from .io import LabelingFormatError, _column_row, _header_text, _labeling_text
from .labeling import Labeling
from .lattice import Params, Point, _instance_index, vertex_rank

_UTF8 = codecs.getincrementaldecoder("utf-8")  # holds back a character cut at the end


def _int(text: str) -> int | None:
    # int() also takes spaces, signs, "_" and non-ASCII digits; only the
    # writer's own spelling str(n) is an int in a labeling file
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None


def _parse_header(fields: dict, fmt: str) -> tuple[Params, str]:
    """``Params`` and the rule from a file's header fields: ints spelled as
    the writer spells them in CSV, exact ints in JSON (not bool)."""
    for key in ("k", "q", "rule"):
        if key not in fields:
            raise LabelingFormatError(f"header is missing {key!r}")
    as_int = _int if fmt == "csv" else lambda x: x if type(x) is int else None
    k, q, rule = as_int(fields["k"]), as_int(fields["q"]), fields["rule"]
    if k is None or q is None or type(rule) is not str:
        raise LabelingFormatError("bad header: k and q must be integers, rule a string")
    try:
        params = Params(k, q)
    except ValueError as exc:
        raise LabelingFormatError(f"bad header: {exc}") from exc
    return params, rule


def _csv_header(data: str | bytes) -> tuple[dict, int | None]:
    """The ``# key: value`` fields of the comment and blank lines that open a CSV
    file's text or bytes, and the 0-based index of the column row, or None; read
    off a prefix that doubles until the column row starts in it (bytes decoded)."""
    size = 1024
    while True:
        head, fields = data[:size], {}
        lines = (head if type(head) is str else _UTF8().decode(head)).splitlines()
        for at, line in enumerate(lines):
            if line.strip() and not line.startswith("#"):
                return fields, at
            key, sep, value = line.lstrip("#").partition(":")
            if sep:
                fields[key.strip()] = value.strip()
        if size >= len(data):
            return fields, None
        size *= 2


def _header(data: bytes) -> tuple[str, Params, str] | None:
    """The format, instance and rule that a labeling file's header names, read
    off the header alone in any layout, or None.  Never raises.  In JSON the
    header is the members before the first ``"labels"``, closed into an object
    of their own by ``:0}``, so ``json.loads`` keeps the last of each key."""
    try:
        if re.match(rb"[ \t\n\r]*[{[]", data):  # JSON as json.loads takes it
            cut = data.find(b'"labels"') + len('"labels"')
            # decoded as UTF-8 alone, where json.loads(bytes) would take UTF-16 and -32 too
            fields = json.loads(data[:cut].decode() + ":0}") if cut > 7 else {}
            # no "labels" key: the cut closed a key that ends in an escaped quote, as "a\"labels"
            return ("json", *_parse_header(fields, "json")) if "labels" in fields else None
        return "csv", *_parse_header(_csv_header(data)[0], "csv")
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError included
        return None


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
    params, rule = _parse_header(data, "json")
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
    fields, at = _csv_header(text)  # the column row is line at + 1
    params, rule = _parse_header(fields, "csv")
    if at is None:
        raise LabelingFormatError("missing column header row")
    lines = text.splitlines()
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


# what precedes each color where write_labeling puts it, up to its line's end
_COLOR = {"json": rb'"color": ([0-9]+)\n', "csv": rb",([0-9]+)\n"}


def _read_written(data: bytes) -> tuple[Params, tuple[int, ...], str] | None:
    """The fields of the labeling that :func:`write_labeling` writes as
    exactly ``data``, or None.  The header :func:`_header` reads is compared
    with the writer's, the colors are taken from where the writer puts them
    and checked as :func:`_check_rows` checks rows, and the whole is written
    again and compared with ``data``; so it returns what the row reader makes
    of ``data``.  Never raises."""
    header = _header(data)
    if header is None:
        return None
    fmt, params, rule = header
    # the floor first, as _check_rows has it, so no binomial is formed before it holds;
    # the writer spends 2 bytes or more on each entry of a row, 3 on each of a CSV column
    # row, so no vertex is enumerated nor a column row built for more than data holds
    if (min(params.k - 1, params.q) >= len(data).bit_length()
            or (2 * params.num_vertices + 3) * params.k > len(data)):
        return None
    head = _header_text(params, rule, fmt).encode()
    if not data.startswith(head):
        return None
    spelled = re.compile(_COLOR[fmt]).findall(data, len(head))
    if len(spelled) != params.num_vertices:
        return None
    try:
        colors = tuple(map(int, spelled))
    except ValueError:  # more digits than int() reads
        return None
    if (not 1 <= min(colors) <= max(colors) <= params.k
            or _labeling_text(params, colors, rule, fmt).encode() != data):
        return None
    return params, colors, rule


def _read_rows(data: bytes) -> tuple[Params, tuple[int, ...], str]:
    """The fields of the labeling in ``data``, parsed row by row."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LabelingFormatError(f"not UTF-8 text: {exc}") from None
    read = _read_json if text.lstrip()[:1] in ("{", "[", "\ufeff") else _read_csv
    params, rule, rows, end_row = read(text)
    header = _header(data) if read is _read_json else None
    if header not in (None, ("json", params, rule)):  # json.loads keeps a key's last value
        raise LabelingFormatError(
            f"header keys repeated with other values: k={header[1].k}, q={header[1].q}, "
            f"rule={header[2]!r} before 'labels', k={params.k}, q={params.q}, rule={rule!r} last")
    return params, _check_rows(rows, params, end_row), rule


def read_labeling(data: bytes) -> Labeling:
    """Parse a labeling file written by :func:`write_labeling`.

    Bytes that are exactly what this version's writer writes are read back
    by one comparison; any other file is parsed row by row, to the same
    labeling or the same error.  The format is sniffed: JSON when the first
    character after any leading whitespace is ``{``, ``[`` or a byte order
    mark, CSV otherwise, so that a JSON file of the wrong shape, or one
    behind a byte order mark, is refused as JSON.  Raises
    LabelingFormatError with the offending row number for malformed rows,
    wrong row counts, out-of-range colors, and duplicate vertices; any other
    undecodable input raises it too, and so does a JSON file whose ``k``,
    ``q`` or ``rule`` before ``"labels"`` differ from the last in the file.
    """
    return Labeling(*(_read_written(data) or _read_rows(data)))
