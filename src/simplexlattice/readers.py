"""Readers of the labeling files that :mod:`simplexlattice.io` writes; of
the commands, only ``verify --labels`` loads them."""

from __future__ import annotations

import json
import re

from .io import LabelingFormatError, _column_row, _fits_csv_header, _header_text, _labeling_text
from .labeling import Labeling
from .lattice import Params, Point, _instance_index, vertex_rank


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


# Where write_labeling puts k, q and the rule: on three lines from the
# second (JSON) or the third (CSV), each behind its key and, in JSON, before
# a comma; the rows follow the header's six lines.
_HEADER = {"json": (1, b'  "%s": ', b","), "csv": (2, b"# %s: ", b"")}
# what precedes each color where write_labeling puts it, up to its line's end
_COLOR = {"json": rb'"color": ([0-9]+)\n', "csv": rb",([0-9]+)\n"}


def _written_header(data: bytes) -> tuple[str, Params, str, bytes] | None:
    """The format, instance and rule of a labeling file, read off the lines
    where :func:`write_labeling` puts them, and the header's six lines; None
    where those lines say otherwise.  Never raises."""
    stop = -1
    for _ in range(6):  # the header alone is copied, not the rows
        stop = data.find(b"\n", stop + 1)
        if stop < 0:
            return None
    head = data[:stop + 1]
    fmt = "json" if head[:1] == b"{" else "csv"
    first, key, end = _HEADER[fmt]
    values = []
    for name, line in zip((b"k", b"q", b"rule"), head.split(b"\n")[first:first + 3]):
        start = key % name
        if not (line.startswith(start) and line.endswith(end)):
            return None
        values.append(line[len(start):len(line) - len(end)])
    try:
        k, q, rule = [value.decode() for value in values]
        rule = json.loads(rule) if fmt == "json" else rule
        params = Params(_int(k), _int(q))  # an int's own spelling, or None
    except (ValueError, RecursionError):  # UnicodeDecodeError and JSONDecodeError included
        return None
    return (fmt, params, rule, head) if type(rule) is str else None


def _read_written(data: bytes) -> tuple[Params, tuple[int, ...], str] | None:
    """The fields of the labeling that :func:`write_labeling` writes as
    exactly ``data``, or None.  The header is compared with the writer's,
    the colors are taken from where the writer puts them and checked as
    :func:`_check_rows` checks a file's rows, and the whole is written again
    and compared with ``data``; so what it returns is what the row reader
    makes of ``data``.  Never raises."""
    header = _written_header(data)
    if header is None:
        return None
    fmt, params, rule, head = header
    # the width first, as _read_csv has it: k comes from the header and may be huge
    if fmt == "csv" and (head.split(b"\n")[5].count(b",") + 1 != params.k
                         or not _fits_csv_header(rule)):  # the writer raises on those
        return None
    if head != _header_text(params, rule, fmt).encode():
        return None
    spelled = re.compile(_COLOR[fmt]).findall(data, len(head))
    # the floor first, as _check_rows has it, so that no binomial is formed
    # before it holds; then each of the writer's rows spends at least two
    # bytes on each of its k entries, so no vertex is enumerated for a file
    # too short to hold them
    if (min(params.k - 1, params.q) >= len(spelled).bit_length()
            or len(spelled) != params.num_vertices
            or len(spelled) * params.k > len(data)):
        return None
    try:
        colors = tuple(map(int, spelled))
    except ValueError:  # more digits than int() reads
        return None
    if (not 1 <= min(colors) <= max(colors) <= params.k
            or _labeling_text(params, colors, rule, fmt) != data):
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
    undecodable input raises it too.
    """
    return Labeling(*(_read_written(data) or _read_rows(data)))
