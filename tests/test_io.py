import json
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexlattice import (
    READINGS,
    Labeling,
    LabelingFormatError,
    OracleResult,
    Params,
    UnsupportedDimension,
    __version__,
    check_sperner,
    enumerate_facets,
    enumerate_vertices,
    full_report,
    label_all,
    min_max_colors,
    oracle_result_to_dict,
    pi_hyperedge,
    read_labeling,
    render_svg,
    report_to_dict,
    write_labeling,
    write_oracle_result,
    write_report,
)
import simplexlattice.readers
from simplexlattice import lattice
from simplexlattice.io import _header_text
from simplexlattice.readers import _csv_header, _header, _read_rows, _read_written


def roundtrip(labeling, fmt):
    return read_labeling(write_labeling(labeling, fmt))


def test_json_layout():
    data = json.loads(write_labeling(label_all(Params(3, 4))))
    assert list(data) == ["k", "q", "rule", "version", "labels"]
    assert (data["k"], data["q"], data["rule"]) == (3, 4, "identity")
    assert len(data["labels"]) == 15
    assert data["labels"][0] == {"v": [0, 0], "color": 3}
    assert data["labels"][-1] == {"v": [4, 4], "color": 1}


def test_csv_layout():
    lines = write_labeling(label_all(Params(3, 4)), "csv").decode().splitlines()
    assert lines[0] == "# simplexlattice labeling"
    assert lines[2] == "# k: 3"
    assert lines[3] == "# q: 4"
    assert lines[4] == "# rule: identity"
    assert lines[5] == "v1,v2,color"
    assert lines[6] == "0,0,3"
    assert lines[-1] == "4,4,1"
    assert len(lines) == 6 + 15


def test_round_trips():
    for fmt in ("json", "csv"):
        for labeling in (
            label_all(Params(3, 4)),
            label_all(Params(4, 5)),
            label_all(Params(3, 5), (2, 1)),
            label_all(Params(3, 5), (2, 1), "position"),
            min_max_colors(Params(3, 2)).witness,
            Labeling(Params(3, 0), (2,), "external"),
        ):
            assert roundtrip(labeling, fmt) == labeling


@pytest.mark.parametrize("rule", ["a\nb", "a\x0cb", "a\r\nb", "a\u2028b", " x ", "x\n", "\tx"])
def test_csv_refuses_a_rule_its_header_cannot_carry(rule):
    lab = Labeling(Params(3, 0), (1,), rule)
    with pytest.raises(ValueError) as err:
        write_labeling(lab, "csv")
    assert repr(rule) in str(err.value)
    assert roundtrip(lab, "json") == lab


def test_a_rule_that_is_no_str_is_refused_before_any_writer():
    # a JSON file with rule 123 is one its reader refuses, and the CSV writer
    # reads the rule as text; the string spelling round-trips both formats
    for rule in (123, None, b"identity", True):
        with pytest.raises(ValueError, match=r"^rule must be a str, got "):
            Labeling(Params(3, 1), (3, 2, 1), rule)
    for fmt in ("json", "csv"):
        lab = Labeling(Params(3, 1), (3, 2, 1), "123")
        assert roundtrip(lab, fmt) == lab and roundtrip(lab, fmt).rule == "123"


@given(st.text())
def test_any_rule_reads_back_or_the_csv_writer_raises(rule):
    lab = Labeling(Params(3, 0), (2,), rule)
    assert roundtrip(lab, "json") == lab
    try:
        data = write_labeling(lab, "csv")
    except ValueError as err:
        assert repr(rule) in str(err)
        return
    assert read_labeling(data) == lab


def _json_reference(labeling: Labeling) -> dict:
    # built without the package's writer: vertices in enumeration order
    return {
        "k": labeling.params.k,
        "q": labeling.params.q,
        "rule": labeling.rule,
        "version": __version__,
        "labels": [{"v": list(v), "color": c}
                   for v, c in zip(enumerate_vertices(labeling.params), labeling.colors)],
    }


def _dumps(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


# a quote, a backslash, control characters, non-ASCII and U+2028
ESCAPED_RULES = ['say "hi"', "back\\slash", "\x00\t\n\r\x1f\x7f", "é ∆ 😀", "a\u2028b", ""]


def test_json_writer_matches_json_dumps():
    labelings = [label_all(Params(k, k + 1)) for k in range(3, 8)]
    labelings += [label_all(Params(8, 8)), label_all(Params(3, 50))]
    labelings += [Labeling(Params(k, 0), (k - 1,), "external") for k in range(3, 9)]
    for k, q in [(4, 6), (6, 7)]:
        reversed_pi = tuple(range(k - 1, 0, -1))
        labelings += [label_all(Params(k, q), reversed_pi, reading) for reading in READINGS]
    labelings += [Labeling(Params(4, 2), (4,) * 10, rule) for rule in ESCAPED_RULES]
    for labeling in labelings:
        assert write_labeling(labeling) == _dumps(_json_reference(labeling))


def test_oracle_witness_json_matches_json_dumps():
    results = [min_max_colors(Params(k, q)) for k, q in [(3, 1), (3, 4), (4, 3), (5, 3)]]
    results.append(min_max_colors(Params(3, 4), budget=5))  # no witness
    results += [OracleResult(Params(4, 1), "identity", 3,
                             Labeling(Params(4, 1), (4, 3, 2, 1), rule), 9, True)
                for rule in ESCAPED_RULES]
    for result in results:
        witness = result.witness
        expected = {
            "k": result.params.k,
            "q": result.params.q,
            "edge_rule": result.edge_rule,
            "min_max_colors": result.min_max_colors,
            "exhausted": result.exhausted,
            "nodes_explored": result.nodes_explored,
            "witness": None if witness is None else _json_reference(witness),
        }
        assert write_oracle_result(result) == _dumps(expected)
        assert list(oracle_result_to_dict(result).items()) == list(expected.items())


def test_single_row_for_q_zero():
    lab = Labeling(Params(3, 0), (1,), "external")
    assert len(json.loads(write_labeling(lab))["labels"]) == 1


def test_write_labeling_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_labeling(label_all(Params(3, 4)), "xml")


def test_writes_are_deterministic():
    lab = label_all(Params(4, 5))
    assert write_labeling(lab) == write_labeling(lab)
    assert write_labeling(lab, "csv") == write_labeling(lab, "csv")


def _mangled_json(mutate):
    data = json.loads(write_labeling(label_all(Params(3, 4))))
    mutate(data)
    return json.dumps(data).encode()


def expect_error(data, fragment, row=None):
    with pytest.raises(LabelingFormatError) as err:
        read_labeling(data)
    assert fragment in str(err.value)
    if row is not None:
        assert err.value.row == row


def test_json_errors():
    expect_error(b"{not json", "invalid JSON")
    expect_error(b'{"k": 3}', "'labels'")
    expect_error(_mangled_json(lambda d: d.pop("k")), "missing 'k'")
    expect_error(
        _mangled_json(lambda d: d.update(k=2)), "bad header"
    )
    expect_error(
        _mangled_json(lambda d: d["labels"][0].update(color=0)),
        "color out of range", row=1,
    )
    expect_error(
        _mangled_json(lambda d: d["labels"][3].update(color=4)),
        "color out of range", row=4,
    )
    expect_error(
        _mangled_json(lambda d: d["labels"].pop()),
        "wrong row count", row=15,
    )
    expect_error(
        _mangled_json(lambda d: d["labels"].append({"v": [4, 4], "color": 1})),
        "wrong row count", row=16,
    )
    expect_error(
        _mangled_json(lambda d: d["labels"][1].update(v=[0, 0])),
        "duplicate vertex", row=2,
    )
    expect_error(
        _mangled_json(lambda d: d["labels"][0].update(v=[9, 9])),
        "not a point", row=1,
    )
    expect_error(
        _mangled_json(lambda d: d["labels"][0].update(v=[0, 1]) or d["labels"][1].update(v=[0, 0])),
        "out of rank order", row=1,
    )
    expect_error(
        _mangled_json(lambda d: d["labels"][0].update(v=[0])),
        "malformed row", row=1,
    )
    expect_error(
        _mangled_json(lambda d: d["labels"][0].update(color="red")),
        "malformed row", row=1,
    )
    # JSON booleans are not ints, though Python's bool subclasses int
    expect_error(
        _mangled_json(lambda d: d["labels"][0].update(color=True)),
        "malformed row", row=1,
    )
    expect_error(
        _mangled_json(lambda d: d["labels"][0].update(v=[True, 0])),
        "malformed row", row=1,
    )
    # k and q are JSON integers and the rule a JSON string, nothing that
    # str() or int() would turn into one
    for field in ({"k": "3"}, {"q": True}, {"q": 4.0}, {"rule": None}, {"rule": 5}):
        expect_error(_mangled_json(lambda d: d.update(field)), "bad header")


def test_json_that_does_not_open_an_object_is_refused_as_json():
    written = write_labeling(label_all(Params(3, 4)))
    # an array of rows, and the writer's own file behind a UTF-8 byte order
    # mark, were read as CSV and refused for a header line
    expect_error(json.dumps(json.loads(written)["labels"]).encode(),
                 "expected an object with a 'labels' array")
    expect_error(b"  [1, 2]", "expected an object with a 'labels' array")
    expect_error(b"\xef\xbb\xbf" + written, "invalid JSON: Unexpected UTF-8 BOM")


def _mangled_csv(mutate):
    lines = write_labeling(label_all(Params(3, 4)), "csv").decode().splitlines()
    mutate(lines)
    return ("\n".join(lines) + "\n").encode()


def test_csv_errors():
    # data rows start at line 7: five comment lines plus the column header
    def set_line(i, value):
        def _mut(lines):
            lines[i] = value

        return _mut

    expect_error(_mangled_csv(set_line(6, "0,0,0")), "color out of range", row=7)
    expect_error(_mangled_csv(set_line(6, "0,0")), "malformed row", row=7)
    expect_error(_mangled_csv(set_line(6, "0,x,3")), "malformed row", row=7)
    # int() takes each of these; the writer spells none of them
    for entry in (" +0", "0_0", "+1", "00", "\u0663", "1 "):
        for row in (f"{entry},0,3", f"0,{entry},3", f"0,0,{entry}"):
            expect_error(_mangled_csv(set_line(6, row)),
                         "malformed row: non-integer entry", row=7)
    # CSV has no quoting: a quote is part of the entry
    for row in ('"0",0,3', '0,0,"3"', '0,0,"3'):
        expect_error(_mangled_csv(set_line(6, row)), "malformed row: non-integer entry", row=7)
    # bounded by int()'s digit limit, not by a field size limit of a CSV parser
    expect_error(_mangled_csv(set_line(6, "0,0," + "3" * 10**6)),
                 "malformed row: non-integer entry", row=7)
    expect_error(_mangled_csv(set_line(5, '"v1","v2","color"')), "bad column header", row=6)
    # header values follow the rule of the rows
    for value in ("+3", "0_3", "03", "\u0663", "3.0", "x"):
        expect_error(_mangled_csv(set_line(2, f"# k: {value}")), "bad header")
    for value in ("+4", "\u0664"):
        expect_error(_mangled_csv(set_line(3, f"# q: {value}")), "bad header")
    expect_error(_mangled_csv(set_line(7, "0,0,2")), "duplicate vertex", row=8)
    expect_error(_mangled_csv(set_line(5, "v1,color")), "bad column header", row=6)
    expect_error(_mangled_csv(lambda lines: lines.pop()), "wrong row count")
    expect_error(
        _mangled_csv(lambda lines: lines.append("4,4,1")), "wrong row count", row=22
    )
    expect_error(_mangled_csv(set_line(2, "# j: 3")), "missing 'k'")
    expect_error(_mangled_csv(lambda lines: lines.append("# note")), "comment after data")
    expect_error(b"# k: 3\n# q: 4\n# rule: external\n", "missing column header")


def test_blank_lines_among_csv_rows_are_skipped_and_still_numbered():
    # data rows at lines 7-10, blank lines 11-12, the fifth data row at line
    # 13, and two blank lines after the last data row
    def spaced(mutate=lambda lines: None):
        def _mut(lines):
            lines[10:10] = ["", "   "]
            lines += ["", "\t"]
            mutate(lines)

        return _mangled_csv(_mut)

    assert read_labeling(spaced()) == label_all(Params(3, 4))
    expect_error(spaced(lambda lines: lines.__setitem__(12, "0,x,3")),
                 "malformed row: non-integer entry", row=13)
    # 6 header lines, 14 data rows and 4 blank lines: the count error names
    # the line after the last
    expect_error(spaced(lambda lines: lines.pop(-3)),
                 "wrong row count: expected 15 vertices, got 14", row=25)


def test_undecodable_input_is_a_format_error():
    expect_error(b"\xff\xfe", "not UTF-8")
    csv_file = write_labeling(label_all(Params(3, 4)), "csv")
    expect_error(csv_file.replace(b"# rule", b"# \xff rule"), "not UTF-8")
    expect_error(b'{"k": 3, "q": ' + b"9" * 5000 + b', "rule": "x", "labels": []}',
                 "invalid JSON")
    expect_error(b'{"labels": ' + b"[" * 100_000, "invalid JSON")


def test_header_sizes_are_checked_before_enumerating():
    # Each header names a lattice far too large to enumerate; the reader
    # must refuse the file from its row count or width alone.
    rows = ", ".join(['{"v": [0, 0, 0, 0, 0, 0, 0], "color": 1}'] * 200)
    huge_q = f'{{"k": 8, "q": 1000000, "rule": "x", "labels": [{rows}]}}'.encode()
    expect_error(huge_q, f"wrong row count: expected {comb(1000007, 7)} vertices", row=201)
    expect_error(b'{"k": 8, "q": 1000000, "rule": "x", "labels": []}',
                 "wrong row count: expected at least 2**7 vertices, got 0", row=1)
    huge_both = b'{"k": 1' + b"0" * 100 + b', "q": 1' + b"0" * 100 + b', "rule": "x", "labels": []}'
    expect_error(huge_both, "wrong row count", row=1)
    wide = b"# k: 1000000000\n# q: 3\n# rule: x\nv1,color\n"
    expect_error(wide, "bad column header: expected 1000000000 columns, got 2", row=4)


SMALL_FILES = [write_labeling(label_all(Params(3, 3)), fmt) for fmt in ("json", "csv")]
# a wider instance: three coordinates a row, colors up to 4
WIDER_FILES = [write_labeling(label_all(Params(4, 5)), fmt) for fmt in ("json", "csv")]
# a quote, sign, digit or separator that a CSV parser or int() reads past
SPELLINGS = [b'"', b'""', b"+", b"0", b" ", b"_", "\u0663".encode()]


def own_format(data: bytes) -> str:
    # a file json.loads takes opens with "{" after JSON's whitespace, and a
    # CSV file the row reader takes opens with no "{" after any whitespace
    return "json" if data.lstrip()[:1] == b"{" else "csv"


@st.composite
def mutated_files(draw, files=SMALL_FILES + WIDER_FILES):
    data = draw(st.sampled_from(files))
    # cut anywhere, or where a line or an entry starts
    starts = [0, *(i + 1 for i, byte in enumerate(data) if byte in b",\n")]
    start = draw(st.integers(0, len(data)) | st.sampled_from(starts))
    end = draw(st.integers(start, min(len(data), start + 8)))
    insert = draw(st.binary(max_size=8) | st.sampled_from(SPELLINGS))
    return data[:start] + insert + data[end:]


@given(st.one_of(st.binary(max_size=256), mutated_files()))
def test_any_bytes_give_a_labeling_or_a_format_error(data):
    try:
        fields = _read_rows(data)
    except LabelingFormatError:
        fields = None
    assert _read_written(data) in (None, fields)  # one comparison agrees, or steps aside
    if fields is not None:  # the header read before the rows names this file, or steps aside
        assert _header(data) in (None, (own_format(data), fields[0], fields[2]))
    try:
        labeling = read_labeling(data)
    except LabelingFormatError:
        return
    assert isinstance(labeling, Labeling)


WRITTEN = [
    *(label_all(Params(k, q)) for k, q in ((3, 4), (4, 5), (6, 10), (8, 8), (10, 10))),
    label_all(Params(4, 5), (2, 3, 1)),
    min_max_colors(Params(3, 2)).witness,  # rule "oracle-witness"
    *(Labeling(Params(3, 3), label_all(Params(3, 3)).colors, rule)
      for rule in ('say "two"', "back\\slash", "na\u00efve \u2603", "line\u2028break")),
]


@pytest.mark.parametrize("labeling", WRITTEN, ids=lambda labeling: labeling.rule)
def test_written_files_are_read_back_by_one_comparison(labeling):
    fields = (labeling.params, labeling.colors, labeling.rule)
    formats = ["json", "csv"] if "\u2028" not in labeling.rule else ["json"]
    for fmt in formats:
        data = write_labeling(labeling, fmt)
        assert _read_written(data) == _read_rows(data) == fields, fmt
        assert read_labeling(data) == labeling
    # the same labeling in a layout the writer does not make goes row by row
    json_data = write_labeling(labeling).replace(__version__.encode(), b"0.0.0", 1)
    assert _read_written(json_data) is None and _read_rows(json_data) == fields
    if "csv" in formats:
        crlf = write_labeling(labeling, "csv").replace(b"\n", b"\r\n")
        assert _read_written(crlf) is None and _read_rows(crlf) == fields


def relaid(labeling: Labeling) -> dict[str, bytes]:
    """The file of ``labeling`` in layouts the writer does not make, by name."""
    data = write_labeling(labeling)
    forms = {"json-minified": json.dumps(json.loads(data), separators=(",", ":")).encode(),
             # json.dumps(indent=0) of the same object, without its pure-Python encoder
             "json-indent0": b"\n".join(line.lstrip(b" ") for line in data.split(b"\n"))}
    # an earlier "k" that the header's own overrides, as json.loads keeps the last
    forms["json-shadowed"] = b'{"k": %d, ' % (labeling.params.k + 1) + data[1:]
    if "\u2028" not in labeling.rule:
        data = write_labeling(labeling, "csv")
        forms["csv-crlf"] = data.replace(b"\n", b"\r\n")
        forms["csv-comments"] = b"# k: %d\n\n  \n# note\f" % (labeling.params.k + 1) + data
    return forms


@pytest.mark.parametrize("labeling", WRITTEN, ids=lambda labeling: labeling.rule)
def test_a_header_in_any_layout_names_the_files_own_instance(labeling):
    # the early read of the header never refuses a file the row reader takes
    fields = (labeling.params, labeling.colors, labeling.rule)
    for name, data in relaid(labeling).items():
        assert _read_rows(data) == fields, name
        if name == "json-indent0" and labeling.params == Params(3, 4):
            assert data == json.dumps(json.loads(data), indent=0).encode() + b"\n"
        assert _header(data) == (name.partition("-")[0], labeling.params, labeling.rule), name


def spelled(value, escaped: bool = False) -> str:
    """``value`` as JSON text, spelled by hand; a string's every character
    ``\\uXXXX``-escaped where ``escaped`` (the strings escaped here are ASCII)."""
    if type(value) is str:
        if escaped:
            return '"' + "".join(f"\\u{ord(c):04x}" for c in value) + '"'
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if type(value) is list:
        return "[" + ", ".join(map(spelled, value)) + "]"
    if value is None or type(value) is bool:
        return {None: "null", True: "true", False: "false"}[value]
    return repr(value)  # an int or a finite float, spelled as JSON spells it


SPACE = st.text(" \t\n\r", max_size=2)  # JSON's whitespace, or none
PRINTABLE = st.characters(blacklist_categories=("Cc", "Cs"))
OTHER_VALUE = (st.integers(-5, 400) | st.booleans() | st.none()
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.text(PRINTABLE, max_size=4) | st.lists(st.integers(0, 9), max_size=3))
HEADER_VALUES = {"k": st.integers(0, 12), "q": st.integers(-1, 400),
                 "rule": st.text(PRINTABLE, max_size=12).filter(lambda rule: "labels" not in rule)}


@st.composite
def header_members(draw, keys=("k", "q", "rule", "other")):
    """``(key, value, text)`` members in any order, repeats among them, each
    text with JSON's whitespace or none around its parts; no ``"labels"``
    appears in the text of any but a member keyed ``labels``."""
    members = []
    present = [key for key in HEADER_VALUES if draw(st.integers(0, 7))]  # most often all three
    for key in draw(st.permutations(present + draw(st.lists(st.sampled_from(keys), max_size=5)))):
        if key == "other":
            key = draw(st.text("abcdefklqrsuv", min_size=1, max_size=7)
                       .filter(lambda key: "labels" not in key))
        # a header value most often, any other value otherwise
        value = draw(HEADER_VALUES[key] if key in HEADER_VALUES and draw(st.integers(0, 3))
                     else OTHER_VALUE)
        key_text = spelled(key, key != "labels" and draw(st.booleans()))
        space = [draw(SPACE) for _ in range(4)]
        members.append((key, value, f"{space[0]}{key_text}{space[1]}:{space[2]}"
                                    f"{spelled(value)}{space[3]}"))
    return members


@settings(max_examples=300)
@given(header_members(), header_members(("k", "q", "rule", "labels", "other")))
def test_the_json_header_is_the_last_of_each_key_before_labels(head, tail):
    # the members before "labels" name the instance, as json.loads keeps the
    # last of each key; none after the labels array counts, "labels" included
    texts = ([text for _, _, text in head] + ['"labels": [{"v": [0, 0], "color": 3}]']
             + [text for _, _, text in tail])
    document = "{" + ",".join(texts) + "}"
    last = {key: value for key, value, _ in head}
    try:
        params = Params(last["k"], last["q"])
    except (KeyError, ValueError):
        params = None
    rule = last.get("rule")
    expected = ("json", params, rule) if params is not None and type(rule) is str else None
    assert _header(document.encode()) == expected, document


def test_the_csv_header_splits_lines_where_str_splitlines_splits():
    # the field "#i:" starts a line exactly where code point i - 1 breaks one;
    # the CRLF below is one break, so the column row's index counts one line
    # for each field
    expected = set()
    for plane in range(17):  # every code point but the surrogates, a plane at a time
        points = [(c, chr(c)) for c in range(plane << 16, (plane + 1) << 16)
                  if not 0xD800 <= c < 0xE000]
        text = "".join(f"#{c}:{p}" for c, p in points) + "\r\n#crlf:\r\nv1,color\n"
        breaks = {str(c + 1) for c, p in points if len(f"a{p}b".splitlines()) == 2}
        for data in (text, text.encode()):
            fields, at = _csv_header(data)
            assert (set(fields), at) == (breaks | {str(plane << 16), "crlf"}, len(breaks) + 2)
        expected |= breaks
    assert expected == {str(ord(c) + 1) for c in "\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_huge_header_is_refused_unformed(fmt, monkeypatch):
    # no binomial C(2 * 10**6 - 1, 10**6 - 1) is formed on the way to the refusal
    def no_binomial(*args):
        pytest.fail("a binomial was formed")

    data = write_labeling(label_all(Params(3, 3)), fmt)
    for key in ("k", "q"):
        line = f'  "{key}": 3,\n' if fmt == "json" else f"# {key}: 3\n"
        assert line.encode() in data
        data = data.replace(line.encode(), line.replace("3", "1000000").encode(), 1)
    monkeypatch.setattr(lattice, "comb", no_binomial)
    start = time.perf_counter()
    assert _read_written(data) is None
    with pytest.raises(LabelingFormatError):
        read_labeling(data)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_wide_header_over_short_rows_is_refused_unenumerated(fmt, monkeypatch):
    # C(20000, 19999) = 20000 short rows pass the row-count checks; the
    # writer's rows for k = 20000 would fill some 800 MB, so no vertex of
    # V_{20000,1} is enumerated on the way to the refusal
    def no_vertices(*args):
        pytest.fail("vertices were enumerated")

    k = 20000
    row = b'      "color": 1\n' if fmt == "json" else b"0,1\n"
    data = _header_text(Params(k, 1), "identity", fmt).encode() + row * k
    assert _header(data)[1] == Params(k, 1)
    monkeypatch.setattr(lattice, "enumerate_vertices", no_vertices)
    assert _read_written(data) is None
    with pytest.raises(LabelingFormatError):
        read_labeling(data)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_another_versions_file_goes_to_the_row_reader_unwritten(fmt, monkeypatch):
    # a header that differs from this version's writer is found out before
    # the colors are gathered and the file is written again
    def unwritten(*args):
        pytest.fail("the file was written again")

    labeling = label_all(Params(8, 8))
    data = write_labeling(labeling, fmt).replace(__version__.encode(), b"0.0.0", 1)
    monkeypatch.setattr(simplexlattice.readers, "_labeling_text", unwritten)
    assert _read_written(data) is None
    assert read_labeling(data) == labeling


def _data_rows(data: bytes) -> list[str]:
    # the lines after the column header, split as the reader splits them
    return [line for line in data.decode().splitlines()
            if line.strip() and not line.startswith("#")][1:]


@settings(max_examples=500)  # enough to land a quote where a CSV parser would drop it
@given(mutated_files(SMALL_FILES[1:]))
def test_accepted_csv_rows_are_spelled_as_written(data):
    try:
        labeling = read_labeling(data)
    except LabelingFormatError:
        return
    assert _data_rows(data) == _data_rows(write_labeling(labeling, "csv"))


def test_error_row_is_exposed():
    try:
        read_labeling(_mangled_csv(lambda lines: lines.__setitem__(6, "0,0,9")))
    except LabelingFormatError as err:
        assert err.row == 7
    else:
        pytest.fail("expected LabelingFormatError")


def test_report_serialization():
    report = full_report(label_all(Params(3, 4)), None, 1)
    data = report_to_dict(report)
    assert data["passed"] is False
    assert data["histogram"] == {"1": 5, "2": 5}
    assert data["violating_edge_count"] == 5
    assert len(data["violating_edges"]) == 5
    assert {"base": [0, 0], "pi": [1, 2], "colors": [2, 3]} in data["violating_edges"]

    capped = report_to_dict(report, max_violations=2)
    assert capped["violating_edge_count"] == 5
    assert len(capped["violating_edges"]) == 2
    assert report_to_dict(report, max_violations=0)["violating_edges"] == []
    # a negative cap would drop entries from the end, a float or bool is no count
    for bad in (-1, 2.0, True, None):
        with pytest.raises(ValueError, match="max_violations"):
            report_to_dict(report, max_violations=bad)

    assert write_report(report) == write_report(report)
    assert write_report(report).endswith(b"\n")


def test_sperner_only_report_serializes_with_nulls():
    data = report_to_dict(check_sperner(label_all(Params(3, 4))))
    assert data["sperner_ok"] is True
    assert data["threshold"] is None
    assert data["histogram"] is None
    assert data["edges_checked"] is None


def test_oracle_result_serialization():
    result = min_max_colors(Params(3, 2))
    data = oracle_result_to_dict(result)
    assert data["min_max_colors"] == 2
    assert data["exhausted"] is True
    assert data["witness"]["rule"] == "oracle-witness"
    assert len(data["witness"]["labels"]) == 6
    assert write_oracle_result(result) == write_oracle_result(result)

    starved = min_max_colors(Params(3, 4), budget=5)
    assert oracle_result_to_dict(starved)["witness"] is None


def test_render_counts():
    svg = render_svg(label_all(Params(3, 4)))
    assert svg.startswith(b"<?xml")
    assert svg.count(b"<circle") == 15
    assert svg.count(b"<polygon") == 16

    small = render_svg(min_max_colors(Params(3, 2)).witness)
    assert small.count(b"<circle") == 6
    assert small.count(b"<polygon") == 4

    point = render_svg(Labeling(Params(3, 0), (2,), "external"))
    assert point.count(b"<circle") == 1
    assert point.count(b"<polygon") == 0


def test_render_polygons_follow_enumerate_facets():
    # order and coordinates of every facet outline, against the route
    # through enumerate_facets and pi_hyperedge
    for q in range(0, 9):
        params = Params(3, q)
        scale = 400.0 / max(q, 1)
        want = []
        for v, pi in enumerate_facets(params) if q >= 1 else []:
            points = " ".join(f"{40 + u[0] * scale:.1f},{440 - u[1] * scale:.1f}"
                              for u in pi_hyperedge(v, pi, params).vertices)
            want.append(f'  <polygon points="{points}" fill="none" '
                        f'stroke="#888888" stroke-width="1"/>')
        svg = render_svg(Labeling(params, (1,) * params.num_vertices, "external"))
        got = [line for line in svg.decode().splitlines() if "<polygon" in line]
        assert got == want, q


def test_render_rejects_other_dimensions():
    with pytest.raises(UnsupportedDimension):
        render_svg(label_all(Params(4, 5)))


def test_render_is_deterministic():
    lab = label_all(Params(3, 5))
    assert render_svg(lab) == render_svg(lab)
