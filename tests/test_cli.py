import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from math import comb, factorial
from pathlib import Path

import pytest

import simplexlattice
from simplexlattice import (LabelingFormatError, Params, check_all_pi, cli, full_report,
                            label_all, lattice, read_labeling, readers, report_to_dict,
                            write_labeling)
from simplexlattice.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
EXPECTED = PYPROJECT.parent / "bench" / "expected.json"
# Child interpreters import the same simplexlattice package as this test run.
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(simplexlattice.__file__).resolve().parents[1])}
# Runs a "module:attr" entry point the way a console-script wrapper does.
RUN_ENTRY_POINT = """\
import importlib, sys
module, _, attr = sys.argv.pop(1).partition(":")
getattr(importlib.import_module(module), attr)()
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "0.1.0" in out


def test_version_is_spelled_alike_in_pyproject():
    # an install reads pyproject.toml; --version and labeling files read _version.py
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["version"] == simplexlattice.__version__


def test_label_writes_parseable_file(tmp_path, capsys):
    path = tmp_path / "lab.json"
    code, _, _ = run(capsys, "label", "--k", "3", "--q", "4", "--out", str(path))
    assert code == 0
    labeling = read_labeling(path.read_bytes())
    assert labeling.params == Params(3, 4)
    assert labeling.rule == "identity"

    csv_path = tmp_path / "lab.csv"
    code, _, _ = run(capsys, "label", "--k", "3", "--q", "5", "--pi", "2,1",
                     "--format", "csv", "--out", str(csv_path))
    assert code == 0
    assert read_labeling(csv_path.read_bytes()).rule == "pi:2,1"


def test_label_undefined_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "label", "--k", "3", "--q", "2",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "--q" in err and "(1, 2)" in err


def test_label_rejects_bad_pi(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    code, _, err = run(capsys, "label", "--k", "3", "--q", "4", "--pi", "2,2", "--out", out)
    assert code == 2 and "--pi" in err
    code, _, err = run(capsys, "label", "--k", "3", "--q", "4", "--pi", "a,b", "--out", out)
    assert code == 2 and "--pi" in err


@pytest.mark.parametrize("text, ok", [
    ("2,1,3", True), ("3,2,1", True), (" 2,1,3", True), ("2,2,1", False),
    ("1,2", False), ("2,1,3,4", False), ("a,b,c", False), ("", False),
])
def test_pi_flag_and_rule_descriptor_parse_alike(capsys, text, ok):
    code, out, err = run(capsys, "verify", "--k", "4", "--q", "5", "--pi", text)
    assert code == (0 if ok else 2)
    assert err.startswith("error: --pi: ") != ok
    if ok:  # the report names its cells by the image the flag spells
        assert json.loads(out)["edge_rule"] == "pi:" + text.strip()


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--k", "4", "--q", "5", "--threshold", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = run(capsys, "verify", "--k", "3", "--q", "4", "--threshold", "1")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["violating_edge_count"] == 5


def test_verify_pi_and_all_pi(capsys):
    code, out, _ = run(capsys, "verify", "--k", "3", "--q", "4", "--pi", "2,1")
    assert code == 0
    assert json.loads(out)["edge_rule"] == "pi:2,1"

    code, out, _ = run(capsys, "verify", "--k", "3", "--q", "4", "--all-pi")
    assert code == 0
    reports = json.loads(out)
    assert [r["edge_rule"] for r in reports] == ["pi:1,2", "pi:2,1"]
    assert all(r["passed"] for r in reports)

    code, out, _ = run(capsys, "verify", "--k", "4", "--q", "5", "--all-pi")
    assert code == 0
    reports = json.loads(out)
    assert [r["edge_rule"] for r in reports] == ["pi:1,2,3", "pi:1,3,2", "pi:2,1,3",
                                                 "pi:2,3,1", "pi:3,1,2", "pi:3,2,1"]
    assert all(r["passed"] for r in reports)


def test_all_pi_holds_one_full_report_at_a_time(monkeypatch, capsys):
    # the output keeps a capped view of each report, so no full report (with
    # every violation) needs to outlive the next one being built
    full_report, returned, alive = cli.full_report, [], []

    def recording(*args):
        alive.append(sum(ref() is not None for ref in returned))
        report = full_report(*args)
        returned.append(weakref.ref(report))
        return report

    monkeypatch.setattr(cli, "full_report", recording)
    code, out, _ = run(capsys, "verify", "--k", "4", "--q", "4", "--all-pi", "--threshold", "1")
    assert code == 1
    assert len(json.loads(out)) == len(alive) == 6
    assert max(alive) <= 1


def test_all_pi_payload_is_json_dumps_of_the_views(tmp_path):
    def payload(*argv):
        out = tmp_path / "all.json"
        main(["verify", *argv, "--all-pi", "--out", str(out)])
        return out.read_bytes()

    def dumped(views):
        return (json.dumps(views, indent=2) + "\n").encode()

    # threshold 1: every view lists violating cells, some up to the cap of 100
    for k, q in [(3, 4), (4, 4), (5, 7)]:
        views = [report_to_dict(report) for report in check_all_pi(Params(k, q), 1)]
        assert any(len(view["violating_edges"]) == 100 for view in views) == (k == 5)
        assert payload("--k", str(k), "--q", str(q), "--threshold", "1") == dumped(views)
    # a labeling file checked against the cells of every permutation
    params, labels = Params(4, 5), tmp_path / "labels.csv"
    labeling = label_all(params, (3, 1, 2))
    labels.write_bytes(write_labeling(labeling, "csv"))
    views = [report_to_dict(full_report(labeling, pi, 2))
             for pi in lattice._permutations(params)]
    assert not all(view["passed"] for view in views)
    assert payload("--k", "4", "--q", "5", "--labels", str(labels)) == dumped(views)


def test_all_pi_peak_memory_stays_near_the_output_size(tmp_path):
    # the views' text is made one permutation at a time, not by one dump of
    # every view at the end, and the views are written as they are, never
    # joined: about one output size, where a joined copy held about two
    out = tmp_path / "all.json"
    argv = ["verify", "--k", "5", "--q", "7", "--all-pi", "--threshold", "1", "--out", str(out)]
    main(argv)  # builds the instance caches outside the measurement
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * out.stat().st_size


def test_facets_listing_peak_memory_stays_near_the_output_size(monkeypatch):
    # each line is written as it is made, so the peak is about the output the
    # buffer keeps; listing the pairs whole first held three to five times it
    for k, q in [(3, 300), (4, 40), (5, 15)]:
        buffer = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(buffer))
        tracemalloc.start()
        try:
            assert main(["facets", "--k", str(k), "--q", str(q)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(buffer.getvalue()), (k, q)


# Runs cli.main on argv with --out the last argument and then without it,
# each under tracemalloc after one untraced run that builds the caches, and
# prints both peaks to stderr.
MEASURE_STDOUT_PEAK = """\
import sys, tracemalloc
from simplexlattice.cli import main
argv, out = sys.argv[1:-1], ["--out", sys.argv[-1]]
main(argv + out)
peaks = []
for extra in (out, []):
    tracemalloc.start()
    main(argv + extra)
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(*peaks, file=sys.stderr)
"""


def test_all_pi_to_stdout_holds_no_second_copy(tmp_path):
    # stdout takes the report's bytes as they are; a str copy of them made
    # the stdout run peak one output size above the --out run
    out, stdout = tmp_path / "all.json", tmp_path / "stdout.json"
    argv = ["verify", "--k", "5", "--q", "7", "--all-pi", "--threshold", "1"]
    with stdout.open("wb") as sink:
        proc = subprocess.run([sys.executable, "-c", MEASURE_STDOUT_PEAK, *argv, str(out)],
                              stdout=sink, stderr=subprocess.PIPE, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert stdout.read_bytes() == out.read_bytes()
    to_out, to_stdout = map(int, proc.stderr.split())
    assert to_stdout - to_out < out.stat().st_size // 2


def test_verify_position_reading(capsys):
    code, out, _ = run(capsys, "verify", "--k", "3", "--q", "4", "--pi", "2,1",
                       "--reading", "position")
    assert code == 1
    report = json.loads(out)
    assert report["sperner_ok"] is False
    assert report["sperner_violation_count"] == 3


def test_verify_external_labels(tmp_path, capsys):
    path = tmp_path / "lab.csv"
    assert run(capsys, "label", "--k", "3", "--q", "4", "--format", "csv",
               "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", "--k", "3", "--q", "4", "--labels", str(path))
    assert code == 0
    assert json.loads(out)["labeling_rule"] == "identity"

    code, _, err = run(capsys, "verify", "--k", "3", "--q", "5", "--labels", str(path))
    assert code == 2 and "--labels" in err

    bad = tmp_path / "bad.csv"
    bad.write_bytes(path.read_bytes().replace(b"0,0,3", b"0,0,9"))
    code, _, err = run(capsys, "verify", "--k", "3", "--q", "4", "--labels", str(bad))
    assert code == 2 and "color out of range" in err

    code, _, err = run(capsys, "verify", "--k", "3", "--q", "4",
                       "--labels", str(tmp_path / "absent.csv"))
    assert code == 2 and "--labels" in err

    binary = tmp_path / "binary.csv"
    binary.write_bytes(path.read_bytes().replace(b"# rule", b"# \xff rule"))
    code, _, err = run(capsys, "verify", "--k", "3", "--q", "4", "--labels", str(binary))
    assert code == 2 and "--labels" in err and "not UTF-8" in err


def _json_relaid(data, **layout):
    return json.dumps(json.loads(data), **layout).encode()


# a labeling file as the writer lays it out, and laid out otherwise
LAYOUTS = {
    "csv": lambda labeling: write_labeling(labeling, "csv"),
    "csv-crlf": lambda labeling: write_labeling(labeling, "csv").replace(b"\n", b"\r\n"),
    "csv-comments": lambda labeling: b"# a note\n\n  \n# seen: before the header\n"
                                     + write_labeling(labeling, "csv"),
    "json": write_labeling,
    "json-minified": lambda labeling: _json_relaid(write_labeling(labeling),
                                                   separators=(",", ":")),
    "json-indent0": lambda labeling: _json_relaid(write_labeling(labeling), indent=0),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_labels_for_another_instance_are_refused_from_their_header(layout, tmp_path, capsys,
                                                                   monkeypatch):
    # the header names the instance, in any layout; no row is parsed
    path = tmp_path / "k3q300"
    path.write_bytes(LAYOUTS[layout](label_all(Params(3, 300))))

    def unread(*args):
        pytest.fail("the rows were read")

    for module, name in ((readers, "_read_csv"), (readers, "_read_json"),
                         (readers, "_check_rows"), (cli, "read_labeling")):
        monkeypatch.setattr(module, name, unread)
    code, out, err = run(capsys, "verify", "--k", "3", "--q", "4", "--labels", str(path))
    assert (code, out, err) == (2, "", "error: --labels: file is for k=3, q=300; "
                                       "flags say k=3, q=4\n")


def test_labels_whose_header_is_repeated_with_other_values_are_refused(tmp_path, capsys):
    # "q": 300 before "labels" and "q": 4 after the rows: the header read
    # before the rows and json.loads, which keeps the last, name two instances
    minified = _json_relaid(write_labeling(label_all(Params(3, 4))), separators=(",", ":"))
    path = tmp_path / "repeated.json"
    path.write_bytes(minified.replace(b'"q":4', b'"q":300', 1)[:-1] + b', "q": 4}')
    repeated = ("error: --labels: header keys repeated with other values: k=3, q=300, "
                "rule='identity' before 'labels', k=3, q=4, rule='identity' last\n")
    with pytest.raises(LabelingFormatError) as err:
        read_labeling(path.read_bytes())
    assert f"error: --labels: {err.value}\n" == repeated
    for q, message in (("4", "error: --labels: file is for k=3, q=300; flags say k=3, q=4\n"),
                       ("300", repeated)):
        assert run(capsys, "verify", "--k", "3", "--q", q, "--labels", str(path)) == \
            (2, "", message), q


@pytest.mark.parametrize("extra", [(), ("--reading", "position")])
def test_verify_reads_an_empty_labels_path_as_a_path(capsys, extra):
    # "" names no file, so it is refused like any other such path, not taken
    # for an absent --labels that would verify the built-in rule
    code, out, err = run(capsys, "verify", "--k", "3", "--q", "4", "--labels", "", *extra)
    assert code == 2 and out == "" and "--labels" in err, extra


# Runs the CLI under a cap on its own address space, so that an unbounded
# read fails at the cap instead of growing until the machine runs out.
CAPPED_MAIN = """\
import resource, sys
cap = int(sys.argv.pop(1))
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from simplexlattice.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_verify_reads_no_more_of_labels_than_the_bound():
    pytest.importorskip("resource")
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, str(600 << 20), "verify",
                           "--k", "3", "--q", "4", "--labels", "/dev/zero"],
                          capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --labels: /dev/zero is over 32,000,000 bytes")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_labels_one_byte_over_the_bound_are_refused(tmp_path, capsys):
    # a sparse file of NUL bytes: at the bound it is read and refused as no
    # labeling, one byte over it is refused unparsed
    path = tmp_path / "big.csv"
    for size, message in ((cli.MAX_LABELS_BYTES, "header is missing 'k'"),
                          (cli.MAX_LABELS_BYTES + 1, f"over {cli.MAX_LABELS_BYTES:,} bytes")):
        with open(path, "wb") as file:
            file.truncate(size)
        code, out, err = run(capsys, "verify", "--k", "3", "--q", "4", "--labels", str(path))
        assert (code, out) == (2, "") and err.startswith("error: --labels: "), size
        assert message in err, size


def test_the_largest_labeling_file_fits_the_bound():
    # write_labeling spends the most bytes per number at k = 3 (three per
    # row, beside the row's punctuation), most at the largest q the size
    # guard allows, and most on the longest rule
    assert cli._check_size(Params(3, 814))
    with pytest.raises(cli.CliError):
        cli._check_size(Params(3, 815))
    labeling = label_all(Params(3, 814), (2, 1), "position")
    assert len(write_labeling(labeling, "json")) <= cli.MAX_LABELS_BYTES
    assert len(write_labeling(labeling, "csv")) <= cli.MAX_LABELS_BYTES


def test_verify_refuses_a_reading_for_a_labels_file(tmp_path, capsys):
    # a file is checked as it is, so a reading of the built-in rule has
    # nothing to apply to; the rule's own runs keep their default reading
    path = tmp_path / "lab.json"
    assert run(capsys, "label", "--k", "3", "--q", "4", "--out", str(path))[0] == 0
    for reading in ("position", "selected-index"):
        code, out, err = run(capsys, "verify", "--k", "3", "--q", "4", "--labels", str(path),
                             "--reading", reading)
        assert code == 2 and out == "" and "--reading" in err, reading
    default = run(capsys, "verify", "--k", "3", "--q", "4", "--pi", "2,1")
    explicit = run(capsys, "verify", "--k", "3", "--q", "4", "--pi", "2,1",
                   "--reading", "selected-index")
    assert default == explicit and default[0] == 0
    assert json.loads(default[1])["labeling_rule"] == "pi:2,1"


def test_verify_flag_validation(capsys):
    code, _, err = run(capsys, "verify", "--k", "3", "--q", "4", "--threshold", "0")
    assert code == 2 and "--threshold" in err
    code, _, err = run(capsys, "verify", "--k", "3", "--q", "0")
    assert code == 2 and "--q" in err
    code, _, err = run(capsys, "verify", "--k", "2", "--q", "4")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "verify", "--k", "3", "--q", "4",
                       "--pi", "2,1", "--all-pi")
    assert code == 2
    code, _, err = run(capsys, "verify", "--k", "9", "--q", "10", "--all-pi")
    assert code == 2 and "--all-pi" in err


def test_facets_output(capsys):
    code, out, _ = run(capsys, "facets", "--k", "3", "--q", "2", "--count-only")
    assert code == 0
    assert out == "4\n"

    code, out, _ = run(capsys, "facets", "--k", "3", "--q", "2")
    assert code == 0
    assert out.splitlines() == [
        "base=(0,0) pi=(1,2)",
        "base=(0,1) pi=(1,2)",
        "base=(0,1) pi=(2,1)",
        "base=(1,1) pi=(1,2)",
    ]

    code, out, _ = run(capsys, "facets", "--k", "4", "--q", "3", "--count-only")
    assert code == 0 and out == "27\n"
    # longer listings, as exit code and sha256 of stdout
    for k, q, lines, digest in [
        (4, 5, 125, "a1d55ba8f30661d1ed0a2ed4242a9f1e7b831a2f42f6cc20843eb92bd9d660f2"),
        (6, 3, 243, "ce43aad701e4e5cf235b66765f5a1363fc75f92209df9ddb575959b5179c6973"),
        (3, 60, 3600, "7a0968b867a8ba41631881840c5239890dfc6db8ef207136ba16ecc9db841ca1"),
    ]:
        code, out, _ = run(capsys, "facets", "--k", str(k), "--q", str(q))
        assert code == 0 and out.count("\n") == lines, (k, q)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (k, q)


def test_facets_count_only_is_closed_form(capsys, monkeypatch):
    def refuse(params):
        raise AssertionError("--count-only enumerated the facets")

    monkeypatch.setattr(cli, "_facets", refuse)
    for k, q in [(3, 2), (4, 3), (3, 0), (3, 1)]:
        assert run(capsys, "facets", "--k", str(k), "--q", str(q), "--count-only") == \
            (0, f"{q ** (k - 1)}\n", "")
    # 9! orderings for each of the C(48, 9) base points, were they enumerated
    assert run(capsys, "facets", "--k", "10", "--q", "40", "--count-only")[:2] == \
        (0, f"{40 ** 9}\n")
    # int -> str writes at most 4300 digits: 10**4299 is the longest count printed
    assert run(capsys, "facets", "--k", "4300", "--q", "10", "--count-only")[:2] == \
        (0, f"{10 ** 4299}\n")
    # refused from k and q alone: 2**(10**30 - 1) is never formed
    for k, q in [(4301, 10), (10 ** 30, 2)]:
        code, out, err = run(capsys, "facets", "--k", str(k), "--q", str(q), "--count-only")
        assert (code, out) == (2, "")
        assert err.startswith("error: --k/--q: ") and "too large" in err


def test_size_guard_refuses_before_enumerating(tmp_path, capsys, monkeypatch):
    def refuse(params):
        raise AssertionError(f"enumerated an instance over the size limit: {params}")

    monkeypatch.setattr(lattice, "enumerate_vertices", refuse)
    monkeypatch.setattr(cli, "_facets", refuse)
    out = str(tmp_path / "out")
    for argv in (
        ["label", "--k", "40", "--q", "40", "--out", out],  # |V| = C(79, 39), about 5e22
        ["label", "--k", "3", "--q", str(10 ** 30), "--format", "csv", "--out", out],
        ["verify", "--k", "3", "--q", "100000"],
        ["verify", "--k", "8", "--q", "30", "--all-pi"],
        ["verify", "--k", "6", "--q", "60", "--labels", out],
        ["render", "--k", "3", "--q", "1000", "--out", out],
        ["oracle", "--k", "1000000", "--q", "1"],
        ["oracle", "--k", "10" + "0" * 40, "--q", "10" + "0" * 40],
        ["facets", "--k", "30", "--q", "1"],  # one facet, but 29! orderings to test
        ["facets", "--k", "3", "--q", "2000"],
    ):
        code, stdout, err = run(capsys, *argv)
        assert (code, stdout) == (2, ""), argv
        assert err.startswith("error: --k/--q: ") and "too large" in err, argv
    assert not (tmp_path / "out").exists()


def test_size_guard_limit(capsys, monkeypatch):
    # closed forms only: no instance at the limit is built here
    def fits(k, q, facets=False):
        if facets:  # facets checks its own bound; the listing is patched to be empty
            code, out, err = run(capsys, "facets", "--k", str(k), "--q", str(q))
            assert out == "" and (code == 2) == err.startswith("error: --k/--q: "), (k, q)
            return code == 0
        try:
            cli._check_size(Params(k, q))
        except cli.CliError:
            return False
        return True

    monkeypatch.setattr(cli, "_facets", lambda params: ())

    limit = cli.MAX_SIZE
    for k in range(3, 12):
        q = 0
        while comb(q + k, k - 1) * k <= limit:
            q += 1
        assert comb(q + k - 1, k - 1) * k <= limit < comb(q + k, k - 1) * k
        assert fits(k, q) and not fits(k, q + 1)
    for k in range(3, 11):
        q = 1  # the (base, permutation) pairs listing facets tests
        while comb(q + k - 2, k - 1) * factorial(k - 1) <= limit:
            q += 1
        assert fits(k, q - 1, facets=True) and not fits(k, q, facets=True)
    assert fits(3, 0, facets=True) and fits(40, 0, facets=True)  # q = 0 lists nothing
    assert not fits(11, 1, facets=True)  # one base point, 10! orderings
    # every instance the tests, the demos and the benchmark run
    for k, q in [(3, 50), (4, 30), (5, 10), (6, 10), (6, 8), (7, 5), (8, 8), (9, 10)]:
        assert fits(k, q)
    assert fits(4, 3, facets=True) and fits(8, 3, facets=True)


def test_import_leaves_out_dataclasses_and_inspect():
    # each CLI run pays for its imports; these two cost about 10 ms
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, simplexlattice.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_oracle_exit_codes(capsys):
    code, out, _ = run(capsys, "oracle", "--k", "3", "--q", "2")
    assert code == 0
    data = json.loads(out)
    assert data["min_max_colors"] == 2 and data["exhausted"] is True

    code, out, _ = run(capsys, "oracle", "--k", "3", "--q", "4", "--budget", "10")
    assert code == 1
    assert json.loads(out)["exhausted"] is False

    assert run(capsys, "oracle", "--k", "3", "--q", "0")[0] == 2
    assert run(capsys, "oracle", "--k", "3", "--q", "2", "--budget", "-1")[0] == 2


def test_render(tmp_path, capsys):
    path = tmp_path / "pic.svg"
    code, _, _ = run(capsys, "render", "--k", "3", "--q", "4", "--out", str(path))
    assert code == 0
    svg = path.read_bytes()
    assert svg.startswith(b"<?xml") and svg.count(b"<circle") == 15

    code, _, err = run(capsys, "render", "--k", "4", "--q", "5",
                       "--out", str(tmp_path / "no.svg"))
    assert code == 2 and "--k" in err

    code, _, err = run(capsys, "render", "--k", "3", "--q", "2",
                       "--out", str(tmp_path / "no.svg"))
    assert code == 2 and "--q" in err

    # k != 3 is refused before labeling, even where the rule is undefined
    code, _, err = run(capsys, "render", "--k", "4", "--q", "2",
                       "--out", str(tmp_path / "no.svg"))
    assert code == 2 and err == "error: --k: rendering needs k=3, got k=4\n"


UNDEFINED_AT_4_3 = ("--q: labeling rule is undefined at (1, 2, 3): the deficiency is attained "
                    "only at index 4 (possible only for q <= k; here q=3)")
BAD_ROWS = "--labels: row 3: wrong row count: expected at least 2**2 vertices, got 2"


@pytest.mark.parametrize("argv, message", [
    ("label --k 3 --q 2 --out F", "--q: labeling rule is undefined at (1, 2): the deficiency is "
     "attained only at index 3 (possible only for q <= k; here q=2)"),
    ("verify --k 4 --q 3 --all-pi", UNDEFINED_AT_4_3),
    ("verify --k 4 --q 3 --pi 2,1,3", UNDEFINED_AT_4_3),
    ("render --k 3 --q 1 --out F", "--q: labeling rule is undefined at (0, 1): the deficiency is "
     "attained only at index 3 (possible only for q <= k; here q=1)"),
    ("verify --k 3 --q 2 --labels BAD", BAD_ROWS),
    ("verify --k 3 --q 2 --labels BAD --all-pi", BAD_ROWS),
], ids=str)
def test_library_errors_name_their_flag(argv, message, tmp_path, monkeypatch, capsys):
    # main turns each error the library raises into the flag it blames
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BAD").write_text(json.dumps(
        {"k": 3, "q": 2, "rule": "x", "labels": [{"v": [0, 0], "color": 2},
                                                 {"v": [0, 1], "color": 9}]}))
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "F").exists()


def test_out_flag_redirects_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--k", "3", "--q", "4", "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_bytes())["passed"] is True


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "file")
    for argv in (["label", "--k", "3", "--q", "4"], ["verify", "--k", "3", "--q", "4"],
                 ["oracle", "--k", "3", "--q", "2"], ["render", "--k", "3", "--q", "4"]):
        code, _, err = run(capsys, *argv, "--out", out)
        assert code == 2 and "--out" in err, argv


@pytest.mark.parametrize("argv", [
    ["facets", "--k", "3", "--q", "2"],
    ["facets", "--k", "6", "--q", "6"],
    ["verify", "--k", "4", "--q", "5", "--all-pi"],
], ids=" ".join)
def test_closed_stdout_is_a_usage_error(argv):
    # the reader is gone before the first byte is written, as after `| head`
    proc = subprocess.Popen([sys.executable, "-m", "simplexlattice.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err.startswith("error: stdout: ") and "Traceback" not in err


def test_usage_errors(capsys):
    assert run(capsys, "verify", "--q", "4")[0] == 2  # missing --k
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "simplexlattice.cli"],
        capture_output=True, env=CHILD_ENV,
    )
    assert proc.returncode == 2

    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["simplexlattice"]
    assert target == "simplexlattice.cli:run"
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ENTRY_POINT, target,
         "facets", "--k", "3", "--q", "2", "--count-only"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


@pytest.mark.skipif(shutil.which("simplexlattice") is None,
                    reason="simplexlattice executable not on PATH")
def test_console_script_on_path():
    proc = subprocess.run(
        ["simplexlattice", "facets", "--k", "3", "--q", "2", "--count-only"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "4\n"


def test_outputs_match_the_recorded_hashes(tmp_path, monkeypatch):
    # The class path at k = 8 (labels, files read back, the identity and
    # every tenth one-descent pi) and the all-pi sweep, which the
    # determinism criterion (k <= 4) never reaches, byte for byte against
    # the sha256 recorded with the benchmark.
    hashes = json.loads(EXPECTED.read_text())["sha256"]
    inst = ("--k", "8", "--q", "8")
    calls = {
        "k8q8.label.json": ("label", *inst),
        "k8q8.label.csv": ("label", *inst, "--format", "csv"),
        "k8q8.verify-json.json": ("verify", *inst, "--labels", "k8q8.label.json"),
        "k8q8.verify-csv.json": ("verify", *inst, "--labels", "k8q8.label.csv"),
        "k8q8.verify-id.json": ("verify", *inst),
    }
    for name in sorted(name for name in hashes if name.startswith("k8q8.verify-pi"))[::10]:
        image = name.removeprefix("k8q8.verify-pi").removesuffix(".json").replace("_", ",")
        calls[name] = ("verify", *inst, "--pi", image)
    for k, q in ((6, 8), (5, 10), (4, 30)):
        calls[f"k{k}q{q}.all-pi.json"] = ("verify", "--k", str(k), "--q", str(q), "--all-pi")
    assert len(calls) == 20
    monkeypatch.chdir(tmp_path)
    for name, argv in calls.items():
        assert main([*argv, "--out", name]) == 0, name
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == hashes[name], name


def test_outputs_past_a_byte_are_pinned(tmp_path, monkeypatch, capsysbinary):
    # At k = 10 the rule's classes pass a byte (bit k - 1 is 9), so its
    # labelings keep their colors as their classes: the label files, the
    # reports of the identity, one descent and the reversed pi under both
    # readings, and the identity file read back against the reversed pi, as
    # exit code and sha256 of stdout or --out.
    inst = ("--k", "10", "--q", "10")
    reverse = ("--pi", "9,8,7,6,5,4,3,2,1")
    pinned = [
        (("label", *inst, "--out", "F.json"), 0,
         "3c26d45950cd419473440623859fb4dbb1ae40ede00cfa9acadc1b18ba9a0efe"),
        (("label", *inst, "--format", "csv", "--out", "F.csv"), 0,
         "463eed2532d45516ad866473fc4f7e1a983d0f5a5e74dd7c9adc13c8f8c25fe4"),
        (("verify", *inst), 0,
         "cf29371d8c302ce98a1ae41d92efff4c46ce1edf9d3bf2a83131c49da12201a2"),
        (("verify", *inst, "--pi", "2,1,3,4,5,6,7,8,9"), 0,
         "74081662fe9eb693a3d480a633c43ee07188dc79f5d5e327b539e18dfae2ac24"),
        (("verify", *inst, *reverse), 0,
         "4f0c102b1d569d4c21cf4d3c9cb83a6ff67e6edb4671a2d26efed8613e8f0ef8"),
        (("verify", *inst, *reverse, "--reading", "position"), 1,
         "d206ee8864be91c8b5fc7fa2c34ef8ff8bab5725a4cfdcf55d33436a25d76559"),
        (("verify", *inst, "--labels", "F.csv", *reverse), 1,
         "6f809005ee390a26fe7596c75f4f8f818ea3b464daa855e1f9aca79e12c826bf"),
    ]
    monkeypatch.chdir(tmp_path)
    for argv, code, digest in pinned:
        assert main(list(argv)) == code, argv
        out = capsysbinary.readouterr().out
        data = (tmp_path / argv[-1]).read_bytes() if "--out" in argv else out
        assert hashlib.sha256(data).hexdigest() == digest, argv
