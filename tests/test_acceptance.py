"""Go/no-go checks, one test per criterion.

Each test registers a PASS/FAIL line that pytest prints in its terminal
summary after the run.  Results are recorded before the assertions fire,
so a red criterion still reports honestly.

Criterion 4 requires the exhaustive minimum of max-colors-per-cell for k=3
to be {1: 3, 2: 2, 3: 2, 4: 2}.  At q=1 the lattice is the single cell
{(0,0),(0,1),(1,1)}, whose vertices have the singleton admissible color sets
{3},{2},{1}, so every admissible labeling puts three colors on it; the test
derives this 3 from the definition rather than from the oracle.
"""

import hashlib
import itertools
from math import comb

from simplexlattice import (
    LabelUndefined,
    Params,
    check_all_pi,
    enumerate_facets,
    enumerate_hyperedges,
    enumerate_vertices,
    full_report,
    identity_permutation,
    label,
    label_all,
    min_max_colors,
    write_labeling,
)
from simplexlattice.cli import main

SWEEP_IDENTITY = [(k, q) for k in (3, 4, 5, 6) for q in range(k + 1, k + 7)]
SWEEP_PI = [(k, q) for k in (3, 4, 5) for q in range(k + 1, k + 5)]


def test_criterion_1_identity_rule_sweep(record):
    bad = []
    for k, q in SWEEP_IDENTITY:
        report = full_report(label_all(Params(k, q)), None, 2)
        if not (report.sperner_ok and not report.sperner_violations
                and report.max_colors_per_edge <= 2 and not report.violating_edges):
            bad.append((k, q))
    record(1, not bad,
           f"plain rule: Sperner + at most 2 colors per cell on all "
           f"{len(SWEEP_IDENTITY)} instances (k=3..6, q=k+1..k+6)"
           + (f"; FAILED at {bad}" if bad else ""))
    assert not bad


def test_criterion_2_permutation_rule_sweep(record):
    bad = []
    checked = 0
    for k, q in SWEEP_PI:
        for report in check_all_pi(Params(k, q), 2):
            checked += 1
            if not report.passed or not report.sperner_ok:
                bad.append((k, q, report.edge_rule))
    record(2, not bad,
           f"permutation rule (selected-index): both checks pass for all "
           f"{checked} (k,q,pi) with k=3..5, q=k+1..k+4"
           + (f"; FAILED at {bad}" if bad else ""))
    assert not bad


def test_criterion_3_structural_counts(record):
    bad = []
    if len(enumerate_vertices(Params(3, 4))) != 15:
        bad.append("|V_{3,4}|")
    if len(enumerate_hyperedges(Params(3, 4))) != 10:
        bad.append("|E_{3,4}|")
    if len(enumerate_facets(Params(3, 2))) != 4:
        bad.append("facets(3,2)")
    for k, q in SWEEP_IDENTITY:
        p = Params(k, q)
        if len(enumerate_vertices(p)) != comb(q + k - 1, k - 1):
            bad.append(f"|V_{{{k},{q}}}|")
        if len(enumerate_facets(p)) != q ** (k - 1):
            bad.append(f"facets({k},{q})")
    record(3, not bad,
           "counts: |V_{3,4}|=15, |E_{3,4}|=10, facets(3,2)=4; across the "
           "sweep |V|=C(q+k-1,k-1) and facets=q^(k-1)"
           + (f"; FAILED: {bad}" if bad else ""))
    assert not bad


def _forced_minimum_q1(k):
    """Fewest colors any admissible labeling can put on the cell of V_{k,1}.

    V_{k,1} has exactly k points, as many as a cell has vertices, so the
    lattice is one cell.  Built from raw weakly increasing tuples, with
    admissible colors {c : v_c > v_(c-1)} under v_0 = 0 and v_k = q.
    """
    q = 1
    admissible = []
    for v in itertools.combinations_with_replacement(range(q + 1), k - 1):
        ext = (0, *v, q)
        admissible.append({c for c in range(1, k + 1) if ext[c] > ext[c - 1]})
    return min(len(set(choice)) for choice in itertools.product(*admissible))


def test_criterion_4_oracle_exactness(record):
    required = {1: _forced_minimum_q1(3), 2: 2, 3: 2, 4: 2}
    minima = {}
    unfinished = []
    witness_bad = []
    for q in required:
        result = min_max_colors(Params(3, q))
        minima[q] = result.min_max_colors
        if not result.exhausted:
            unfinished.append(q)
        elif not full_report(result.witness, None, result.min_max_colors).passed:
            witness_bad.append(q)
    ok = minima == required and not unfinished and not witness_bad
    record(4, ok,
           f"exhaustive minima for k=3: {minima}, required {required}; "
           f"search finished within budget: "
           f"{'yes' if not unfinished else f'no at q={unfinished}'}; "
           f"witnesses re-verify through the independent checker: "
           f"{'yes' if not witness_bad else f'no at q={witness_bad}'}. "
           "q=1 needs 3: the lone cell {(0,0),(0,1),(1,1)} has admissible "
           "sets {3},{2},{1}, so every labeling puts three colors on it")
    assert not unfinished, f"search did not finish within budget at q={unfinished}"
    assert not witness_bad, f"witness fails re-verification at q={witness_bad}"
    assert minima == required, (
        f"exhaustive minima {minima} differ from the required {required}; "
        "q=1 needs 3 because admissibility forces colors 3, 2, 1 onto the "
        "lone cell {(0,0),(0,1),(1,1)}, and q=2..4 need 2"
    )


def test_criterion_5_identity_reduction(record):
    bad = []
    for k, q in SWEEP_IDENTITY:
        p = Params(k, q)
        plain = label_all(p)
        via_pi = label_all(p, identity_permutation(p))
        if plain.colors != via_pi.colors or write_labeling(plain) != write_labeling(via_pi):
            bad.append((k, q))
    record(5, not bad,
           f"identity-permutation rule equals the plain rule pointwise and "
           f"byte-for-byte serialized on all {len(SWEEP_IDENTITY)} instances"
           + (f"; FAILED at {bad}" if bad else ""))
    assert not bad


def test_criterion_6_edge_of_validity(record):
    problems = []
    try:
        label((1, 1), Params(3, 1))
        problems.append("label((1,1)) at k=3,q=1 returned instead of raising")
    except LabelUndefined:
        pass
    for k, q in SWEEP_IDENTITY:
        try:
            label_all(Params(k, q))
        except LabelUndefined as exc:
            problems.append(f"unexpected LabelUndefined at ({k},{q}): {exc}")
    record(6, not problems,
           "label((1,1)) raises LabelUndefined at k=3,q=1; no vertex is "
           "undefined anywhere in the q>k sweep"
           + (f"; FAILED: {problems}" if problems else ""))
    assert not problems


def criterion_7_sweep(tmp_path, capsys):
    """Exit codes of the criterion-7 invocations and one sha256 over all
    their stdout and files."""
    out_json = tmp_path / "lab.json"
    out_csv = tmp_path / "lab.csv"
    out_svg = tmp_path / "pic.svg"
    invocations = [
        ["label", "--k", "3", "--q", "4", "--out", str(out_json)],
        ["label", "--k", "4", "--q", "6", "--pi", "2,1,3", "--format", "csv",
         "--out", str(out_csv)],
        ["verify", "--k", "3", "--q", "4"],
        ["verify", "--k", "4", "--q", "5", "--threshold", "2"],
        ["verify", "--k", "3", "--q", "4", "--threshold", "1"],
        ["verify", "--k", "3", "--q", "4", "--pi", "2,1"],
        ["verify", "--k", "3", "--q", "4", "--all-pi"],
        ["verify", "--k", "3", "--q", "4", "--pi", "2,1", "--reading", "position"],
        ["facets", "--k", "3", "--q", "2"],
        ["facets", "--k", "4", "--q", "3", "--count-only"],
        ["oracle", "--k", "3", "--q", "2"],
        ["oracle", "--k", "3", "--q", "4"],
        ["render", "--k", "3", "--q", "4", "--out", str(out_svg)],
    ]
    outputs = [out_json, out_csv, out_svg]
    digest = hashlib.sha256()
    codes = []
    for argv in invocations:
        for path in outputs:
            path.unlink(missing_ok=True)
        codes.append(main(list(argv)))
        captured = capsys.readouterr()
        digest.update(captured.out.encode())
        for path in outputs:
            if path.exists():
                digest.update(path.read_bytes())
    return codes, digest.hexdigest()


def test_criterion_7_cli_determinism(record, tmp_path, capsys):
    codes_a, hash_a = criterion_7_sweep(tmp_path, capsys)
    codes_b, hash_b = criterion_7_sweep(tmp_path, capsys)
    ok = codes_a == codes_b and hash_a == hash_b
    record(7, ok,
           f"two runs of {len(codes_a)} CLI invocations: identical exit "
           f"codes and identical sha256 over all stdout and files "
           f"({hash_a[:16]}...)" if ok else
           f"determinism broke: {codes_a} vs {codes_b}, {hash_a} vs {hash_b}")
    assert ok


def test_criterion_7_bytes_are_pinned(tmp_path, capsys):
    # a change to the bytes passes the determinism check above, not this
    codes, digest = criterion_7_sweep(tmp_path, capsys)
    assert codes == [0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0]
    assert digest == "1a70786463814748fef02307d99284ce0d12890d624c22bb6b38f4aa0856e3bd"
