"""Command-line front end.

Exit codes are a contract: 0 means success with every check passing, 1
means a check found violations (or an oracle run hit its budget before
certifying), 2 means the invocation itself was bad.  Reports are still
written on exit 1.  All output is deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from math import comb, factorial

from ._version import __version__
from .io import (
    FORMATS,
    LabelingFormatError,
    UnsupportedDimension,
    _check_renderable,
    _report_json,
    read_labeling,
    render_svg,
    report_to_dict,
    write_labeling,
    write_oracle_result,
    write_report,
)
from .labeling import READING_SELECTED, READINGS, LabelUndefined, label_all
from .lattice import Params, Perm, _facets, _permutations, is_permutation
from .oracle import min_max_colors
from .verify import full_report

MAX_ALL_PI_K = 8  # (k-1)! sweeps; 7! = 5040 is the most that stays interactive
# The most one command builds, checked from closed forms: k entries per
# vertex row (k - 1 coordinates and a color) in _check_size, or the (base,
# permutation) pairs that listing facets tests in _cmd_facets.  Peak memory
# was measured at up to 1.3 kB per vertex for k <= 10 (render at k = 3),
# about 0.5 GB here.
MAX_SIZE = 1_000_000
# The most bytes --labels reads: write_labeling spends at most 25.6 bytes on
# each of the MAX_SIZE numbers a valid file holds (JSON at (3,814)).
MAX_LABELS_BYTES = 32 * MAX_SIZE
MAX_COUNT_DIGITS = 4300  # the most int -> str writes by default, for facets --count-only


class CliError(Exception):
    """Validation failure; the message must name the offending flag."""


def _params(args: argparse.Namespace) -> Params:
    try:
        return Params(args.k, args.q)
    except ValueError as exc:
        raise CliError(f"--k/--q: {exc}") from None


def _check_size(params: Params) -> Params:
    """Refuse an instance whose |V| * k vertex-row entries are too many to
    build, settled by the floor |V| >= 2**min(k-1, q) before any large
    binomial is formed."""
    k, q = params.k, params.q
    if min(k - 1, q) >= MAX_SIZE.bit_length() or params.num_vertices * k > MAX_SIZE:
        raise CliError(f"--k/--q: k={k}, q={q} is too large: "
                       f"C(q+k-1, k-1) vertex rows of k entries, over {MAX_SIZE:,}")
    return params


def _parse_pi(text: str | None, params: Params) -> Perm | None:
    """The permutation that ``a,b,...`` spells, ``int`` per entry."""
    if text is None:
        return None  # the identity rule and cells
    try:
        image = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CliError(f"--pi: expected a comma-separated image like 2,1,3; "
                       f"got {text!r}") from None
    if not is_permutation(image, params):
        raise CliError(f"--pi: {text!r} is not a permutation of 1..{params.k - 1}")
    return image


def _emit(chunks: Iterable[bytes], out: str | None) -> None:
    if out is None:
        sys.stdout.flush()  # anything printed before goes first
        sys.stdout.buffer.writelines(chunks)
        return
    try:
        with open(out, "wb") as file:
            file.writelines(chunks)
    except OSError as exc:
        raise CliError(f"--out: cannot write {out}: {exc}") from None


def _load_labels(path: str, params: Params):
    try:
        with open(path, "rb") as file:
            data = file.read(MAX_LABELS_BYTES + 1)  # a FIFO that sends nothing blocks here
    except OSError as exc:
        raise CliError(f"--labels: cannot read {path}: {exc}") from None
    if len(data) > MAX_LABELS_BYTES:
        raise CliError(f"--labels: {path} is over {MAX_LABELS_BYTES:,} bytes, "
                       "more than a labeling file for any allowed --k/--q")
    labeling = read_labeling(data)
    if labeling.params != params:
        raise CliError(
            f"--labels: file is for k={labeling.params.k}, q={labeling.params.q}; "
            f"flags say k={params.k}, q={params.q}"
        )
    return labeling


def _cmd_label(args: argparse.Namespace) -> int:
    params = _check_size(_params(args))
    pi = _parse_pi(args.pi, params)
    labeling = label_all(params, pi, args.reading)
    _emit([write_labeling(labeling, args.format)], args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _check_size(_params(args))
    if args.threshold < 1:
        raise CliError(f"--threshold: must be >= 1, got {args.threshold}")
    if params.q < 1:
        raise CliError("--q: verification needs q >= 1 (no hyperedges otherwise)")
    external = None if args.labels is None else _load_labels(args.labels, params)

    if args.all_pi:
        if params.k > MAX_ALL_PI_K:
            raise CliError(
                f"--all-pi: k={params.k} means {params.k - 1}! permutation sweeps; "
                f"limited to k <= {MAX_ALL_PI_K}, use --pi for single subdivisions"
            )
        perms = _permutations(params)
    else:
        perms = [_parse_pi(args.pi, params)]

    chunks, passed = [], True
    for pi in perms:
        labeling = label_all(params, pi, args.reading) if external is None else external
        report = full_report(labeling, pi, args.threshold)
        passed = passed and report.passed
        # all-pi holds the bytes of each report's capped view, not the report
        chunks += ([b",\n  ", _report_json(report_to_dict(report), 2).encode()] if args.all_pi
                   else [write_report(report)])

    if args.all_pi:
        # json.dumps(views, indent=2) and a newline, each view written as it is
        chunks[0] = b"[\n  "
        chunks.append(b"\n]\n")
    _emit(chunks, args.out)
    return 0 if passed else 1


def _cmd_facets(args: argparse.Namespace) -> int:
    params = _params(args)
    k, q = params.k, params.q
    if args.count_only:
        # the facets tile the q-dilated simplex: q**(k-1) of them, 0 at q = 0; the
        # floor q**(k-1) >= 2**((k-1) * (bits(q) - 1)) refuses a huge count unformed
        limit = 10 ** MAX_COUNT_DIGITS
        if (k - 1) * (q.bit_length() - 1) >= limit.bit_length() or q ** (k - 1) >= limit:
            raise CliError(f"--k/--q: k={k}, q={q} is too large: the facet count "
                           f"q**(k-1) has more than {MAX_COUNT_DIGITS} digits")
        _emit([b"%d\n" % (q ** (k - 1))], None)
        return 0
    # the listing tests each of the (k-1)! permutations at each base point of
    # V_{k,q-1}; the floor n! >= 2**n for n >= 4 refuses a huge k unformed
    if q and (k - 1 >= MAX_SIZE.bit_length()
              or comb(q + k - 2, k - 1) * factorial(k - 1) > MAX_SIZE):
        raise CliError(f"--k/--q: k={k}, q={q} is too large: listing facets tests (k-1)! "
                       f"permutations at C(q+k-2, k-1) base points, over {MAX_SIZE:,}")
    _emit((f"base=({','.join(map(str, v))}) pi=({','.join(map(str, pi))})\n".encode()
           for v, pi in (_facets(params) if q else ())), None)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    params = _check_size(_params(args))
    if params.q < 1:
        raise CliError("--q: the oracle needs q >= 1 (no hyperedges otherwise)")
    if args.budget < 0:
        raise CliError(f"--budget: must be nonnegative, got {args.budget}")
    result = min_max_colors(params, budget=args.budget)
    _emit([write_oracle_result(result)], args.out)
    return 0 if result.exhausted else 1


def _cmd_render(args: argparse.Namespace) -> int:
    params = _check_size(_params(args))
    _check_renderable(params)  # before labeling, which may fail at small q
    _emit([render_svg(label_all(params, None, READING_SELECTED))], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexlattice",
        description="Simplex-lattice hypergraphs: labelings, verification, "
        "exact oracle, and rendering.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def instance(p: argparse.ArgumentParser) -> None:
        p.add_argument("--k", type=int, required=True, help="number of colors (>= 3)")
        p.add_argument("--q", type=int, required=True, help="dilation scale")

    p = sub.add_parser("label", help="write the built-in labeling to a file")
    instance(p)
    p.add_argument("--pi", help="permutation image, e.g. 2,1,3 (default: identity rule)")
    p.add_argument("--reading", choices=READINGS, default=READING_SELECTED)
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(handler=_cmd_label)

    p = sub.add_parser("verify", help="check Sperner-admissibility and edge colors")
    instance(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--pi", help="verify against the pi-subdivision edges")
    group.add_argument("--all-pi", action="store_true",
                       help="sweep every permutation (k <= 8)")
    p.add_argument("--threshold", type=int, default=2,
                   help="max colors allowed per edge (default 2)")
    group = p.add_mutually_exclusive_group()  # a file is checked as it is, with no reading
    group.add_argument("--labels", help="verify this labeling file instead of the built-in rule")
    group.add_argument("--reading", choices=READINGS, default=READING_SELECTED)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("facets", help="enumerate facets of the edgewise subdivision")
    instance(p)
    p.add_argument("--count-only", action="store_true", help="print only the facet count")
    p.set_defaults(handler=_cmd_facets)

    p = sub.add_parser("oracle", help="exact minimum max-colors-per-edge by exhaustion")
    instance(p)
    p.add_argument("--budget", type=int, default=1_000_000,
                   help="node budget for the search (default 1000000)")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("render", help="SVG picture of the colored triangulation (k=3)")
    instance(p)
    p.add_argument("--out", required=True, help="output path for the SVG")
    p.set_defaults(handler=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe is seen here, not at interpreter exit
        return code
    except CliError as exc:
        message = str(exc)
    # the library errors that each blame one flag
    except LabelUndefined as exc:  # the rule is partial below q = k
        message = f"--q: {exc}"
    except LabelingFormatError as exc:
        message = f"--labels: {exc}"
    except UnsupportedDimension as exc:
        message = f"--k: {exc}"
    except BrokenPipeError as exc:
        # the reader closed stdout; what is still buffered goes to devnull, so
        # the flush at interpreter exit cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message = f"stdout: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
