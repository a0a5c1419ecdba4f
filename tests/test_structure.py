"""Which package modules each module imports, pinned to one table.

Every import between the modules of ``simplexlattice`` is listed here, so a
new dependency between them shows up as a change to this file.  Every name
a module, test or demo imports is used there, each of those files compiles
without a warning, every private name the package defines is used in it
and lives in a module that uses it, unless two or more others share it, the
verifier imports nothing of the rule's cache, only ``labeling`` decides
whether colors and classes fit a byte, only the file reader and the
oracle's witness call the checked ``Labeling`` constructor, once each, the
module level holds two caches, the instance index and the rule's classes,
the CLI writes its output through ``cli._emit`` alone, and only
``cli.main`` turns a library error into a usage error.
"""

import ast
import json
import warnings
from collections import Counter
from pathlib import Path

import pytest

import simplexlattice
from simplexlattice import Params, cli, lattice
from simplexlattice.labeling import READING_SELECTED, LabelUndefined

PACKAGE = Path(simplexlattice.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]
TRACED_PASS = REPO / "bench" / "traced_pass.py"

IMPORTS = {
    "__init__": {"_version", "io", "labeling", "lattice", "oracle", "verify"},
    "_version": set(),
    "cli": {"_version", "io", "labeling", "lattice", "oracle", "verify"},
    "io": {"_version", "labeling", "lattice"},
    "labeling": {"lattice"},
    "lattice": set(),
    "oracle": {"labeling", "lattice"},
    "verify": {"labeling", "lattice"},
}


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports, anywhere in its body;
    ``from simplexlattice import name`` counts as ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = ["simplexlattice." + (node.module or alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "simplexlattice":
                found.add(rest.partition(".")[0] or "__init__")
    return found


def test_imports_between_modules_match_the_table():
    modules = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}
    assert modules == IMPORTS


def test_absolute_and_relative_imports_are_both_seen(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import json\nfrom . import io\nfrom .lattice import Params\n"
                    "import simplexlattice.verify\nfrom simplexlattice import cli\n"
                    "def f():\n    from .oracle import x\n")
    assert package_imports(path) == {"io", "lattice", "verify", "__init__", "oracle"}


def imported_names(tree: ast.AST) -> list[tuple[str, str, str]]:
    """(module, name, bound name) of each import outside ``__future__``;
    a relative module keeps its leading dots."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, alias.name, alias.asname or alias.name.partition(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = "." * node.level + (node.module or "")
            found += [(module, alias.name, alias.asname or alias.name) for alias in node.names]
    return found


def source_files() -> list[Path]:
    """Every Python file of the package, the tests and the demos."""
    return sorted(path for name in ("src", "tests", "demos")
                  for path in (REPO / name).rglob("*.py"))


def test_every_imported_name_is_used():
    # no lint tool runs on the repo, so an import a change leaves behind
    # shows up here; the package's __init__ imports names to re-export them
    unused = {}
    for path in source_files():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = {bound for _, _, bound in imported_names(tree)} - used
        if names:
            unused[str(path.relative_to(REPO))] = sorted(names)
    assert unused == {}


def test_every_source_file_compiles_without_warnings():
    # an invalid escape or an `is` against a literal only warns, once, when
    # the file is compiled; here it fails, as the two probes show
    files = source_files()
    assert {"lattice.py", "test_structure.py", "01_lattice_tour.py"} <= {p.name for p in files}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for probe in ("s = '\\d'", "same = x is 1"):
            with pytest.raises(SyntaxError):
                compile(probe, "probe", "exec")
        for path in files:
            compile(path.read_text(), str(path), "exec")


def private_definitions(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """(name, node) of each function, class or assignment at module or class
    level whose name starts with an underscore and is no dunder."""
    found = []
    for scope in [tree, *[node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            found += [(name, node) for name in names
                      if name.startswith("_") and not name.endswith("__")]
    return found


def mentions(node: ast.AST) -> Counter:
    """How often each name and attribute appears under ``node``."""
    return Counter(child.id if isinstance(child, ast.Name) else child.attr
                   for child in ast.walk(node) if isinstance(child, (ast.Name, ast.Attribute)))


def test_every_private_name_is_used():
    # no lint tool runs on the package, so a private function, class, method
    # or constant that a change leaves behind shows up here: each must be
    # named somewhere in the package outside its own definitions
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    definitions = {}
    for tree in trees:
        for name, node in private_definitions(tree):
            definitions.setdefault(name, []).append(node)
    assert {"_instance_index", "_ONE_HOT", "_chain", "_fields"} <= definitions.keys()
    total = sum(map(mentions, trees), Counter())
    unused = [name for name, nodes in sorted(definitions.items())
              if total[name] == sum(mentions(node)[name] for node in nodes)]
    assert unused == []


def helpers_used_by_one_other_module(trees: dict[str, ast.AST]) -> list[str]:
    """``module.name`` of each private name a module defines but never uses
    outside its definitions, while exactly one other module uses it."""
    counts = {module: mentions(tree) for module, tree in trees.items()}
    found = []
    for module, tree in sorted(trees.items()):
        definitions = {}
        for name, node in private_definitions(tree):
            definitions.setdefault(name, []).append(node)
        for name, nodes in sorted(definitions.items()):
            if counts[module][name] > sum(mentions(node)[name] for node in nodes):
                continue  # its own module uses it
            if sum(1 for other in counts if other != module and counts[other][name]) == 1:
                found.append(f"{module}.{name}")
    return found


def test_a_private_helper_lives_in_the_module_that_uses_it():
    # a helper only one other module calls belongs in that module: defined
    # elsewhere, it is a layer its one caller reads through
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert helpers_used_by_one_other_module(trees) == []
    probe = {"a": ast.parse("def _once(): pass\ndef _own(): pass\n_own()\n"),
             "b": ast.parse("from .a import _once, _own\n_once()\n_own()\n")}
    assert helpers_used_by_one_other_module(probe) == ["a._once"]


def test_verify_reads_the_labeling_not_the_rules_cache():
    # the color scan reads the rule's tables from the labeling label_all
    # made, so nothing of the rule's cache is imported into the verifier
    tree = ast.parse((PACKAGE / "verify.py").read_text())
    names = {name for module, name, _ in imported_names(tree) if module == ".labeling"}
    assert names == {"READINGS", "Labeling", "_pi_descriptor", "label_all"}


def global_caches(tree: ast.AST) -> list[str]:
    """The functions in ``tree`` that a ``functools`` cache decorates,
    ``lru_cache`` or ``cache``, called or not, by name or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = getattr(decorator, "func", decorator)
                if getattr(target, "id", getattr(target, "attr", None)) in {"lru_cache", "cache"}:
                    found.append(node.name)
    return found


def test_the_only_global_caches_are_the_index_and_the_rules_classes():
    # a cache at module level outlives every instance it serves; what is
    # built per permutation is kept on the instance's index instead
    caches = {path.stem: global_caches(ast.parse(path.read_text(), str(path)))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: names for stem, names in caches.items() if names} == \
        {"labeling": ["_attaining_masks"], "lattice": ["_instance_index"]}
    probe = "@lru_cache(maxsize=4)\ndef a(): pass\n@functools.cache\ndef b(): pass\n" \
        "@cached_property\ndef c(self): pass\n"
    assert global_caches(ast.parse(probe)) == ["a", "b"]


def width_tests(tree: ast.AST) -> list[str]:
    """Each comparison in ``tree`` with an int constant among its operands
    that names a color width (8, 9, 255 or 256), or that compares a
    ``len(...)`` with 1: a one-plane fork by another name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            ints = {o.value for o in operands if type(getattr(o, "value", None)) is int}
            has_len = any(getattr(getattr(o, "func", None), "id", None) == "len" for o in operands)
            if ints & {8, 9, 255, 256} or has_len and 1 in ints:
                found.append(ast.unparse(node))
    return found


def test_the_width_cut_is_decided_in_labeling_alone():
    # the geometry, the scans and the oracle read ceil(k / 8) byte planes at
    # every k and never test a width; whether colors and classes fit a byte
    # is decided where a labeling is made
    for name in ("lattice", "verify", "oracle"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        assert width_tests(tree) == [], name
    assert width_tests(ast.parse("if k <= 8 or 9 > k or c < 256 or len(p) == 1: pass")) == \
        ["k <= 8", "9 > k", "c < 256", "len(p) == 1"]
    assert width_tests(ast.parse("if len(p) == 2 or n == 1: pass")) == []
    assert width_tests(ast.parse((PACKAGE / "labeling.py").read_text())) != []


def constructor_calls(tree: ast.AST) -> list[int]:
    """The line of each call of ``Labeling`` by name in ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Labeling"]


def returns(tree: ast.AST, function: str) -> int:
    """How many ``return`` statements the function ``function`` holds."""
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return sum(isinstance(node, ast.Return) for node in ast.walk(body))


def test_the_checked_constructor_is_left_to_data_the_rule_did_not_make():
    # label_all's table holds exact ints in 1..k, so at every width its
    # labeling skips Labeling's checks, through one return; the checked
    # constructor is left to read_labeling, once for both formats, and the
    # oracle's witness (a copy hands the class to pickle from __reduce__, uncalled)
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem for stem, tree in trees.items() if constructor_calls(tree)} <= {"io", "oracle"}
    assert len(constructor_calls(trees["io"])) == len(constructor_calls(trees["oracle"])) == 1
    assert returns(trees["labeling"], "label_all") == 1
    # the readers as they were while each format built its own labeling
    readers = ast.parse("def _read_json(text):\n    return Labeling(p, _check_rows(j), r)\n"
                        "def _read_csv(text):\n    return Labeling(p, _check_rows(c), r)\n")
    assert constructor_calls(readers) == [2, 4]
    # label_all as it was while the classes past a byte went through Labeling
    probe = ast.parse("def __reduce__(self):\n    return Labeling, (p, c, r)\n"
                      "def label_all(p, r):\n    if fits:\n"
                      "        return Labeling._unchecked(p, r, (c, {}, t))\n"
                      "    return Labeling(p, map(t.__getitem__, c), r)\n")
    assert constructor_calls(probe) == [6] and returns(probe, "label_all") == 2


def output_outside_emit(tree: ast.AST) -> list[str]:
    """Each way ``tree`` writes output other than through ``_emit``: a
    ``print`` with no ``file=`` other than stdout, and, outside ``_emit``,
    a write to ``sys.stdout`` or a file opened for writing."""
    emit = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_emit"]
    inside = {id(node) for function in emit for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        name = getattr(getattr(node, "func", None), "id", None)
        if name == "print":
            target = next((kw.value for kw in node.keywords if kw.arg == "file"), None)
            if target is None or ast.unparse(target) == "sys.stdout":
                found.append(ast.unparse(node))
        elif id(node) in inside:
            continue
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "sys.stdout":
            if node.attr in {"buffer", "write", "writelines"}:
                found.append(ast.unparse(node))
        elif name == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = getattr(modes[0], "value", "w") if modes else "r"
            if not isinstance(mode, str) or set(mode) & set("wax+"):
                found.append(ast.unparse(node))
    return found


def test_the_cli_writes_its_output_through_emit_alone():
    # every command hands _emit the chunks it made, so the bytes a command
    # writes, and how a closed pipe or an unwritable --out ends, have one
    # path; print is left to stderr
    assert output_outside_emit(ast.parse((PACKAGE / "cli.py").read_text())) == []
    # _cmd_facets as it was while it printed each line, beside what stays allowed
    probe = ast.parse(
        "def _emit(data, out):\n    sys.stdout.buffer.writelines(data)\n"
        "    with open(out, 'wb') as file: pass\n"
        "def _cmd_facets(args):\n    for v, pi in facets:\n"
        "        print(f'base=({base}) pi=({image})')\n"
        "    print('error', file=sys.stderr)\n    print(n, file=sys.stdout)\n"
        "    open(path, 'rb'), open(path), open(path, mode='a'), open(path, m)\n"
        "    sys.stdout.flush(), sys.stdout.write(text), sys.stdout.buffer\n")
    assert sorted(output_outside_emit(probe)) == [
        "open(path, m)", "open(path, mode='a')", "print(f'base=({base}) pi=({image})')",
        "print(n, file=sys.stdout)", "sys.stdout.buffer", "sys.stdout.write"]


# the library errors that blame one flag, which main names in its message
LIBRARY_ERRORS = {"LabelUndefined", "LabelingFormatError", "UnsupportedDimension"}


def library_errors_caught(tree: ast.AST) -> tuple[list[str], set[str]]:
    """The handlers naming a library error outside ``main``, as written,
    and the library errors ``main`` names in its own handlers."""
    inside = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name == "main"
              for node in ast.walk(function)}
    outside, in_main = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            named = mentions(node.type).keys() & LIBRARY_ERRORS
            if id(node) in inside:
                in_main |= named
            elif named:
                outside.append(ast.unparse(node.type))
    return outside, in_main


def test_only_main_turns_a_library_error_into_a_usage_error():
    # every usage error leaves through main, which names the flag each
    # library error blames; a helper that only re-raises is one step more
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert library_errors_caught(tree) == ([], LIBRARY_ERRORS)
    # _label as it was, beside a handler main may hold
    probe = ast.parse(
        "def _label(params, pi, reading):\n    try:\n"
        "        return label_all(params, pi, reading)\n"
        "    except LabelUndefined as exc:\n"
        "        raise CliError(f'--q: {exc}') from None\n"
        "def main(argv):\n    try:\n        pass\n"
        "    except (io.UnsupportedDimension, CliError):\n        pass\n")
    assert library_errors_caught(probe) == (["LabelUndefined"], {"UnsupportedDimension"})


PUBLIC = [
    "__version__", "Hyperedge", "InconsistentPair", "Labeling", "LabelUndefined",
    "LabelingFormatError", "OracleResult", "Params", "READING_POSITION", "READING_SELECTED",
    "READINGS", "UnsupportedDimension", "VerificationReport", "admissible_colors",
    "argmin_index", "check_all_pi", "check_colors", "check_sperner", "compare_pi_readings",
    "coordinate", "deficiency", "edge_colors", "enumerate_facets", "enumerate_hyperedges",
    "enumerate_vertices", "full_report", "hyperedge", "identity_permutation",
    "is_consistent", "is_lattice_point", "is_permutation", "label", "label_all", "label_pi",
    "min_max_colors", "oracle_result_to_dict", "pi_hyperedge", "read_labeling", "render_svg",
    "report_to_dict", "rule_descriptor", "selected_index_pi", "vertex_rank", "vertex_unrank",
    "write_labeling", "write_oracle_result", "write_report",
]


def test_public_names_are_pinned():
    # private plumbing moves between modules; none of it may leak into, or
    # drop out of, the public API
    assert len(PUBLIC) == 47
    assert simplexlattice.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(simplexlattice, name)] == []
    assert [name for name in PUBLIC if name.startswith("_")] == ["__version__"]


def names_used_from_package(path: Path) -> dict[str, set[str]]:
    """The attributes ``path`` reads or replaces on the names ``cli`` and
    ``lattice``, and the names it imports from ``simplexlattice``."""
    used = {"cli": set(), "lattice": set(), "simplexlattice": set()}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in used:
            used[node.value.id].add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "simplexlattice":
            used["simplexlattice"].update(alias.name for alias in node.names)
    return used


def test_benchmark_tracer_finds_every_name_it_wraps_or_probes():
    # the traced benchmark pass wraps names in cli and lattice and probes the
    # package's public names; a missing one breaks only that pass
    used = names_used_from_package(TRACED_PASS)
    assert {"label_all", "full_report", "report_to_dict", "main"} <= used["cli"]
    assert "enumerate_facets" in used["lattice"]
    assert {"check_all_pi", "pi_hyperedge", "Params"} <= used["simplexlattice"]
    for module, names in ((cli, used["cli"]), (lattice, used["lattice"]),
                          (simplexlattice, used["simplexlattice"])):
        assert [name for name in sorted(names) if not hasattr(module, name)] == []


def test_benchmark_tracer_call_shapes_reach_the_package():
    # the traced pass calls each name it wraps with these argument shapes
    # (positional budget included); a changed signature breaks only that pass
    for k, q in [(3, 2), (3, 4)]:
        params = Params(k, q)
        result = cli.min_max_colors(params, None, 1_000_000)
        assert result.exhausted and result.min_max_colors == 2
        assert json.loads(cli.write_oracle_result(result))["nodes_explored"] == \
            result.nodes_explored
        labelings = [result.witness]
        for pi in (None, (2, 1)):
            if q < k:  # the rule is partial here; the CLI reports it as a usage error
                with pytest.raises(LabelUndefined):
                    cli.label_all(params, pi)
            else:
                labelings += [cli.label_all(params, pi),
                              cli.label_all(params, pi, READING_SELECTED)]
        for labeling in labelings:
            for fmt in ("json", "csv"):
                assert cli.read_labeling(cli.write_labeling(labeling, fmt)) == labeling
            for pi in (None, (2, 1)):
                report = cli.full_report(labeling, pi, 2)
                assert json.loads(cli.write_report(report)) == cli.report_to_dict(report)
            assert cli.render_svg(labeling).startswith(b"<?xml")
        assert len(lattice.enumerate_facets(params)) == q ** (k - 1)
