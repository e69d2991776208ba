"""Package modules use only each other's public names, and only names that exist.

Modules under src/kaoneraser are read with ast, never imported, so a broken
import shows up here as a failed assertion naming it.  A module may not import
a ``_private`` name from another package module, nor reach one as an attribute
of a package name (``estimate._RECORD_OUT``).  Every name a module imports from
another package module must be defined there, which covers what ``__init__``
re-exports.  Every function, class and method must have a caller in the
package or the benchmark, so API that only tests use does not grow back.  The
estimator layer (``estimate``) sits above the generators (``sim``) and alone
maps record codes to outcome codes.  Only ``core.lookup`` catches KeyError, so
an unknown name is refused in one place.  And the package needs nothing
outside the standard library but numpy.  README's package layout names each
module once.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kaoneraser"
PERFBENCH = PACKAGE.parents[1] / "perfbench"
README = PACKAGE.parents[1] / "README.md"


def _trees():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _package_imports(tree):
    """(source module, name, local name) for each name the module imports from
    the package; the source is '' for a submodule imported by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module or ""
            elif node.level == 0 and (node.module or "").split(".")[0] == "kaoneraser":
                source = node.module.partition(".")[2]
            else:
                continue
            for a in node.names:
                yield source, a.name, a.asname or a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "kaoneraser":
                    yield "", a.name.partition(".")[2], a.asname or "kaoneraser"


def _defined(tree):
    """Names bound at the top level of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_no_private_imports():
    bad = [f"{mod}: from .{source} import {name}"
           for mod, tree in _trees().items()
           for source, name, _ in _package_imports(tree)
           if any(_private(part) for part in name.split("."))]
    assert not bad, f"modules import private names of other modules: {bad}"


def test_no_private_attributes_of_package_names():
    bad = []
    for mod, tree in _trees().items():
        local = {alias for _, _, alias in _package_imports(tree)}
        bad += [f"{mod}:{node.lineno}: {ast.unparse(node)}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and _private(node.attr)
                and _root(node.value) in local]
    assert not bad, f"modules reach private names of other modules: {bad}"


def test_imported_names_exist():
    trees = _trees()
    defined = {mod: _defined(tree) for mod, tree in trees.items()}
    imported = {mod: list(_package_imports(tree)) for mod, tree in trees.items()}
    # the scan sees the package's re-exports
    assert ("sim", "run_experiment", "run_experiment") in imported["__init__"]
    assert ("sim", "RECORDS", "RECORDS") in imported["eventfile"]
    missing = [f"{mod}: {source or 'kaoneraser'}.{name}"
               for mod, names in imported.items()
               for source, name, _ in names
               if (name not in defined.get(source, ()) if source
                   else name and not (PACKAGE / f"{name}.py").is_file())]
    assert not missing, f"modules import names the package lacks: {missing}"


def test_sim_imports_nothing_from_the_estimators():
    bad = [f"sim: from .{source} import {name}"
           for source, name, _ in _package_imports(_trees()["sim"])
           if (source or name.split(".")[0]) == "estimate"]
    assert not bad, f"the generators import the estimator layer: {bad}"


def test_cli_takes_the_estimators_from_estimate():
    source = {name: source for source, name, _ in _package_imports(_trees()["cli"])}
    assert source.get("estimate_probs") == "estimate"
    assert source.get("fit_visibility") == "estimate"


def test_only_estimate_maps_records_to_outcomes():
    """The record code -> outcome code table is read only where it is
    defined, and the outcome codes only there and in ``sim``, which defines
    them, so no other module keeps a second mapping."""
    trees = _trees()
    table = [mod for mod, tree in trees.items() if "_RECORD_OUT" in _referenced(tree)]
    assert table == ["estimate"]
    assert "_RECORD_OUT" in _defined(trees["estimate"])
    codes = [mod for mod, tree in trees.items()
             if "OUTCOME_BY_CODE" in _referenced(tree)]
    assert codes == ["estimate", "sim"]


def _referenced(tree):
    """Names a module uses: every ``Name``, ``Attribute`` and import alias."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, name) of each module-level function and class and of
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m.name) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not _dunder(m.name))


def test_every_definition_has_a_caller():
    """Code no program calls is deleted, not kept for the tests: each function,
    class and method is used by a package module other than ``__init__`` (its
    own included) or by the benchmark in perfbench/."""
    trees = _trees()
    used = set()
    for mod, tree in trees.items():
        if mod != "__init__":
            used |= _referenced(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _referenced(ast.parse(path.read_text(), filename=str(path)))
    unused = [f"{mod}.{qualname}" for mod, tree in trees.items()
              for qualname, name in _definitions(tree) if name not in used]
    assert not unused, f"definitions nothing calls: {unused}"


def _key_error_handlers(tree, where=""):
    """For each ``except`` clause that names KeyError (or its base,
    LookupError), the name of the innermost function around it ('' at
    module level)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if {getattr(t, "id", getattr(t, "attr", None)) for t in types} & {
                    "KeyError", "LookupError"}:
                yield where
        inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _key_error_handlers(node, node.name if inner else where)


def test_only_lookup_catches_a_key_error():
    """An unknown name is refused in one place: ``core.lookup`` turns the
    KeyError of a missing key into the ValueError naming it, and no other
    handler in the package catches KeyError."""
    found = [f"{mod}.{where}" for mod, tree in _trees().items()
             for where in _key_error_handlers(tree)]
    assert found == ["core.lookup"], found


def _foreign_imports(paths, allowed):
    """'<file>:<line>: <module>' for each absolute import, and each import by
    a constant name (importlib.import_module, pytest.importorskip), of a
    top-level module outside the standard library and ``allowed``."""
    allowed = set(sys.stdlib_module_names) | allowed
    bad = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif (isinstance(node, ast.Call) and node.args
                  and isinstance(node.args[0], ast.Constant)
                  and isinstance(node.args[0].value, str)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  in ("import_module", "importorskip", "__import__")):
                names = [node.args[0].value]
            else:
                continue
            bad += [f"{path.name}:{node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in allowed]
    return bad


def test_only_numpy_outside_the_standard_library():
    """scipy and pytest stay the benchmark's and the tests' own: no module
    imports another top-level distribution, the CLI loads no scipy, and the
    package loads neither the CLI nor argparse."""
    bad = _foreign_imports(sorted(PACKAGE.glob("*.py")), {"numpy", "kaoneraser"})
    assert not bad, f"modules import outside the standard library and numpy: {bad}"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kaoneraser.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    loaded = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
                            capture_output=True, text=True, check=True).stdout.split()
    assert not loaded, f"importing kaoneraser.cli loads {loaded}"
    # the CLI builds its parser at import, so the package itself loads neither
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kaoneraser; "
            "print(*sorted({'kaoneraser.cli', 'argparse'} & set(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)],
                            capture_output=True, text=True, check=True).stdout.split()
    assert not loaded, f"importing kaoneraser loads {loaded}"


def test_tests_import_only_declared_dependencies():
    """The tests need numpy and the test extra of pyproject.toml (pytest,
    hypothesis, scipy) and nothing else: a module that happens to be
    installed, such as mpmath, is not a dependency."""
    allowed = {"numpy", "pytest", "hypothesis", "scipy", "kaoneraser", "conftest"}
    bad = _foreign_imports(sorted(Path(__file__).parent.glob("*.py")), allowed)
    assert not bad, f"tests import undeclared modules: {bad}"


def test_readme_layout_names_every_module():
    """README's "Package layout" has one entry per module, ``__init__``
    aside, and none for a module that is gone."""
    section = README.read_text().split("\n## Package layout\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = re.findall(r"^- `kaoneraser\.(\w+)`", section, flags=re.M)
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert sorted(listed) == modules
