"""The benchmark in perfbench/ uses only names the package still has.

perfbench/ runs only when the benchmark does, so a package name it needs that
goes missing would otherwise show up only then.  Its sources are read with
ast, never imported or changed.
"""

import ast
import importlib
from pathlib import Path

import kaoneraser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(dotted):
    """The package object for a dotted name such as 'kaoneraser.cli.main',
    or None."""
    parts = dotted.split(".")
    obj = kaoneraser
    for i, name in enumerate(parts[1:], start=1):
        if hasattr(obj, name):
            obj = getattr(obj, name)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i + 1]))
        except ModuleNotFoundError:
            return None
    return obj


def _used_names(tree):
    """Dotted package names the module imports or reads as attributes."""
    aliases = {}   # local name -> dotted package name
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "kaoneraser":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "kaoneraser":
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
                used.add(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            used.add(f"{aliases[node.value.id]}.{node.attr}")
    return used


def _cli_children():
    """Names tracing.py wraps on kaoneraser.cli, from its CLI_CHILDREN dict."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CLI_CHILDREN" for t in node.targets):
            return {f"kaoneraser.cli.{name}" for name in ast.literal_eval(node.value)}
    return set()


def test_perfbench_names_exist():
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    used |= _cli_children()
    # the scan sees the benchmark's main entry points
    assert {"kaoneraser.run_experiment", "kaoneraser.estimate_probs",
            "kaoneraser.cli.main", "kaoneraser.RNG_SCHEME",
            "kaoneraser.cli.run_all"} <= used
    missing = sorted(name for name in used if _resolve(name) is None)
    assert not missing, f"perfbench uses names the package lacks: {missing}"
