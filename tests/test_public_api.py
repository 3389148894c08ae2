"""Every function and class of svycdf, private ones included, has a caller
outside the tests, every svycdf name the benchmark reads exists, and every
module imports only modules of lower layers.

The names referenced by the code of ``src/svycdf/*.py`` and ``bench/*.py``
are read from their syntax trees, so strings and docstrings do not count.
A module-level function or class must be referenced somewhere other than
inside its own ``def`` or ``class``; a reference helper that only the
tests use belongs in the tests.  Click commands are neither functions nor
classes once decorated, so the scan skips them.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "svycdf"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

#: public names kept without a caller, each with its reason
ALLOWED = {
    "montecarlo.run_scenario": "the documented one-scenario API",
    "oracle.sigma_matrix": "the finite-N covariance on a grid, kept for a "
                           "finite-N process covariance report",
}


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def definitions(private: bool = False) -> dict:
    """``module.name -> name`` of every module-level public def and class,
    or with ``private`` of every private one (a name that starts with ``_``)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private
                    and not _is_click_command(node)):
                found[f"{path.stem}.{node.name}"] = node.name
    return found


def _names(tree) -> set:
    """Names a tree loads as a variable or an attribute, or imports by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def referenced_names() -> dict:
    """``name -> set of top-level definitions`` whose code references it
    (``None`` for module-level code outside any definition)."""
    where: dict = {}
    for path in CALLERS:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = (f"{path.stem}.{node.name}"
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None)
            for name in _names(node):
                where.setdefault(name, set()).add(owner)
    return where


def test_every_public_name_has_a_caller():
    where = referenced_names()
    unused = sorted(qualified for qualified, name in definitions().items()
                    if not where.get(name, set()) - {qualified}
                    and qualified not in ALLOWED)
    assert unused == [], f"public names without a caller in src/ or bench/: {unused}"


def test_every_private_name_has_a_caller():
    # no allowlist: a private path that only the tests call leaves src/
    where = referenced_names()
    private = definitions(private=True)
    assert "montecarlo._population_task" in private
    unused = sorted(qualified for qualified, name in private.items()
                    if not where.get(name, set()) - {qualified})
    assert unused == [], f"private names without a caller in src/ or bench/: {unused}"


def test_allowlist_is_current():
    # an allowed name that is gone, or has gained a caller, leaves the list
    where = referenced_names()
    public = definitions()
    for qualified in ALLOWED:
        assert qualified in public, qualified
        assert not where.get(public[qualified], set()) - {qualified}, qualified


def benchmark_reads() -> set:
    """``(file, module, name)`` for every ``alias.name`` that code in
    ``bench/*.py`` reads from a svycdf module it imports as ``alias``
    (``from svycdf import designs as dsg``)."""
    reads = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name: f"svycdf.{alias.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "svycdf"
                   for alias in node.names}
        reads.update((path.name, aliases[node.value.id], node.attr)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in aliases)
    return reads


def test_benchmark_reads_exist():
    # a change to src/ that drops or renames a name bench/ uses fails here
    reads = benchmark_reads()
    assert ("workloads.py", "svycdf.designs", "calibrate_rejective_p") in reads
    missing = sorted(read for read in reads
                     if not hasattr(importlib.import_module(read[1]), read[2]))
    assert missing == [], f"names bench/ reads that svycdf lacks: {missing}"


#: the modules of svycdf from the bottom layer up; a module may import the
#: modules of lower layers only
LAYERS = (("errors",), ("streams",), ("population",), ("asymptotics",),
          ("designs", "estimation"), ("oracle",), ("montecarlo",), ("cli",))

#: (module, name) imports from within the package that are not modules
ALLOWED_IMPORTS = {("cli", "__version__")}


def package_imports(path: Path) -> set:
    """What a module imports from within svycdf, read from its syntax tree:
    a module name, or a name imported from the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "svycdf"
                                                 or node.module.startswith("svycdf.")):
            module = (node.module or "").removeprefix("svycdf").lstrip(".")
            found.update([module.split(".")[0]] if module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("svycdf."))
    return found


def test_modules_import_only_lower_layers():
    layer = {module: rank for rank, modules in enumerate(LAYERS) for module in modules}
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    assert sorted(path.stem for path in paths) == sorted(layer)
    upward = sorted((path.stem, name) for path in paths for name in package_imports(path)
                    if (path.stem, name) not in ALLOWED_IMPORTS
                    and not layer.get(name, len(LAYERS)) < layer[path.stem])
    assert upward == [], f"imports against the layer order: {upward}"
