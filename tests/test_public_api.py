"""Every function and class of svycdf, private ones included, has a caller
outside the tests, every svycdf name the benchmark reads exists, every
module imports only modules of lower layers, no module reads a private
name that another svycdf module defines, every defaulted parameter of a
public function is passed by some call, and every command-line input is
set in one place: a command has one name, and the benchmark passes every
optional option.  The version string too is set in one place.

The names referenced by the code of ``src/svycdf/*.py`` and ``bench/*.py``
are read from their syntax trees, so strings and docstrings do not count.
A module-level function or class must be referenced somewhere other than
inside its own ``def`` or ``class``; a reference helper that only the
tests use belongs in the tests.  Click commands are neither functions nor
classes once decorated, so the scan skips them.
"""

import ast
import importlib
import warnings
from pathlib import Path

import click
from setuptools.config.pyprojecttoml import read_configuration

import svycdf
from svycdf import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "svycdf"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

#: public names kept without a caller, each with its reason
ALLOWED = {
    "montecarlo.run_scenario": "the documented one-scenario API",
    "designs.sigma_matrix": "the finite-N covariance on a grid, kept for a "
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
          ("designs", "estimation"), ("montecarlo", "oracle"), ("cli",))

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


def _is_private(name: str) -> bool:
    """One leading underscore: ``_x``, not ``__x__`` and not ``_`` alone."""
    return name.startswith("_") and not name.startswith("__") and name != "_"


def private_owners() -> dict:
    """``name -> svycdf modules`` defining a private name: a module-level or
    class-level def, class or assignment, or an attribute the module stores
    (``self._suffix = ...``)."""
    owners: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        names = set()
        for node in (node for body in scopes for node in body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(leaf.id for target in targets for leaf in ast.walk(target)
                             if isinstance(leaf, ast.Name))
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store))
        for name in filter(_is_private, names):
            owners.setdefault(name, set()).add(path.stem)
    return owners


def foreign_private_reads(source: str, module: str, owners: dict) -> list:
    """Private names ``source`` (the code of ``module``) reads as an
    attribute or imports by name that other svycdf modules define and
    ``module`` does not."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return sorted(name for name in read
                  if _is_private(name) and name in owners and module not in owners[name])


def test_foreign_private_reads_detected():
    owners = private_owners()
    assert owners["_suffix"] == {"designs"} and "_poverty_ingredients" in owners
    source = ("from .asymptotics import _poverty_ingredients\n"
              "table = design._suffix\n")
    assert foreign_private_reads(source, "oracle", owners) == ["_poverty_ingredients", "_suffix"]
    assert foreign_private_reads(source, "designs", owners) == ["_poverty_ingredients"]


def test_no_module_reads_another_modules_private_names():
    # a module owns its private names: its functions, constants and the
    # private attributes of its objects (a design's suffix table)
    owners = private_owners()
    found = sorted((path.relative_to(ROOT).as_posix(), name) for path in CALLERS
                   for name in foreign_private_reads(path.read_text(encoding="utf-8"),
                                                     path.stem, owners))
    assert found == [], f"private names read outside the module that defines them: {found}"


def defaulted_parameters(module: str, source: str) -> dict:
    """``module.name -> [(position, parameter)]`` for every parameter with a
    default of the module's module-level public functions (position None for
    a keyword-only one); click commands and :data:`ALLOWED` names left out."""
    found = {}
    for node in ast.parse(source).body:
        qualified = f"{module}.{getattr(node, 'name', '')}"
        if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                or _is_click_command(node) or qualified in ALLOWED):
            continue
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        params = [(k, arg.arg) for k, arg in enumerate(positional) if k >= first]
        params += [(None, arg.arg) for arg, default
                   in zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
        if params:
            found[qualified] = params
    return found


def passed_arguments(sources) -> dict:
    """``name -> (most positional arguments, keywords)`` over every call of
    ``name`` (``name(...)`` or ``x.name(...)``) in ``sources``; a ``*args``
    or ``**kwargs`` call passes everything."""
    passed: dict = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            most, keywords = passed.get(name, (0, set()))
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                most = float("inf")
            most = max(most, len(node.args))
            keywords = keywords | {k.arg for k in node.keywords}   # None: **kwargs
            passed[name] = most, keywords
    return passed


def unpassed_defaults(modules: dict, sources) -> dict:
    """``module.name -> [parameter]``: the defaulted parameters of the public
    functions of ``modules`` (name -> source) that no call in ``sources``
    passes, by position or by keyword."""
    passed = passed_arguments(sources)
    unpassed = {}
    for module, source in modules.items():
        for qualified, params in defaulted_parameters(module, source).items():
            most, keywords = passed.get(qualified.split(".")[-1], (0, set()))
            missing = [name for k, name in params
                       if None not in keywords and name not in keywords
                       and not (k is not None and k < most)]
            if missing:
                unpassed[qualified] = missing
    return unpassed


def test_unpassed_defaults_detected():
    module = ("def f(a, b=1, *, c=2, d=None):\n    pass\n"
              "def g(a=1, b=2):\n    pass\n"
              "def h(a=1):\n    pass\n"
              "def _private(a=1):\n    pass\n")
    callers = ["f(0, 1, d=3)\n", "g(*args)\n", "x.h(**kw)\n"]
    assert unpassed_defaults({"m": module}, callers) == {"m.f": ["c"]}
    assert unpassed_defaults({"m": module}, ["y = 1\n"]) == {
        "m.f": ["b", "c", "d"], "m.g": ["a", "b"], "m.h": ["a"]}


def test_every_defaulted_parameter_is_passed():
    # a default that no caller in src/ or bench/ overrides is an option
    # nobody uses: it belongs in the function as a constant
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    sources = [path.read_text(encoding="utf-8") for path in CALLERS]
    unpassed = unpassed_defaults(modules, sources)
    assert unpassed == {}, f"defaulted parameters no call in src/ or bench/ passes: {unpassed}"


def command_aliases(group: click.Group) -> dict:
    """``command -> [names]`` of every command of ``group`` registered under
    more than one name."""
    names: dict = {}
    for name, command in group.commands.items():
        names.setdefault(command.name, []).append(name)
    return {command: sorted(found) for command, found in names.items() if len(found) > 1}


def cli_arguments(source: str) -> list:
    """The string elements of every list literal ``source`` hands to
    ``_run_cli``, one list per call."""
    return [[elt.value for elt in node.args[0].elts
             if isinstance(elt, ast.Constant) and isinstance(elt.value, str)]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_run_cli"
            and node.args and isinstance(node.args[0], ast.List)]


def unpassed_options(group: click.Group, source: str) -> dict:
    """``command -> [option]``: the optional options of each command of
    ``group`` that no ``_run_cli`` argument list for that command in
    ``source`` passes."""
    passed: dict = {}
    for args in cli_arguments(source):
        if args:
            passed.setdefault(args[0], set()).update(args[1:])
    unpassed = {}
    for name, command in group.commands.items():
        missing = [param.opts[0] for param in command.params
                   if isinstance(param, click.Option) and not param.required
                   and not set(param.opts) & passed.get(name, set())]
        if missing:
            unpassed[name] = missing
    return unpassed


def test_cli_input_audits_detect():
    @click.group()
    def group():
        pass

    @group.command()
    @click.option("--a", required=True)
    @click.option("--b", default=1)
    @click.option("--c", is_flag=True)
    def run(a, b, c):
        pass

    group.add_command(run, name="go")
    assert command_aliases(group) == {"run": ["go", "run"]}
    source = ('_run_cli(["run", "--a", x, "--b", "2"])\n'
              'other(["run", "--c"])\n')
    assert unpassed_options(group, source) == {"run": ["--c"], "go": ["--b", "--c"]}


def test_every_command_has_one_name():
    # a second name for a command is a second way to spell the same input
    assert command_aliases(cli.main) == {}


def test_every_optional_cli_option_is_passed_by_the_benchmark():
    # an option the benchmark never passes changes no measured run: what a
    # run computes is set in its config file, and an option that only
    # overrides it is a second place to set the same input
    source = (ROOT / "bench" / "workloads.py").read_text(encoding="utf-8")
    unpassed = unpassed_options(cli.main, source)
    assert unpassed == {}, f"optional options no benchmark command line passes: {unpassed}"


def test_one_version_string():
    # the package metadata reads its version from svycdf.__version__, the
    # string a run's manifest records, so the two cannot disagree
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # setuptools calls [tool.setuptools] beta
        project = read_configuration(ROOT / "pyproject.toml")["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == svycdf.__version__
