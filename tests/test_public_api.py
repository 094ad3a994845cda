"""Every public module-level name of `noisypca` has a use outside its own definition.

A public module-level name is one that a top-level def, class or assignment
of a package module binds, without a leading underscore. `__init__.py`
imports nothing, so each name has one import path: its module. A use is a
name or attribute reference in code (an import does not count) in one of:
the package's other top-level statements, `bench/*.py`, the README's
library example, or `tests/test_acceptance.py`. A helper that only the
module tests call belongs in the tests, not in the public API. The library
example is also run, so it cannot break unseen, and `__version__` is the
version that `pyproject.toml` declares.

No module reads the process environment, so it cannot become a hidden input.
Each input value is checked in the config layer: `config.py` does not import
the engine, and the CLI parses flag values as plain numbers.
Every error class but `ValidationError` is handled somewhere in the package.
"""

import ast
import re
from pathlib import Path

import noisypca

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisypca"


def _references(node):
    """Identifiers that the code under node refers to by name or attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _bound(stmt):
    """Names that a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return set()


def _public_names():
    return {
        name
        for path in PACKAGE.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
        for name in _bound(stmt)
        if not name.startswith("_")
    }


def _library_example():
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert match, "README has no library example"
    return match.group(1)


def _uses():
    """Every identifier that some acceptable use refers to."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:  # a definition is not its own use
            used |= _references(stmt) - _bound(stmt)
    sources = [p.read_text() for p in (ROOT / "bench").glob("*.py")]
    sources += [_library_example(), (ROOT / "tests" / "test_acceptance.py").read_text()]
    for text in sources:
        used |= _references(ast.parse(text))
    return used


def test_every_export_is_used_outside_its_definition():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [ast.unparse(node) for node in ast.walk(init) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, f"__init__.py re-exports names that their modules provide: {imports}"
    names = _public_names()
    assert len(names) >= 60  # the modules were found
    unused = sorted(names - _uses())
    assert not unused, f"public but used only by the module tests: {unused}"


def test_version_is_the_declared_one():
    # pyproject.toml is read with a regex: tomllib is not in Python 3.10.
    match = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert match, "pyproject.toml declares no version"
    assert noisypca.__version__ == match.group(1)


def test_library_example_runs(capsys):
    # It prints the se of its PCA estimate and the general bound, which holds.
    exec(compile(_library_example(), "README.md", "exec"), {})
    printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert sorted(printed) == ["bound", "se"], printed
    assert float(printed["se"]) <= float(printed["bound"])


def test_no_module_reads_the_environment():
    # A CSV is a function of its config and seed alone: no module may read
    # os.environ or os.getenv, by attribute or by a `from os import`.
    names = {"environ", "environb", "getenv", "getenvb"}
    readers = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.ImportFrom) and any(alias.name in names for alias in node.names))
    ]
    assert len(list(PACKAGE.rglob("*.py"))) >= 9  # the package was found
    assert not readers, f"modules that read the environment: {readers}"


def test_every_error_class_is_handled():
    # A class earns its place by being caught: in an `except` clause or a
    # `contextlib.suppress(...)` call. ValidationError is the one raised for
    # every bad input and is handled as a NoisyPcaError.
    classes = {
        node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)
    }
    handled = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                handled |= _references(node.type)
            elif isinstance(node, ast.Call) and "suppress" in _references(node.func):
                handled |= set().union(*map(_references, node.args))
    assert "NoisyPcaError" in classes  # errors.py was found
    unhandled = sorted(classes - handled - {"ValidationError"})
    assert not unhandled, f"error classes that no code catches: {unhandled}"


def test_inputs_are_checked_in_the_config_layer():
    # ExperimentConfig's rules live in config.py, not in the engine it feeds,
    # and a CLI flag value is checked as the config value it replaces: every
    # argparse `type=` is a plain int or float, never a range converter.
    config_imports = [
        node.module
        for node in ast.walk(ast.parse((PACKAGE / "config.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert "errors" in config_imports  # the relative imports were found
    assert "experiments" not in config_imports, config_imports
    types = [
        ast.unparse(keyword.value)
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Call) and "add_argument" in _references(node.func)
        for keyword in node.keywords
        if keyword.arg == "type"
    ]
    assert len(types) >= 5  # --seed, --workers, --trials, --c and --alpha were found
    assert set(types) <= {"int", "float"}, types
