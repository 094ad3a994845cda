"""Every name that `noisypca` exports has a use outside its own definition.

A use is a name or attribute reference in code (an import does not count)
in one of: the package's other top-level statements, `bench/*.py`, the
README's library example, or `tests/test_acceptance.py`. A helper that
only the module tests call belongs in the tests, not in the public API.

No module reads the process environment, so it cannot become a hidden input.
Every error class but `ValidationError` is handled somewhere in the package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisypca"


def _references(node):
    """Identifiers that the code under node refers to by name or attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
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
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:  # a def or class is not its own use
            used |= _references(stmt) - {getattr(stmt, "name", None)}
    sources = [p.read_text() for p in (ROOT / "bench").glob("*.py")]
    sources += [_library_example(), (ROOT / "tests" / "test_acceptance.py").read_text()]
    for text in sources:
        used |= _references(ast.parse(text))
    return used


def test_every_export_is_used_outside_its_definition():
    exports = _exports()
    assert len(exports) > 40  # the export list was found
    unused = sorted(exports - _uses())
    assert not unused, f"exported but used only by the module tests: {unused}"


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
