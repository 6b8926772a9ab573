"""Import boundaries: the dense oracle shares no Bell measurement with the
package, and the package never imports the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imports(path):
    """(module, names) for every import statement in a file; ``names`` is
    empty for a plain ``import module``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or "", tuple(alias.name for alias in node.names)


def test_oracle_builds_its_own_bell_measurement():
    found = []
    for module, names in _imports(ROOT / "tests" / "oracles.py"):
        if module == "horizon_teleport.fock":
            found.append(module)
        elif module == "horizon_teleport" and "fock" in names:
            found.append("horizon_teleport.fock")
        elif module == "horizon_teleport.teleport":
            found += [f"{module}.{n}" for n in names if n in ("bell_basis", "correction")]
    assert found == []


def test_package_does_not_import_the_tests():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    found = [
        f"{path.name}: {module}"
        for path in sources
        for module, _ in _imports(path)
        if module == "tests" or module.startswith("tests.") or module == "oracles"
    ]
    assert found == []
