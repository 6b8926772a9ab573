"""Import boundaries: the dense oracle shares no Bell measurement with the
package, the package never imports the tests, and only ``channel`` reads
the tail weights, so that ``required_cutoff`` stays the one cutoff rule."""

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


def _identifiers(path):
    """Every name a file uses, defines, imports or reads as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):  # the imported name, not its alias
            yield node.name.rsplit(".", 1)[-1]


def test_only_the_channel_reads_the_tail_weights():
    tails = {"zero_tail", "one_tail", "dual_rail_tail", "_tails"}
    package = ROOT / "src" / "horizon_teleport"
    channel = package / "channel.py"
    assert tails <= set(_identifiers(channel))
    found = [
        f"{path.name}: {name}"
        for path in sorted(package.rglob("*.py"))
        if path != channel
        for name in _identifiers(path)
        if name in tails
    ]
    assert found == []
