"""Import boundaries: the dense oracle shares no Bell measurement with the
package, the package never imports the tests, and only ``channel`` reads
the tail weights, so that ``required_cutoff`` stays the one cutoff rule.
One run path: the commands reach the protocol through one
``run_protocol`` call each, only ``teleport`` sums outcome probabilities,
and only ``channel`` holds the truncation budget to its range.  One row
writer: the CLI builds its CSV and JSON writers in ``_write_rows`` only.
One horizon law: only ``SqueezeParams.decay`` and its inverse
``from_tanh`` read pi."""

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


PACKAGE = ROOT / "src" / "horizon_teleport"


def _names_in(node):
    """Every name or attribute read anywhere under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_each_command_runs_the_protocol_through_one_call():
    callers = sorted(
        f"{path.stem}.{function.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and "run_protocol" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    )
    assert callers == [
        "analysis._evaluate_point",
        "analysis.convergence_report",
        "cli._cmd_simulate",
    ]


def test_only_the_protocol_sums_outcome_probabilities():
    sums = {
        path.stem: [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and "probability" in set(_names_in(node))
        ]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert sums.pop("teleport")  # the loss and the average
    assert all(lines == [] for lines in sums.values()), sums


def test_only_the_channel_bounds_the_truncation_budget():
    budget = {"epsilon", "max_cutoff", "hard_cap"}
    found = {
        path.stem: [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Compare)
            and budget & set(_names_in(node))
            and any(
                isinstance(side, ast.Constant) and isinstance(side.value, (int, float))
                for side in [node.left, *node.comparators]
            )
        ]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found.pop("channel")  # check_budget
    assert all(lines == [] for lines in found.values()), found


def _writer_uses(node):
    """Every ``csv.writer``, ``csv.DictWriter``, ``json.dump`` or
    ``json.dumps`` read anywhere under ``node``."""
    writers = {"csv.writer", "csv.DictWriter", "json.dump", "json.dumps"}
    return sorted(
        f"{sub.value.id}.{sub.attr}"
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.value, ast.Name)
        and f"{sub.value.id}.{sub.attr}" in writers
    )


def test_the_cli_writes_rows_in_one_place():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    (write_rows,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_write_rows"
    ]
    assert _writer_uses(tree) == _writer_uses(write_rows) == ["csv.writer", "json.dump"]


def _scopes_reading_pi(node, scope):
    """The qualified name of the function around each read of ``pi``
    (``math.pi``, ``np.pi`` or a bare ``pi``) under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _scopes_reading_pi(child, f"{scope}.{child.name}")
            continue
        if getattr(child, "attr", None) == "pi" or getattr(child, "id", None) == "pi":
            yield scope
        yield from _scopes_reading_pi(child, scope)


def test_the_horizon_law_is_stated_once():
    # tanh r = exp(-2 pi M Omega) is SqueezeParams.decay and from_tanh its
    # inverse; every other formula reads decay, so pi appears nowhere else
    reads = sorted(
        scope
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _scopes_reading_pi(ast.parse(path.read_text(), filename=str(path)), path.stem)
    )
    assert reads == ["channel.SqueezeParams.decay", "channel.SqueezeParams.from_tanh"]
