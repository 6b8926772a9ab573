"""Import boundaries: the dense oracle takes nothing from the package but
``SqueezeParams`` and the outcome labels, and no private name, so it checks
Bob's amplitudes and not only their layout; the package never imports the
tests; and only ``channel`` reads the tail weights, so that
``required_cutoff`` stays the one cutoff rule.
One run path: the commands reach the protocol through one
``run_protocol`` call each, only ``teleport`` sums outcome probabilities,
and only ``channel`` holds the truncation budget to its range.  One row
writer: the CLI joins its CSV lines and dumps its JSON in ``_write_rows``
only, the package imports no ``csv``, and the CLI hands the writer the
records as they are, never a dict built from one, and no record field
is a tuple for the writer to join.
One horizon law: only ``SqueezeParams.__post_init__``, which sets
``decay``, and its inverse ``from_tanh`` read pi, and ``SqueezeParams``
defines no property that could derive it again.  No host limits: the
package reads no physical memory size and imports where ``os.sysconf``
does not exist.  Numpy for the simulation only: no module imports it at
module level, and a fresh process runs ``fidelity`` and an analytic
``sweep`` without loading it.  The mutant catalogue in
``tests/mutants.py`` still applies to the package and names tests that
exist."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from mutants import MUTANTS

from horizon_teleport import analysis, teleport

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


def test_the_oracle_takes_only_the_squeeze_parameters_and_the_outcome_labels():
    oracles = ROOT / "tests" / "oracles.py"
    taken = sorted(
        name or module
        for module, names in _imports(oracles)
        if module.split(".")[0] == "horizon_teleport"
        for name in names or ("",)
    )
    assert taken == ["OUTCOME_LABELS", "SqueezeParams"]
    # nor reaches a private package name another way, as an attribute
    private = {
        name
        for path in (ROOT / "src" / "horizon_teleport").glob("*.py")
        for name in _identifiers(path)
        if name.startswith("_") and not name.startswith("__")
    }
    assert private and private.isdisjoint(_identifiers(oracles))


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
    tails = {"_tails"}
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
    # a sum() over probabilities, or a += of one
    sums = {
        path.stem: [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                or isinstance(node, ast.AugAssign)
            )
            and "probability" in set(_names_in(node))
        ]
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert sums.pop("teleport")  # the retained weight, 1 - loss
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
    """Every ``json.dump`` or ``json.dumps`` read, ``.writelines`` call and
    ``",".join`` call anywhere under ``node``: the JSON writer, and the CSV
    writer's lines and their cells."""
    uses = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Attribute):
            continue
        if isinstance(sub.value, ast.Name) and f"{sub.value.id}.{sub.attr}" in {"json.dump", "json.dumps"}:
            uses.append(f"{sub.value.id}.{sub.attr}")
        elif sub.attr == "writelines":
            uses.append("writelines")
        elif sub.attr == "join" and isinstance(sub.value, ast.Constant) and sub.value.value == ",":
            uses.append('",".join')
    return sorted(uses)


def test_the_cli_writes_rows_in_one_place():
    # _write_rows joins each CSV line itself, so the package has no use for
    # the csv module; a second writer in cli, CSV or JSON, shows up as a
    # json.dump, a writelines or a ",".join outside _write_rows.  A record
    # holds each value as it is written, so no field is a tuple and the
    # writer joins no ";"-list of flags
    for record in (analysis.SweepRecord, analysis.ConvergenceRow, teleport.TeleportOutcome):
        for name, annotation in record.__annotations__.items():
            assert "tuple" not in str(annotation).lower(), (record.__name__, name)
    assert '";".join' not in (PACKAGE / "cli.py").read_text()
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    (write_rows,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_write_rows"
    ]
    assert _writer_uses(tree) == _writer_uses(write_rows) == ['",".join', '",".join', "json.dump", "writelines"]
    imports_csv = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for module, _ in _imports(path)
        if module.split(".")[0] == "csv"
    ]
    assert imports_csv == []


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
    # tanh r = exp(-2 pi M Omega) is the field decay, set once in
    # SqueezeParams.__post_init__, and from_tanh its inverse; every other
    # formula reads the fields, so pi appears nowhere else, and no property
    # computes a value from them again at every read
    reads = sorted(
        scope
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _scopes_reading_pi(ast.parse(path.read_text(), filename=str(path)), path.stem)
    )
    assert reads == ["channel.SqueezeParams.__post_init__", "channel.SqueezeParams.from_tanh"]
    (params,) = [
        node
        for node in ast.walk(ast.parse((PACKAGE / "channel.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "SqueezeParams"
    ]
    assert {"property", "cached_property"}.isdisjoint(_names_in(params))


def test_the_cli_builds_no_row_dict():
    # a row is its record: the writer reads _fields and _asdict(), so no
    # command copies a record's __dict__ or zips a column list
    found = [
        f"{node.lineno}: {node.func.id}"
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and (
            node.func.id == "vars"
            or node.func.id == "dict"
            and any(isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "zip" for arg in node.args)
        )
    ]
    assert found == []


def test_the_package_reads_no_host_memory_size():
    # its limits are counts of levels and points, the same on every host
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "value", None))
        if isinstance(name, str) and ("sysconf" in name or "SC_PHYS_PAGES" in name)
    ]
    assert found == []


def test_the_package_imports_without_os_sysconf():
    # Windows has no os.sysconf
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import os; del os.sysconf; import horizon_teleport"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def _module_level_imports(node):
    """Every import statement under ``node`` outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _module_level_imports(child)


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return node.level == 0 and (node.module or "").split(".")[0] == "numpy"


def test_no_module_imports_numpy_at_module_level():
    # only the simulation needs numpy, and it imports it inside the
    # functions that run it, so the closed form starts without it
    found, inside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set(map(id, _module_level_imports(tree)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and _imports_numpy(node):
                (found if id(node) in top else inside).append(f"{path.stem}:{node.lineno}")
    assert found == []
    assert {name.split(":")[0] for name in inside} == {"channel", "fock", "teleport"}


_NUMPY_PROBE = """
import contextlib, io, sys
import horizon_teleport
from horizon_teleport import cli

def loaded():
    return [name for name in ("numpy", "json", "concurrent.futures") if name in sys.modules]

steps = [loaded()]
csv_out, json_out = sys.argv[1:]
for argv in (
    ["fidelity", "--radius", "1", "--omega", "1"],
    ["sweep", "--radius-steps", "3", "--omega-steps", "3", "--out", csv_out],
    ["sweep", "--radius-steps", "3", "--omega-steps", "3", "--format", "json", "--out", json_out],
    ["simulate", "--mass", "1", "--omega", "0.11"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    steps.append(loaded())
print(steps[:-1], "numpy" in steps[-1])
"""


def test_the_analytic_commands_never_load_numpy(tmp_path):
    # one fresh process: the import, fidelity and an analytic sweep, as CSV
    # and as JSON, leave numpy unloaded, and the thread pool's module too;
    # only the JSON writer loads json; simulate loads numpy, so the probe
    # can tell the difference
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-c", _NUMPY_PROBE, str(tmp_path / "s.csv"), str(tmp_path / "s.json")]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[[], [], [], ['json']] True\n"


def test_every_catalogued_mutant_still_applies():
    # tests/mutants.py changes each row's source text, once, in a copy of
    # its file and runs the row's nodes there; a refactor that moves either
    # must update the row
    assert len({mutant.id for mutant in MUTANTS}) == len(MUTANTS) == 30
    for mutant in MUTANTS:
        assert (PACKAGE / mutant.file).read_text().count(mutant.source) == 1, mutant.id
        for node in mutant.nodes:
            path, name = node.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), node
