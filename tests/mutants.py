"""Mutant catalogue: small faults in the package that the suite must catch.

Each row is one mutant: an id, a file under ``src/horizon_teleport/``, the
exact source text it changes, its replacement, and the pytest node IDs
expected to kill it.  This is mutation analysis (DeMillo, Lipton & Sayward,
IEEE Computer 11(4), 34 (1978); Jia & Harman, IEEE TSE 37(5), 649 (2011)):
a suite that passes on a mutant cannot tell that fault from working code,
so a change that edits or deletes a test reruns the catalogue to show that
it lets no mutant through.

Run it with no flags, from any directory:

    python tests/mutants.py

For each mutant it copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` (the CLI tests run its examples) to a temporary directory,
applies the mutant there, and runs ``python -m pytest -x -q`` on the
mutant's nodes in the copy, with ``PYTHONPATH`` pointed at it.  It prints
one JSON object: per mutant, "killed", "survived" or "error" (pytest exited
with neither 0 nor 1, as when a node no longer exists), the first failing
node and the seconds taken; it exits 1 unless every mutant is killed.  The
repository is left as it was: pytest and hypothesis keep their caches in
the copy.  ``tests/test_layering.py`` checks on every run of the suite that
each row's source text occurs exactly once in its file and that each
node's test exists, so a refactor that moves either must update the row.

One mutant is left out because it is equivalent: the parity sign on the
wrong rail, ``bool(sign and not k ^ swap)`` in ``teleport``.  A corrected
branch meets the ideal state only at region-II vacuum, so that sign
negates the other branch's term instead of this one's, a global phase of
-1 that no probability or fidelity can see.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str  # under src/horizon_teleport/
    source: str
    replacement: str
    nodes: tuple[str, ...]


_LAW = "tests/test_teleport.py::test_every_outcome_follows_the_finite_cutoff_law"
_CLOSED_FORMS = "tests/test_channel.py::test_schmidt_coefficients_match_the_closed_forms_across_the_squeezing_range"
_BLOCKS = "tests/test_teleport.py::test_runs_across_block_boundaries_follow_the_finite_cutoff_law"
_BLOCK_CALL = "zero, one = _schmidt_coefficients(params, n_max, start, min(start + _BLOCK, n_max + 1))"
_RAILS = "(False, True, False, True), (False, False, True, True)"
# sqrt(m + 1) on a later block; the first reads it from the table _ROOTS
_ROOTS_LATER = "        m += 1.0\n        one = np.sqrt(m, out=m)\n        one *= powers\n"
_SEARCH = "tests/test_channel.py::test_required_cutoff_is_the_first_cutoff_within_the_budget_from_any_estimate"
_ESTIMATE = "    n = min(max(math.ceil(_cutoff_estimate(params, epsilon)), 1), hard_cap)\n"

MUTANTS = (
    Mutant(
        "photon-sqrt-m",
        "channel.py",
        _ROOTS_LATER + "    else:\n        one = _ROOTS[:size] * powers\n",
        _ROOTS_LATER.replace("        m += 1.0\n", "") + "    else:\n        one = np.sqrt(_LEVELS[:size]) * powers\n",
        (_CLOSED_FORMS, _LAW),
    ),
    Mutant("cosh-for-cosh2", "channel.py", "one *= params.sech2_r", "one /= params.cosh_r", (_CLOSED_FORMS, _LAW)),
    Mutant(
        "tanh-power",
        "channel.py",
        "    powers = m * -min(params.decay, 1e3)\n    np.exp(powers, out=powers)\n",
        "    powers = params.tanh_r**m\n",
        (
            _CLOSED_FORMS,
            _LAW,
            "tests/test_analysis.py::test_every_simulated_point_of_the_default_surface_follows_the_finite_cutoff_law",
        ),
    ),
    Mutant(
        "untruncated-norm",
        "teleport.py",
        "fidelity = abs(overlap) ** 2 / norm_sq",
        "fidelity = abs(overlap) ** 2 / (a0 + a1)",
        (_LAW,),
    ),
    Mutant(
        "no-rail-swap",
        "teleport.py",
        _RAILS,
        "(False, False, False, False), (False, False, True, True)",
        (_LAW, "tests/test_teleport.py::test_sector_route_matches_the_dense_oracle"),
    ),
    Mutant(
        "no-parity-sign",
        "teleport.py",
        _RAILS,
        "(False, True, False, True), (False, False, False, False)",
        (
            "tests/test_teleport.py::test_nine_inputs_certify_that_no_outcome_depends_on_the_input",
            "tests/test_teleport.py::test_sector_route_matches_the_dense_oracle",
        ),
    ),
    Mutant(
        "block-drops-its-first-level",
        "channel.py",
        _BLOCK_CALL,
        _BLOCK_CALL.replace("n_max, start,", "n_max, start + (start > 0),"),
        (_BLOCKS,),
    ),
    Mutant(
        "blocks-overlap",
        "channel.py",
        _BLOCK_CALL,
        _BLOCK_CALL.replace("n_max, start,", "n_max, max(start - 1, 0),"),
        (_BLOCKS,),
    ),
    Mutant("photon-zeroed-at-block-ends", "channel.py", "one[n_max - start :] = 0.0", "one[-1] = 0.0", (_BLOCKS,)),
    Mutant(
        "no-cutoff-limit",
        "teleport.py",
        "if n_max > channel.CUTOFF_LIMIT:",
        "if False:",
        (
            "tests/test_teleport.py::test_a_cutoff_above_the_limit_is_refused_before_any_work",
            "tests/test_cli.py::test_cutoff_above_the_limit_exits_1",
        ),
    ),
    Mutant(
        "no-grid-limit",
        "analysis.py",
        "if size > GRID_LIMIT:",
        "if False:",
        (
            "tests/test_analysis.py::test_a_grid_above_the_limit_is_refused_at_construction",
            "tests/test_cli.py::test_sweep_above_the_grid_limit_exits_1_and_writes_nothing",
        ),
    ),
    Mutant(
        "loss-as-one-minus-sum-pf",
        "teleport.py",
        "weighted / retained, 1.0 - retained)",
        "weighted / retained, 1.0 - weighted)",
        (
            "tests/test_teleport.py::test_outcomes_are_equivalent_after_correction",
            "tests/test_analysis.py::test_sweep_with_simulation_fills_numeric_fields",
        ),
    ),
    Mutant(
        "process-wide-alice-cache",
        "teleport.py",
        "    @functools.cached_property\n",
        "    @property\n    @functools.cache\n",
        (
            "tests/test_cli.py::test_simulate_measures_its_input_once_per_outcome",
            "tests/test_analysis.py::test_each_sweep_and_report_measures_its_probe_once",
        ),
    ),
    Mutant(
        "first-vacuum-kept-on-the-qubit",
        "teleport.py",
        "    norm, vacuum = channel._schmidt_norms(params, n_max)\n",
        "    norm, vacuum = channel._schmidt_norms(params, n_max)\n"
        '    vacuum = qubit.__dict__.setdefault("_vacuum", vacuum)\n',
        ("tests/test_teleport.py::test_a_qubit_reused_across_runs_reports_what_a_fresh_one_does",),
    ),
    Mutant(
        "no-cutoff-cap-limit",
        "channel.py",
        "if hard_cap > CUTOFF_LIMIT:",
        "if False:",
        (
            "tests/test_cli.py::test_a_cutoff_cap_above_the_limit_exits_1_before_any_point",
            "tests/test_analysis.py::test_a_cutoff_cap_above_the_limit_is_refused_before_the_axes",
        ),
    ),
    Mutant("cutoff-estimate-unchecked", "channel.py", _ESTIMATE, _ESTIMATE + "    return n\n", (_SEARCH,)),
    Mutant("gallop-up-one-level-high", "channel.py", "        lo, step = n, 1\n", "        lo, step = n + 1, 1\n", (_SEARCH,)),
    Mutant(
        "blocks-above-the-blas-split",
        "channel.py",
        "_BLOCK = 2**13\n",
        "_BLOCK = 2**22\n",
        ("tests/test_cli.py::test_the_output_does_not_depend_on_the_blas_thread_count",),
    ),
)


def _run(mutant: Mutant) -> dict:
    """Apply ``mutant`` to a fresh copy of the repository and run its nodes."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy / name)
        path = copy / "src" / "horizon_teleport" / mutant.file
        path.write_text(path.read_text().replace(mutant.source, mutant.replacement, 1))
        pythonpath = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", *mutant.nodes],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
        )
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", result.stdout, re.MULTILINE)
    return {
        "result": {0: "survived", 1: "killed"}.get(result.returncode, "error"),
        "node": failed.group(1) if failed else None,
        "seconds": round(time.monotonic() - start, 2),
    }


def main() -> int:
    results = {}
    for mutant in MUTANTS:
        results[mutant.id] = _run(mutant)
        print(mutant.id, results[mutant.id]["result"], file=sys.stderr, flush=True)
    print(json.dumps(results, indent=2))
    return 0 if all(r["result"] == "killed" for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
