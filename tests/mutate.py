"""Generated mutants: every site of the standard operator swaps in a module.

Where ``tests/mutants.py`` lists the faults someone thought of, this
generates them mechanically, with the pilot's operator set (Offutt et al.,
ACM TOSEM 5(2), 99 (1996); Jia & Harman, IEEE TSE 37(5), 649 (2011)):
+ and -, * and /, < and <=, > and >=, == and !=, ``and`` and ``or``, and
a number plus 1.  Each site of each operator, found with ``ast`` and
``tokenize``, is one mutant; the swap changes that token's text only, so
the rest of the file, comments and layout included, is as it was.

Run it from any directory with the files under ``src/horizon_teleport/``
to mutate (all of its modules by default):

    python tests/mutate.py teleport.py cli.py

Each mutant runs through ``mutants._run`` on a fresh copy, on the whole of
``tests`` with ``pytest -x -q``, less the catalogue check
``test_every_catalogued_mutant_still_applies``: that test fails on any
edit to a catalogued source text, so it would count a mutant as killed
whatever the package then does.  The output is the JSON of
``tests/mutants.py``, keyed by ``file:line:column original->mutant``; it
exits 1 unless every mutant is killed or timed out.  A survivor is either
equivalent (no output can tell it from the package), a gap for a new test
to close, or code that no test needs.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize

from mutants import KILLED, ROOT, Mutant, _run

PACKAGE = ROOT / "src" / "horizon_teleport"

_SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">",
          "==": "!=", "!=": "==", "and": "or", "or": "and"}
_OPERATORS = (ast.BinOp, ast.Compare, ast.BoolOp)
_NODES = ("tests", "--deselect", "tests/test_layering.py::test_every_catalogued_mutant_still_applies")


def _operands(node):
    """The operands on either side of each operator token of ``node``."""
    if isinstance(node, ast.BinOp):
        return [(node.left, node.right)]
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return list(zip(operands, operands[1:]))
    return list(zip(node.values, node.values[1:]))


def sites(text: str):
    """(line, column, original, mutant) per mutation site, where the mutant
    text replaces the original at that position (1-based line, 0-based
    character column)."""
    lines = text.splitlines(keepends=True)

    def start(node):  # ast columns count UTF-8 bytes, tokenize's characters
        return node.lineno, len(lines[node.lineno - 1].encode()[: node.col_offset].decode())

    def end(node):
        return node.end_lineno, len(lines[node.end_lineno - 1].encode()[: node.end_col_offset].decode())

    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline) if t.string in _SWAPS]
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _OPERATORS):
            for left, right in _operands(node):  # no token where the operator is not swapped, as **
                for token in [t for t in tokens if end(left) <= t.start and t.end <= start(right)]:
                    found.append((*token.start, token.string, _SWAPS[token.string]))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            (line, col), (_, stop) = start(node), end(node)
            literal = lines[line - 1][col:stop]
            found.append((line, col, literal, f"({literal} + 1)"))
    return sorted(found)


def mutated(text: str, line: int, col: int, original: str, mutant: str) -> str:
    lines = text.splitlines(keepends=True)
    source = lines[line - 1]
    assert source[col : col + len(original)] == original, (line, col, original)
    lines[line - 1] = source[:col] + mutant + source[col + len(original) :]
    return "".join(lines)


def main(files: list[str]) -> int:
    results = {}
    for name in files or sorted(p.name for p in PACKAGE.glob("*.py") if not p.name.startswith("__")):
        text = (PACKAGE / name).read_text()
        for site in sites(text):
            key = "{}:{}:{} {}->{}".format(name, *site)
            results[key] = _run(Mutant(key, name, text, mutated(text, *site), _NODES))
            print(key, results[key]["result"], results[key]["node"], file=sys.stderr, flush=True)
    print(json.dumps(results, indent=2))
    return 0 if all(r["result"] in KILLED for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
