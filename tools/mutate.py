"""Mutation probe: flip one operator, comparison or constant at a time in
the named functions of one module, and run the given tests on each mutant.

    python tools/mutate.py src/dicke/entanglement.py dicke_pair_negativity \
        has_pair_reduction_block_structure -- tests/test_entanglement.py

With no function named, the whole module is mutated.  The repository is
copied to a temporary directory (TMPDIR) and each mutant is written there,
so the working tree is never touched; pytest runs in the copy with -x.  A
mutant whose run passes survives and is printed with its line and column.
One pytest run per mutant makes this slow, so it is a manual probe.
SIGTERM stops it together with the pytest run in progress, and the copy is
still removed.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}


def sites(tree: ast.Module, names: set[str]) -> list[tuple[ast.AST, int]]:
    """(node, slot) pairs to flip: slot indexes Compare.ops, else it is -1."""
    roots = [n for n in tree.body if not names or getattr(n, "name", None) in names]
    found = []
    for node in (n for root in roots for n in ast.walk(root)):
        if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            found.append((node, -1))
        elif isinstance(node, ast.Compare):
            found += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float, bool):
            found.append((node, -1))
    return found


def flip(node: ast.AST, slot: int) -> None:
    if isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value = not node.value if type(node.value) is bool else node.value + 1
    else:
        node.op = SWAPS[type(node.op)]()


def passes(copy: Path, tests: list[str]) -> bool:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        return subprocess.run(
            [*command, *tests], cwd=copy, env=env, capture_output=True,
            timeout=600, check=False,
        ).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def stop(signum: int, frame: object) -> None:
    """Unwind as on an error: subprocess.run kills its child on the way."""
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, stop)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    module, names, tests = Path(argv[0]).resolve(), set(argv[1:split]), argv[split + 1:]
    source = module.read_text(encoding="utf-8")
    count = len(sites(ast.parse(source), names))
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = copy / module.relative_to(ROOT)
        for k in range(count):
            tree = ast.parse(source)
            node, slot = sites(tree, names)[k]
            before = ast.unparse(node)
            flip(node, slot)
            target.write_text(ast.unparse(tree), encoding="utf-8")
            if passes(copy, tests):
                survivors += 1
                print(f"survived {module.name}:{node.lineno}:{node.col_offset + 1}: "
                      f"{before} -> {ast.unparse(node)}", flush=True)
    print(f"{survivors} of {count} mutants survive")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
