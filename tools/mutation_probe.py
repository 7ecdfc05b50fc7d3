"""Mutation probe: do the tests notice a flipped comparison or sign?

For each named function the probe makes one mutant per comparison operator
(< and <=, > and >=, == and != swapped) and per binary + or - (swapped),
writes the mutated module into a copy of ``src`` and ``tests`` under a
work directory, and runs ``DEFAULT_TESTS`` there with ``pytest -x`` and
one fixed hypothesis seed, so that a mutant's verdict repeats.
A mutant that every test passes *survives*.  Survivors listed in
``EQUIVALENT`` are known equivalent mutants (no input tells them apart),
reported but not counted; any other survivor is a test gap, and the probe
exits 1.  The repository itself is never written.

It is a developer tool, not a CI step: each mutant runs the test files
once, so a probe of a few functions takes minutes.

    python3 tools/mutation_probe.py --work /tmp/probe \\
        --function landscape._running_sums --function target.BenchmarkTarget.cum_int_xint

Without ``--function`` it probes ``DEFAULT_FUNCTIONS``.  A test run that
takes longer than ``TIMEOUT`` seconds (a mutant that loops) counts as a
kill.  Modules are rewritten with ``ast.unparse``, so the copy loses
comments and formatting, not behaviour; the probe checks first that the
unmutated rewrite passes.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "reluland"

# the exact-gradient path: geometry kernel, running sums, target reads
DEFAULT_FUNCTIONS = (
    "network._geometry_nodes",
    "network._adds_nothing",
    "network._kink_near_endpoint",
    "landscape._running_sums",
    "landscape.grad_theta",
    "landscape._unclamped_risk",
    "target._mid_antis",
    "target._end_powers",
    "target.PolyTarget.cum_int_xint",
    "target.BenchmarkTarget.cum_int_xint",
    "minima.verify_zero_integrals",
)
DEFAULT_TESTS = (
    "tests/test_frozen_bits.py",
    "tests/test_target.py",
    "tests/test_landscape.py",
    "tests/test_network.py",
    "tests/test_train.py",
    "tests/test_minima.py",
    "tests/test_enumeration.py",
)
# seconds per test run
TIMEOUT = 600.0

# (function, expression, its mutant) -> why no input tells them apart
EQUIVALENT = {
    ("network._geometry_nodes", "w > 0.0", "w >= 0.0"):
        "right = w > 0.0 runs only inside if w != 0.0",
    ("network._geometry_nodes", "a < q < b", "a <= q < b"):
        "a kink on a is no new node (q > nodes[-1] fails), and bisect_left "
        "still gives its span index 0",
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
}


def _find(tree: ast.Module, qualname: str) -> ast.AST:
    node: ast.AST = tree
    for name in qualname.split("."):
        node = next((n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        if node is None:
            raise SystemExit(f"no function {qualname!r}")
    return node


def _sites(func: ast.AST):
    """(node, index) of every operator the probe can swap, in source order:
    index i of a Compare's ops, or None for a BinOp's op."""
    sites = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            sites.append((node, None))
    return sorted(sites, key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))


def _swap(node: ast.AST, i) -> None:
    if i is None:
        node.op = SWAPS[type(node.op)]()
    else:
        node.ops[i] = SWAPS[type(node.ops[i])]()


def mutants(source: str, qualname: str):
    """(line, expression, mutated expression, mutated module source) per site."""
    tree = ast.parse(source)
    for node, i in _sites(_find(tree, qualname.split(".", 1)[1])):
        before = ast.unparse(node)
        _swap(node, i)
        after, text = ast.unparse(node), ast.unparse(tree)
        _swap(node, i)  # every swap is its own inverse
        yield node.lineno, before, after, text


def _run_tests(work: Path) -> bool:
    """Whether every test passes in the work copy; a run past the timeout
    (a mutant that loops) counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    # one hypothesis seed for every run, so a mutant's verdict repeats
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *DEFAULT_TESTS]
    try:
        res = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return res.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", type=Path, required=True,
                    help="new or empty directory for the mutated copy, outside the repository")
    ap.add_argument("--function", action="append",
                    help="module.qualname inside the package; repeatable")
    args = ap.parse_args(argv)
    work = args.work.resolve()
    if work == ROOT or ROOT in work.parents:
        ap.error("--work must lie outside the repository")
    functions = args.function or DEFAULT_FUNCTIONS

    if work.exists() and any(work.iterdir()):
        ap.error("--work must be a new or empty directory")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")

    def module_path(qualname):
        return work / "src" / PACKAGE / (qualname.split(".", 1)[0] + ".py")

    # the unmutated rewrite must pass, or every mutant would read as killed
    originals = {}
    for q in functions:
        path = module_path(q)
        if path not in originals:
            originals[path] = path.read_text()
            path.write_text(ast.unparse(ast.parse(originals[path])))
    if not _run_tests(work):
        print("the unmutated rewrite fails the tests; no mutant was run")
        return 2
    for path, text in originals.items():
        path.write_text(text)

    killed = 0
    known, unknown = [], []
    start = time.monotonic()
    for q in functions:
        path = module_path(q)
        source = path.read_text()
        for line, before, after, text in mutants(source, q):
            path.write_text(text)
            survived = _run_tests(work)
            path.write_text(source)
            where = f"{q}:{line}: {before}  ->  {after}"
            if not survived:
                killed += 1
                print(f"killed    {where}", flush=True)
            elif (q, before, after) in EQUIVALENT:
                known.append(where)
                print(f"known     {where}  ({EQUIVALENT[q, before, after]})", flush=True)
            else:
                unknown.append(where)
                print(f"SURVIVED  {where}", flush=True)
    total = killed + len(known) + len(unknown)
    print(f"{total} mutants in {time.monotonic() - start:.0f} s: {killed} killed, "
          f"{len(known)} known equivalent, {len(unknown)} unknown survivors")
    return 1 if unknown else 0


if __name__ == "__main__":
    sys.exit(main())
