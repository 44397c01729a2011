"""Mutation survey: the guards, guard operands and roundings no test kills.

    python3 tools/mutate.py [--module features --module cli] [--root DIR]

A guard is an `if` whose body raises and that has no `else` (an `elif` is
the `else` of the `if` above it, so only the last `elif` of a chain
counts). Each run makes three kinds of mutant of every module, one
mutation at a time, all found through `ast` (so a `round(` in a docstring
is no call):

- guard: the guard's whole condition, multi-line ones included, becomes
  `False`;
- operand: one operand of an `or` or `and`, at any depth in a guard's
  condition, is dropped (the operator with two operands becomes the one
  left);
- round: a `round(...)` call becomes `int(...)`, which truncates.

The script copies the tree at `--root` (by default the checkout that holds
this script) to a temporary directory, never edits the tree itself, and
runs that module's own tests against each mutant:

    python -m pytest -x -q -p no:cacheprovider -m "not acceptance" TESTS

TESTS is `tests/test_<module>.py`; `signals` and `features` add
`tests/test_batching.py`, and `nets` adds `tests/test_dense_step.py`. A
mutant that the tests pass survives. Each survivor is printed as
`path:line kind: before -> after`, then the survivor and mutant counts of
each kind per module. A module with no test file is skipped; the
unmutated tests of each module must pass first, or the script stops with
exit 2.

It uses the standard library only and is not part of the test suite.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile

PACKAGE = os.path.join("src", "finnets")
EXTRA_TESTS = {
    "signals": ["test_batching.py"],
    "features": ["test_batching.py"],
    "nets": ["test_dense_step.py"],
}
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-m", "not acceptance"]
MUTANT_TIMEOUT_S = 600
KINDS = ("guard", "operand", "round")


def _offsets(source: str):
    """Maps an ast node to the (start, end) string offsets of its text."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno, col):
        # ast columns count UTF-8 bytes
        line = source[starts[lineno - 1]:starts[lineno]]
        return starts[lineno - 1] + len(line.encode("utf-8")[:col].decode("utf-8"))

    return lambda node: (offset(node.lineno, node.col_offset),
                         offset(node.end_lineno, node.end_col_offset))


def _flat(text: str) -> str:
    return " ".join(text.split())


def guards(source: str):
    """(line, condition text, (start, end) offsets of the condition) of
    every `if` in `source` whose body raises and that has no `else`."""
    return sorted((line, before, where)
                  for kind, line, before, _, where, _ in mutants(source) if kind == "guard")


def mutants(source: str):
    """(kind, line, before, after, (start, end), replacement) of every
    mutant of `source`: `source[start:end]` becomes `replacement`."""
    tree = ast.parse(source)
    span = _offsets(source)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and not node.orelse
                and any(isinstance(stmt, ast.Raise) for stmt in node.body)):
            a, b = span(node.test)
            found.append(("guard", node.lineno, _flat(source[a:b]), "False", (a, b), "False"))
            for op in ast.walk(node.test):
                if isinstance(op, ast.BoolOp):
                    a, b = span(op)
                    for i in range(len(op.values)):
                        kept = op.values[:i] + op.values[i + 1:]
                        after = ast.unparse(kept[0] if len(kept) == 1 else ast.BoolOp(op.op, kept))
                        found.append(("operand", node.lineno, _flat(source[a:b]), after,
                                      (a, b), f"({after})"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "round"):
            a, b = span(node)
            before = _flat(source[a:b])
            found.append(("round", node.lineno, before, "int" + before[len("round"):],
                          span(node.func), "int"))
    return sorted(found, key=lambda m: (KINDS.index(m[0]), m[1], m[4]))


def module_tests(root: str, module: str):
    names = [f"test_{module}.py"] + EXTRA_TESTS.get(module, [])
    paths = [os.path.join("tests", name) for name in names]
    return paths if os.path.exists(os.path.join(root, paths[0])) else []


def run_tests(work: str, tests) -> bool:
    """True when the tests pass in `work`; a timeout counts as a failure."""
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, *PYTEST, *tests], cwd=work, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=MUTANT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def survey(root: str, modules) -> dict:
    """{module: {kind: (n_mutants, [(line, before, after), ...survivors])}}."""
    results = {}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = os.path.join(tmp, "tree")
        shutil.copytree(root, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.pyc"))
        for module in modules:
            rel = os.path.join(PACKAGE, f"{module}.py")
            tests = module_tests(work, module)
            if not tests:
                print(f"{rel}: no test file, skipped", file=sys.stderr)
                continue
            path = os.path.join(work, rel)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            if not run_tests(work, tests):
                print(f"{rel}: its tests fail unmutated: {' '.join(tests)}", file=sys.stderr)
                raise SystemExit(2)
            found = mutants(source)
            counts = {kind: [0, []] for kind in KINDS}
            for i, (kind, line, before, after, (a, b), new) in enumerate(found, start=1):
                print(f"{rel}: mutant {i}/{len(found)}, {kind} at line {line}", file=sys.stderr)
                counts[kind][0] += 1
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(source[:a] + new + source[b:])
                try:
                    if run_tests(work, tests):
                        counts[kind][1].append((line, before, after))
                        print(f"{rel}:{line} {kind}: {before} -> {after}", flush=True)
                finally:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(source)
            results[module] = {kind: tuple(c) for kind, c in counts.items()}
    return results


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=here,
                        help="checkout to survey (default: the one holding this script)")
    parser.add_argument("--module", action="append",
                        help="module of src/finnets to survey; repeatable (default: all)")
    args = parser.parse_args(argv)
    package = os.path.join(args.root, PACKAGE)
    available = sorted(name[:-3] for name in os.listdir(package)
                       if name.endswith(".py") and name != "__init__.py")
    modules = args.module or available
    unknown = sorted(set(modules) - set(available))
    if unknown:
        parser.error(f"no such module in {package}: {', '.join(unknown)}")
    results = survey(args.root, modules)
    print("module survivors/mutants: " + " ".join(KINDS))
    for module, kinds in results.items():
        print(module, *(f"{len(s)}/{n}" for n, s in kinds.values()))
    print("total", *(f"{sum(len(r[k][1]) for r in results.values())}/"
                     f"{sum(r[k][0] for r in results.values())}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
