"""Guard-deletion survey: which raising checks in `src/finnets` no test kills.

    python3 tools/mutate.py [--module features --module cli] [--root DIR]

A guard is an `if` whose body raises and that has no `else` (an `elif` is
the `else` of the `if` above it, so only the last `elif` of a chain
counts). The script copies the tree at `--root` (by default the checkout
that holds this script) to a temporary directory, never edits the tree
itself, and then, one guard at a time, replaces the guard's condition,
multi-line ones included, with `False` and runs that module's own tests:

    python -m pytest -x -q -p no:cacheprovider -m "not acceptance" TESTS

TESTS is `tests/test_<module>.py`; `signals` and `features` add
`tests/test_batching.py`, and `nets` adds `tests/test_dense_step.py`. A
mutant that the tests pass survives. Each survivor is printed as
`path:line condition`, then the guard and survivor counts per module. A
module with no test file is skipped; the unmutated tests of each module
must pass first, or the script stops with exit 2.

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


def guards(source: str):
    """(line, condition text, (start, end) offsets of the condition) of
    every `if` in `source` whose body raises and that has no `else`."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno, col):
        # ast columns count UTF-8 bytes
        line = source[starts[lineno - 1]:starts[lineno]]
        return starts[lineno - 1] + len(line.encode("utf-8")[:col].decode("utf-8"))

    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and not node.orelse
                and any(isinstance(stmt, ast.Raise) for stmt in node.body)):
            test = node.test
            span = (offset(test.lineno, test.col_offset),
                    offset(test.end_lineno, test.end_col_offset))
            text = " ".join(source[span[0]:span[1]].split())
            found.append((node.lineno, text, span))
    return sorted(found)


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
    """{module: (n_guards, [(line, condition), ...survivors])}."""
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
            survivors = []
            found = guards(source)
            for i, (line, text, (a, b)) in enumerate(found, start=1):
                print(f"{rel}: guard {i}/{len(found)} at line {line}", file=sys.stderr)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(source[:a] + "False" + source[b:])
                try:
                    if run_tests(work, tests):
                        survivors.append((line, text))
                        print(f"{rel}:{line} {text}", flush=True)
                finally:
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(source)
            results[module] = (len(found), survivors)
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
    print("module survivors/guards")
    for module, (n_guards, survivors) in results.items():
        print(f"{module} {len(survivors)}/{n_guards}")
    total = sum(len(s) for _, s in results.values()), sum(n for n, _ in results.values())
    print(f"total {total[0]}/{total[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
