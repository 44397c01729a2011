"""`tools/mutate.py`, the mutation survey, on a toy package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
_spec = importlib.util.spec_from_file_location("mutate", TOOL)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

TOY = '''\
def half(n):
    if n < 0:
        raise ValueError("n must be non-negative")
    if (n % 2
            and n > 100):
        raise ValueError("odd n above 100")
    if n == 7:
        n += 1
    elif n == 9:
        raise ValueError("nine")
    else:
        pass
    return n // 2


def share(n, fraction):
    """round(n * fraction) of n items: a docstring's round( is no call."""
    if n < 0 or not (fraction > 0 and fraction <= 1):
        raise ValueError("bad share")
    return round(n * fraction)
'''

SHARE = "n < 0 or not (fraction > 0 and fraction <= 1)"

TOY_TEST = '''\
import pytest

from finnets.toy import half, share


def test_half():
    assert half(4) == 2
    assert half(102) == 51
    with pytest.raises(ValueError):
        half(-1)


def test_share():
    assert share(7, 0.5) == 4
    with pytest.raises(ValueError):
        share(7, 0.0)
'''


def toy_tree(root: Path) -> Path:
    (root / "src" / "finnets").mkdir(parents=True)
    (root / "src" / "finnets" / "__init__.py").write_text("")
    (root / "src" / "finnets" / "toy.py").write_text(TOY)
    (root / "tests").mkdir()
    (root / "tests" / "test_toy.py").write_text(TOY_TEST)
    return root


def test_guards_are_raising_ifs_without_else():
    # the elif chain has an else, so its raising elif is no guard
    assert mutate.guards(TOY) == [
        (2, "n < 0", (TOY.index("n < 0"), TOY.index("n < 0") + 5)),
        (4, "n % 2 and n > 100", (TOY.index("n % 2"), TOY.index(" 100)") + 4)),
        (18, SHARE, (TOY.index(SHARE), TOY.index(SHARE) + len(SHARE))),
    ]


def test_mutants_drop_each_guard_operand_and_truncate_each_round_call():
    # operands at every depth of a guard's condition, and only the round
    # that is a call
    assert [m[:4] for m in mutate.mutants(TOY)] == [
        ("guard", 2, "n < 0", "False"),
        ("guard", 4, "n % 2 and n > 100", "False"),
        ("guard", 18, SHARE, "False"),
        ("operand", 4, "n % 2 and n > 100", "n > 100"),
        ("operand", 4, "n % 2 and n > 100", "n % 2"),
        ("operand", 18, SHARE, "not (fraction > 0 and fraction <= 1)"),
        ("operand", 18, SHARE, "n < 0"),
        ("operand", 18, "fraction > 0 and fraction <= 1", "fraction <= 1"),
        ("operand", 18, "fraction > 0 and fraction <= 1", "fraction > 0"),
        ("round", 20, "round(n * fraction)", "int(n * fraction)"),
    ]


def test_survey_reports_the_guard_no_test_kills(tmp_path):
    root = toy_tree(tmp_path / "toy")
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    proc = subprocess.run([sys.executable, str(TOOL), "--root", str(root)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "src/finnets/toy.py:4 guard: n % 2 and n > 100 -> False",
        "src/finnets/toy.py:4 operand: n % 2 and n > 100 -> n % 2",
        "src/finnets/toy.py:18 operand: n < 0 or not (fraction > 0 and fraction <= 1)"
        " -> not (fraction > 0 and fraction <= 1)",
        "src/finnets/toy.py:18 operand: fraction > 0 and fraction <= 1 -> fraction > 0",
        "module survivors/mutants: guard operand round",
        "toy 1/3 3/6 0/1",
        "total 1/3 3/6 0/1",
    ]
    # the tree it surveyed is untouched
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


def test_survey_stops_when_the_unmutated_tests_fail(tmp_path):
    root = toy_tree(tmp_path / "toy")
    (root / "tests" / "test_toy.py").write_text(TOY_TEST.replace("== 2", "== 3"))
    proc = subprocess.run([sys.executable, str(TOOL), "--root", str(root), "--module", "toy"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "its tests fail unmutated" in proc.stderr
