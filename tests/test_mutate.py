"""`tools/mutate.py`, the guard-deletion survey, on a toy package."""

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
'''

TOY_TEST = '''\
import pytest

from finnets.toy import half


def test_half():
    assert half(4) == 2
    with pytest.raises(ValueError):
        half(-1)
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
    ]


def test_survey_reports_the_guard_no_test_kills(tmp_path):
    root = toy_tree(tmp_path / "toy")
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    proc = subprocess.run([sys.executable, str(TOOL), "--root", str(root)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "src/finnets/toy.py:4 n % 2 and n > 100",
        "module survivors/guards",
        "toy 1/2",
        "total 1/2",
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
