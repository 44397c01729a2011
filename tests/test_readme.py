"""README's code samples run as written."""

import json
import os
import subprocess
import sys
from pathlib import Path

import finnets

REPO_ROOT = Path(__file__).resolve().parents[1]


def readme_python_block(section: str) -> str:
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    body = text.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    return body.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_snippet_runs(tmp_path):
    # a fresh interpreter in an empty directory, with the snippet unchanged
    package_root = Path(finnets.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", readme_python_block("Library use")],
        capture_output=True, text=True, timeout=600, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert 0.0 <= float(proc.stdout) <= 1.0, proc.stdout
    # emit_report alone writes the fin-vs-knn comparison rows
    doc = json.loads((tmp_path / "runs" / "library-bench" / "report.json").read_text())
    assert [row["groups"] for row in doc["stats"]] == ["fin vs knn"] * 2
