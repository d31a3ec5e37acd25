"""The README's demos run end to end: the quickstart prints its rankings,
and the CLI walkthrough leaves every command's manifest and a full sweep."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def demo_env(tmp_path):
    """The library on the path, this interpreter first on PATH, and temporary
    directories under ``tmp_path``."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent), env["PATH"]])
    return env


def test_quickstart_runs_and_prints_rankings(tmp_path):
    env = demo_env(tmp_path)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "quickstart.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    tail = done.stdout.split("sample rankings (ground truth vs top 5):\n", 1)[1]
    rows = tail.splitlines()
    assert len(rows) == 3
    for row in rows:
        assert re.fullmatch(r"  \S+: gt=\S+ rank=\d+ top5=\[('[^']+', ){4}'[^']+'\]", row), row


def test_cli_walkthrough_runs(tmp_path):
    done = subprocess.run(
        ["bash", str(ROOT / "demos" / "cli_walkthrough.sh")],
        capture_output=True, text=True, env=demo_env(tmp_path), timeout=600,
    )
    assert done.returncode == 0, done.stderr
    (work,) = tmp_path.glob("nirrec-cli-*")
    assert len(list(work.rglob("manifest.json"))) == 5
    with (work / "sweep" / "plotdata.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "p_at_20", "status"]
    assert [r[2] for r in rows[1:]] == ["ok"] * 5
