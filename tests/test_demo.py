"""The README's quickstart demo runs end to end and prints its rankings."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quickstart_runs_and_prints_rankings(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
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
