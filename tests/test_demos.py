"""Each demo exits 0 and prints exactly its recorded output.

demos/expected/<name>.out is the recorded stdout of demos/<name>.py.  Each
demo runs from the repository root in a fresh interpreter that imports
tempent from src/, as a reader would run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_recorded_output(demo):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    want = (ROOT / "demos" / "expected" / f"{demo.stem}.out").read_bytes()
    assert done.stdout == want
