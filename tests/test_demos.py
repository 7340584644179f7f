"""Each demo script runs to completion as a separate process and prints
exactly the bytes of its golden file, ``tests/golden/<demo>.txt``.

The demos are seeded, so their output is a fingerprint of the library's
numerics.  After an intended change of output, regenerate a golden file
with ``PYTHONPATH=src python demos/<demo>.py > tests/golden/<demo>.txt``
and review the diff.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_demos_found():
    assert DEMOS, "no demo scripts found"
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    golden = (GOLDEN / f"{demo.stem}.txt").read_bytes()
    if proc.stdout != golden:
        diff = difflib.unified_diff(
            golden.decode(errors="replace").splitlines(),
            proc.stdout.decode(errors="replace").splitlines(),
            "golden", "stdout", lineterm="",
        )
        pytest.fail(f"{demo.name} output differs from its golden file:\n" + "\n".join(diff))
