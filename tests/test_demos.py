"""The demos' stdout, pinned byte for byte.

Each demo runs in a fresh interpreter under -W error, so a warning such as
a deprecation on a newer Python fails it.  A change that alters a printed
universal form, value or message shows here: demos 02 and 05 print
`derive_universal` and `q_universal` output.
"""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens" / "demos"


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_is_unchanged(name):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMOS / f"{name}.py")],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
