"""The experiment scripts of the README run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("script, args", [
    ("clark_demo.py", ("--size", "8")),
    ("disintegration_demo.py", ()),
])
def test_demo_exits_cleanly(script, args):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr


def test_secular_sweep_matches_oracle():
    proc = _run("secular_sweep.py", "--seed", "0", "--size", "6")
    assert proc.returncode == 0, proc.stderr
    worst = re.search(r"worst position deviation vs dense oracle: (\S+)",
                      proc.stdout)
    assert worst is not None, proc.stdout
    assert float(worst.group(1)) <= 1e-9
