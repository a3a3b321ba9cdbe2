"""README's "Library use" example runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import sheafgauge

ROOT = Path(__file__).resolve().parent.parent


def library_use_block() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)


def test_library_use_example_runs():
    env = dict(os.environ)
    src = str(Path(sheafgauge.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", library_use_block()],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "17 checks, 17 passed, 0 failed"
