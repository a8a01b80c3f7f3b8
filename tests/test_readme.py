"""README's library example runs as printed and prints the values its comments state."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_prints_its_stated_thresholds(tmp_path):
    (code,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    stated = [float(value) for value in re.findall(r"#\s*([0-9.]+)", code)]
    assert stated == [3.6410, 1.5666]  # T_star_eq2 (4/ln 3) and T_star_eq4
    assert round(4 / math.log(3), 4) == stated[0]
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    printed = [float(line) for line in done.stdout.split()]
    assert [round(value, 4) for value in printed] == stated
