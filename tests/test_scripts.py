"""The experiment scripts run end to end and their pathways still agree."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    # as the pytest filter in pyproject.toml: a leaked numpy warning fails
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def printed(pattern, out):
    values = [float(v) for v in re.findall(pattern, out)]
    assert values, f"{pattern!r} not in output:\n{out}"
    return values


def test_run_reference_case(tmp_path):
    out = run_script("run_reference_case.py", "--nx", "301", "--dt", "1e-4",
                     "--t-end", "0.2", "--outdir", str(tmp_path))
    assert (tmp_path / "reference_fields.csv").is_file()
    assert printed(r"fd vs analytic\s+L-inf = (\S+)", out)[0] <= 5e-3
    assert printed(r"quad vs analytic\s+L-inf = (\S+)", out)[0] <= 1e-10


def test_symmetry_demo(tmp_path):
    out = run_script("symmetry_demo.py", "--outdir", str(tmp_path))
    assert (tmp_path / "symmetry_fields.csv").is_file()
    diffs = printed(r"max \|.+? - .+?\| = (\S+)", out)
    assert len(diffs) == 6 and max(diffs) <= 1e-8
