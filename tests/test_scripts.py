import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_coeff_tables_check():
    out = _run_script("coeff_tables.py", "--check")
    assert "quadratic-constraint table" in out
    assert out.rstrip().endswith("operator cross-check: ok")


def test_obstruction_demo():
    out = _run_script("obstruction_demo.py")
    ratios = [line.strip() for line in out.splitlines() if "ratio" in line]
    assert ratios and all(r == "ratio: -2" for r in ratios)


def test_moyal_reduction_demo():
    out = _run_script("moyal_reduction_demo.py")
    verdicts = [line.strip() for line in out.splitlines()
                if line.strip().startswith("matches direct product:")]
    assert verdicts and all(v.endswith("True") for v in verdicts)
