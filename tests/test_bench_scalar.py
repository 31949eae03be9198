import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_scalar.py"


def test_bench_scalar_prints_one_json_line():
    done = subprocess.run([sys.executable, str(SCRIPT), "--repeat", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["repeat"] == 1 and report["seed"] == 0
    assert set(report["ns_per_op"]) == {
        "gaussian_add", "gaussian_mul", "gaussian_div",
        "upoly_mul", "upoly_mul_small_real", "upoly_divmod", "upoly_gcd",
        "radial_new_u", "radial_new_u_shift", "radial_add_same_den",
        "radial_derivative_u", "radial_derivative_u_shift",
    }
    assert all(v > 0 for v in report["ns_per_op"].values())
