import json
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


def test_mutant_list_matches_source():
    # every mutant of scripts/mutants.py still finds its one source text, and
    # names tests that exist, a parametrized golden test by a recorded argv;
    # running the mutants is a separate CI job
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import mutants
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    golden = {" ".join(r["argv"])
              for r in json.loads((ROOT / "tests" / "cli_golden.json").read_text())}
    for name, path, old, new, tests in mutants.MUTANTS:
        text = (ROOT / "src" / path).read_text()
        assert text.count(old) == 1, name
        assert new != old and tests, name
        for test in tests:
            file, func = test.split("::")
            func, case = func[:-1].split("[") if func.endswith("]") else (func, None)
            assert ("def %s(" % func) in (ROOT / file).read_text(), test
            if case is not None:
                assert file == "tests/test_cli_golden.py" and case in golden, test
