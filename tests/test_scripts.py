import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
