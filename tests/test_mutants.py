"""scripts/mutants.py's list still applies to the source at HEAD: no
mutant run, no subprocess. A src/ edit that removes or repeats a
mutant's text fails here at once, not only in the mutation run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


def test_every_old_text_occurs_once_in_its_file():
    counts = {}
    for mid, (file, old, _, _) in MUTANTS.items():
        counts[mid] = (ROOT / "src" / "hyperclass" / file).read_text(encoding="utf-8").count(old)
    stale = {mid: n for mid, n in counts.items() if n != 1}
    assert not stale, f"mutants whose old text does not occur exactly once: {stale}"


def test_every_edit_changes_the_text():
    same = [mid for mid, (_, old, new, _) in MUTANTS.items() if new == old]
    assert not same, f"mutants that change nothing: {same}"


def test_every_selection_names_existing_test_files():
    missing = {
        (mid, test)
        for mid, (_, _, _, tests) in MUTANTS.items()
        for test in tests
        if not (ROOT / test.split("::")[0]).is_file()
    }
    assert not missing, f"selections naming no test file: {sorted(missing)}"
    assert all(tests for _, _, _, tests in MUTANTS.values())
