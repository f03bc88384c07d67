"""scripts/mutants.py still applies to the source at HEAD: static checks
of its generator, hand-written list, ledger and report parsing, with no
mutant run and no subprocess."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "mutants.py"


def load_script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = load_script()
GENERATED = [m for file in mutants.CORE for m in mutants.generate(file)]


def test_generated_ids_are_unique_and_identical_across_generations():
    ids = [m.id for m in GENERATED]
    assert len(set(ids)) == len(ids)
    again = [m for file in mutants.CORE for m in mutants.generate(file)]
    assert again == GENERATED


def test_every_edit_changes_the_text():
    # Generated edits, below, change the parsed tree; a hand-written one
    # whose new text equals its old is refused by hand_written.
    assert all(m.new != m.old for m in GENERATED)
    assert all(new != old for _, old, new in mutants.HAND.values())


def test_every_generated_edit_is_its_node_span_and_changes_the_tree():
    texts = {file: mutants.source(file) for file in mutants.CORE}
    trees = {file: ast.dump(ast.parse(text)) for file, text in texts.items()}
    for m in GENERATED:
        text = texts[m.file]
        assert text[m.start : m.start + len(m.old)] == m.old, m.id
        # A mutant that does not parse would count as killed at import.
        assert ast.dump(ast.parse(m.apply(text))) != trees[m.file], m.id


def test_new_code_yields_mutants_without_a_list_edit():
    text = mutants.source("ball.py") + "\n\ndef _extra(x):\n    return 2.0 * x - 1.0\n"
    new = [m.id for m in mutants.generate("ball.py", text)]
    assert len(new) == len(mutants.generate("ball.py")) + 4
    assert sorted(mid for mid in new if mid.startswith("ball.py:_extra:")) == [
        "ball.py:_extra:const:0", "ball.py:_extra:const:1", "ball.py:_extra:mul>div:0", "ball.py:_extra:sub>add:0",
    ]


def test_every_ledger_entry_is_a_mutant_generated_at_head():
    generated = {m.id: (m.old, m.new) for m in GENERATED}
    stale = {mid: (old, new) for mid, (old, new, _) in mutants.LEDGER.items() if generated.get(mid) != (old, new)}
    assert not stale, f"ledger entries the generator does not yield at HEAD: {stale}"
    assert all(reason.strip() for _, _, reason in mutants.LEDGER.values())


def test_every_old_text_occurs_once_in_its_file():
    stale = {mid: m for mid in mutants.HAND if isinstance(m := mutants.hand_written(mid), str)}
    assert not stale, f"hand-written mutants that cannot apply: {stale}"
    assert not set(mutants.HAND) & {m.id for m in GENERATED}


# A -rfE summary as pytest prints it, a parameter id with spaces included.
SUMMARY = """\
=========================== short test summary info ============================
FAILED tests/test_cli.py::TestSynthData::test_empty_split_is_one_line_error[1-leaves empty splits: dev, test] - Asserti...
FAILED tests/test_ball.py::test_plain - assert False
ERROR tests/test_checkpoint.py::TestSaved::test_setup - ValueError: set-up - failed
ERROR tests/test_data.py::test_no_message
ERROR tests/test_loss.py - ImportError: cannot import name 'x'
!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!
"""


def test_killed_by_keeps_whole_test_ids():
    assert mutants.failed_tests(SUMMARY) == [
        "tests/test_cli.py::TestSynthData::test_empty_split_is_one_line_error[1-leaves empty splits: dev, test]",
        "tests/test_ball.py::test_plain",
        "tests/test_checkpoint.py::TestSaved::test_setup",
        "tests/test_data.py::test_no_message",
        "tests/test_loss.py",
    ]


def test_a_run_stopped_at_collection_kills_a_generated_mutant_only():
    assert mutants.classify(0, [], generated=True) == "survived"
    assert mutants.classify(1, ["tests/test_ball.py::test_plain"], generated=False) == "killed"
    assert mutants.classify(2, ["tests/test_loss.py"], generated=True) == "killed"
    assert mutants.classify(2, ["tests/test_loss.py"], generated=False) == "broken"
    assert mutants.classify(4, [], generated=False) == "broken"
    assert "broken" in mutants.FAILING and "killed" not in mutants.FAILING
