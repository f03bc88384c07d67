"""scripts/same_bits.py's comparison, battery list and child guard, on
fixed values: no git, no subprocess and no battery run."""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import SEEDS
from hyperclass import ball, experiments
from hyperclass.cli import build_parser

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_bits.py"


def load_script():
    spec = importlib.util.spec_from_file_location("same_bits", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_bits = load_script()
compare = same_bits.compare
ULP = np.nextafter(1.0, 2.0)


def test_equal_values_read_equal():
    value = {"a": np.arange(6.0).reshape(2, 3), "b": [1, 2.5, None, "x", b"y"], "c": (np.int64(3), True)}
    again = {"a": np.arange(6.0).reshape(2, 3), "b": [1, 2.5, None, "x", b"y"], "c": (np.int64(3), True)}
    assert compare(value, again) == {"status": "=="}
    assert compare(np.array([np.nan, 1.0]), np.array([np.nan, 1.0])) == {"status": "=="}


def test_signed_zero_differs_with_zero_gaps():
    assert compare(np.array([1.0, 0.0]), np.array([1.0, -0.0])) == {
        "status": "differs", "at": "", "abs_gap": 0.0, "rel_gap": 0.0,
    }
    assert compare({"x": 0.0}, {"x": -0.0})["at"] == "/x"


def test_one_ulp_differs_with_its_gaps():
    assert compare({"loss": 1.0}, {"loss": ULP}) == {
        "status": "differs", "at": "/loss", "abs_gap": 2.0**-52, "rel_gap": 2.0**-52 / ULP,
    }


def test_gaps_are_the_largest_over_every_differing_number():
    out = compare([1.0, np.array([4.0, 2.0]), 7], [ULP, np.array([4.5, 2.0]), 8])
    # The first differing leaf names the place; the gaps are the worst.
    assert out == {"status": "differs", "at": "/0", "abs_gap": 1.0, "rel_gap": 1.0 / 8.0}


def test_nan_against_a_number_is_an_infinite_gap():
    out = compare(np.array([np.nan]), np.array([1.0]))
    assert (out["status"], out["abs_gap"], out["rel_gap"]) == ("differs", np.inf, np.inf)


def test_bytes_compare_by_content():
    assert compare({"f": b"abc"}, {"f": bytes(bytearray(b"abc"))}) == {"status": "=="}
    assert compare({"f": b"abc"}, {"f": b"abd"}) == {
        "status": "differs", "at": "/f", "abs_gap": None, "rel_gap": None,
    }


def test_a_one_ulp_change_in_a_step_line_has_its_gap():
    # Progress lines as train-classifier prints them, and a .json output.
    def step(loss):
        line = json.dumps({"epoch": 0, "train_loss": loss}).encode() + b"\n"
        return same_bits.step_record({"exit": 0, "stdout": line, "stderr": b"", "files": {
            "runs/eval.json": b'{"weighted_f1": 0.5}', "runs/clf.ckpt": b"\x00{"}})
    assert compare(step(1.0), step(ULP)) == {
        "status": "differs", "at": "/json/0/train_loss", "abs_gap": 2.0**-52, "rel_gap": 2.0**-52 / ULP,
    }
    assert step(1.0)["json"] == [{"epoch": 0, "train_loss": 1.0}, {"weighted_f1": 0.5}]


@pytest.mark.parametrize(
    "a, b, at",
    [
        ({"a": 1.0}, {"a": 1.0, "b": 2.0}, ""),
        ([1.0, 2.0], [1.0], ""),
        ({"a": np.zeros(3)}, {"a": np.zeros(4)}, "/a"),
        ({"a": np.zeros(3)}, {"a": np.zeros(3, dtype=np.float32)}, "/a"),
        ({"a": 1}, {"a": 1.0}, "/a"),
        ({"a": None}, {"a": 0.0}, "/a"),
        ({"a": "x"}, {"a": "y"}, "/a"),
    ],
)
def test_structure_type_or_text_changes_differ_without_gaps(a, b, at):
    assert compare(a, b) == {"status": "differs", "at": at, "abs_gap": None, "rel_gap": None}


def test_item_ids_are_unique_and_the_same_across_two_builds():
    ids = [item for item, _ in same_bits.battery()]
    assert len(set(ids)) == len(ids)
    assert [item for item, _ in load_script().battery()] == ids
    assert len(ids) == 9 + 3 + 16 + 4 * 5


def test_battery_matches_the_code_it_covers():
    # The arms are the acceptance fixture's, and every public ball kernel
    # has an item.
    assert list(same_bits.SEEDS) == list(SEEDS)
    assert same_bits.ARMS == tuple(experiments.ARMS)
    public = {
        name for name, f in vars(ball).items()
        if inspect.isfunction(f) and f.__module__ == ball.__name__ and not name.startswith("_")
    }
    assert set(same_bits.KERNELS) == public
    parser = build_parser()
    for args in filter(None, same_bits.WALKTHROUGH.values()):
        parser.parse_args(args.split())


def test_gates_are_the_acceptance_quantities():
    test = {"wce": 0.9, "ce": 0.8, "uniform": 0.85, "random": 0.7}
    records = {a: [{"test_wf1": test[a] + 0.01 * (s - 2), "train_wf1": 1.0} for s in same_bits.SEEDS]
               for a in same_bits.ARMS}
    values = {f"arms/{a}/seed{s}": ("ok", {"record": records[a][s]}) for a in same_bits.ARMS for s in same_bits.SEEDS}
    assert same_bits.gates(values) == experiments.summarize_arms(records)
    values["arms/ce/seed3"] = ("error", "NumericalError: boom")
    assert same_bits.gates(values) == {"error": "an arm item failed"}


def test_child_refuses_a_hyperclass_from_outside_its_src(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    with pytest.raises(SystemExit, match="hyperclass imports from .*, not from "):
        same_bits.child(str(tmp_path / "out.pkl"))
    assert not (tmp_path / "out.pkl").exists()
