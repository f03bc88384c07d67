"""scripts/run_arms.py with the pipeline replaced by a stub: which runs it
asks for, in what order it prints them, and its summary's arithmetic."""

import importlib.util
import json
from pathlib import Path

import pytest

from hyperclass.data import default_synthetic_tree
from hyperclass.experiments import scrambled_tree

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_arms.py"
ARM_KWARGS = [
    ("wce", dict(loss="wce", mode="expert")),
    ("ce", dict(loss="ce")),
    ("uniform", dict(loss="wce", mode="uniform")),
    ("random", dict(loss="wce", mode="random")),
]


def load_script():
    spec = importlib.util.spec_from_file_location("run_arms", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Test wF1 per arm and seed; dyadic, so the means and gaps are exact.
SCORES = {
    "ordered": {"wce": [0.75, 1.0], "ce": [0.5, 0.75], "uniform": [0.5, 0.5], "random": [0.25, 0.5]},
    "random-above-uniform": {"wce": [0.5, 0.5], "ce": [0.75, 0.75], "uniform": [0.25, 0.25], "random": [0.5, 0.25]},
}


@pytest.mark.parametrize("scores", list(SCORES))
def test_each_arm_and_seed_runs_once_in_order(capsys, scores):
    module = load_script()
    calls = []

    def stub(seed, **kwargs):
        arm = next(name for name, arm_kwargs in ARM_KWARGS if arm_kwargs == kwargs)
        calls.append((arm, seed))
        return {"arm": arm, "seed": seed, "test_wf1": SCORES[scores][arm][seed]}

    module.run_synthetic_pipeline = stub
    module.main(["--seeds", "2"])

    # Each call's keyword arguments are exactly its arm's: the stub finds
    # the arm by them, so no run passes a classifier config of its own.
    order = [(arm, seed) for arm, _ in ARM_KWARGS for seed in range(2)]
    assert calls == order

    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    fixture, shuffle_seed = scrambled_tree(default_synthetic_tree()[0])
    assert lines[0] == {"shuffled_edges": [list(e) for e in fixture.edges], "shuffle_seed": shuffle_seed}
    assert lines[1:-1] == [
        {"arm": arm, "seed": seed, "test_wf1": SCORES[scores][arm][seed]} for arm, seed in order
    ]
    means = {arm: sum(values) / 2 for arm, values in SCORES[scores].items()}
    assert lines[-1] == {
        "mean_test_wf1": means,
        "wce_minus_ce": means["wce"] - means["ce"],
        "wce_minus_random": means["wce"] - means["random"],
        "ordering_holds": scores == "ordered",
        "seeds": 2,
    }
    assert list(lines[-1]["mean_test_wf1"]) == [arm for arm, _ in ARM_KWARGS]


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_no_seed_is_a_usage_error(capsys, seeds):
    module = load_script()
    calls = []
    module.run_synthetic_pipeline = lambda *args, **kwargs: calls.append(kwargs)
    with pytest.raises(SystemExit) as exc:
        module.main(["--seeds", seeds])
    assert exc.value.code == 2 and calls == []
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: --seeds must be at least 1, got {seeds}\n")
