"""scripts/run_arms.py with the pipeline and the summary replaced by stubs:
which runs it asks for, in what order it prints them, and that it prints
experiments.summarize_arms of their records (pinned in test_experiments)."""

import importlib.util
import json
from pathlib import Path

import pytest

from hyperclass.data import default_synthetic_tree
from hyperclass.experiments import ARMS, scrambled_tree

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_arms.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_arms", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_arm_and_seed_runs_once_in_order(capsys):
    module = load_script()
    calls, summarized = [], []

    def stub(seed, **kwargs):
        arm = next(name for name, arm_kwargs in ARMS.items() if arm_kwargs == kwargs)
        calls.append((arm, seed))
        return {"arm": arm, "seed": seed}

    def summarize(records):
        summarized.append(records)
        return {"summary": len(summarized)}

    module.run_synthetic_pipeline = stub
    module.summarize_arms = summarize
    module.main(["--seeds", "2"])

    # Each call's keyword arguments are exactly its arm's: the stub finds
    # the arm by them, so no run passes a setting of its own.
    order = [(arm, seed) for arm in ARMS for seed in range(2)]
    assert calls == order
    records = [{"arm": arm, "seed": seed} for arm, seed in order]
    assert summarized == [{arm: [r for r in records if r["arm"] == arm] for arm in ARMS}]
    assert list(summarized[0]) == list(ARMS)

    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    fixture, shuffle_seed = scrambled_tree(default_synthetic_tree()[0])
    assert lines[0] == {"shuffled_edges": [list(e) for e in fixture.edges], "shuffle_seed": shuffle_seed}
    assert lines[1:] == [*records, {"summary": 1}]


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
