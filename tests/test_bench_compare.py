"""scripts/bench_compare.py's summary of paired runs, on fixed numbers:
no git and no benchmark run."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"
METRICS = [
    {"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.2},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "quality", "unit": "ratio", "better": "higher", "bound": 0.2},
]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(items, run_s, quality, failed=0):
    values = {"items_per_s": items, "run_s": run_s, "quality": quality}
    return {
        "attempted": 4,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    }


BASE_ITEMS = [100.0, 96.0, 104.0, 98.0, 102.0, 100.0, 97.0, 103.0, 99.0, 101.0]


def fixed_pairs(base_failed=0, change_failed=0):
    """8 more items/s in every pair but the second, which the change
    loses; 25% slower run_s; equal quality. The failures fall in pair 3."""
    change_items = [b + 8.0 for b in BASE_ITEMS]
    change_items[1] = 95.0
    base = [result_line(b, 1.0, 0.75, failed=base_failed * (i == 3)) for i, b in enumerate(BASE_ITEMS)]
    change = [result_line(c, 1.25, 0.75, failed=change_failed * (i == 3)) for i, c in enumerate(change_items)]
    return base, change, change_items


def test_summary_of_fixed_pairs():
    base, change, change_items = fixed_pairs()

    out = load_script().summarize(base, change, METRICS)

    assert out["pairs"] == 10
    assert out["operations"] == {
        "base": {"attempted": 40, "failed": 0},
        "change": {"attempted": 40, "failed": 0},
    }
    items = out["metrics"]["items_per_s"]
    assert items["base"] == BASE_ITEMS and items["change"] == change_items
    # Sorted base: 96 97 98 99 100 100 101 102 103 104, linear quartiles.
    assert (items["base_q1"], items["base_median"], items["base_q3"]) == (98.25, 100.0, 101.75)
    assert items["change_median"] == 108.0
    assert items["ratio"] == pytest.approx(1.08)
    assert items["wins"] == 9 and items["equal"] == 0
    # 9 of 10 wins, and a median gap of 8 beyond the base IQR of 3.5.
    assert items["claim_met"] is True and items["within_bound"] is True

    run_s = out["metrics"]["run_s"]
    # 25% slower against a bound of 20%: no wins, outside the bound.
    assert run_s["wins"] == 0 and run_s["claim_met"] is False and run_s["within_bound"] is False

    quality = out["metrics"]["quality"]
    # Equal in every pair: no win, so no claim, and within the bound.
    assert quality["equal"] == 10 and quality["wins"] == 0
    assert quality["claim_met"] is False and quality["within_bound"] is True


@pytest.mark.parametrize("base_failed, change_failed, met", [(0, 1, False), (1, 1, True), (2, 1, True)])
def test_claim_needs_no_more_failed_operations(base_failed, change_failed, met):
    base, change, _ = fixed_pairs(base_failed, change_failed)

    out = load_script().summarize(base, change, METRICS)

    assert out["operations"]["change"]["failed"] == change_failed
    # The same wins and gap as above; only the failures differ.
    assert out["metrics"]["items_per_s"]["wins"] == 9
    assert out["metrics"]["items_per_s"]["claim_met"] is met


def test_bound_is_unresolved_when_the_base_spreads_wider():
    # Base IQR 40 on a median of 100, wider than the 20% bound.
    spread = [60.0, 70.0, 80.0, 90.0, 100.0, 100.0, 110.0, 120.0, 130.0, 140.0]
    base = [result_line(b, 1.0, 0.75) for b in spread]
    summarize = load_script().summarize

    # 30% lower but overlapping the base: the base's spread cannot tell.
    lower = [result_line(b * 0.7, 1.0, 0.75) for b in spread]
    assert summarize(base, lower, METRICS)["metrics"]["items_per_s"]["within_bound"] == "unresolved"
    # Every change run beats every base run: within the bound.
    above = [result_line(b + 100.0, 1.0, 0.75) for b in spread]
    assert summarize(base, above, METRICS)["metrics"]["items_per_s"]["within_bound"] is True
    # run_s and quality have no spread, so they resolve as before.
    assert summarize(base, lower, METRICS)["metrics"]["run_s"]["within_bound"] is True


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_pairs_below_one_is_a_usage_error_before_git(pairs, tmp_path, monkeypatch, capsys):
    module = load_script()

    def no_git(*args, **kwargs):
        raise AssertionError("git was called")

    monkeypatch.setattr(module, "git", no_git)
    monkeypatch.setattr(module, "worktree", no_git)
    with pytest.raises(SystemExit) as info:
        module.main(["--base", "HEAD", "--out", str(tmp_path / "out.json"), "--pairs", pairs])
    assert info.value.code == 2
    assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "stdout, reason",
    [
        ('{"attempted": 1, "failed": 0, "metrics": {}}\n', "printed no detail line"),
        ('detail {"env": {}}\nTraceback (most recent call last):\n', "printed a line that is not JSON"),
        ('detail {"env": \n{"attempted": 1}\n', "printed a line that is not JSON"),
    ],
    ids=["no-detail", "last-line-not-json", "detail-not-json"],
)
def test_unreadable_run_output_is_one_error_line(stdout, reason, tmp_path, monkeypatch):
    module = load_script()

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=stdout)

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as info:
        module.run_bench(tmp_path, "synth-wce", 7, 1.0)
    message = str(info.value.code)
    assert message.startswith(f"error: synth-wce seed 7 in {tmp_path} {reason}")
    assert "\n" not in message
