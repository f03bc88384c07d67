"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import re
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hyperclass import encoder, training  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_nested_spans():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25).
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    assert tracing.self_times(parent, start, end).tolist() == [30, 20, 10, 40]


def test_step_intervals_skip_dev_evaluation():
    names = ["trace.hook", layers.TRAIN_CLASSIFIER, layers.ADAM_STEP, layers.EVALUATE_MODEL]
    # trainer, step ends at 10 and 20, dev eval [20, 27), step ends at 40.
    spans = {
        "name": np.array([1, 2, 2, 3, 2]),
        "parent": np.array([-1, 0, 0, 0, 0]),
        "start": np.array([0, 8, 18, 20, 38]),
        "end": np.array([50, 10, 20, 27, 40]) * 10**6,
    }
    spans["start"] = spans["start"] * 10**6
    assert layers.step_intervals_ms(names, spans).tolist() == [10.0, 13.0]


def test_tracer_wraps_every_import_site_and_restores():
    original = encoder.encode
    counters = layers.Counters()
    tracer = tracing.Tracer("test", hooks=counters.hooks())
    vocab = encoder.Vocabulary.build(["a b", "a b"], min_freq=1)
    model = encoder.EncoderModel.init(vocab, 4, 3, np.random.default_rng(0))
    with tracer:
        # training bound encode with `from .encoder import encode`.
        assert training.encode is not original and encoder.encode is not original
        training.encode(model, [2, 3])
        encoder.encode_backward(model, [2, 3], np.ones(3))
    assert training.encode is original and encoder.encode is original
    called = [tracer.names[i] for i in tracer.name_of]
    assert "encoder.encode" in called and "encoder.encode_backward" in called
    assert counters.enc_rows == len(vocab) and counters.enc_nonzero == 2


def test_wrong_reference_fails_the_operation():
    tally = bench.Tally()
    wrong = workloads.ParrottLabels({"label_map_min": 2.0}, epochs=2)
    wrong.setup(0, BENCH_DIR / "out" / "test")
    assert bench.run_iteration(wrong, tally) is not None
    assert tally.attempted == 1 and tally.failed == 1
    right = workloads.ParrottLabels({"label_map_min": 0.0}, epochs=2)
    right.setup(0, BENCH_DIR / "out" / "test")
    tally = bench.Tally()
    bench.run_iteration(right, tally)
    assert tally.failed == 0


def test_metric_names_are_well_formed_and_declared():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    assert declared_e2e == [n for n, _ in bench.END_TO_END]
    assert declared_layer == [n for n, _, _ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in declared_e2e + declared_layer + list(bench.PHASE_RATES):
        assert NAME_RE.fullmatch(name), name
