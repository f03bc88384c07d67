#!/usr/bin/env python3
"""Mutation check of the test suite: python scripts/mutants.py (no flags).

Most mutants are generated with `ast` from the numeric core (CORE), one
per site of these operators, after Offutt et al. (1996), "An
experimental determination of sufficient mutant operators":

- `+` <-> `-`, `*` <-> `/` and `**` -> `*`, in augmented assignments too;
- `<` <-> `<=`, `>` <-> `>=` and `==` <-> `!=`;
- a unary minus dropped;
- a numeric constant replaced: 0 -> 1, 1 -> 0, any other value -> its
  negation;
- the first two arguments of a call of a ball kernel (KERNELS) swapped.

Each edits the exact source span of its node and has the id
`<file>:<function>:<operator>:<n>`, where n counts the sites of that
operator in that function in source order. HAND holds the edits the
generator cannot express, each `(file, old, new)`: `old` must occur
exactly once in `src/hyperclass/<file>`, or the mutant is stale. LEDGER
holds the generated mutants that no test can kill, each with its old
and new text and a one-line reason; they are reported, not run, and an
entry that the generator no longer yields at HEAD is stale.

First, one pass runs tier-1 (pytest over tests/) on an unmutated copy of
src/ under `sys.settrace`, tracing only the copy's hyperclass frames. It
maps each line to the tests that run it: a line run while a fixture is
set up counts for every test that requests that fixture, and a line run
outside any test (at import) for every test. A test's cost is its time
in that pass, with each shared fixture's set-up charged to every test
that requests it. Every test must pass.

Then each mutant gets its own copy of src/, two at a time, and one
pytest process runs the tests that run a line of its span, cheapest
first, stopping at the first failure. Its status is
- killed: a test failed or errored; a generated mutant is also killed
  when its run stops at import or collection, where a hand-written one
  is broken;
- timeout: the run outlasted 60 s plus twice its tests' cost, and its
  process group was killed;
- survived: every test passed;
- uncovered: no test runs its span.

Output is JSON lines on stdout: one per mutant (id, file, status, the
test that killed it in `killed_by`, and a ledger entry's reason), then
one summary with the wall time, a count per status and the ids of every
status that fails the check. The exit status is 1 on any survived,
uncovered, broken or stale mutant, else 0. Nothing is written inside the
repo: Hypothesis keeps its example store in the temporary copy too. It
is not part of tier-1.
"""

import ast
import importlib.util
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORE = ("ball.py", "loss.py", "optim.py", "metrics.py", "encoder.py", "training.py", "hierarchy.py", "experiments.py")
# Ball kernels whose first two arguments are points (a point and a
# tangent vector for exp_map).
KERNELS = {"_terms", "distance", "distance_vjp", "exp_map", "exp_origin_distance_vjp"}
# Operator class -> (name in the id, its text, the replacement's text).
SWAPS = {
    ast.Add: ("add>sub", "+", "-"),
    ast.Sub: ("sub>add", "-", "+"),
    ast.Mult: ("mul>div", "*", "/"),
    ast.Div: ("div>mul", "/", "*"),
    ast.Pow: ("pow>mul", "**", "*"),
    ast.Lt: ("lt>le", "<", "<="),
    ast.LtE: ("le>lt", "<=", "<"),
    ast.Gt: ("gt>ge", ">", ">="),
    ast.GtE: ("ge>gt", ">=", ">"),
    ast.Eq: ("eq>ne", "==", "!="),
    ast.NotEq: ("ne>eq", "!=", "=="),
}

# id -> (file, old, new): checkpoint, data, cli and experiments edits, RNG
# draw order, span slicing, deleted statements and the tokenizer's rules.
HAND = {
    "checkpoint-crc-unchecked": ("checkpoint.py", "if zlib.crc32(payload) != crc:", "if False:"),
    "checkpoint-meta-extra-key": (
        "checkpoint.py",
        'meta = {"stage": stage, "seed": seed, "config": config, "shapes": shapes, **fields}',
        'meta = {"stage": stage, "seed": seed, "config": config, "shapes": shapes, "v": 1, **fields}',
    ),
    "checkpoint-meta-unsorted": (
        "checkpoint.py",
        "json.dumps(meta, sort_keys=True, separators=(",
        "json.dumps(meta, sort_keys=False, separators=(",
    ),
    "checkpoint-meta-spaced-json": ("checkpoint.py", 'separators=(",", ":")', 'separators=(", ", ": ")'),
    "checkpoint-sections-unsorted": (
        "checkpoint.py", "for name, arr in sorted(arrays.items())", "for name, arr in arrays.items()"
    ),
    "checkpoint-meta-section-last": (
        "checkpoint.py",
        "Path(path).write_bytes(_pack_sections(sections))",
        "Path(path).write_bytes(_pack_sections(sections[1:] + sections[:1]))",
    ),
    "checkpoint-version-bumped": ("checkpoint.py", "VERSION = 1", "VERSION = 2"),
    "synthetic-no-token-shuffle": ("data.py", "            rng.shuffle(tokens)\n", ""),
    "synthetic-no-train-shuffle": ("data.py", "    rng.shuffle(train)\n", ""),
    "synthetic-split-order-unpermuted": (
        "data.py",
        "order = rng.permutation(spec.samples_per_class).tolist()",
        "order = list(range(spec.samples_per_class))",
    ),
    "synthetic-pools-drawn-reversed": (
        "data.py",
        "tokens = words[base + rng.integers(0, high)].tolist()",
        "tokens = words[base[::-1] + rng.integers(0, high[::-1])].tolist()",
    ),
    "synthetic-splits-drawn-first": (
        "data.py", "        per_class.append(texts)\n", "        rng.random()\n        per_class.append(texts)\n"
    ),
    "siblings-roots-counted": (
        "experiments.py",
        "siblings &= (parent[:, None] == parent) & (parent >= 0)",
        "siblings &= parent[:, None] == parent",
    ),
    "siblings-candidate-only": ("experiments.py", "for tree in (expert, candidate):", "for tree in (candidate,):"),
    "uniform-labels-radius-dropped": (
        "experiments.py", "vectors=STRUCTURELESS_RADIUS * directions / norms", "vectors=directions / norms"
    ),
    "uniform-labels-draw-transposed": (
        "experiments.py",
        "directions = rng.standard_normal((len(nodes), dim))",
        "directions = rng.standard_normal((dim, len(nodes))).T",
    ),
    "uniform-labels-norm-unrooted": (
        "experiments.py",
        "norms = np.sqrt(np.vecdot(directions, directions))[:, None]",
        "norms = np.vecdot(directions, directions)[:, None]",
    ),
    "pipeline-ce-mode-unchecked": (
        "experiments.py",
        'if mode not in ("expert", "random", "uniform"):',
        'if loss == "wce" and mode not in ("expert", "random", "uniform"):',
    ),
    "cli-mode-none-keeps-edges": ("cli.py", "        tree = replace(tree, edges=[])\n", "        tree = replace(tree)\n"),
    "cli-mode-random-ignores-seed": (
        "cli.py",
        "shuffle_tree(tree, np.random.default_rng(cfg.seed))",
        "shuffle_tree(tree, np.random.default_rng(LabelEmbedConfig.seed))",
    ),
    "shuffle-parent-slots": (
        "hierarchy.py",
        "edges=[(parent, children[j]) for (parent, _), j in zip(tree.edges, perm)]",
        "edges=[(tree.edges[j][0], child) for child, j in zip(children, perm)]",
    ),
    "stage-one-negatives-before-permutation": (
        "hierarchy.py",
        "        order = rng.permutation(len(tree.edges))\n"
        "        u = parents[order]\n"
        "        negatives = negative_samples(table, u, config.negatives, rng)\n",
        "        negatives = negative_samples(table, parents, config.negatives, rng)\n"
        "        order = rng.permutation(len(tree.edges))\n"
        "        u = parents[order]\n"
        "        negatives = negatives[order]\n",
    ),
    "stage-one-negatives-of-unpermuted-parents": (
        "hierarchy.py",
        "negatives = negative_samples(table, u, config.negatives, rng)",
        "negatives = negative_samples(table, parents, config.negatives, rng)",
    ),
    "stage-two-unpermuted-epoch": (
        "training.py",
        "epoch_tokens = train_tokens.take(order)\n        epoch_ys = train_ys[order]",
        "epoch_tokens = train_tokens.take(np.sort(order))\n        epoch_ys = train_ys[np.sort(order)]",
    ),
    "stage-one-batch-drops-last-pair": (
        "hierarchy.py",
        "label_loss(vectors, slots[start : start + PAIRS_PER_STEP])",
        "label_loss(vectors, slots[start : start + PAIRS_PER_STEP - 1])",
    ),
    "span-offsets-not-rebased": (
        "encoder.py",
        "return TokenBatch(ids, self.offsets[start:stop] - first, lengths)",
        "return TokenBatch(self.ids[first:], self.offsets[start:stop] - first, lengths)",
    ),
    "span-one-token-long": (
        "encoder.py",
        "ids = self.ids[first : first + int(lengths.sum())]",
        "ids = self.ids[first : first + int(lengths.sum()) + 1]",
    ),
    "exp-map-no-clamp": (
        "ball.py",
        "return project_to_ball(_scale_rows((a + t2) / den, x) + _scale_rows(b * s / den, v))",
        "return _scale_rows((a + t2) / den, x) + _scale_rows(b * s / den, v)",
    ),
    "exp-map-origin-no-clamp": (
        "ball.py",
        "return project_to_ball(_scale_rows(np.where(nonzero, t / r, 0.0), v)), (r, nonzero, t)",
        "return _scale_rows(np.where(nonzero, t / r, 0.0), v), (r, nonzero, t)",
    ),
    "project-no-clamp": ("ball.py", "return _scale_rows(MAX_NORM / np.maximum(norm, MAX_NORM), p)", "return p"),
    "weight-vjp-no-tanh-clamp": ("ball.py", "    t = np.minimum(t, MAX_NORM)\n", ""),
    "tree-no-nodes-accepted": (
        "hierarchy.py", '        if not self.nodes:\n            raise TaxonomyError("the tree has no nodes")\n', ""
    ),
    "adam-no-root-recompute-at-rescale": (
        "optim.py", "            v *= BETA2**self.s\n            np.sqrt(v, out=r)\n", "            v *= BETA2**self.s\n"
    ),
    "adam-no-v-rescale": ("optim.py", "            v *= BETA2**self.s\n", ""),
    "adam-no-dense-root": ("optim.py", "        dv += dr\n        np.sqrt(dv, out=dr)\n", "        dv += dr\n"),
    "adam-no-row-root": ("optim.py", "            self._r[row_key][rows] = np.sqrt(vr)\n", ""),
    "stage-two-no-best-restore": ("training.py", "    np.copyto(params.flat, best_flat)\n", ""),
    "tokenize-strip-right-only": (
        "encoder.py", "return piece.strip(string.punctuation)", "return piece.rstrip(string.punctuation)"
    ),
    "tokenize-no-lowercase": (
        "encoder.py",
        "pieces = [text.lower().split() for text in texts[start : start + CHUNK_ROWS]]",
        "pieces = [text.split() for text in texts[start : start + CHUNK_ROWS]]",
    ),
    "tokenize-unk-for-empty": (
        "encoder.py",
        "ids = np.insert(ids[keep], _starts(lengths)[empty], PAD)",
        "ids = np.insert(ids[keep], _starts(lengths)[empty], UNK)",
    ),
    "tokenize-pad-one-late": (
        "encoder.py",
        "ids = np.insert(ids[keep], _starts(lengths)[empty], PAD)",
        "ids = np.insert(ids[keep], np.minimum(_starts(lengths)[empty] + 1, keep.sum()), PAD)",
    ),
    "tokenize-mask-only-for-skips": (
        "encoder.py",
        "if ids.min(initial=0) == _SKIP or not lengths.all():",
        "if ids.min(initial=0) == _SKIP:",
    ),
    "vocab-counts-pieces-once": (
        "encoder.py", "counts[token] = counts.get(token, 0) + n", "counts[token] = counts.get(token, 0) + 1"
    ),
    "vocab-counts-unstripped": (
        "encoder.py",
        "            token = _normalize(piece)\n            if token:\n                counts",
        "            token = piece\n            if token:\n                counts",
    ),
}

# Generated id -> (old, new, why no test can kill it).
LEDGER = {
    "ball.py:project_to_ball:le>lt:0": (
        "norm <= MAX_NORM", "norm < MAX_NORM",
        "a row at exactly MAX_NORM is then rescaled by MAX_NORM / MAX_NORM = 1.0, which keeps its bits",
    ),
    "ball.py:distance:swap:0": (
        "_terms(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))",
        "_terms(np.asarray(y, dtype=np.float64), np.asarray(x, dtype=np.float64))",
        "symmetric bit for bit: x - y and y - x square to the same a, and b * c == c * b",
    ),
    "ball.py:exp_origin_distance_vjp:gt>ge:0": (
        "t > MAX_NORM", "t >= MAX_NORM",
        "differs only where tanh(||v||) is exactly MAX_NORM, the clamp's kink, where either one-sided slope is a subgradient",
    ),
    "encoder.py:tokenize_batch:const:3": (
        "0", "1", "for any initial >= 0 the minimum is _SKIP (-1) exactly when an id is; initial only fills an empty batch"
    ),
    "hierarchy.py:LabelTree.__post_init__:const:8": (
        "1", "0", "first_repeat's two indices name equal class leaves, so either gives the same message"
    ),
    "hierarchy.py:reconstruction_map:swap:0": (
        "distance(emb.vectors[tree.parents, None], emb.vectors)",
        "distance(emb.vectors, emb.vectors[tree.parents, None])",
        "both orders broadcast to the same (parents, nodes) array, and the distance is symmetric bit for bit",
    ),
    "hierarchy.py:load_embeddings_tsv:const:0": (
        "1", "0", "the default pair's line number is never read: only its empty text is the header of an empty file"
    ),
}

# Two pytest runs at a time, one per core of a 2-vCPU runner.
WORKERS = min(2, os.cpu_count() or 1)
# The child process: runpy runs this script as a module (not as __main__)
# and calls its `child` with the remaining arguments.
CHILD = "import runpy, sys; sys.exit(runpy.run_path(sys.argv[1])['child'](*sys.argv[2:]))"


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str
    old: str
    new: str
    start: int  # offset of `old` in the file's text
    lines: tuple[int, int]  # first and last line of `old`
    generated: bool = True

    def apply(self, text: str) -> str:
        return text[: self.start] + self.new + text[self.start + len(self.old) :]


def source(file: str) -> str:
    return (SRC / "hyperclass" / file).read_text(encoding="utf-8")


def generate(file: str, text: str | None = None) -> list[Mutant]:
    """Every generated mutant of `file` (or of `text`, standing for it), in source order."""
    text = source(file) if text is None else text
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def span(node) -> tuple[int, int]:
        # ast columns count UTF-8 bytes.
        def at(lineno, col):
            return starts[lineno - 1] + len(lines[lineno - 1].encode()[:col].decode())
        return at(node.lineno, node.col_offset), at(node.end_lineno, node.end_col_offset)

    sites = []  # (start, end, first line, last line, scope, operator, new text)

    def add(node, scope, operator, new):
        sites.append((*span(node), node.lineno, node.end_lineno, scope, operator, new))

    def swap_op(node, scope, left, right, op, suffix=""):
        name, old, new = SWAPS[type(op)]
        a, b = span(node)
        gap_start, gap_end = span(left)[1], span(right)[0]
        # A gap holds brackets, blanks and comments besides the operator.
        code = re.sub(r"#[^\n]*", lambda m: " " * len(m[0]), text[gap_start:gap_end])
        i = gap_start + code.index(old + suffix)
        add(node, scope, name, text[a:i] + new + suffix + text[i + len(old + suffix) : b])

    def visit(node, scope):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            swap_op(node, scope, node.left, node.right, node.op)
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            swap_op(node, scope, node.target, node.value, node.op, "=")
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAPS:
                    swap_op(node, scope, left, right, op)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            add(node, scope, "neg>pos", ast.get_source_segment(text, node)[1:].lstrip())
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            old = ast.get_source_segment(text, node)
            new = {0: "1", 1: "0"}.get(node.value, "-" + old)
            add(node, scope, "const", new + ".0" if isinstance(node.value, float) and node.value in (0, 1) else new)
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in KERNELS:
                a, b = span(node)
                (s0, e0), (s1, e1) = span(node.args[0]), span(node.args[1])
                add(node, scope, "swap", text[a:s0] + text[s1:e1] + text[e0:s1] + text[s0:e0] + text[e1:b])
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(text), "")
    mutants, seen = [], {}
    for a, b, first, last, scope, operator, new in sorted(sites):
        key = f"{file}:{scope or '<module>'}:{operator}"
        seen[key] = seen.get(key, -1) + 1
        mutants.append(Mutant(f"{key}:{seen[key]}", file, text[a:b], new, a, (first, last)))
    return mutants


def hand_written(mid: str) -> Mutant | str:
    """HAND[mid] as a Mutant, or why it cannot apply to the source at HEAD."""
    file, old, new = HAND[mid]
    text = source(file)
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times in {file}"
    if new == old:
        return "new text equals old text"
    start = text.index(old)
    first = text.count("\n", 0, start) + 1
    return Mutant(mid, file, old, new, start, (first, first + old.rstrip("\n").count("\n")), False)


def failed_tests(output: str) -> list[str]:
    """The test ids of the FAILED and ERROR lines of pytest's -rfE summary:
    each line up to pytest's ` - ` before the message, if there is one."""
    return re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", output, re.MULTILINE)


def classify(returncode: int, failed: list[str], generated: bool) -> str:
    """A run's status. A run stopped at import or collection (no test
    failed) kills a generated mutant but marks a hand-written one broken."""
    if returncode == 0:
        return "survived"
    if (returncode == 1 and failed) or generated:
        return "killed"
    return "broken"


FAILING = ("survived", "uncovered", "broken", "stale")


class Select:
    """Keeps only the tests of `order`, run in that order."""

    def __init__(self, order: list[str]):
        self.rank = {test: i for i, test in enumerate(order)}

    @pytest.hookimpl(trylast=True)
    def pytest_collection_modifyitems(self, config, items):
        config.hook.pytest_deselected(items=[item for item in items if item.nodeid not in self.rank])
        items[:] = sorted((item for item in items if item.nodeid in self.rank), key=lambda item: self.rank[item.nodeid])


class Trace:
    """Records the lines of `prefix`'s files that each test, each fixture
    set-up and everything outside a test (imports) runs, and the costs."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.outside: set = set()
        self.buckets = [self.outside]
        self.tests: dict[str, set] = {}
        self.fixtures: dict[str, set] = {}
        self.requests: dict[str, list[str]] = {}
        self.seconds: dict[str, float] = {}
        self.shared: dict[str, float] = {}
        self.failed: list[str] = []
        self.item = None

    def calls(self, frame, event, arg):
        return self.lines if frame.f_code.co_filename.startswith(self.prefix) else None

    def lines(self, frame, event, arg):
        if event == "line":
            self.buckets[-1].add((frame.f_code.co_filename, frame.f_lineno))
        return self.lines

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.item = item.nodeid
        self.requests[item.nodeid] = list(item.fixturenames)
        self.buckets.append(self.tests.setdefault(item.nodeid, set()))
        yield
        self.buckets.pop()

    @pytest.hookimpl(hookwrapper=True)
    def pytest_fixture_setup(self, fixturedef, request):
        self.buckets.append(self.fixtures.setdefault(fixturedef.argname, set()))
        began = time.perf_counter()
        yield
        self.buckets.pop()
        if fixturedef.scope != "function":
            # Paid once by the test that set it up; charged below to all that request it.
            spent = time.perf_counter() - began
            self.shared[fixturedef.argname] = self.shared.get(fixturedef.argname, 0.0) + spent
            self.seconds[self.item] = self.seconds.get(self.item, 0.0) - spent

    def pytest_runtest_logreport(self, report):
        self.seconds[report.nodeid] = self.seconds.get(report.nodeid, 0.0) + report.duration
        if report.failed:
            self.failed.append(report.nodeid)

    def result(self) -> dict:
        """{"tests": [[id, cost], ...], "lines": {file: {line: [test index, ...]}}},
        with -1 for a line run outside any test."""
        tests = sorted(self.requests)
        lines: dict[str, dict[int, list[int]]] = {}
        for index, test in enumerate([None, *tests], start=-1):
            ran = self.outside if test is None else self.tests[test].union(
                *(self.fixtures.get(name, ()) for name in self.requests[test])
            )
            for filename, lineno in ran:
                lines.setdefault(os.path.relpath(filename, self.prefix), {}).setdefault(lineno, []).append(index)
        costs = [
            self.seconds[test] + sum(self.shared.get(name, 0.0) for name in self.requests[test]) for test in tests
        ]
        return {"tests": list(zip(tests, costs)), "lines": lines}


def child(mode: str, path: str) -> int:
    """`trace`: tier-1 under Trace, its result written to `path`. `select`:
    the tests listed in the JSON file at `path`, stopping at the first failure."""
    if mode == "select":
        order = json.loads(Path(path).read_text(encoding="utf-8"))
        files = sorted({test.split("::")[0] for test in order})
        return pytest.main(["-q", "-x", "-p", "no:cacheprovider", "-rfE", *files], plugins=[Select(order)])
    package = Path(importlib.util.find_spec("hyperclass").origin).resolve().parent
    if not package.is_relative_to(Path(os.environ["PYTHONPATH"]).resolve()):
        raise SystemExit(f"error: hyperclass imports from {package}, not from {os.environ['PYTHONPATH']}")
    trace = Trace(str(package) + os.sep)
    sys.settrace(trace.calls)
    code = pytest.main(["-q", "-p", "no:cacheprovider"], plugins=[trace])
    sys.settrace(None)
    if code != 0:
        raise SystemExit(f"error: tier-1 fails on the unmutated copy ({code}): {trace.failed}")
    Path(path).write_text(json.dumps(trace.result()), encoding="utf-8")
    return 0


def copy_source(tmp: Path, mutant: Mutant | None = None) -> Path:
    dest = tmp / "src"
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = dest / "hyperclass" / mutant.file
        path.write_text(mutant.apply(path.read_text(encoding="utf-8")), encoding="utf-8")
    return dest


def run_child(tmp: Path, src: Path, mode: str, path: Path, limit: float | None = None) -> tuple[int | None, str]:
    """(exit code, output) of a child run; (None, output) past `limit` seconds,
    after its whole process group is killed."""
    env = os.environ | {
        "PYTHONPATH": str(src),
        "PYTHONDONTWRITEBYTECODE": "1",
        "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp / "hypothesis"),
    }
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD, __file__, mode, str(path)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        output = proc.communicate(timeout=limit)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        return None, proc.communicate()[0]
    return proc.returncode, output


def coverage() -> dict:
    with tempfile.TemporaryDirectory(prefix="mutants-") as name:
        tmp = Path(name)
        code, output = run_child(tmp, copy_source(tmp), "trace", tmp / "trace.json")
        if code != 0:
            raise SystemExit(output[-4000:])
        return json.loads((tmp / "trace.json").read_text(encoding="utf-8"))


def run_mutant(mutant: Mutant, tests: list[tuple[str, float]]) -> dict:
    record = {"id": mutant.id, "file": mutant.file}
    if not tests:
        return record | {"status": "uncovered", "killed_by": []}
    limit = 60.0 + 2.0 * sum(cost for _, cost in tests)
    with tempfile.TemporaryDirectory(prefix="mutants-") as name:
        tmp = Path(name)
        (tmp / "tests.json").write_text(json.dumps([test for test, _ in tests]), encoding="utf-8")
        code, output = run_child(tmp, copy_source(tmp, mutant), "select", tmp / "tests.json", limit)
    if code is None:
        return record | {"status": "timeout", "killed_by": []}
    failed = failed_tests(output)
    return record | {"status": classify(code, failed, mutant.generated), "killed_by": failed}


def main() -> int:
    began = time.monotonic()
    generated = {m.id: m for file in CORE for m in generate(file)}
    records, runs = [], []
    for mid, (old, new, reason) in LEDGER.items():
        m = generated.pop(mid, None)
        ok = m is not None and (m.old, m.new) == (old, new)
        records.append({"id": mid, "file": mid.split(":")[0], "status": "equivalent" if ok else "stale",
                        "reason": reason if ok else "the generator yields no such mutant at HEAD"})
    for mid in HAND:
        m = hand_written(mid)
        if isinstance(m, str):
            records.append({"id": mid, "file": HAND[mid][0], "status": "stale", "reason": m})
        else:
            runs.append(m)
    runs[:0] = generated.values()
    cov = coverage()
    tests = cov["tests"]
    for record in records:
        print(json.dumps(record), flush=True)

    def selection(m: Mutant) -> list[tuple[str, float]]:
        by_line = cov["lines"].get(m.file, {})
        chosen = {i for line in range(m.lines[0], m.lines[1] + 1) for i in by_line.get(str(line), ())}
        indices = range(len(tests)) if -1 in chosen else chosen
        return sorted((tests[i] for i in indices), key=lambda test: (test[1], test[0]))

    with ThreadPoolExecutor(WORKERS) as pool:
        for record in pool.map(lambda m: run_mutant(m, selection(m)), runs):
            records.append(record)
            print(json.dumps(record), flush=True)
    counts: dict[str, int] = {}
    for record in records:
        counts[record["status"]] = counts.get(record["status"], 0) + 1
    failing = {s: [r["id"] for r in records if r["status"] == s] for s in FAILING}
    summary = {"mutants": len(records), "wall_s": round(time.monotonic() - began, 1), "counts": counts, **failing}
    print(json.dumps({"summary": summary}), flush=True)
    return 1 if any(failing.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
