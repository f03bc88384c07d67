"""Run the hyperclass benchmark from the root of a checkout.

    python3 perfbench/run.py --workload synth-wce --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The program is imported from `src/` of the checkout; nothing is built or
installed. BLAS and OpenMP pools are pinned to one thread here, before
numpy loads, so each workload is a single-threaded closed loop.
`--workload all` runs every workload in its own process, one after the
other, and prints each result followed by a combined line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def run_all(args) -> int:
    """One subprocess per workload; the combined line keys metrics by
    `<workload>.<metric>`."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


def main() -> int:
    if not (ROOT / "src" / "hyperclass" / "__init__.py").is_file():
        print(f"error: no hyperclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    args = bench.parse_args(sys.argv[1:])
    if args.workload == "all":
        return run_all(args)
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
