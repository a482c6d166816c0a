"""Serving benchmark: wall-clock end-to-end metrics and a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decode_batch --seed 1 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine and the rounds.
The exit code is nonzero when an output check fails.  The first run in a
checkout trains the proxy model into ``.cache/`` (minutes, untimed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("decode_batch", "prefix_replay")
#: One BLAS/OpenMP thread: steadier figures, and the proxy trains to the
#: same weights on every machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build_zoo(model: str) -> None:
    """Train the proxy into the checkout's model zoo if it is missing —
    in a child process, so neither the timing nor the peak memory of the
    run includes training."""
    from repro.llm.train import _checkpoint_path

    path = _checkpoint_path(model, 0)
    if path.exists():
        return
    print(f"training {path.name} (untimed, once)", file=sys.stderr)
    code = (
        "import sys; sys.path.insert(0, 'src'); "
        "from repro.llm.train import get_trained_model; "
        f"get_trained_model({model!r})"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["ECCO_CACHE_DIR"] = str(ROOT / ".cache")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import bench
    from workloads import MODEL

    build_zoo(MODEL)
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result.pop("problems"):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": result.pop("rounds"),
        "wall": result.pop("wall"),
        "slowness": result.pop("slowness"),
        "fp16_pass_tok_s": result.pop("fp16_pass_tok_s"),
        "samples": result.pop("samples"),
        "env": environment(),
    }))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
