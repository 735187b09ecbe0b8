"""nqdot benchmark: one workload, timed passes, checked outputs, one JSON line.

    python3 benchmark/run.py --workload sphere-levels --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nqdot is imported from its `src/`.
With --trace 0 the last line holds the end-to-end metrics (wall_norm_s,
setup_s, peak_rss_mb); with --trace 1 it holds the per-layer metrics of a
traced run, and the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads and inherited by the child
# interpreters.  On a 2-core shared host a second BLAS thread spins at every
# barrier while its core is taken by someone else: with one competing busy
# process a periodic-bands pass went from 23 s to 36 s at 2 threads and
# stayed at 23 s at 1, and passes were faster at 1 thread even when idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7

# Imports and data loading a user pays before the first solve; run in a
# fresh interpreter so every sample starts cold in the same way.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import numpy, scipy.linalg, scipy.sparse.linalg, scipy.special
sys.path.insert(0, sys.argv[1])
import nqdot, nqdot.solver, nqdot.transitions, nqdot.bands, nqdot.cli
from nqdot.materials import load_material
from nqdot.nuclides import default_table
default_table()
load_material("LiH")
print(time.perf_counter() - t0)
"""


# The host's speed drifts by up to ~16% over minutes (other guests, not this
# program: set-up time moves with it), which one pass per run cannot average
# out.  So each run also times a fixed numpy/scipy reference that never touches
# nqdot, in the mix the workloads run: block products with a matrix larger
# than the cache (LOBPCG on a dense kernel), small Hermitian `eigh` (periodic
# solves), Bessel-K0 and erfcx over a large array (periodic assembly) and a
# plain Python loop.  A fresh interpreter runs it before and after the passes;
# its first sample warms up and is dropped.
REF_CODE = """
import sys, time
import numpy as np
from scipy import linalg, special
rng = np.random.default_rng(0)
a = rng.standard_normal((3000, 3000))
v = rng.standard_normal((3000, 16))
h = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
h = h + h.conj().T
x = rng.uniform(0.05, 30.0, (200, 200, 24))
for n in range(int(sys.argv[1]) + 1):
    t0 = time.perf_counter()
    for _ in range(20):
        a @ v
    for _ in range(20):
        linalg.eigh(h)
    for _ in range(2):
        special.k0e(x) * np.exp(-x)
        special.erfcx(x) * np.exp(-x * x)
    s = 0
    for i in range(4000000):
        s += i % 7
    if n:
        print(time.perf_counter() - t0)
"""
REF_SAMPLES = 6  # per interpreter; one interpreter before the passes, one after
REF_NOMINAL_S = 0.5  # wall_norm_s is the pass time on a host that runs one sample in this


def _child_samples(code: str, arg: str) -> list:
    out = subprocess.run(
        [sys.executable, "-c", code, arg],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return [float(v) for v in out.stdout.split()]


def setup_seconds() -> float:
    return statistics.median(_child_samples(SETUP_CODE, str(SRC))[-1] for _ in range(SETUP_SAMPLES))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nqdot" / "__init__.py").is_file():
        print(f"no nqdot sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nqdot

    if Path(nqdot.__file__).resolve().parent != SRC / "nqdot":
        print(f"nqdot imported from {nqdot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else setup_seconds()
    work = workloads.WORKLOADS[args.workload](args.seed, workloads.Material())
    print(f"# {args.workload} seed {args.seed} inputs {json.dumps(work.inputs())}; "
          f"{os.cpu_count()} cores, numpy {numpy.__version__}, scipy {scipy.__version__}",
          file=sys.stderr)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(nqdot)
    else:
        ref = _child_samples(REF_CODE, str(REF_SAMPLES))
    ops = workloads.Ops()
    walls = []
    start = time.perf_counter()
    # Whole passes while the next one, at the median pass so far, still ends
    # within --seconds; always at least one.
    while not walls or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        t0 = time.perf_counter()
        if tracer:
            with tracer.span("pass"):
                work.run(ops)
        else:
            work.run(ops)
        walls.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.unwrap()
    else:
        ref += _child_samples(REF_CODE, str(REF_SAMPLES))

    verdicts = ops.verdicts()
    failed = [(name, p, known) for name, p, known in verdicts if p]
    for name, problems, known in failed:
        tag = "known fault" if known else "FAILED"
        print(f"# {tag}: {name}: {'; '.join(problems)}", file=sys.stderr)
    print(f"# {len(walls)} pass(es), wall_s {[round(w, 3) for w in walls]}", file=sys.stderr)

    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = tracer.metrics()
    else:
        ref_s = statistics.median(ref)
        print(f"# reference {ref_s:.4f} s, samples {[round(r, 4) for r in ref]}", file=sys.stderr)
        metrics = {
            "wall_norm_s": {
                "value": statistics.median(walls) * REF_NOMINAL_S / ref_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": all(known for _, _, known in failed),
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
