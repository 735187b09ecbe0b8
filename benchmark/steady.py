"""Steadiness check: two sets of runs of the same code, judged by the bounds
in BENCHMARK.json.

    python3 benchmark/steady.py [--workload NAME ...]

The first set uses seeds 1-10, the second seeds 11-20.  For every workload
and end-to-end metric it prints each set's median and quartile spread (IQR
over median) and whether
  * each set's spread stays within the metric's bound,
  * the two sets' medians differ by no more than the bound, either way,
  * the share of failed operations is the same in both sets.
Results also go to .bench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # runs per set


def one_run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["problems"] = [l for l in out.stderr.splitlines() if l.startswith("# FAILED")]
    values = "  ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
    print(f"  {workload} seed {seed}: {values}", flush=True)
    return result


def summarize(results, metric):
    values = [r["metrics"][metric]["value"] for r in results]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]

    report, ok = {}, True
    for name in names:
        sets = []
        for s in range(2):
            seeds = range(s * RUNS + 1, (s + 1) * RUNS + 1)
            sets.append([one_run(bench, name, seed) for seed in seeds])
        shares = [
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets
        ]
        correct = all(r["correct"] for runs in sets for r in runs)
        entry = {
            "failed_share": shares, "correct": correct, "metrics": {},
            "runs": [{k: r[k] for k in ("seed", "attempted", "failed", "problems")}
                     for runs in sets for r in runs],
        }
        ok &= correct and len(set(shares)) == 1
        print(f"{name}: correct {correct}, failed share {shares}")
        for run in entry["runs"]:
            for line in run["problems"]:
                print(f"  seed {run['seed']}: {line}")
        for m in bench["end_to_end"]:
            stats = [summarize(runs, m["name"]) for runs in sets]
            bound = m["bound"]
            spread_ok = all(st["spread"] <= bound for st in stats)
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            drift_ok = abs(drift) <= bound
            ok &= spread_ok and drift_ok
            entry["metrics"][m["name"]] = {
                "sets": stats, "bound": bound, "drift": drift,
                "spread_ok": spread_ok, "drift_ok": drift_ok,
            }
            print(
                f"  {m['name']:12s} bound {bound:.2f}  "
                + "  ".join(f"median {st['median']:.4g} spread {st['spread']:.3f}" for st in stats)
                + f"  drift {drift:+.3f}  {'ok' if spread_ok and drift_ok else 'NOT STEADY'}"
            )
        report[name] = entry
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(report, indent=2) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
