"""Run the benchmark over several seeds per workload and summarise the spread.

Usage:
    python3 perfbench/sweep.py                      # every workload, seeds 0-9
    python3 perfbench/sweep.py --workloads exp-c1 --seeds 0-4 --trace 1

Each (workload, seed) is one `run.py` process, one after another.  For every
metric this prints, per workload, the median and quartiles over the runs,
the run count and the quartile spread as a share of the median (computed
as `statistics.quantiles(values, n=4)` gives them), next to the metric's
bound from BENCHMARK.json; `fail_frac` sums failed over attempted members.
The raw results go to perfbench/out/sweep-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import workloads
from capture import parse_seeds

HERE = workloads.ROOT / "perfbench"


def main() -> int:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9", type=parse_seeds)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {}
    for name in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout + done.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {done.returncode}")
            result = json.loads(lines[-1])
            result.update(seed=seed, wall_s=time.perf_counter() - start)
            results.setdefault(name, []).append(result)
            print(f"{name} seed {seed}: {time.perf_counter() - start:.1f} s, "
                  f"correct {result['correct']}", flush=True)

    for name, runs in results.items():
        print(f"\n{name}: {len(runs)} runs, wall {sum(r['wall_s'] for r in runs):.0f} s, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = f"  bound {bounds[metric]}" if metric in bounds else ""
            print(f"  {metric:38s} median {med:14.6g} {unit:5s} q1 {q1:12.6g} q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}{bound}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  {'fail_frac':38s} {failed / attempted:.4f} ({failed} of {attempted} members)")

    path = HERE / "out" / f"sweep-{int(time.time())}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
