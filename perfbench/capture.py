"""Capture reference observables for a workload on a list of seeds.

Usage: python3 perfbench/capture.py --workload lrp-s3.5 --seeds 0-23,20260825

Each seed's outputs must first pass the independent spot checks; the
held-out seed is refused, so that claims can be re-checked on a seed
without a reference.  References belong to the commit they were captured
at: recapture only when the program is meant to change its observables.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import workloads

OUT = workloads.ROOT / "perfbench" / "out" / "capture"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args()
    if workloads.HELD_OUT_SEED in args.seeds:
        raise SystemExit(f"seed {workloads.HELD_OUT_SEED} is held out and gets no reference")

    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    workloads.use_checkout_source()
    import gate
    from resistive_walk import pipeline

    for seed in args.seeds:
        config = workloads.build_config(args.workload, seed)
        outdir = OUT / f"{args.workload}-{seed}"
        shutil.rmtree(outdir, ignore_errors=True)
        pipeline.run(config, outdir, workers=1)
        members = gate.fingerprint(outdir / "observables")
        _, growth = pipeline.growth_functions(config)
        for m in range(config.ensemble):
            problems = gate.spot_check(pipeline.build_graph(config, m), config, members[m], growth)
            if problems:
                raise SystemExit(f"seed {seed} member {m} fails its spot check: {problems}")
        gate.save_reference(args.workload, seed, members)
        shutil.rmtree(outdir)
        print(f"{args.workload} seed {seed}: {len(members)} members captured", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
