"""Benchmark one workload: ensemble members run through `resistive_walk.pipeline.run`.

Usage:
    python3 perfbench/run.py --workload lrp-s3.5 --seed 0 --seconds 28 --trace 0

With --trace 0 the workload's config is run repeatedly, single-process
(workers=1), for the whole number of calls that comes closest to --seconds
(at least one); each call is timed from outside
and its outputs are checked (see gate.py).  Before that, a fresh process is
started several times to time set-up.  With --trace 1 untraced and traced
calls alternate and the per-layer metrics come from the traced ones.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Each run leaves
result.json (and spans.json when traced) under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def setup_samples(workload: str, seed: int | None) -> list[float]:
    """Seconds from process start until a fresh process has a validated config."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload]
    if seed is not None:
        cmd.append(str(seed))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise SystemExit("perfbench: set-up probe timed out") from None
        word, _, ready_at = out.strip().partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
        samples.append(float(ready_at) - start)
    return samples


def host_record() -> dict:
    import ctypes
    import platform

    import numpy as np
    import scipy

    def command(*args: str) -> str | None:
        try:
            done = subprocess.run(args, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = None
    for line in (command("lscpu") or "").splitlines():
        if line.startswith("Model name:"):
            cpu = line.split(":", 1)[1].strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    toplevel = command("git", "-C", str(workloads.ROOT), "rev-parse", "--show-toplevel")
    commit = None
    if toplevel and Path(toplevel).resolve() == workloads.ROOT:
        commit = command("git", "-C", str(workloads.ROOT), "rev-parse", "HEAD")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "l2_bytes": command("getconf", "LEVEL2_CACHE_SIZE"),
        "l3_bytes": command("getconf", "LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if k in os.environ
        },
        "commit": commit,
        "workers": 1,
    }


class Bench:
    def __init__(self, name: str, seed: int | None, workdir: Path) -> None:
        from resistive_walk import pipeline

        import tracing

        self.pipeline = pipeline
        self.originals = {n: getattr(pipeline, n) for n in tracing.WRAPPED}
        self.name = name
        self.config = workloads.build_config(name, seed)
        self.members = self.config.ensemble
        self.workdir = workdir
        self.calls: list[dict] = []

    def call(self, tracer=None) -> None:
        """One `run` call on the workload's config, timed from outside."""
        outdir = self.workdir / f"call{len(self.calls)}"
        info = {"traced": tracer is not None, "outdir": outdir, "error": None}
        if tracer is None and not self.untouched():
            raise RuntimeError("pipeline is still wrapped for an untraced call")
        gc.collect()  # leave the previous call's garbage out of this call's time
        start = time.perf_counter()
        try:
            if tracer is None:
                self.pipeline.run(self.config, outdir, workers=1)
            else:
                tracer.run = len(self.calls)
                with tracer.installed(self.pipeline), tracer.span("pipeline.run"):
                    self.pipeline.run(self.config, outdir, workers=1)
        except Exception:
            info["error"] = traceback.format_exc()
            print(info["error"], file=sys.stderr)
        info["seconds"] = time.perf_counter() - start
        self.calls.append(info)

    def untouched(self) -> bool:
        return all(getattr(self.pipeline, n) is fn for n, fn in self.originals.items())


def gate_calls(bench: Bench) -> tuple[int, int, list[str]]:
    """Check every call's outputs; returns (attempted, failed, problems)."""
    import gate

    config = bench.config
    reference = gate.load_reference(bench.name, config.master_seed)
    _, resistance_growth = bench.pipeline.growth_functions(config)
    attempted = failed = 0
    problems: list[str] = []
    first = None
    for i, info in enumerate(bench.calls):
        attempted += bench.members
        if info["error"] is not None:
            failed += bench.members
            problems.append(f"call {i} raised")
            continue
        got = gate.fingerprint(info["outdir"] / "observables")
        for m in range(bench.members):
            member = got.get(m)
            faults = [] if reference is None else gate.compare(member, reference.get(m))
            if first is not None:
                faults += gate.compare(member, first.get(m))
            elif member is not None:
                graph = bench.pipeline.build_graph(config, m)
                faults += gate.spot_check(graph, config, member, resistance_growth)
            else:
                faults.append("member missing from the outputs")
            if faults:
                failed += 1
                problems += [f"call {i} member {m}: {p}" for p in faults]
        if first is None:
            first = got
    return attempted, failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the preset's seed)")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The single-threaded baseline: a second BLAS thread only spins on this
    # program's work, and on shared cores it adds noise.  Probes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    setup = setup_samples(args.workload, args.seed) if not args.trace else []
    workloads.use_checkout_source()
    import tracing

    seed_tag = "default" if args.seed is None else str(args.seed)
    workdir = OUT / f"{args.workload}-seed{seed_tag}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None

    began = time.perf_counter()
    while True:
        step = time.perf_counter()
        if tracer is None:
            bench.call()
        else:
            # alternate which side of a pair goes first, so warm-up biases neither
            first_traced = len(bench.calls) % 4 == 2
            bench.call(tracer if first_traced else None)
            bench.call(None if first_traced else tracer)
        now = time.perf_counter()
        # stop at the whole number of calls that measures closest to --seconds
        if now - began + (now - step) / 2 >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, problems = gate_calls(bench)
    k = bench.members

    def per_member(traced: bool) -> list[float]:
        calls = [c for c in bench.calls if c["traced"] == traced]
        ok = [c["seconds"] / k for c in calls if c["error"] is None]
        return ok or [c["seconds"] / k for c in calls]

    untraced = per_member(False)
    record: dict = {
        "workload": args.workload,
        "seed": bench.config.master_seed,
        "members_per_call": k,
        "calls": [{"traced": c["traced"], "seconds": c["seconds"], "ok": c["error"] is None}
                  for c in bench.calls],
        "host": host_record(),
        "problems": problems,
    }
    lines = [f"workload {args.workload}  seed {bench.config.master_seed}  "
             f"{k} members/call  {len(bench.calls)} calls  trace {args.trace}"]

    if not args.trace:
        q = quartiles(untraced)
        s = quartiles(setup)
        metrics = {
            "member_s": {"value": q[1], "unit": "s"},
            "setup_s": {"value": s[1], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record["member_s"] = {"median": q[1], "q1": q[0], "q3": q[2], "n": len(untraced)}
        record["setup_s"] = {"median": s[1], "q1": s[0], "q3": s[2], "n": len(setup)}
        lines += [
            f"member_s     {q[1]:10.4f} s   (q1 {q[0]:.4f}, q3 {q[2]:.4f}, n={len(untraced)} calls)",
            f"setup_s      {s[1]:10.4f} s   (q1 {s[0]:.4f}, q3 {s[2]:.4f}, n={len(setup)} processes)",
            f"peak_rss_mb  {peak_rss_mb:10.1f} MB",
        ]
    else:
        problems += tracing.member_balance(tracer.spans)
        runs = [i for i, c in enumerate(bench.calls) if c["traced"] and c["error"] is None]
        per_run = [tracing.layer_metrics(tracer.spans, r, k) for r in runs]
        for name in tracing.COUNTS:
            if len({m[name] for m in per_run}) > 1:
                problems.append(f"{name} differs between traced calls")
        values = {
            name: m0 if name in tracing.COUNTS else statistics.median(m[name] for m in per_run)
            for name, m0 in (per_run[0] if per_run else {}).items()
        }
        values["trace.overhead_s"] = statistics.median(per_member(True)) - statistics.median(untraced)
        metrics = {
            name: {"value": v, "unit": "count" if name in tracing.COUNTS else "s"}
            for name, v in values.items()
        }
        record["layers"] = values
        record["computed"] = list(tracing.COMPUTED)
        (workdir / "spans.json").write_text(json.dumps(tracer.records()) + "\n")
        for name, m in metrics.items():
            shown = f"{m['value']:16d}" if isinstance(m["value"], int) else f"{m['value']:16.6f}"
            note = " (computed)" if name in tracing.COMPUTED else ""
            lines.append(f"{name:38s} {shown} {m['unit']}{note}")

    lines.append(f"fail_frac    {failed / attempted:10.4f}     ({failed} of {attempted} members)")
    correct = failed == 0 and not problems
    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics)
    for info in bench.calls:
        shutil.rmtree(info["outdir"], ignore_errors=True)
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems[:20]:
        print("problem:", problem)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
