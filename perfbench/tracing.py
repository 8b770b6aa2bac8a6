"""Layer spans recorded from outside the program.

`Tracer.installed(pipeline)` replaces the public functions that
`resistive_walk.pipeline` calls into each layer with timed wrappers and
puts the originals back on exit.  Spans stay in memory (name, start, end,
parent span, run id and exact work counts) until the caller writes them out.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# layer span names that may sit directly under a member span
MEMBER_LAYERS = (
    "generate",
    "resistance.complement",
    "resistance.pointwise.factor",
    "resistance.pointwise.solve",
    "walk.exit",
    "walk.kernel",
    "walk.mc",
)

# per-layer metric -> (span name, what is summed over the run's spans)
BUSY = {
    "generate.busy_s": "generate",
    "resistance.complement.busy_s": "resistance.complement",
    "resistance.pointwise.factor_s": "resistance.pointwise.factor",
    "resistance.pointwise.solve_s": "resistance.pointwise.solve",
    "walk.exit.busy_s": "walk.exit",
    "walk.kernel.busy_s": "walk.kernel",
    "walk.mc.busy_s": "walk.mc",
    "pipeline.reduce.busy_s": "pipeline.reduce",
}
SELF = {
    "pipeline.member.self_s": "pipeline.member",
    "pipeline.write.self_s": "pipeline.run",
}
COUNTS = {
    "generate.bonds": ("generate", "bonds"),
    "resistance.complement.calls": ("resistance.complement", None),
    "resistance.complement.sink_vertices": ("resistance.complement", "sink_vertices"),
    "resistance.complement.cg_iters": ("resistance.complement", "cg_iters"),
    "resistance.pointwise.targets": ("resistance.pointwise.solve", "targets"),
    "walk.exit.calls": ("walk.exit", None),
    "walk.kernel.steps": ("walk.kernel", "steps"),
    "walk.kernel.matvec_nnz": ("walk.kernel", "matvec_nnz"),
    "walk.mc.trajectory_steps": ("walk.mc", "trajectory_steps"),
}
# counts derived from array sizes rather than observed work
COMPUTED = ("walk.kernel.matvec_nnz",)

WRAPPED = (
    "build_graph",
    "effective_resistance",
    "OriginResistanceCache",
    "mean_exit_time_exact",
    "heat_kernel_exact",
    "simulate",
    "member_observables",
    "build_summary",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), float("nan"), parent, self.run)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def timed(self, name: str, fn, count=None):
        """`fn` inside a span; `count(result, *args)` gives the span's work counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(out, *args, **kwargs))
            return out

        return wrapper

    def _wrappers(self, pipeline) -> dict:
        from resistive_walk import resistance

        def complement(g, A, B):
            # exactly what effective_resistance computes, plus its CG iterations
            with self.span("resistance.complement") as s:
                pot = resistance.dirichlet_potential(g, A, B)
            s.counts.update(sink_vertices=len(B), cg_iters=pot.iterations)
            return 1.0 / pot.energy

        factor = pipeline.OriginResistanceCache

        def origin_cache(g):
            with self.span("resistance.pointwise.factor"):
                cache = factor(g)
            cache.pair_resistance = self.timed(
                "resistance.pointwise.solve",
                cache.pair_resistance,
                lambda out, labels: {"targets": len(labels)},
            )
            return cache

        return {
            "build_graph": self.timed(
                "generate", pipeline.build_graph, lambda g, *a, **k: {"bonds": g.n_bonds}
            ),
            "effective_resistance": complement,
            "OriginResistanceCache": origin_cache,
            "mean_exit_time_exact": self.timed("walk.exit", pipeline.mean_exit_time_exact),
            "heat_kernel_exact": self.timed(
                "walk.kernel",
                pipeline.heat_kernel_exact,
                lambda out, g, origin, n_steps, *a, **k: {
                    "steps": n_steps,
                    "matvec_nnz": 2 * n_steps * g.adjacency().nnz,
                },
            ),
            "simulate": self.timed(
                "walk.mc",
                pipeline.simulate,
                lambda out, g, origin, n_steps, n_traj, *a, **k: {
                    "trajectory_steps": n_steps * n_traj
                },
            ),
            "member_observables": self.timed("pipeline.member", pipeline.member_observables),
            "build_summary": self.timed("pipeline.reduce", pipeline.build_summary),
        }

    @contextmanager
    def installed(self, pipeline):
        """Wrap the layer entry points of `pipeline`; restore the originals on exit."""
        originals = {name: getattr(pipeline, name) for name in WRAPPED}
        try:
            for name, wrapper in self._wrappers(pipeline).items():
                setattr(pipeline, name, wrapper)
            yield self
        finally:
            for name, fn in originals.items():
                setattr(pipeline, name, fn)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def member_balance(spans: list[Span]) -> list[str]:
    """Check that on every member the layer spans plus its self time add up to it."""
    selfs = self_times(spans)
    problems = []
    for i, s in enumerate(spans):
        if s.name != "pipeline.member":
            continue
        kids = [c for c in spans if c.parent == i]
        stray = {c.name for c in kids} - set(MEMBER_LAYERS)
        total = sum(c.duration for c in kids) + selfs[i]
        if stray or abs(total - s.duration) > 1e-9 * max(1.0, s.duration):
            problems.append(
                f"member span {i}: layers {total:.9f} s vs span {s.duration:.9f} s"
                + (f", unexpected children {sorted(stray)}" if stray else "")
            )
    return problems


def layer_metrics(spans: list[Span], run: int, members: int) -> dict[str, float]:
    """Per-layer metrics of one traced `run` call: seconds per member, counts per call."""
    selfs = self_times(spans)
    mine = [(s, t) for s, t in zip(spans, selfs) if s.run == run]
    out: dict[str, float] = {}
    for metric, name in BUSY.items():
        out[metric] = sum(s.duration for s, _ in mine if s.name == name) / members
    for metric, name in SELF.items():
        out[metric] = sum(t for s, t in mine if s.name == name) / members
    for metric, (name, key) in COUNTS.items():
        hits = [s for s, _ in mine if s.name == name]
        out[metric] = len(hits) if key is None else sum(s.counts[key] for s in hits)
    return out
