"""Benchmark workloads: each is a shipped preset plus overrides, cut to its first members.

The config is built the way `resistive-walk run <preset>` builds it
(`load_preset`, then `with_overrides`), so the program sees nothing but a
validated `ExperimentConfig`.  The master seed is the benchmark's seed
argument; without one it is the preset's own seed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Never given a reference: claims are re-checked on it, and there the gate
# rests on the seed-independent spot checks alone.
HELD_OUT_SEED = 90210


@dataclass(frozen=True)
class Workload:
    preset: str
    members: int
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    # Primary preset: the 4096-step kernel and the pointwise resistances
    # carry most of a member.
    "lrp-s3.5": Workload("lrp-s3.5", members=2),
    # Thin tails, horizon 1024: complement and pointwise resistances
    # dominate, the kernel is a small share.
    "exp-c1": Workload("exp-c1", members=5),
    # Half-width 2^18 with no good-scale radii: generation, complement-set
    # lookups and the O(n T) kernel dominate; the pointwise layer is bypassed.
    "lrp-s3.5-wide": Workload(
        "lrp-s3.5",
        members=1,
        overrides={
            "half_width": 262144,
            "radius_grid": (4, 8, 16, 32, 64),
            "time_grid": tuple(2**k for k in range(3, 11)),
            "goodscale_radii": (),
            "mc_exit_radii": (4, 8),
        },
    ),
}


def use_checkout_source():
    """Import `resistive_walk` from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "resistive_walk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no resistive_walk package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import resistive_walk

    if Path(resistive_walk.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: resistive_walk imported from {resistive_walk.__file__}")
    return resistive_walk


def build_config(name: str, seed: int | None = None):
    """Validated config of workload `name` with master seed `seed`."""
    from resistive_walk.config import load_preset, with_overrides

    work = WORKLOADS[name]
    base = load_preset(work.preset)
    return with_overrides(
        base,
        ensemble=work.members,
        master_seed=base.master_seed if seed is None else seed,
        **work.overrides,
    )
