"""Correctness gate: a member passes only if its observables match.

Two checks, applied per ensemble member:

* Reference: on seeds with a captured reference (`reference/<workload>.json`),
  the linear-algebra observables (volumes, complement resistances,
  pointwise ratios, exact exit times, kernel values) must agree to 1e-10
  relative, and every other column -- radii, steps, witnesses, the Monte
  Carlo files and the good-scale flags -- must be identical.
* Spot check, on any seed: R_eff(0, B_R^c) for two radii and R_eff(0, y)
  for the pointwise witnesses y are recomputed with `scipy.sparse.linalg.spsolve`
  on a Laplacian assembled here from the bond list, independently of the
  program's solvers, and must agree to 1e-8 relative.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import spsolve

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RTOL = 1e-10
SPOT_RTOL = 1e-8

# file -> columns compared to RTOL; the other columns must match exactly
LINEAR = {
    "volumes.csv": ("volume",),
    "resistance.csv": ("complement_resistance",),
    "pointwise.csv": ("max_ratio",),
    "exit_exact.csv": ("mean_exit",),
    "kernel.csv": ("p2n", "f_n", "boundary_mass"),
}
# Boundary mass is 1 minus a sum of probabilities, so its rounding floor is
# absolute (~1e-16), not relative: it is compared on the scale of 1.
UNIT_SCALE = {"boundary_mass"}
# Monte Carlo and integer-valued files, compared byte for byte per member
EXACT = ("walk.csv", "walk_exit.csv", "displacements.csv", "goodscale.csv")


def fingerprint(obs_dir: Path) -> dict[int, dict]:
    """Per member: the rows of each linear-algebra file and a digest of each exact file."""
    members: dict[int, dict] = {}
    for name in (*LINEAR, *EXACT):
        if not (obs_dir / name).is_file():  # e.g. no good-scale radii configured
            continue
        with open(obs_dir / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        grouped: dict[int, list[list[str]]] = {}
        for row in rows:
            grouped.setdefault(int(row[0]), []).append(row[1:])
        for index, member_rows in grouped.items():
            entry = members.setdefault(index, {"linear": {}, "exact": {}})
            if name in LINEAR:
                entry["linear"][name] = [header[1:], *member_rows]
            else:
                text = "\n".join(",".join(r) for r in [header[1:], *member_rows])
                entry["exact"][name] = hashlib.sha256(text.encode()).hexdigest()
    return members


LINEAR_COLUMNS = {c for cols in LINEAR.values() for c in cols}


def _close(column: str, got: str, want: str) -> bool:
    if column not in LINEAR_COLUMNS:
        return got == want
    if got == "" or want == "":
        return got == want
    a, b = float(got), float(want)
    scale = max(abs(b), 1.0) if column in UNIT_SCALE else abs(b)
    return abs(a - b) <= RTOL * scale


def compare(got: dict | None, want: dict) -> list[str]:
    """Mismatches between one member's fingerprint and its expected one."""
    if got is None or want is None:
        return ["member missing from the outputs or from what they are compared with"]
    problems = []
    for name, want_rows in want["linear"].items():
        got_rows = got["linear"].get(name)
        if got_rows is None or len(got_rows) != len(want_rows) or got_rows[0] != want_rows[0]:
            problems.append(f"{name}: rows or header differ")
            continue
        header = want_rows[0]
        for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
            bad = [
                col for col, g, w in zip(header, got_row, want_row) if not _close(col, g, w)
            ]
            if len(got_row) != len(want_row) or bad:
                problems.append(f"{name}: {got_row} != {want_row}")
    for name, digest in want["exact"].items():
        if got["exact"].get(name) != digest:
            problems.append(f"{name}: not identical")
    return problems


def load_reference(workload: str, seed: int) -> dict[int, dict] | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    seeds = json.loads(path.read_text())["seeds"]
    members = seeds.get(str(seed))
    return None if members is None else {int(k): v for k, v in members.items()}


def save_reference(workload: str, seed: int, members: dict[int, dict]) -> None:
    path = REFERENCE_DIR / f"{workload}.json"
    data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    data["seeds"][str(seed)] = {str(k): v for k, v in sorted(members.items())}
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n")


# -- independent spot checks --------------------------------------------------


def _laplacian(g):
    n = g.labels.size
    u, v, c = g.bond_u, g.bond_v, g.bond_c
    adj = coo_matrix((np.r_[c, c], (np.r_[u, v], np.r_[v, u])), shape=(n, n)).tocsr()
    return (diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()


def _rows(member: dict, name: str) -> list[list[str]]:
    return member["linear"].get(name, [[]])[1:]


def _agree(got: float, want: float) -> bool:
    return abs(got - want) <= SPOT_RTOL * abs(want)


def spot_check(g, config, member: dict, resistance_growth) -> list[str]:
    """Recompute a few resistances of one member's graph and compare with its outputs."""
    if config.metric != "line":
        raise ValueError("spot checks measure balls in the line metric")
    lap = _laplacian(g)
    o = int(np.searchsorted(g.labels, g.marked))
    dist = np.abs(g.labels - g.marked)
    problems = []

    complement = {int(r[0]): float(r[1]) for r in _rows(member, "resistance.csv")}
    radii = (min(config.radius_grid), max(config.radius_grid))
    for R in radii:
        inner = np.nonzero((dist < R) & (dist > 0))[0]
        v = spsolve(lap[inner][:, inner].tocsc(), -lap[inner][:, [o]].toarray().ravel())
        current = lap[o, o] + lap[[o]][:, inner] @ np.atleast_1d(v)
        want = 1.0 / float(np.asarray(current).ravel()[0])
        if R not in complement or not _agree(complement[R], want):
            problems.append(f"R_eff(0, B_{R}^c) = {complement.get(R)}, spsolve gives {want!r}")

    pointwise = [(int(r[0]), float(r[1]), r[2]) for r in _rows(member, "pointwise.csv")]
    witnesses = sorted({int(w) for _, _, w in pointwise if w})
    if witnesses:
        keep = np.delete(np.arange(g.labels.size), o)
        cols = np.searchsorted(keep, np.searchsorted(g.labels, witnesses))
        rhs = np.zeros((keep.size, len(witnesses)))
        rhs[cols, np.arange(len(witnesses))] = 1.0
        sol = spsolve(lap[keep][:, keep].tocsc(), rhs).reshape(keep.size, -1)
        pair = {w: float(sol[cols[j], j]) for j, w in enumerate(witnesses)}
        for R, ratio, w in pointwise:
            if not w:
                continue
            y = int(w)
            d = abs(y - g.marked)
            want = pair[y] / resistance_growth(float(d))
            if not 0 < d < R or not _agree(ratio, want):
                problems.append(f"pointwise R={R} witness {y}: ratio {ratio!r}, spsolve gives {want!r}")
    return problems
