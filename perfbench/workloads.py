"""Benchmark workloads: seeded inputs, an independent oracle, and the ops.

Every op runs one front through the public pipeline of ``knee_mcdm``; the
oracle computes the expected winner ids without importing ``knee_mcdm``.

* ``cube-filter``: uniform-cube CSV fronts (M=2000, N=5, one column declared
  "max") through ``load_front -> dominance_filter -> normalize -> select_mmd
  -> to_json``.  About nine rows in ten are dominated, so the filter does
  nearly all the work.
* ``sphere-cli-dnc``: sphere-octant JSON fronts with decision vectors
  (M=5000, N=5, already nondominated) through ``cli.main(["select",
  "--method", "dnc", "--no-filter", ...])`` writing a JSON file.  Parse,
  the tournament partition and serialize share the op; the filter is
  bypassed.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The library's documented default score-equality tolerance.
EPSILON = 1e-9

CUBE_M, CUBE_N, CUBE_MAX_COL, CUBE_FRONTS = 2000, 5, 2, 4
SPHERE_M, SPHERE_N, SPHERE_X, SPHERE_FRONTS = 5000, 5, 4, 3
SELECTORS = ("select_mmd", "select_ws", "select_dnc")

#: Names ``knee_mcdm.cli`` imports that the traced run wraps (besides
#: ``Decision.to_json``, patched on the class).
CALLS = ("load_front", "dominance_filter", "normalize") + SELECTORS


# ---------------------------------------------------------------- oracle


def nondominated(f: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Boolean mask of rows no other row dominates (minimization), by
    comparing every pair of rows."""
    dominated = np.zeros(len(f), dtype=bool)
    for lo in range(0, len(f), chunk):
        block = f[lo : lo + chunk]
        # le[i, j]: row j <= block row i in every column; lt: < in some column
        le = f[None, :, 0] <= block[:, 0, None]
        lt = f[None, :, 0] < block[:, 0, None]
        for c in range(1, f.shape[1]):
            le &= f[None, :, c] <= block[:, c, None]
            lt |= f[None, :, c] < block[:, c, None]
        dominated[lo : lo + chunk] = (le & lt).any(axis=1)
    return ~dominated


def expected_winners(ids: list[str], f: np.ndarray) -> frozenset[str]:
    """Ids within ``EPSILON * max(1, |d_min|)`` of the minimum Manhattan
    distance from the ideal vector, after dividing each column by its
    spread (zero-spread columns contribute nothing)."""
    low = f.min(axis=0)
    spread = f.max(axis=0) - low
    dev = np.where(spread > 0.0, (f - low) / np.where(spread > 0.0, spread, 1.0), 0.0)
    d = dev.sum(axis=1)
    d_min = float(d.min())
    return frozenset(ids[k] for k in np.flatnonzero(d - d_min <= EPSILON * max(1.0, abs(d_min))))


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Item:
    """One front and what an op on it must return."""

    expected: frozenset[str]
    rows: int
    cols: int
    text: str | None = None
    senses: dict[str, str] | None = None
    path: str | None = None


@dataclass
class Workload:
    name: str
    items: list[Item]
    modules: tuple[str, ...]
    out_path: str | None = None
    gen_s: float = 0.0
    oracle_s: float = 0.0

    @property
    def cli(self) -> bool:
        return self.out_path is not None

    def op(self, km, calls: dict, item: Item):
        """Run one front through the pipeline and return its output."""
        if self.cli:
            rc = calls["cli_main"](
                ["select", "--method", "dnc", "--no-filter", "--format", "json",
                 "--output-format", "json", "--input", item.path, "--output", self.out_path]
            )
            if rc != 0:
                raise RuntimeError(f"knee-mcdm select exited {rc}")
            return self.out_path
        front = calls["load_front"](item.text, format="csv", senses=item.senses)
        front, _ = calls["dominance_filter"](front)
        nf = calls["normalize"](front)
        return calls["to_json"](calls["select_mmd"](nf))

    def winners(self, output: str) -> frozenset[str]:
        """Winner ids in an op's JSON output (a file path for the CLI op)."""
        if self.cli:
            with open(output, encoding="utf-8") as handle:
                output = handle.read()
        return frozenset(json.loads(output)["winner_ids"])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _sphere_octant(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Points on the unit sphere in the positive orthant: no point can
    dominate another, up to rounding (``nondominated`` removes those)."""
    g = np.abs(rng.standard_normal((m, n))) + 1e-12
    f = g / np.linalg.norm(g, axis=1, keepdims=True)
    return f[nondominated(f)]


def _csv(ids: list[str], names: list[str], f: np.ndarray) -> str:
    lines = ["id," + ",".join(names)]
    lines += [sid + "," + ",".join(map(repr, row)) for sid, row in zip(ids, f.tolist())]
    return "\n".join(lines) + "\n"


def _cube_filter(seed: int, workdir: Path, scale: float, timer) -> Workload:
    m = max(8, round(CUBE_M * scale))
    names = [f"f{j}" for j in range(CUBE_N)]
    items = []
    for k in range(CUBE_FRONTS):
        raw = _rng(seed, 1, k).random((m, CUBE_N))
        ids = [f"c{r}" for r in range(m)]
        f = raw.copy()
        f[:, CUBE_MAX_COL] = -f[:, CUBE_MAX_COL]
        with timer:
            keep = nondominated(f)
            expected = expected_winners([ids[r] for r in np.flatnonzero(keep)], f[keep])
        items.append(Item(expected, m, CUBE_N, text=_csv(ids, names, raw),
                          senses={names[CUBE_MAX_COL]: "max"}))
    return Workload("cube-filter", items, ("knee_mcdm",))


def _sphere_cli_dnc(seed: int, workdir: Path, scale: float, timer) -> Workload:
    m = max(8, round(SPHERE_M * scale))
    names = [f"f{j}" for j in range(SPHERE_N)]
    items = []
    for k in range(SPHERE_FRONTS):
        rng = _rng(seed, 2, k)
        f = _sphere_octant(rng, m, SPHERE_N)
        x = rng.random((len(f), SPHERE_X))
        ids = [f"s{r}" for r in range(len(f))]
        doc = {
            "objectives": names,
            "senses": ["min"] * SPHERE_N,
            "solutions": [
                {"id": sid, "f": fr, "x": xr} for sid, fr, xr in zip(ids, f.tolist(), x.tolist())
            ],
        }
        path = workdir / f"sphere-cli-dnc-{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with timer:
            expected = expected_winners(ids, f)
        items.append(Item(expected, len(f), SPHERE_N, path=str(path)))
    return Workload("sphere-cli-dnc", items, ("knee_mcdm", "knee_mcdm.cli"),
                    out_path=str(workdir / "sphere-cli-dnc.out.json"))


WORKLOADS = {
    "cube-filter": _cube_filter,
    "sphere-cli-dnc": _sphere_cli_dnc,
}


class _Stopwatch:
    """Context manager that adds the time spent inside it to ``total``."""

    def __init__(self) -> None:
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0
        return False


def build(name: str, seed: int, workdir: Path, scale: float = 1.0) -> Workload:
    """Generate a workload's inputs from ``seed`` and their expected winners.

    ``scale`` multiplies every front's row count (the tests use small ones).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    oracle = _Stopwatch()
    t0 = time.perf_counter()
    wl = WORKLOADS[name](seed, workdir, scale, oracle)
    wl.oracle_s = oracle.total
    wl.gen_s = time.perf_counter() - t0 - oracle.total
    return wl


# ------------------------------------------------------------ layer calls


def plain_calls(km) -> dict:
    """The public functions an op calls, unwrapped."""
    calls = {name: getattr(km, name) for name in CALLS}
    calls["to_json"] = km.Decision.to_json
    calls["cli_main"] = km.cli.main if hasattr(km, "cli") else None
    return calls


def traced_calls(km, tr, keep: dict) -> dict:
    """The same functions, each inside a span of its layer.

    ``normalize`` also reads both score vectors in a ``score`` span, so the
    first access is charged to scoring, and leaves the normalized front in
    ``keep["nf"]`` for the standalone partition probe.  Under tracemalloc
    the filter span records its own allocation peak.
    """

    def load_front(source, *args, **kwargs):
        size = len(source) if isinstance(source, str) else os.fstat(source.fileno()).st_size
        with tr.span("parse", bytes=size) as a:
            front = km.load_front(source, *args, **kwargs)
            a["rows"] = front.m
        return front

    def dominance_filter(front):
        with tr.span("filter", rows_in=front.m) as a:
            tracing = tracemalloc.is_tracing()
            if tracing:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            kept, removed = km.dominance_filter(front)
            if tracing:
                a["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
            a["rows_kept"] = kept.m
        return kept, removed

    def normalize(front):
        with tr.span("normalize") as a:
            nf = km.normalize(front)
            a["degenerate_cols"] = len(nf.degenerate_dims)
        with tr.span("score"):
            nf.mmd_scores, nf.ws_scores
        keep["nf"] = nf
        return nf

    def selector(real):
        def select(nf, *args, **kwargs):
            with tr.span("select") as a:
                decision = real(nf, *args, **kwargs)
                if decision.trace is not None:
                    a["dnc_comparisons"] = len(decision.trace)
            return decision

        return select

    real_to_json = km.Decision.to_json

    def to_json(decision):
        with tr.span("serialize") as a:
            text = real_to_json(decision)
            a["bytes"] = len(text)
        return text

    def cli_main(argv):
        with tr.span("cli") as a:
            rc = km.cli.main(argv)
            if rc:
                a["error"] = 1
        return rc

    calls = {"load_front": load_front, "dominance_filter": dominance_filter,
             "normalize": normalize, "to_json": to_json, "cli_main": cli_main}
    calls.update({name: selector(getattr(km, name)) for name in SELECTORS})
    return calls


@contextmanager
def patched_cli(km, calls: dict):
    """Point the names ``knee_mcdm.cli`` imported, and ``Decision.to_json``,
    at ``calls`` for the duration of the block."""
    saved = {name: getattr(km.cli, name) for name in CALLS}
    saved_to_json = km.Decision.to_json
    try:
        for name in CALLS:
            setattr(km.cli, name, calls[name])
        km.Decision.to_json = calls["to_json"]
        yield
    finally:
        for name, fn in saved.items():
            setattr(km.cli, name, fn)
        km.Decision.to_json = saved_to_json
