"""Wall-time comparison of the three selectors.

Three sweeps, mirroring how selection cost is usually reported:

* C1: one fixed problem size, growing repetition counts (timing stability);
* C2: growing solution counts at fixed dimension (scaling with problem size);
* C3: one pass over every analytic shape family.

Absolute times depend on the machine; the report therefore carries relative
verdicts only (tournament slower than the vectorized rules, tournament cost
growing with problem size, distance and weighted-sum rules within a small
factor of each other).
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

from .front import NormalizedFront, normalize
from .generators import FrontSpec, generate, random_nondominated_front
from .selection import select_dnc, select_mmd, select_ws, verify_equivalence

METHODS = ("mmd", "ws", "dnc")

_C1_REPS = (100, 300, 1000)
_C2_SIZES = (25, 50, 100, 200)
_C3_FAMILIES = (
    "convex2d",
    "concave2d",
    "line2d",
    "plane3d",
    "sphere3d",
    "disconnected2d",
)


@dataclass(frozen=True)
class TimingRow:
    category: str
    label: str
    m: int
    n: int
    reps: int
    total: dict[str, float]  # method -> summed seconds
    mean: dict[str, float]  # method -> seconds per run


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[TimingRow, ...]
    verdicts: tuple[tuple[str, bool], ...]

    def to_text(self) -> str:
        out = io.StringIO()
        header = (
            f"{'cat':<4}{'case':<18}{'M':>5}{'N':>3}{'reps':>6}"
            + "".join(f"{m + ' total':>12}{m + ' mean':>12}" for m in METHODS)
        )
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for row in self.rows:
            out.write(
                f"{row.category:<4}{row.label:<18}{row.m:>5}{row.n:>3}{row.reps:>6}"
                + "".join(
                    f"{row.total[m]:>12.4f}{row.mean[m]:>12.3e}" for m in METHODS
                )
                + "\n"
            )
        out.write("\n")
        for text, ok in self.verdicts:
            out.write(f"{text}: {'yes' if ok else 'no'}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        out = io.StringIO()
        cols = ["category", "case", "m", "n", "reps"]
        cols += [f"{m}_{kind}" for m in METHODS for kind in ("total", "mean")]
        out.write(",".join(cols) + "\n")
        for row in self.rows:
            cells = [row.category, row.label, str(row.m), str(row.n), str(row.reps)]
            for m in METHODS:
                cells.append(f"{row.total[m]:.6f}")
                cells.append(f"{row.mean[m]:.6e}")
            out.write(",".join(cells) + "\n")
        return out.getvalue()


def _time_method(nf: NormalizedFront, method: str, reps: int) -> float:
    if method == "mmd":
        run = lambda k: select_mmd(nf)
    elif method == "ws":
        run = lambda k: select_ws(nf)
    else:
        run = lambda k: select_dnc(nf, pairing_seed=k)
    for k in range(3):  # warm-up outside the clock
        run(k)
    start = time.perf_counter()
    for k in range(reps):
        run(k)
    return time.perf_counter() - start


def _timing_row(category: str, label: str, nf: NormalizedFront, reps: int) -> TimingRow:
    verify_equivalence(nf, seeds=(0,)).raise_if_failed()
    total = {m: _time_method(nf, m, reps) for m in METHODS}
    mean = {m: total[m] / reps for m in METHODS}
    return TimingRow(
        category=category,
        label=label,
        m=nf.base.m,
        n=nf.base.n,
        reps=reps,
        total=total,
        mean=mean,
    )


def run_bench(scale: float = 1.0, seed: int = 2024) -> BenchReport:
    """Run all three sweeps; ``scale`` multiplies every repetition count."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    reps_of = lambda base: max(10, int(round(base * scale)))
    rows: list[TimingRow] = []

    # process-level warm-up so the first timed cell is not charged for
    # allocator and import start-up costs
    _time_method(normalize(random_nondominated_front(32, 4, seed ^ 1)), "dnc", 30)

    front_c1 = random_nondominated_front(50, 5, seed)
    nf_c1 = normalize(front_c1)
    for reps in _C1_REPS:
        rows.append(_timing_row("C1", "sphere M=50 N=5", nf_c1, reps_of(reps)))

    for m in _C2_SIZES:
        nf = normalize(random_nondominated_front(m, 5, seed + m))
        rows.append(_timing_row("C2", f"sphere M={m} N=5", nf, reps_of(300)))

    for family in _C3_FAMILIES:
        nf = normalize(generate(FrontSpec(family=family, samples=50, seed=seed)))
        rows.append(_timing_row("C3", family, nf, reps_of(200)))

    # verdicts use the multi-class sweeps; C3 includes single-class fronts
    # where the tournament degenerates to no comparisons at all
    sweep = [r for r in rows if r.category in ("C1", "C2")]
    c2 = [r for r in rows if r.category == "C2"]
    dnc_vs_fast = all(
        r.mean["dnc"] >= r.mean["mmd"] and r.mean["dnc"] >= r.mean["ws"] for r in sweep
    )
    dnc_monotone = all(
        c2[k].mean["dnc"] <= c2[k + 1].mean["dnc"] for k in range(len(c2) - 1)
    )
    mmd_ws_close = all(
        max(r.mean["mmd"], r.mean["ws"]) <= 5.0 * min(r.mean["mmd"], r.mean["ws"])
        for r in sweep
    )
    verdicts = (
        ("dnc slower than mmd/ws", dnc_vs_fast),
        ("dnc mean time nondecreasing in M (C2)", dnc_monotone),
        ("mmd and ws within 5x of each other", mmd_ws_close),
    )
    return BenchReport(rows=tuple(rows), verdicts=verdicts)
