"""Knee selection on normalized fronts.

Three selection rules that provably pick the same winner class:

* ``select_mmd``: minimize the Manhattan distance of the normalized row from
  the normalized ideal vector (one vectorized pass, no pairwise loops).
* ``select_ws``: minimize the weighted sum of raw objectives with weights
  1/spread per column.
* ``select_dnc``: knockout tournament of pairwise comparisons between
  equivalence classes, preferring the transition with positive net
  improvement percentage.

The weighted sum of a row exceeds its Manhattan distance by the constant
sum(ell/L), so both orderings coincide; the tournament compares exactly the
same quantity pairwise, so its winner is independent of the pairing order.
Solutions whose scores differ by less than a tolerance form one equivalence
class and win or lose together.

The selectors and ``rank`` are views over one partition, ``build_classes``,
which is also the one place that validates the tolerance.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDimension, EquivalenceViolation, InvalidEpsilon
from .front import NormalizedFront

#: Default relative tolerance for grouping near-equal scores.
DEFAULT_EPSILON = 1e-9

#: Tournament pairing seeds ``verify_equivalence`` tries by default.
DEFAULT_SEEDS = (1, 2, 3, 4)

#: Tolerance (scaled by max(1, |offset|)) for the ws-minus-mmd constant check.
OFFSET_TOL = 1e-9


class SolutionScore(NamedTuple):
    id: str
    mmd: float
    ws: float


class ComparisonRecord(NamedTuple):
    """One pairwise comparison in the tournament.

    ``left`` and ``right`` are class indices (positions in the ascending
    class list); ``ip`` is the net improvement percentage of moving from the
    left class to the right one; ``winner`` is ``right`` iff ip > 0.
    """

    left: int
    right: int
    ip: float
    winner: int


@dataclass(frozen=True)
class EquivalenceClass:
    """Solutions with mutually zero net improvement percentage (within tolerance).

    ``mmd`` and ``ws`` are the scores of the representative member (the one
    with the smallest Manhattan distance, ties broken by id).
    """

    ids: tuple[str, ...]
    mmd: float
    ws: float

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class EquivalenceClasses:
    """Partition of a front's solutions into score-equivalence classes,
    sorted ascending by representative Manhattan distance."""

    classes: tuple[EquivalenceClass, ...]
    epsilon: float

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[EquivalenceClass]:
        return iter(self.classes)

    def __getitem__(self, k: int) -> EquivalenceClass:
        return self.classes[k]

    @cached_property
    def _class_of(self) -> dict[str, int]:
        return {sid: k for k, cls in enumerate(self.classes) for sid in cls.ids}

    def class_index_of(self, solution_id: str) -> int:
        return self._class_of[solution_id]

    def all_ids(self) -> tuple[str, ...]:
        return tuple(sid for cls in self.classes for sid in cls.ids)


@dataclass(frozen=True, eq=False)
class Decision:
    """Outcome of one selection run.

    ``winner`` is always a whole equivalence class; ``knee`` holds the raw
    objective rows of its members in the same order as ``winner.ids``.
    ``scores`` lists every solution in front row order (computed on first
    access).  ``trace`` is only populated by the tournament selector.
    """

    method: str
    winner: EquivalenceClass
    knee: np.ndarray
    c_min_mmd: float
    c_min_ws: float
    epsilon: float
    _nf: NormalizedFront = field(repr=False)
    trace: tuple[ComparisonRecord, ...] | None = None

    @cached_property
    def scores(self) -> tuple[SolutionScore, ...]:
        d = self._nf.mmd_scores
        ws = self._nf.ws_scores
        return tuple(
            SolutionScore(sid, float(d[k]), float(ws[k]))
            for k, sid in enumerate(self._nf.base.ids)
        )

    @property
    def winner_ids(self) -> tuple[str, ...]:
        return self.winner.ids

    @property
    def representative(self) -> str:
        """Deterministic single id for scripting: lexicographically smallest."""
        return min(self.winner.ids)

    def to_json(self) -> str:
        """Compact JSON with fixed key order and shortest round-trip numbers."""
        nf = self._nf
        scores = zip(nf.base.ids, nf.mmd_scores.tolist(), nf.ws_scores.tolist())
        doc = {
            "method": self.method,
            "winner_ids": list(self.winner.ids),
            "knee": self.knee.tolist(),
            "c_min_mmd": self.c_min_mmd,
            "c_min_ws": self.c_min_ws,
            "scores": [{"id": sid, "mmd": d, "ws": ws} for sid, d, ws in scores],
        }
        if self.trace is not None:
            doc["trace"] = [r._asdict() for r in self.trace]
        return json.dumps(doc)


def improvement_percentage(nf: NormalizedFront, i: str, j: str, dim: int) -> float:
    """Percent improvement in one dimension when moving from solution i to j.

    ``dim`` is a zero-based column index.  Positive when j is better
    (smaller) in that dimension; measured relative to the dimension's spread.
    """
    if dim in nf.degenerate_dims:
        raise DegenerateDimension(
            f"dimension {dim} has zero spread; improvement undefined"
        )
    dev = nf.deviations
    return 100.0 * (dev[nf.index_of(i), dim] - dev[nf.index_of(j), dim])


def net_improvement(nf: NormalizedFront, i: str, j: str) -> float:
    """Net improvement percentage of the transition i -> j over all dimensions.

    Computed as the difference of the two per-solution score sums, so the
    value is exactly antisymmetric and exactly zero for i == j.
    """
    d = nf.mmd_scores
    return 100.0 * (d[nf.index_of(i)] - d[nf.index_of(j)])


def build_classes(nf: NormalizedFront, epsilon: float = DEFAULT_EPSILON) -> EquivalenceClasses:
    """Group solutions whose score sums coincide within tolerance.

    Solutions are sorted by Manhattan distance from the ideal vector (ties by
    id) and a new solution joins the current class while its distance stays
    within ``epsilon * max(1, |rep|)`` of the class representative (the
    smallest member).  Anchoring at the representative keeps the relation
    transitive and bounds the spread of any class by one tolerance.
    Clustering on ideal-anchored distances rather than raw weighted sums
    keeps the grouping scale-free when the raw values sit far from zero.

    Raises InvalidEpsilon unless ``epsilon`` is finite and >= 0.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise InvalidEpsilon(f"epsilon must be finite and >= 0, got {epsilon!r}")
    ids = nf.base.ids
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    order = by_id[np.argsort(nf.mmd_scores[by_id], kind="stable")].tolist()
    d = nf.mmd_scores[order].tolist()
    ws = nf.ws_scores[order].tolist()
    sorted_ids = [ids[k] for k in order]

    classes: list[EquivalenceClass] = []
    start = 0
    while start < len(d):
        rep = d[start]
        tol = epsilon * max(1.0, abs(rep))
        # rep + tol is rounded, so settle the end on the exact predicate
        end = bisect_right(d, rep + tol, start)
        while end < len(d) and d[end] - rep <= tol:
            end = bisect_right(d, d[end], end)
        while d[end - 1] - rep > tol:
            end = bisect_left(d, d[end - 1], start)
        classes.append(EquivalenceClass(tuple(sorted_ids[start:end]), rep, ws[start]))
        start = end
    return EquivalenceClasses(classes=tuple(classes), epsilon=epsilon)


def _decision(
    nf: NormalizedFront,
    method: str,
    winner: EquivalenceClass,
    epsilon: float,
    trace: tuple[ComparisonRecord, ...] | None = None,
) -> Decision:
    rows = [nf.index_of(sid) for sid in winner.ids]
    knee = nf.base.objectives[rows]
    knee.flags.writeable = False
    return Decision(
        method=method,
        winner=winner,
        knee=knee,
        c_min_mmd=float(nf.mmd_scores.min()),
        c_min_ws=float(nf.ws_scores.min()),
        epsilon=epsilon,
        _nf=nf,
        trace=trace,
    )


def select_mmd(nf: NormalizedFront, epsilon: float = DEFAULT_EPSILON) -> Decision:
    """Select the class of the row nearest the ideal vector in Manhattan distance."""
    return _decision(nf, "mmd", build_classes(nf, epsilon)[0], epsilon)


def select_ws(nf: NormalizedFront, epsilon: float = DEFAULT_EPSILON) -> Decision:
    """Select the class of the row with the smallest spread-weighted sum."""
    classes = build_classes(nf, epsilon)
    best = nf.base.ids[int(np.argmin(nf.ws_scores))]
    return _decision(nf, "ws", classes[classes.class_index_of(best)], epsilon)


def select_dnc(
    nf: NormalizedFront,
    epsilon: float = DEFAULT_EPSILON,
    pairing_seed: int = 0,
) -> Decision:
    """Select by knockout tournament over equivalence classes.

    Classes are shuffled by ``pairing_seed`` and compared pairwise; the class
    whose direction of transition yields a positive net improvement
    percentage advances, an unpaired class gets a bye.  The survivor is the
    same for every seed; the full comparison list is recorded in the trace.
    """
    classes = build_classes(nf, epsilon)
    alive = list(range(len(classes)))
    random.Random(pairing_seed).shuffle(alive)

    trace: list[ComparisonRecord] = []
    while len(alive) > 1:
        survivors = []
        for a, b in zip(alive[::2], alive[1::2]):
            ip = 100.0 * (classes[a].mmd - classes[b].mmd)
            if ip == 0.0:  # distinct classes are separated by construction
                raise EquivalenceViolation(f"tie between distinct classes {a} and {b}")
            winner = b if ip > 0.0 else a
            trace.append(ComparisonRecord(left=a, right=b, ip=ip, winner=winner))
            survivors.append(winner)
        if len(alive) % 2:
            survivors.append(alive[-1])
        alive = survivors
    return _decision(nf, "dnc", classes[alive[0]], epsilon, trace=tuple(trace))


def rank(
    nf: NormalizedFront, epsilon: float = DEFAULT_EPSILON
) -> list[tuple[EquivalenceClass, float]]:
    """All equivalence classes with their representative Manhattan distances,
    ascending; position 0 is the winner class."""
    return [(cls, cls.mmd) for cls in build_classes(nf, epsilon)]


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-method agreement check over one front."""

    passed: bool
    winners: dict[str, tuple[str, ...]]
    offset_gap: float
    issues: tuple[str, ...]

    def raise_if_failed(self) -> None:
        if not self.passed:
            raise EquivalenceViolation("; ".join(self.issues), winners=self.winners)


def verify_equivalence(
    nf: NormalizedFront,
    epsilon: float = DEFAULT_EPSILON,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> EquivalenceReport:
    """Run all three selectors (the tournament once per seed) and check that
    every winner class is identical and that c_min_ws - c_min_mmd equals the
    ideal offset within tolerance."""
    mmd = select_mmd(nf, epsilon)
    winners = {"mmd": mmd.winner_ids, "ws": select_ws(nf, epsilon).winner_ids}
    for seed in seeds:
        winners[f"dnc@{seed}"] = select_dnc(nf, epsilon, pairing_seed=seed).winner_ids
    reference = sorted(mmd.winner_ids)
    issues = [
        f"{name} winner {sorted(ids)} != mmd winner {reference}"
        for name, ids in winners.items()
        if sorted(ids) != reference
    ]

    offset = nf.ideal_offset
    gap = abs((mmd.c_min_ws - mmd.c_min_mmd) - offset)
    if gap > OFFSET_TOL * max(1.0, abs(offset)):
        issues.append(
            f"c_min_ws - c_min_mmd = {mmd.c_min_ws - mmd.c_min_mmd!r} "
            f"but ideal offset = {offset!r}"
        )
    return EquivalenceReport(
        passed=not issues,
        winners=winners,
        offset_gap=gap,
        issues=tuple(issues),
    )
