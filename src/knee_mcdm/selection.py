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

The selectors, ``rank`` and ``verify_equivalence`` are views over one
partition, ``build_classes``: one sort of the rows by (distance, id) and one
walk over it.  The partition keeps the row position of every member, so no
selector maps an id back to its row.  ``build_classes`` is also the one place
that validates the tolerance.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EquivalenceViolation, InvalidEpsilon
from .front import NormalizedFront, negate_max_columns

#: Default relative tolerance for grouping near-equal scores.
DEFAULT_EPSILON = 1e-9

#: Tournament pairing seeds ``verify_equivalence`` tries by default.
DEFAULT_SEEDS = (1, 2, 3, 4)

#: Tolerance (scaled by max(1, |offset|)) for the ws-minus-mmd constant check.
OFFSET_TOL = 1e-9


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
    with the smallest Manhattan distance, ties broken by id).  ``rows`` holds
    the members' row positions in the front, parallel to ``ids``.
    """

    ids: tuple[str, ...]
    rows: tuple[int, ...]
    mmd: float
    ws: float

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class EquivalenceClasses:
    """Partition of a front's solutions into score-equivalence classes,
    sorted ascending by representative Manhattan distance.

    The partition is stored as columns, not as one object per class:

    * ``ids``: every solution id, class by class, each class in (mmd, id)
      order;
    * ``rows``: the row position in the front of each id, parallel to
      ``ids``;
    * ``starts``: class bounds, so class ``k`` holds
      ``ids[starts[k]:starts[k + 1]]``; ``starts[-1] == len(ids)``;
    * ``mmd`` and ``ws``: the representative's scores, one float per class;
    * ``epsilon``: the tolerance the classes were built with.

    ``build_classes`` is the one producer; the constructor takes the six
    columns as they are.  Indexing and iteration build ``EquivalenceClass``
    objects on access.
    """

    ids: tuple[str, ...]
    rows: tuple[int, ...]
    starts: tuple[int, ...]
    mmd: tuple[float, ...]
    ws: tuple[float, ...]
    epsilon: float

    def __len__(self) -> int:
        return len(self.mmd)

    def __iter__(self) -> Iterator[EquivalenceClass]:
        return map(self.__getitem__, range(len(self.mmd)))

    def __getitem__(self, k: int) -> EquivalenceClass:
        k = range(len(self.mmd))[k]  # negative indices and IndexError, as a tuple
        a, b = self.starts[k], self.starts[k + 1]
        return EquivalenceClass(self.ids[a:b], self.rows[a:b], self.mmd[k], self.ws[k])


@dataclass(frozen=True, eq=False)
class Decision:
    """Outcome of one selection run: a view over the winner class and
    ``nf``, the normalized front it was selected from.

    ``winner`` is always a whole equivalence class.  ``comparisons`` holds
    the tournament selector's comparisons as the columns left, right, ip
    and winner; it is None for the other selectors.  Derived on first
    access: ``trace``, the comparisons as ``ComparisonRecord`` tuples, or
    None; ``knee``, the objective rows of the winner's members in
    ``winner.ids`` order, as they were input ("max" columns not negated;
    read-only); ``c_min_mmd`` and ``c_min_ws``, the smallest Manhattan
    distance and weighted sum over the front (scores, so in minimization
    form).
    """

    method: str
    winner: EquivalenceClass
    nf: NormalizedFront = field(repr=False)
    comparisons: tuple[array, array, array, array] | None = field(default=None, repr=False)

    @cached_property
    def trace(self) -> tuple[ComparisonRecord, ...] | None:
        if self.comparisons is None:
            return None
        return tuple(map(ComparisonRecord, *self.comparisons))

    @cached_property
    def knee(self) -> np.ndarray:
        base = self.nf.base
        knee = negate_max_columns(base.objectives[list(self.winner.rows)], base.senses)
        knee.flags.writeable = False
        return knee

    @cached_property
    def c_min_mmd(self) -> float:
        return float(self.nf.mmd_scores.min())

    @cached_property
    def c_min_ws(self) -> float:
        return float(self.nf.ws_scores.min())

    @property
    def winner_ids(self) -> tuple[str, ...]:
        return self.winner.ids

    @property
    def representative(self) -> str:
        """Deterministic single id for scripting: lexicographically smallest."""
        return min(self.winner.ids)

    def to_json(self) -> str:
        """Compact JSON with fixed key order and shortest round-trip numbers.

        The output is byte-identical to ``json.dumps`` of the dict with keys
        method, winner_ids, knee, c_min_mmd, c_min_ws, scores (one
        ``{"id", "mmd", "ws"}`` object per row) and, for dnc, trace (one
        ``{"left", "right", "ip", "winner"}`` object per comparison).
        ``json.dumps`` writes the head; the two long lists are joined from
        ``%``-templates in C, one call per record instead of one dict per
        record, ``_JSON_CHUNK`` rows at a time from the score vectors and
        the comparison columns, so no list of a whole column is built.
        ``%r`` writes a float exactly as ``json.dumps`` does only when it is
        finite, and every value here is: ``Front`` rejects non-finite
        objectives and ``normalize`` a non-finite spread, so each mmd lies
        in [0, N]; a nonzero spread is at least one unit in the last place
        of its column's largest magnitude, so ``|f/L| <= 2**53`` and each ws
        is a sum of N bounded terms; and each trace ip is 100 times the
        difference of two representatives' mmd.
        """
        nf = self.nf
        head = json.dumps(
            {
                "method": self.method,
                "winner_ids": list(self.winner.ids),
                "knee": self.knee.tolist(),
                "c_min_mmd": self.c_min_mmd,
                "c_min_ws": self.c_min_ws,
            }
        )
        ids, mmd, ws = nf.base.ids, nf.mmd_scores, nf.ws_scores
        parts = [head[:-1], ', "scores": [']
        parts += _json_rows(
            _SCORE_JSON,
            len(ids),
            lambda s: zip(map(encode_basestring_ascii, ids[s]), mmd[s].tolist(), ws[s].tolist()),
        )
        if self.comparisons is not None:
            parts.append('], "trace": [')
            columns = self.comparisons
            parts += _json_rows(_RECORD_JSON, len(columns[0]), lambda s: zip(*(c[s] for c in columns)))
        parts.append("]}")
        return "".join(parts)


#: ``json.dumps`` layout of one row's scores and one ``ComparisonRecord``
#: (the id is already encoded).
_SCORE_JSON = '{"id": %s, "mmd": %r, "ws": %r}'
_RECORD_JSON = '{"left": %d, "right": %d, "ip": %r, "winner": %d}'

#: Rows ``Decision.to_json`` formats per string.
_JSON_CHUNK = 1024


def _json_rows(template: str, m: int, rows) -> Iterator[str]:
    """``template % row`` for m rows, ``", "``-joined, as strings of up to
    ``_JSON_CHUNK`` rows and their separators; ``rows(s)`` gives the rows
    of the slice ``s``."""
    for start in range(0, m, _JSON_CHUNK):
        if start:
            yield ", "
        yield ", ".join(map(template.__mod__, rows(slice(start, start + _JSON_CHUNK))))


def build_classes(nf: NormalizedFront, epsilon: float = DEFAULT_EPSILON) -> EquivalenceClasses:
    """Group solutions whose score sums coincide within tolerance.

    Solutions are sorted by Manhattan distance from the ideal vector (ties by
    id) and a new solution joins the current class while its distance stays
    within ``epsilon * max(1, |rep|)`` of the class representative (the
    smallest member).  Anchoring at the representative keeps the relation
    transitive and bounds the spread of any class by one tolerance.
    Clustering on ideal-anchored distances rather than raw weighted sums
    keeps the grouping scale-free when the raw values sit far from zero.

    The rows are put in id order and then sorted stably by distance, which
    orders them by (distance, id); one walk then applies the predicate of
    ``tests/helpers.reference_partition`` row by row.  The sorted row
    positions are kept as the partition's ``rows``.

    Raises InvalidEpsilon unless ``epsilon`` is finite and >= 0.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise InvalidEpsilon(f"epsilon must be finite and >= 0, got {epsilon!r}")
    ids = nf.base.ids
    m = len(ids)
    id_order = np.array(sorted(range(m), key=ids.__getitem__), dtype=np.intp)
    order = id_order[np.argsort(nf.mmd_scores[id_order], kind="stable")]
    d_sorted = nf.mmd_scores[order]
    tol = epsilon * np.maximum(1.0, d_sorted)  # d >= 0, so |d| == d
    d, tol = d_sorted.tolist(), tol.tolist()
    starts = [0]
    rep, rep_tol = d[0], tol[0]
    for k, dk in enumerate(d):
        if dk - rep > rep_tol:
            starts.append(k)
            rep, rep_tol = dk, tol[k]
    rows = order.tolist()
    return EquivalenceClasses(
        tuple(map(ids.__getitem__, rows)),
        tuple(rows),
        (*starts, m),
        tuple(d_sorted[starts].tolist()),
        tuple(nf.ws_scores[order[starts]].tolist()),
        epsilon,
    )


def select_mmd(nf: NormalizedFront, epsilon: float = DEFAULT_EPSILON) -> Decision:
    """Select the class of the row nearest the ideal vector in Manhattan distance."""
    return Decision("mmd", build_classes(nf, epsilon)[0], nf)


def _ws_class_index(nf: NormalizedFront, classes: EquivalenceClasses) -> int:
    """Index of the class holding the weighted-sum minimizer, located from
    the ws scores independently of the partition's mmd order."""
    return bisect_right(classes.starts, classes.rows.index(int(np.argmin(nf.ws_scores)))) - 1


def select_ws(nf: NormalizedFront, epsilon: float = DEFAULT_EPSILON) -> Decision:
    """Select the class of the row with the smallest spread-weighted sum."""
    classes = build_classes(nf, epsilon)
    return Decision("ws", classes[_ws_class_index(nf, classes)], nf)


def _tournament(
    classes: EquivalenceClasses, pairing_seed: int
) -> tuple[int, tuple[array, array, array, array]]:
    """Knockout over the classes in an order shuffled by ``pairing_seed``;
    returns the surviving class index and every comparison made, as the
    columns left, right, ip and winner."""
    alive = list(range(len(classes)))
    random.Random(pairing_seed).shuffle(alive)

    mmd = classes.mmd
    left, right, ips, winners = array("q"), array("q"), array("d"), array("q")
    while len(alive) > 1:
        survivors = []
        for a, b in zip(alive[::2], alive[1::2]):
            ip = 100.0 * (mmd[a] - mmd[b])
            if ip == 0.0:  # distinct classes are separated by construction
                raise EquivalenceViolation(f"tie between distinct classes {a} and {b}")
            winner = b if ip > 0.0 else a
            left.append(a)
            right.append(b)
            ips.append(ip)
            winners.append(winner)
            survivors.append(winner)
        if len(alive) % 2:
            survivors.append(alive[-1])
        alive = survivors
    return alive[0], (left, right, ips, winners)


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
    k, comparisons = _tournament(classes, pairing_seed)
    return Decision("dnc", classes[k], nf, comparisons)


def rank(nf: NormalizedFront, epsilon: float = DEFAULT_EPSILON) -> list[EquivalenceClass]:
    """All equivalence classes, ascending by representative Manhattan
    distance; position 0 is the winner class."""
    return list(build_classes(nf, epsilon))


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-method agreement check over one front.

    ``winners`` maps "mmd", "ws" and "dnc@<seed>" (one per seed, in seed
    order) to the winner ids; ``classes`` is the number of classes in the
    one partition all three rules were applied to.
    """

    passed: bool
    winners: dict[str, tuple[str, ...]]
    offset_gap: float
    issues: tuple[str, ...]
    classes: int

    def raise_if_failed(self) -> None:
        if not self.passed:
            raise EquivalenceViolation("; ".join(self.issues), winners=self.winners)


def verify_equivalence(
    nf: NormalizedFront,
    epsilon: float = DEFAULT_EPSILON,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> EquivalenceReport:
    """Apply the three rules to one partition (the tournament once per seed)
    and check that every winner class is identical and that
    c_min_ws - c_min_mmd equals the ideal offset within tolerance.

    A tie between distinct classes in a tournament raises
    EquivalenceViolation.
    """
    classes = build_classes(nf, epsilon)
    # the tournaments run first, so a tie raises before any other lookup
    dnc = {f"dnc@{seed}": classes[_tournament(classes, seed)[0]].ids for seed in seeds}
    winners = {"mmd": classes[0].ids, "ws": classes[_ws_class_index(nf, classes)].ids, **dnc}
    reference = sorted(winners["mmd"])
    issues = [
        f"{name} winner {sorted(ids)} != mmd winner {reference}"
        for name, ids in winners.items()
        if sorted(ids) != reference
    ]

    c_min_mmd = float(nf.mmd_scores.min())
    c_min_ws = float(nf.ws_scores.min())
    offset = nf.ideal_offset
    gap = abs((c_min_ws - c_min_mmd) - offset)
    if gap > OFFSET_TOL * max(1.0, abs(offset)):
        issues.append(
            f"c_min_ws - c_min_mmd = {c_min_ws - c_min_mmd!r} "
            f"but ideal offset = {offset!r}"
        )
    return EquivalenceReport(
        passed=not issues,
        winners=winners,
        offset_gap=gap,
        issues=tuple(issues),
        classes=len(classes),
    )
