"""Front data model: ingestion, validation, dominance filtering, normalization.

A front is a finite set of candidate solutions with one row of objective
values each.  All values are stored in minimization form; columns declared
"max" are negated once at load time and the declared senses are kept as
provenance.  Normalization divides each column by its spread (max - min),
which makes per-column deviations from the column minimum dimensionless and
confined to [0, 1].

``load_front`` reads a CSV front in one pass, converting the rows as the
reader yields them and raising the error of the first bad header or row from
that pass.  A JSON front is converted in one pass over its solution records,
each checked as it is converted, so the first bad record raises its own
error.
"""

from __future__ import annotations

import csv
import io
import json
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import (
    AllDimensionsDegenerate,
    DegenerateSpreadWarning,
    DuplicateId,
    EmptyFront,
    KneeMCDMError,
    NonFiniteValue,
    ParseError,
    SpreadOverflow,
)

SENSE_MIN = "min"
SENSE_MAX = "max"
_SENSE_ALIASES = {
    "min": SENSE_MIN,
    "minimize": SENSE_MIN,
    "minimise": SENSE_MIN,
    "max": SENSE_MAX,
    "maximize": SENSE_MAX,
    "maximise": SENSE_MAX,
}


def negate_max_columns(values: np.ndarray, senses: Sequence[str]) -> np.ndarray:
    """Negate, in place, the columns of ``values`` whose sense is "max" and
    return ``values``.  Negation is its own inverse, so this turns input rows
    into minimization form and stored rows back into input form."""
    flip = [k for k, s in enumerate(senses) if s == SENSE_MAX]
    if flip:
        values[:, flip] = -values[:, flip]
    return values


def _canonical_sense(value: str) -> str:
    try:
        return _SENSE_ALIASES[str(value).strip().lower()]
    except KeyError:
        raise ParseError(f"unknown sense {value!r} (expected 'min' or 'max')") from None


@dataclass(frozen=True, eq=False)
class Front:
    """M solutions by N objectives, minimization form, immutable.

    Fields:
        objective_names: N column labels.
        senses: original orientation of each column ("min" or "max");
            values in ``objectives`` are already negated for "max" columns.
        ids: M unique solution ids, in input order.
        objectives: read-only (M, N) float array.
        decision_vectors: optional per-solution decision-variable payloads,
            aligned with ``ids``; entries may be None, and a tuple of only
            None entries is stored as None.
    """

    objective_names: tuple[str, ...]
    senses: tuple[str, ...]
    ids: tuple[str, ...]
    objectives: np.ndarray
    decision_vectors: tuple[tuple[float, ...] | None, ...] | None = None

    def __post_init__(self):
        xs = self.decision_vectors
        if xs is not None:
            xs = tuple(None if x is None else tuple(float(v) for v in x) for x in xs)
        self._check_and_set(
            tuple(str(n) for n in self.objective_names),
            tuple(_canonical_sense(s) for s in self.senses),
            tuple(str(i) for i in self.ids),
            np.array(self.objectives, dtype=float),
            xs,
        )

    @classmethod
    def _trusted(cls, names, senses, ids, objectives, decision_vectors) -> "Front":
        """A front from values that are already converted: str names and ids,
        canonical senses, a float array (kept, not copied, and made
        read-only) and tuple-of-float decision vectors.  Runs every check
        the public constructor runs."""
        front = object.__new__(cls)
        front._check_and_set(names, senses, ids, objectives, decision_vectors)
        return front

    def _check_and_set(self, names, senses, ids, f, xs) -> None:
        if f.ndim != 2:
            raise ParseError(f"objective matrix must be 2-D, got shape {f.shape}")
        m, n = f.shape
        if m < 1:
            raise EmptyFront("front has no solutions")
        if n < 2:
            raise ParseError(f"need at least 2 objectives, got {n}")
        if len(names) != n:
            raise ParseError(f"{len(names)} objective names for {n} columns")
        if "" in names:
            raise ParseError(f"empty objective name in {names}")
        if len(set(names)) != n:
            raise ParseError(f"duplicate objective name in {names}")
        if len(senses) != n:
            raise ParseError(f"{len(senses)} senses for {n} columns")
        if len(ids) != m:
            raise ParseError(f"{len(ids)} ids for {m} rows")

        unique = set(ids)
        if len(unique) != m or "" in unique:
            # walk the ids only to name the first culprit
            seen: set[str] = set()
            for sid in ids:
                if not sid:
                    raise ParseError("empty solution id")
                if sid in seen:
                    raise DuplicateId(sid)
                seen.add(sid)

        bad = ~np.isfinite(f)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise NonFiniteValue(ids[row], names[col])

        if xs is not None:
            if len(xs) != m:
                raise ParseError(f"{len(xs)} decision vectors for {m} rows")
            if xs.count(None) == m:
                xs = None

        f.flags.writeable = False
        object.__setattr__(self, "objective_names", names)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "objectives", f)
        object.__setattr__(self, "decision_vectors", xs)

    @property
    def m(self) -> int:
        return self.objectives.shape[0]

    @property
    def n(self) -> int:
        return self.objectives.shape[1]

    def take(self, indices: Sequence[int]) -> "Front":
        """Sub-front with the given rows, keeping names and senses."""
        idx = list(indices)
        xs = None
        if self.decision_vectors is not None:
            xs = tuple(self.decision_vectors[k] for k in idx)
        return Front._trusted(
            self.objective_names,
            self.senses,
            tuple(self.ids[k] for k in idx),
            self.objectives[idx],
            xs,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Front):
            return NotImplemented
        return (
            self.objective_names == other.objective_names
            and self.senses == other.senses
            and self.ids == other.ids
            and np.array_equal(self.objectives, other.objectives)
            and self.decision_vectors == other.decision_vectors
        )


@dataclass(frozen=True, eq=False)
class NormalizedFront:
    """A front together with its per-column spreads and normalized image.

    Fields:
        base: the source front.
        L: per-column spreads, max - min (problem units).
        ell: per-column minima (problem units).
        y: (M, N) normalized values f/L; zero on degenerate columns.
        y_opt: normalized ideal vector ell/L; zero on degenerate columns.
        degenerate_dims: indices of columns with zero spread.  They carry no
            preference information and contribute 0 to every score.
    """

    base: Front
    L: np.ndarray
    ell: np.ndarray
    y: np.ndarray
    y_opt: np.ndarray
    degenerate_dims: frozenset[int]

    @cached_property
    def deviations(self) -> np.ndarray:
        """(M, N) matrix of (f - ell)/L, 0 on degenerate columns.

        Computed from raw values rather than as y - y_opt: subtracting the
        stored column minimum before dividing keeps the entries accurate when
        the raw values are offset far from zero.
        """
        scale = np.where(self.L > 0.0, self.L, 1.0)
        dev = (self.base.objectives - self.ell) / scale
        if self.degenerate_dims:
            dev[:, sorted(self.degenerate_dims)] = 0.0
        dev.flags.writeable = False
        return dev

    @cached_property
    def mmd_scores(self) -> np.ndarray:
        """Manhattan distance of each normalized row from the ideal vector."""
        d = self.deviations.sum(axis=1)
        d.flags.writeable = False
        return d

    @cached_property
    def ws_scores(self) -> np.ndarray:
        """Spread-reciprocal weighted sum of each row (sum of f/L)."""
        s = self.y.sum(axis=1)
        s.flags.writeable = False
        return s

    @property
    def ideal_offset(self) -> float:
        """Sum of ell/L over non-degenerate dimensions; the constant by which
        weighted sums exceed Manhattan distances."""
        return float(self.y_opt.sum())


def normalize(front: Front) -> NormalizedFront:
    """Compute spreads, minima, normalized matrix and ideal vector.

    Columns with zero spread are flagged degenerate: their normalized values
    are set to 0 so they contribute nothing to any score, and a
    DegenerateSpreadWarning is issued.  Raises AllDimensionsDegenerate when
    several solutions coincide in every objective (a single-solution front is
    allowed and trivially selects itself), and SpreadOverflow when a column's
    spread exceeds the float range.
    """
    f = front.objectives
    ell = f.min(axis=0)
    with np.errstate(over="ignore"):
        L = f.max(axis=0) - ell
    overflow = np.flatnonzero(~np.isfinite(L))
    if len(overflow):
        raise SpreadOverflow(
            f"spread (max - min) of objective {front.objective_names[overflow[0]]!r} "
            "overflows the float range"
        )
    degenerate = np.flatnonzero(L == 0.0)

    if len(degenerate) == front.n and front.m > 1:
        raise AllDimensionsDegenerate(
            "all objectives have zero spread; solutions are indistinguishable"
        )
    if len(degenerate) and front.m > 1:
        names = ", ".join(front.objective_names[k] for k in degenerate)
        warnings.warn(
            f"zero-spread objective(s) excluded from scoring: {names}",
            DegenerateSpreadWarning,
            stacklevel=2,
        )

    scale = np.where(L > 0.0, L, 1.0)
    y = f / scale
    y_opt = ell / scale
    if len(degenerate):
        y[:, degenerate] = 0.0
        y_opt[degenerate] = 0.0

    for arr in (ell, L, y, y_opt):
        arr.flags.writeable = False
    return NormalizedFront(
        base=front,
        L=L,
        ell=ell,
        y=y,
        y_opt=y_opt,
        degenerate_dims=frozenset(int(k) for k in degenerate),
    )


#: Rows per block in ``dominance_filter``.  The Python loop runs once per
#: block, and one block's test allocates O(block * (K + block)) booleans for K
#: rows kept so far.
_FILTER_BLOCK = 64

#: Rows in ``dominance_filter``'s elimination window.  Each one costs a
#: vectorised O(M * N) test before the walk.
_FILTER_WINDOW = 16


def _filter_window(lines: np.ndarray) -> np.ndarray:
    """Positions of the ``_FILTER_WINDOW`` rows (all rows if fewer) with the
    smallest sum of spread-normalised values, given one line per column."""
    score = np.zeros(lines.shape[1])
    for line in lines:
        half = line * 0.5  # halves of finite floats: max - min cannot overflow
        low = half.min()
        spread = half.max() - low
        if spread > 0.0:
            half -= low
            half /= spread  # in [0, 1]
            score += half
    return np.argpartition(score, min(len(score), _FILTER_WINDOW) - 1)[:_FILTER_WINDOW]


def _window_survivors(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``f`` that no window row dominates, lexsorted with column 0
    as the primary key: their input positions and one contiguous line per
    column."""
    lines = np.ascontiguousarray(f.T)
    left = np.arange(len(f))  # input position of each row still in ``lines``
    for w in f[_filter_window(lines)]:
        # rows w dominates: >= w in every column and > w in at least one
        ge = lines[0] >= w[0]
        gt = lines[0] > w[0]
        for line, value in zip(lines[1:], w[1:]):
            ge &= line >= value
            gt |= line > value
        ge &= gt
        if ge.any():
            keep = ~ge
            lines = lines.compress(keep, axis=1)  # stays one contiguous line per column
            left = left[keep]
    order = np.lexsort(lines[::-1])
    return left[order], lines.take(order, axis=1)


def dominance_filter(front: Front) -> tuple[Front, list[str]]:
    """Drop every solution dominated by another one.

    A row is dominated when some other row is <= in every column and < in at
    least one.  Exact duplicates dominate nothing and are all kept.  Returns
    the surviving sub-front (input order preserved) and the removed ids in
    input order.

    Elimination window (LESS: Godfrey, Shipley & Gryz, VLDB 2005): the
    ``_FILTER_WINDOW`` rows with the smallest sum of spread-normalised
    values are likely to dominate many rows, so first every row that one of
    them dominates is removed, one vectorised test per window row.  The
    output does not depend on which rows form the window: a row is removed
    only when a row of the front dominates it, no nondominated row can be
    removed, and a dominated row that survives is still dominated by some
    nondominated row, which survives too.  A duplicate of a surviving row
    survives with it, since the same window rows dominate both.

    Sort-then-archive (Kung, Luccio & Preparata, JACM 1975) over the
    survivors: the rows are lexsorted with column 0 as the primary key, so
    every dominator sorts strictly before the rows it dominates and exact
    duplicates form one run of adjacent sorted rows.  The sorted rows are
    walked in blocks of ``_FILTER_BLOCK``.  Each block is tested in one
    vectorised step against the candidates: the archive of kept rows found
    so far plus the block itself.  Testing against kept rows alone
    suffices: dominance is transitive, so every dominated row is also
    dominated by a kept row sorted before it.

    A candidate dominates a block row exactly when it is <= in every column
    and sorts before the row's duplicate run: a row that is <= everywhere
    and not equal sorts strictly before, and a row before the run is not a
    duplicate.  Candidates keep their sorted order, so those sorted before
    the run are a prefix of the candidate list, found by one
    ``searchsorted`` per block, and a block row is dominated when its first
    <= candidate lies in that prefix.  Every candidate in the prefix is
    <= in column 0 by the sort, so the <= test runs over columns 1..N-1
    only; nothing is done per pair beyond that test.

    Cost: O(M * W * N + M' log M' + M' * K * (N - 1)) time for window size
    W, M' rows left by the window and K kept rows, and O(M * N + B * (K + B))
    memory for block size B, against O(M^2 * N) for both when every pair is
    compared at once.
    """
    order, rows = _window_survivors(front.objectives)
    n, m = rows.shape
    # first[p]: the sorted position where the run of rows equal to row p begins
    run_start = np.ones(m, dtype=bool)
    run_start[1:] = (rows[:, 1:] != rows[:, :-1]).any(axis=0)
    first = np.maximum.accumulate(np.where(run_start, np.arange(m), 0))
    archive = np.empty_like(rows)
    pos = np.empty(m, dtype=np.intp)  # sorted position of each archived row
    kept = 0
    dominated = np.ones(front.m, dtype=bool)  # rows the window removed stay True
    for start in range(0, m, _FILTER_BLOCK):
        block = rows[:, start : start + _FILTER_BLOCK]
        size = block.shape[1]
        block_pos = np.arange(start, start + size)
        archive[:, kept : kept + size] = block
        pos[kept : kept + size] = block_pos
        cand = archive[:, : kept + size]
        # le[b, c]: candidate c <= block row b in columns 1..N-1
        le = cand[1] <= block[1][:, None]
        for col in range(2, n):
            le &= cand[col] <= block[col][:, None]
        # candidates sorted before row b's duplicate run; le[b, b] is true
        limit = np.searchsorted(pos[: kept + size], first[start : start + size])
        lost = le.argmax(axis=1) < limit
        survivors = ~lost
        gained = int(survivors.sum())
        archive[:, kept : kept + gained] = block[:, survivors]
        pos[kept : kept + gained] = block_pos[survivors]
        kept += gained
        dominated[order[start : start + size]] = lost
    keep = np.flatnonzero(~dominated)
    removed = [front.ids[k] for k in np.flatnonzero(dominated)]
    return front.take(keep), removed


def _resolve_senses(
    names: Sequence[str],
    file_senses: Sequence[str] | None,
    overrides: Mapping[str, str] | Sequence[str] | None,
) -> tuple[str, ...]:
    senses = [SENSE_MIN] * len(names)
    if file_senses is not None:
        if len(file_senses) != len(names):
            raise ParseError(
                f"{len(file_senses)} senses for {len(names)} objectives"
            )
        senses = [_canonical_sense(s) for s in file_senses]
    if overrides is None:
        return tuple(senses)
    if isinstance(overrides, Mapping):
        index = {name: k for k, name in enumerate(names)}
        for name, sense in overrides.items():
            if name not in index:
                raise ParseError(f"sense override for unknown objective {name!r}")
            senses[index[name]] = _canonical_sense(sense)
        return tuple(senses)
    if len(overrides) != len(names):
        raise ParseError(f"{len(overrides)} sense overrides for {len(names)} objectives")
    return tuple(_canonical_sense(s) for s in overrides)


def _as_text(source: IO | str | bytes) -> str:
    data = source if isinstance(source, (str, bytes)) else source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from None
    # one leading byte order mark, as spreadsheet exports write it
    return data.removeprefix("\ufeff")


def load_front(
    source: IO | str | bytes,
    format: str = "csv",
    senses: Mapping[str, str] | Sequence[str] | None = None,
) -> Front:
    """Read a front from a CSV or JSON stream (or in-memory text/bytes).

    CSV: header line ``id,<name1>,...,<nameN>``, one row per solution,
    ``#`` comment lines ignored.  JSON: an object with "objectives",
    optional "senses", and "solutions" records carrying "id", "f" and an
    optional "x".

    ``senses`` optionally overrides column orientation, either as a mapping
    from objective name to sense or as a full per-column sequence.  Columns
    whose resolved sense is "max" are negated so that every stored column is
    minimized; row order is preserved.
    """
    if format == "csv":
        return _load_csv(source, senses)
    if format == "json":
        return _load_json(source, senses)
    raise ParseError(f"unknown front format {format!r}")


def _load_csv(source: IO | str | bytes, overrides) -> Front:
    """CSV front, converted in one pass as ``csv.reader`` yields its rows.

    ``_csv_columns`` reads one encoded copy of the input and raises the
    error of the first bad header or row.
    """
    # surrogatepass keeps a lone surrogate of a str input, for _assemble to report
    data = _as_text(source).encode("utf-8", "surrogatepass")
    names, ids, values = _csv_columns(data)
    del data  # Front's checks run without the input text
    return _assemble(names, None, overrides, ids, values, None)


def _csv_columns(data: bytes):
    """Objective names, ids and the (M, N) objective matrix of the CSV text
    that ``data`` encodes.

    The rows are converted as ``csv.reader`` yields them: one pass checks
    each row's cell count, collects its id and feeds its objective cells
    into a single ``np.fromiter(map(float, ...))``.  So the pass keeps the
    floats, the ids and the encoded input, never a list of cell strings.
    A bad header or row stops the conversion, but its error is raised only
    after the reader has read the rest of the input: a CSV syntax error
    anywhere comes first.

    The lines come from a text wrapper over the encoded bytes, which reads
    universal newlines as ``io.StringIO(text, newline=None)`` does, without
    its buffer of four bytes per character.
    """
    lines = io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogatepass", newline=None
    )
    rows = filter(None, csv.reader(line for line in lines if not line.lstrip().startswith("#")))
    ids: list[str] = []
    row: list[str] = []  # the row being converted, for a conversion error to name
    try:
        try:
            header = [cell.strip() for cell in next(rows, ())]
            if not header:
                raise EmptyFront("no header line")
            if header[0] != "id":
                raise ParseError("first CSV column must be 'id'")
            names = header[1:]
            if len(names) < 2:
                raise ParseError("need at least 2 objective columns")
            width = len(header)

            def objective_cells():
                nonlocal row
                for row in rows:
                    if len(row) != width:
                        raise ParseError(
                            f"row {row[0]!r}: expected {width} cells, got {len(row)}"
                        )
                    ids.append(row[0].strip())
                    yield row[1:]

            try:
                values = np.fromiter(map(float, chain.from_iterable(objective_cells())), float)
            except ValueError as exc:
                raise ParseError(f"row {row[0]!r}: {exc}") from None
            if not ids:
                raise EmptyFront("no solution rows")
        except KneeMCDMError:
            for _ in rows:  # read on: a later CSV syntax error comes first
                pass
            raise
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}") from None
    return names, ids, values.reshape(len(ids), len(names))


#: Python types ``json`` gives JSON numbers; bool, a subclass of int, is excluded.
_NUMBER_TYPES = frozenset((int, float))
#: Python types of a JSON solution id; an integer id is read as its text.
_ID_TYPES = frozenset((str, int))
#: Python types of a JSON "x" value, absent or null counting as None.
_X_TYPES = frozenset((list, type(None)))


def _load_json(source: IO | str | bytes, overrides) -> Front:
    text = _as_text(source)
    try:
        doc = json.loads(text)
    # ValueError covers JSONDecodeError and integer literals over the digit limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    del text  # the record pass runs without the input text
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        names = doc["objectives"]
        solutions = doc["solutions"]
    except KeyError as exc:
        raise ParseError(f"missing front field: {exc}") from None
    if not isinstance(names, list) or set(map(type, names)) - {str}:
        raise ParseError(f'"objectives" must be a list of strings, got {names!r}')
    if len(names) < 2:
        raise ParseError("need at least 2 objectives")
    if not isinstance(solutions, list) or not solutions:
        raise EmptyFront("no solution records")

    ids, values, decision = _json_records(solutions, len(names))
    senses = doc.get("senses")
    if senses is not None and not isinstance(senses, list):
        raise ParseError(f'"senses" must be a list, got {senses!r}')
    return _assemble(names, senses, overrides, ids, values, decision)


def _json_records(solutions: list, n: int):
    """Ids, the (M, n) objective matrix and the decision vectors of the
    solution records.

    The records are converted as they are checked: one pass checks each
    record, collects its id and decision vector and feeds its objective
    values into a single ``np.fromiter(map(float, ...))``, so the first bad
    record stops the pass with its own error.
    """
    ids: list[str] = []
    xs: list[tuple[float, ...] | None] = []

    def objective_values():
        for rec in solutions:
            try:
                sid = rec["id"]
                f = rec["f"]
            except (KeyError, TypeError) as exc:
                raise ParseError(f"bad solution record: {exc}") from None
            if type(sid) not in _ID_TYPES:
                raise ParseError(f"solution id must be a string or an integer, got {sid!r}")
            ids.append(str(sid))
            if type(f) is not list or len(f) != n:
                raise ParseError(f"solution {ids[-1]!r}: expected {n} objective values")
            x = rec.get("x")
            if type(x) not in _X_TYPES:
                raise ParseError(f'solution {ids[-1]!r}: "x" must be a list')
            x_types = set(map(type, x or ()))
            # float() would also read "1_0" as 10.0 and true as 1.0
            if not (_NUMBER_TYPES.issuperset(map(type, f)) and _NUMBER_TYPES.issuperset(x_types)):
                raise ParseError(f"solution {ids[-1]!r}: values must be JSON numbers")
            if x is not None:
                # float() returns a float unchanged, so only an int needs converting
                x = tuple(map(float, x)) if int in x_types else tuple(x)
            # before the yield: np.fromiter stops at its count, never resuming this
            xs.append(x)
            yield f

    try:
        values = np.fromiter(
            map(float, chain.from_iterable(objective_values())), float, len(solutions) * n
        )
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError(f"solution {ids[-1]!r}: {exc}") from None
    return ids, values.reshape(len(ids), n), tuple(xs)


#: Code points a str can hold but UTF-8 cannot encode; a JSON ``\ud800``
#: escape gives one, and no UTF-8 writer could print it back.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _assemble(names, file_senses, overrides, ids, values, decision) -> Front:
    for kind, texts in (("objective name", names), ("solution id", ids)):
        if _LONE_SURROGATE.search("".join(texts)):
            culprit = next(filter(_LONE_SURROGATE.search, texts))
            raise ParseError(f"{kind} {culprit!r} holds a lone surrogate, not UTF-8 text")
    senses = _resolve_senses(names, file_senses, overrides)
    negate_max_columns(values, senses)  # values is the loader's own array
    return Front._trusted(tuple(names), senses, tuple(ids), values, decision)


def write_front(front: Front, stream: IO, format: str = "csv") -> None:
    """Write a front so that loading the output reproduces it.

    JSON keeps full fidelity: "max" columns are written back in their
    original orientation together with the senses, and decision vectors are
    included.  CSV carries only ids and objective values; they are written in
    minimization form, so reloading with default senses reproduces the stored
    matrix (sense provenance and decision vectors do not fit the CSV schema).
    Commas and quotes are quoted.  The CSV loader strips cells, skips lines
    starting with ``#`` and reads a carriage return as a line break, so CSV
    raises ParseError, before writing anything, for an id or objective name
    with leading or trailing whitespace or a line break, and for an id
    starting with ``#``; JSON carries them.
    """
    if format == "csv":
        _write_csv(front, stream)
    elif format == "json":
        _write_json(front, stream)
    else:
        raise ParseError(f"unknown front format {format!r}")


def _csv_unsafe(text: str) -> bool:
    """True if the CSV loader would read ``text`` back as other text."""
    return text != text.strip() or "\n" in text or "\r" in text


def _write_csv(front: Front, stream: IO) -> None:
    bad = [("objective name", name) for name in front.objective_names if _csv_unsafe(name)]
    bad += [("solution id", sid) for sid in front.ids if _csv_unsafe(sid) or sid.startswith("#")]
    if bad:
        raise ParseError("CSV cannot carry the %s %r; write JSON instead" % bad[0])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["id", *front.objective_names])
    for sid, row in zip(front.ids, front.objectives.tolist()):
        writer.writerow([sid, *map(repr, row)])


def _write_json(front: Front, stream: IO) -> None:
    values = negate_max_columns(front.objectives.copy(), front.senses)
    solutions = []
    for k, sid in enumerate(front.ids):
        rec: dict = {"id": sid, "f": [float(v) for v in values[k]]}
        if front.decision_vectors is not None and front.decision_vectors[k] is not None:
            rec["x"] = list(front.decision_vectors[k])
        solutions.append(rec)
    json.dump(
        {
            "objectives": list(front.objective_names),
            "senses": list(front.senses),
            "solutions": solutions,
        },
        stream,
        indent=2,
    )
    stream.write("\n")
