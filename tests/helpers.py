"""Shared test utilities: front construction and independent oracles."""

import csv
import io
import json

import numpy as np

from knee_mcdm import EmptyFront, Front, KneeMCDMError, ParseError
from knee_mcdm.front import _assemble


def make_front(rows, ids=None, names=None, senses=None):
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    return Front(
        objective_names=tuple(names) if names else tuple(f"f{k + 1}" for k in range(n)),
        senses=tuple(senses) if senses else ("min",) * n,
        ids=tuple(ids) if ids else tuple(f"p{k}" for k in range(m)),
        objectives=rows,
    )


def brute_force_nondominated(rows):
    """Indices of nondominated rows by exhaustive pairwise comparison.

    Pure-python reference implementation, kept independent of the library's
    vectorized filter.
    """
    keep = []
    for i, fi in enumerate(rows):
        dominated = False
        for j, fj in enumerate(rows):
            if i == j:
                continue
            if all(a <= b for a, b in zip(fj, fi)) and any(
                a < b for a, b in zip(fj, fi)
            ):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


def reference_partition(nf, epsilon):
    """Equivalence classes as ``(ids, mmd, ws)`` tuples by a per-row walk.

    Pure-python reference for the library's partition: rows sorted by
    (Manhattan distance, id); a row joins the current class while its
    distance stays within ``epsilon * max(1, |rep|)`` of the class's first
    member.
    """
    d = nf.mmd_scores
    ws = nf.ws_scores
    ids = nf.base.ids
    order = sorted(range(len(ids)), key=lambda k: (d[k], ids[k]))
    classes = []
    members = []
    rep = 0.0
    for k in order:
        if members and d[k] - rep <= epsilon * max(1.0, abs(rep)):
            members.append(k)
            continue
        if members:
            classes.append(members)
        members = [k]
        rep = float(d[k])
    classes.append(members)
    return [
        (tuple(ids[k] for k in members), float(d[members[0]]), float(ws[members[0]]))
        for members in classes
    ]


class DegenerateDimension(KneeMCDMError):
    """Requested a per-dimension quantity on a zero-spread dimension."""


class UnknownId(KneeMCDMError):
    """Requested a solution id the front does not hold."""


def _row(nf, solution_id):
    """Row position of ``solution_id``, found by scanning ``nf.base.ids``."""
    try:
        return nf.base.ids.index(solution_id)
    except ValueError:
        raise UnknownId(f"unknown solution id {solution_id!r}") from None


def improvement_percentage(nf, i, j, dim):
    """Percent improvement in one dimension when moving from solution i to j.

    The paper's pairwise definition, kept as an oracle for the score vector:
    ``dim`` is a zero-based column index; positive when j is better (smaller)
    in that dimension; measured relative to the dimension's spread.
    """
    if dim in nf.degenerate_dims:
        raise DegenerateDimension(f"dimension {dim} has zero spread; improvement undefined")
    dev = nf.deviations
    return 100.0 * (dev[_row(nf, i), dim] - dev[_row(nf, j), dim])


def net_improvement(nf, i, j):
    """Net improvement percentage of the transition i -> j over all dimensions.

    Computed as the difference of the two per-solution score sums, so the
    value is exactly antisymmetric and exactly zero for i == j.
    """
    d = nf.mmd_scores
    return 100.0 * (d[_row(nf, i)] - d[_row(nf, j)])


def reference_load_csv(text: str, overrides=None) -> Front:
    """CSV front by a per-row loop that converts and checks each row in turn.

    Reference for ``load_front(text, format="csv", senses=overrides)``: the
    fronts and the error messages must be the same.
    """
    # universal newlines, as a file opened in text mode reads them
    lines = io.StringIO(text, newline=None)
    try:
        rows = [
            row
            for row in csv.reader(line for line in lines if not line.lstrip().startswith("#"))
            if row
        ]
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}") from None
    if not rows:
        raise EmptyFront("no header line")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != "id":
        raise ParseError("first CSV column must be 'id'")
    names = header[1:]
    if len(names) < 2:
        raise ParseError("need at least 2 objective columns")
    if not rows[1:]:
        raise EmptyFront("no solution rows")

    ids = []
    values = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(
                f"row {row[0] if row else '?'!r}: expected {len(header)} cells, got {len(row)}"
            )
        ids.append(row[0].strip())
        try:
            values.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise ParseError(f"row {row[0]!r}: {exc}") from None
    return _assemble(names, None, overrides, ids, np.array(values), None)


#: Python types ``json`` gives JSON numbers; bool, a subclass of int, is excluded.
_NUMBER_TYPES = frozenset((int, float))


def reference_load_json(text: str, overrides=None) -> Front:
    """JSON front by a per-record loop that checks and converts each record
    in turn.

    Reference for ``load_front(text, format="json", senses=overrides)``: the
    fronts and the error messages must be the same.
    """
    try:
        doc = json.loads(text)
    # ValueError covers JSONDecodeError and integer literals over the digit limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
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

    ids, values, xs = [], [], []
    for rec in solutions:
        try:
            sid = rec["id"]
            f = rec["f"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad solution record: {exc}") from None
        # bool is a subclass of int, but not an id
        if type(sid) is not str and type(sid) is not int:
            raise ParseError(f"solution id must be a string or an integer, got {sid!r}")
        ids.append(str(sid))
        if not isinstance(f, list) or len(f) != len(names):
            raise ParseError(f"solution {ids[-1]!r}: expected {len(names)} objective values")
        x = rec.get("x")
        if x is not None and not isinstance(x, list):
            raise ParseError(f'solution {ids[-1]!r}: "x" must be a list')
        # float() would also read "1_0" as 10.0 and true as 1.0
        if not _NUMBER_TYPES.issuperset(map(type, f)) or (
            x is not None and not _NUMBER_TYPES.issuperset(map(type, x))
        ):
            raise ParseError(f"solution {ids[-1]!r}: values must be JSON numbers")
        try:
            values.append(list(map(float, f)))
            xs.append(None if x is None else tuple(map(float, x)))
        except OverflowError as exc:  # an integer beyond the float range
            raise ParseError(f"solution {ids[-1]!r}: {exc}") from None
    senses = doc.get("senses")
    if senses is not None and not isinstance(senses, list):
        raise ParseError(f'"senses" must be a list, got {senses!r}')
    decision = None if all(x is None for x in xs) else tuple(xs)
    return _assemble(names, senses, overrides, ids, np.array(values), decision)
