"""Shared test utilities: front construction and independent oracles."""

import numpy as np

from knee_mcdm import Front


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
