"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from knee_mcdm import (
    FrontSpec,
    build_classes,
    dominance_filter,
    generate,
    normalize,
    random_nondominated_front,
    select_dnc,
    select_mmd,
    select_ws,
)
from knee_mcdm.bench import run_bench

from helpers import (
    brute_force_nondominated,
    expected_selection,
    make_front,
    net_improvement,
)

# Reference MMD / WS columns for the fixed 16-point front (4-decimal table
# values; reproduction tolerance covers the rounding).
TABLE1_MMD = [
    1.1113, 0.8462, 1.1813, 1.7981, 1.6109, 0.8448, 1.8081, 0.9232,
    1.8704, 1.9035, 1.3355, 1.7180, 1.3610, 1.4688, 1.9310, 1.7158,
]
TABLE1_WS = [
    1.1833, 0.9181, 1.2533, 1.8701, 1.6828, 0.9167, 1.8800, 0.9952,
    1.9424, 1.9754, 1.4075, 1.7899, 1.4330, 1.5407, 2.0029, 1.7878,
]

SHAPES = ("convex2d", "concave2d", "line2d", "plane3d", "sphere3d", "disconnected2d")


def _corpus():
    """>= 1000 nondominated fronts: uniform-cube samples (filtered), sphere
    clouds, and shape-family fronts; M <= 64, N <= 6."""
    fronts = []
    for k in range(600):
        m = 4 + k % 61
        n = 2 + k % 5
        rows = np.random.default_rng(10_000 + k).uniform(0.0, 1.0, (m, n))
        front, _ = dominance_filter(make_front(rows))
        fronts.append(front)
    for k in range(300):
        fronts.append(random_nondominated_front(2 + k % 63, 2 + k % 5, seed=20_000 + k))
    for family in SHAPES:
        for seed in range(20):
            fronts.append(
                FrontSpec(family=family, samples=10 + seed, seed=seed)
            )
    return [normalize(f if not isinstance(f, FrontSpec) else generate(f)) for f in fronts]


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_table1_reproduction():
    start = time.perf_counter()
    nf = normalize(generate(FrontSpec(family="table1")))
    mmd = select_mmd(nf)
    ws = select_ws(nf)
    elapsed = time.perf_counter() - start

    mmd_by_id = dict(zip(nf.base.ids, nf.mmd_scores.tolist()))
    ws_by_id = dict(zip(nf.base.ids, nf.ws_scores.tolist()))
    for k in range(16):
        sid = f"x{k + 1}"
        assert abs(mmd_by_id[sid] - TABLE1_MMD[k]) <= 5e-4, sid
        assert abs(ws_by_id[sid] - TABLE1_WS[k]) <= 5e-4, sid
    assert mmd.winner_ids == ("x6",) and ws.winner_ids == ("x6",)
    assert abs(mmd.c_min_mmd - 0.8448) <= 5e-4
    assert abs(ws.c_min_ws - 0.9167) <= 5e-4
    assert elapsed < 1.0
    print(f"PASS: table1 reproduction (all 16 rows within 5e-4, {elapsed:.3f}s)")


def test_three_method_equivalence(corpus):
    start = time.perf_counter()
    assert len(corpus) >= 1000
    seeds = (1, 2, 3, 4)
    for nf in corpus:
        winner = frozenset(select_mmd(nf).winner_ids)
        assert frozenset(select_ws(nf).winner_ids) == winner
        for seed in seeds:
            assert frozenset(select_dnc(nf, pairing_seed=seed).winner_ids) == winner
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"PASS: three-method equivalence on {len(corpus)} fronts x "
        f"{len(seeds)} pairing seeds ({elapsed:.1f}s)"
    )


def test_constant_offset_identity(corpus):
    checked = list(corpus) + [
        normalize(generate(FrontSpec(family="table1"))),
        normalize(generate(FrontSpec(family="table2like"))),
    ]
    worst = 0.0
    for nf in checked:
        decision = select_mmd(nf)
        offset = nf.ideal_offset
        gap = abs((decision.c_min_ws - decision.c_min_mmd) - offset)
        tol = 1e-9 * max(1.0, abs(offset))
        assert gap <= tol
        worst = max(worst, gap / max(1.0, abs(offset)))
    print(
        f"PASS: c_min_ws - c_min_mmd = sum(ell/L) on {len(checked)} fronts "
        f"(worst scaled gap {worst:.2e} <= 1e-9)"
    )


def test_affine_invariance():
    rng = np.random.default_rng(777)
    for k in range(200):
        front = random_nondominated_front(4 + k % 48, 2 + k % 5, seed=30_000 + k)
        nf = normalize(front)
        base = select_mmd(nf)

        a = 10.0 ** rng.uniform(-6.0, 6.0, front.n)
        b = a * rng.uniform(-100.0, 100.0, front.n)
        tnf = normalize(make_front(front.objectives * a + b, ids=front.ids))
        transformed = select_mmd(tnf)

        assert set(transformed.winner_ids) == set(base.winner_ids), k
        np.testing.assert_allclose(
            tnf.mmd_scores, nf.mmd_scores, rtol=1e-9, atol=1e-9
        )
    print("PASS: affine invariance (200 fronts, a in [1e-6, 1e6], 1e-9 relative)")


def test_shape_properties():
    cases = 0
    for family in ("convex2d", "concave2d", "sphere3d", "line2d", "plane3d"):
        expectation = expected_selection(family)
        for seed in range(20):
            front = generate(FrontSpec(family=family, samples=40, seed=seed))
            nf = normalize(front)
            for decision in (
                select_mmd(nf),
                select_ws(nf),
                select_dnc(nf, pairing_seed=1),
                select_dnc(nf, pairing_seed=2),
            ):
                assert expectation.check(front, decision), (
                    family, seed, decision.method, decision.winner_ids
                )
            cases += 1
    print(f"PASS: shape selection properties ({cases} family/seed cases)")


def test_table2_pathology():
    front = generate(FrontSpec(family="table2like"))
    nf = normalize(front)
    decision = select_mmd(nf)
    ws, mmd = nf.ws_scores, nf.mmd_scores
    ws_rel_spread = (ws.max() - ws.min()) / abs(ws.min())
    mmd_span = mmd.max() - mmd.min()
    f1 = front.objectives[:, 0]
    extremes = {
        front.ids[int(np.argmin(f1))],
        front.ids[int(np.argmax(f1))],
    }
    assert ws_rel_spread < 1e-6
    assert mmd_span >= 0.5
    assert not (set(decision.winner_ids) & extremes)
    print(
        f"PASS: scale pathology (ws relative spread {ws_rel_spread:.1e} < 1e-6, "
        f"mmd span {mmd_span:.3f} >= 0.5, interior winner {decision.winner_ids})"
    )


def test_dnc_algebra(corpus):
    # exact antisymmetry and reflexivity over 1e5 random pairs
    nf = normalize(random_nondominated_front(64, 6, seed=555))
    ids = nf.base.ids
    rng = np.random.default_rng(556)
    pairs = rng.integers(0, len(ids), size=(100_000, 2))
    for i, j in pairs:
        assert net_improvement(nf, ids[i], ids[j]) == -net_improvement(nf, ids[j], ids[i])
    for sid in ids:
        assert net_improvement(nf, sid, sid) == 0.0

    # knockout bookkeeping: exactly classes-1 comparisons, every run
    for nf_k in corpus[::10]:
        decision = select_dnc(nf_k, pairing_seed=3)
        assert len(decision.trace) == len(build_classes(nf_k)) - 1

    # pairing order never changes the winner on the fixed 16-point front
    table1 = normalize(generate(FrontSpec(family="table1")))
    winners = {select_dnc(table1, pairing_seed=s).winner_ids for s in range(16)}
    assert winners == {("x6",)}
    print(
        "PASS: tournament algebra (1e5 exact antisymmetry pairs, "
        "trace length = classes-1, 16-seed order independence)"
    )


def test_timing_trend():
    start = time.perf_counter()
    report = run_bench(scale=1.0)
    elapsed = time.perf_counter() - start

    c2 = [r for r in report.rows if r.category == "C2"]
    assert [r.m for r in c2] == [25, 50, 100, 200]
    for row in c2:
        assert row.mean["dnc"] >= row.mean["mmd"], row
    dnc_means = [r.mean["dnc"] for r in c2]
    assert all(a <= b for a, b in zip(dnc_means, dnc_means[1:])), dnc_means
    for row in c2:
        assert max(row.mean["mmd"], row.mean["ws"]) <= 5.0 * min(
            row.mean["mmd"], row.mean["ws"]
        ), row
    assert elapsed < 60.0
    ratios = [r.mean["dnc"] / r.mean["mmd"] for r in c2]
    print(
        f"PASS: timing trend (dnc/mmd mean ratios "
        f"{[f'{x:.1f}' for x in ratios]} at M=25..200, {elapsed:.1f}s)"
    )


def test_dominance_filter_matches_oracle():
    instances = 0
    for k in range(500):
        m = 1 + k % 64
        n = 2 + k % 5
        rng = np.random.default_rng(40_000 + k)
        rows = rng.uniform(0.0, 1.0, (m, n))
        if k % 3 == 0:
            rows = np.round(rows, 1)  # force ties and duplicates
        kept, removed = dominance_filter(make_front(rows))
        oracle = brute_force_nondominated(rows.tolist())
        assert [int(s[1:]) for s in kept.ids] == oracle, k
        assert len(kept.ids) + len(removed) == m
        instances += 1
    print(f"PASS: dominance filter matches brute-force oracle ({instances} instances)")
