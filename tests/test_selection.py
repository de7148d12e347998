import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knee_mcdm import (
    AllDimensionsDegenerate,
    DegenerateSpreadWarning,
    EquivalenceViolation,
    InvalidEpsilon,
    build_classes,
    load_front,
    normalize,
    rank,
    select_dnc,
    select_mmd,
    select_ws,
    verify_equivalence,
)
from knee_mcdm.generators import (
    TABLE1_ROWS,
    FrontSpec,
    generate,
    random_nondominated_front,
)

from helpers import (
    DegenerateDimension,
    UnknownId,
    improvement_percentage,
    make_front,
    net_improvement,
    reference_partition,
)


@pytest.fixture(scope="module")
def table1_nf():
    return normalize(generate(FrontSpec(family="table1")))


def _random_nf(m, n, seed):
    return normalize(random_nondominated_front(m, n, seed))


# --------------------------------------------------- improvement algebra

def test_ip_self_transition_is_zero(table1_nf):
    for dim in range(5):
        assert improvement_percentage(table1_nf, "x3", "x3", dim) == 0.0


def test_ip_table1_x1_to_x2_dim5(table1_nf):
    # direct subtraction of the last-column values: 100*(1.0080 - 0.7508)
    assert improvement_percentage(table1_nf, "x1", "x2", 4) == pytest.approx(
        25.72, abs=1e-3
    )


def test_ip_antisymmetric_on_random_pairs():
    nf = _random_nf(30, 4, seed=1)
    rng = np.random.default_rng(2)
    ids = nf.base.ids
    for _ in range(200):
        i, j = rng.choice(len(ids), 2)
        dim = int(rng.integers(0, 4))
        assert improvement_percentage(nf, ids[i], ids[j], dim) == -improvement_percentage(
            nf, ids[j], ids[i], dim
        )


def test_ip_unknown_id_and_degenerate_dimension(table1_nf):
    with pytest.raises(UnknownId):
        improvement_percentage(table1_nf, "x1", "nope", 0)
    front = make_front([[1.0, 5.0], [1.0, 2.0]])
    with pytest.warns(DegenerateSpreadWarning):
        nf = normalize(front)
    with pytest.raises(DegenerateDimension):
        improvement_percentage(nf, "p0", "p1", 0)


def test_net_improvement_table1_x1_to_x2(table1_nf):
    # 100 * (1.1833 - 0.9181) from the weighted-sum column, table rounding
    assert net_improvement(table1_nf, "x1", "x2") == pytest.approx(26.52, abs=0.02)


def test_net_improvement_reflexive_exact(table1_nf):
    for sid in table1_nf.base.ids:
        assert net_improvement(table1_nf, sid, sid) == 0.0


def test_net_improvement_antisymmetric_exact_1000_pairs():
    nf = _random_nf(50, 5, seed=9)
    rng = np.random.default_rng(10)
    ids = nf.base.ids
    for _ in range(1000):
        i, j = rng.choice(len(ids), 2)
        assert net_improvement(nf, ids[i], ids[j]) == -net_improvement(
            nf, ids[j], ids[i]
        )


def test_net_improvement_equals_ws_difference(table1_nf):
    ws = dict(zip(table1_nf.base.ids, table1_nf.ws_scores.tolist()))
    got = net_improvement(table1_nf, "x4", "x9")
    assert got == pytest.approx(100.0 * (ws["x4"] - ws["x9"]), abs=1e-9)


# -------------------------------------------------------------- classes

def test_build_classes_table1_all_singletons(table1_nf):
    classes = build_classes(table1_nf, epsilon=1e-9)
    assert len(classes) == 16
    assert all(len(cls) == 1 for cls in classes)


def test_build_classes_line_points_merge():
    front = make_front([[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    classes = build_classes(normalize(front), epsilon=1e-9)
    assert len(classes) == 1
    assert set(classes[0].ids) == {"p0", "p1", "p2", "p3"}


def test_build_classes_gap_clustering():
    # deviation sums 0, eps/2, 2 with tolerance eps: first two merge
    eps = 1e-6
    front = make_front([[0.0, 1.0], [eps / 2, 1.0], [1.0, 1.5]])
    classes = build_classes(normalize(front), epsilon=eps)
    assert [set(c.ids) for c in classes] == [{"p0", "p1"}, {"p2"}]


def test_build_classes_epsilon_zero_exact_groups():
    front = make_front([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    classes = build_classes(normalize(front), epsilon=0.0)
    assert len(classes) == 1  # dyadic values: sums are exactly equal


def test_build_classes_rejects_negative_epsilon(table1_nf):
    with pytest.raises(ValueError):
        build_classes(table1_nf, epsilon=-1e-3)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.5])
def test_build_classes_rejects_non_finite_or_negative_epsilon(table1_nf, eps):
    with pytest.raises(InvalidEpsilon):
        build_classes(table1_nf, epsilon=eps)
    for select in (select_mmd, select_ws, select_dnc, rank):
        with pytest.raises(InvalidEpsilon):
            select(table1_nf, eps)


@pytest.mark.filterwarnings("ignore::knee_mcdm.DegenerateSpreadWarning")
@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 60),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**31),
    levels=st.sampled_from([0, 1, 2, 4, 7, 64]),
    eps=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.5]),
)
def test_build_classes_matches_reference_partition(m, n, seed, levels, eps):
    # levels > 0: values on a coarse grid, so scores tie exactly and land
    # exactly on the tolerance boundary; ids are shuffled against row order
    if levels:
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, levels + 1, size=(m, n)) / levels
        assume(m == 1 or np.ptp(rows, axis=0).any())
        nf = normalize(make_front(rows, ids=[f"s{k}" for k in rng.permutation(m)]))
    else:
        nf = _random_nf(m, n, seed)
    got = [(cls.ids, cls.mmd, cls.ws) for cls in build_classes(nf, epsilon=eps)]
    assert got == reference_partition(nf, eps)


@pytest.mark.filterwarnings("ignore::knee_mcdm.DegenerateSpreadWarning")
@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(200, 2000),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**31),
    levels=st.sampled_from([0, 2, 7, 64, 1000]),
    eps=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.5]),
)
def test_build_classes_matches_reference_partition_at_scale(m, n, seed, levels, eps):
    # long gap-free segments, long runs of exact ties and many classes at once
    if levels:
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, levels + 1, size=(m, n)) / levels
        assume(np.ptp(rows, axis=0).any())
        nf = normalize(make_front(rows, ids=[f"s{k}" for k in rng.permutation(m)]))
    else:
        nf = _random_nf(m, n, seed)
    got = [(cls.ids, cls.mmd, cls.ws) for cls in build_classes(nf, epsilon=eps)]
    assert got == reference_partition(nf, eps)


@pytest.mark.parametrize(
    "rows, ids, eps, expected",
    [
        pytest.param(  # d = 0, .25, .5, 2: a step equal to the tolerance joins,
            # and p2 is within tolerance of p1 but not of the representative p0
            [[0, 0], [0.25, 0], [0.5, 0], [1, 1]], None, 0.25,
            [("p0", "p1"), ("p2",), ("p3",)], id="boundary-and-anchor",
        ),
        pytest.param(  # d = 0, 2, 2.5, 3: the tolerance scales with |rep| > 1
            [[0, 0, 0], [1, 1, 0], [1, 1, 0.5], [1, 1, 1]], None, 0.25,
            [("p0",), ("p1", "p2"), ("p3",)], id="scaled-tolerance",
        ),
        pytest.param(  # d = 1, 1, 1, .5: an exact-tie run, ids in reverse row order
            [[1, 0], [0.5, 0.5], [0, 1], [0.25, 0.25]], ["d", "c", "b", "a"], 0.0,
            [("a",), ("b", "c", "d")], id="tie-run-by-id",
        ),
        pytest.param(  # d = 0, .3, .3 + 1e-12, 2: one near-tie among gaps
            [[0, 0], [0.3, 0], [0.3, 1e-12], [1, 1]], None, 1e-9,
            [("p0",), ("p1", "p2"), ("p3",)], id="near-tie-among-gaps",
        ),
    ],
)
def test_build_classes_deterministic_cases(rows, ids, eps, expected):
    nf = normalize(make_front(rows, ids=ids))
    got = [(cls.ids, cls.mmd, cls.ws) for cls in build_classes(nf, epsilon=eps)]
    assert [cls_ids for cls_ids, _, _ in got] == expected
    assert got == reference_partition(nf, eps)


@pytest.mark.parametrize("eps", [0.0, 1e-9, 0.05])
def test_equivalence_classes_constructor_matches_build_classes(eps):
    from knee_mcdm import selection

    rows = np.round(np.random.default_rng(3).random((300, 4)), 1)
    nf = normalize(make_front(rows))
    built = build_classes(nf, eps)
    members, mmd, ws = zip(*reference_partition(nf, eps))  # independent of built
    made_ids = tuple(itertools.chain.from_iterable(members))
    made = selection.EquivalenceClasses(
        ids=made_ids,
        rows=tuple(map(nf.base.ids.index, made_ids)),
        starts=tuple(itertools.accumulate(map(len, members), initial=0)),
        mmd=mmd,
        ws=ws,
        epsilon=eps,
    )
    assert len(made) == len(built) > 1
    assert list(made) == list(built)
    for k in (0, 1, len(built) - 1, -1, -len(built)):
        assert made[k] == built[k]
    assert built[-1] == built[len(built) - 1]
    for classes in (made, built):
        with pytest.raises(IndexError):
            classes[len(built)]
        with pytest.raises(IndexError):
            classes[-len(built) - 1]
    assert made.rows == built.rows
    assert built.ids == tuple(nf.base.ids[r] for r in built.rows)
    assert made.ids == built.ids
    assert sorted(built.ids) == sorted(nf.base.ids)
    assert made.epsilon == built.epsilon == eps


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**31),
    eps=st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.5]),
)
def test_build_classes_partition_property(m, n, seed, eps):
    nf = _random_nf(m, n, seed)
    classes = build_classes(nf, epsilon=eps)
    seen = list(classes.ids)
    assert sorted(seen) == sorted(nf.base.ids)  # exhaustive, disjoint
    reps = [cls.mmd for cls in classes]
    assert reps == sorted(reps)
    for a, b in zip(reps, reps[1:]):
        assert b - a > eps * max(1.0, abs(a))  # separated classes
    for cls in classes:
        rows = [nf.base.ids.index(sid) for sid in cls.ids]
        spread = nf.mmd_scores[rows].max() - nf.mmd_scores[rows].min()
        assert spread <= eps * max(1.0, abs(cls.mmd)) + 1e-15


# ------------------------------------------------------------- selectors

def test_select_mmd_table1(table1_nf):
    decision = select_mmd(table1_nf)
    assert decision.winner_ids == ("x6",)
    assert decision.c_min_mmd == pytest.approx(0.8448, abs=5e-4)
    np.testing.assert_array_equal(decision.knee, [TABLE1_ROWS[5]])


def test_select_ws_table1(table1_nf):
    decision = select_ws(table1_nf)
    assert decision.winner_ids == ("x6",)
    assert decision.c_min_ws == pytest.approx(0.9167, abs=5e-4)


def test_select_mmd_concave_arc_selects_extreme_pair():
    nf = normalize(generate(FrontSpec(family="concave2d", samples=30, seed=4)))
    decision = select_mmd(nf)
    assert set(decision.winner_ids) == {"p0", "p29"}
    assert decision.c_min_mmd == 1.0


def test_knee_is_read_only_in_winner_order():
    nf = normalize(generate(FrontSpec(family="concave2d", samples=30, seed=4)))
    for decision in (select_mmd(nf), select_ws(nf), select_dnc(nf, pairing_seed=3)):
        assert len(decision.winner_ids) == 2
        expected = [nf.base.objectives[nf.base.ids.index(sid)] for sid in decision.winner_ids]
        np.testing.assert_array_equal(decision.knee, expected)
        assert not decision.knee.flags.writeable
        with pytest.raises(ValueError):
            decision.knee[0, 0] = 0.0


@pytest.mark.filterwarnings("ignore::knee_mcdm.DegenerateSpreadWarning")
@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    m=st.integers(2, 12),
    eps=st.sampled_from([0.0, 1e-9, 0.2]),
    seed=st.integers(0, 7),
)
def test_knee_rows_with_ties_duplicates_and_a_max_column(data, m, eps, seed):
    # small integers give exact score ties and duplicate rows; ids sort
    # apart from row order, so the id decides the order inside a tie
    rows = data.draw(
        st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=m, max_size=m)
    )
    ids = data.draw(
        st.lists(st.text("abc", min_size=1, max_size=3), min_size=m, max_size=m, unique=True)
    )
    text = "id,cost,gain,risk\n" + "".join(
        f"{sid},{a},{b},{c}\n" for sid, (a, b, c) in zip(ids, rows)
    )
    try:
        nf = normalize(load_front(text, senses={"gain": "max"}))
    except AllDimensionsDegenerate:
        assume(False)
    base = nf.base
    for decision in (select_mmd(nf, eps), select_ws(nf, eps), select_dnc(nf, eps, seed)):
        expected = [rows[base.ids.index(sid)] for sid in decision.winner_ids]
        np.testing.assert_array_equal(decision.knee, expected)
    ws_id = base.ids[int(np.argmin(nf.ws_scores))]
    (holding,) = [cls for cls in build_classes(nf, eps) if ws_id in cls.ids]
    assert select_ws(nf, eps).winner == holding


@pytest.mark.filterwarnings("ignore::knee_mcdm.DegenerateSpreadWarning")
@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 8).flatmap(
        lambda m: st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3), min_size=m, max_size=m
        )
    ),
    senses=st.lists(st.sampled_from(["min", "max"]), min_size=3, max_size=3),
    seed=st.integers(0, 100),
)
def test_knee_rows_are_the_input_rows_for_any_senses(rows, senses, seed):
    assume(len(rows) == 1 or np.ptp(rows, axis=0).any())
    text = "id,f1,f2,f3\n" + "".join(
        f"p{k}," + ",".join(map(repr, row)) + "\n" for k, row in enumerate(rows)
    )
    nf = normalize(load_front(text, senses=senses))
    for decision in (select_mmd(nf), select_ws(nf), select_dnc(nf, pairing_seed=seed)):
        expected = [rows[int(sid[1:])] for sid in decision.winner_ids]
        np.testing.assert_array_equal(decision.knee, expected)


def test_select_single_solution_front():
    nf = normalize(make_front([[3.0, 4.0]]))
    for select in (select_mmd, select_ws, select_dnc):
        decision = select(nf)
        assert decision.winner_ids == ("p0",)
        assert decision.c_min_mmd == 0.0


def test_select_ws_two_point_tie():
    nf = normalize(make_front([[0.0, 1.0], [1.0, 0.0]], ids=["a", "b"]))
    decision = select_ws(nf)
    assert set(decision.winner_ids) == {"a", "b"}
    assert decision.c_min_ws == 1.0


def test_select_all_degenerate_raises():
    with pytest.raises(AllDimensionsDegenerate):
        normalize(make_front([[2.0, 2.0], [2.0, 2.0]]))


def test_select_dnc_table1_any_seed(table1_nf):
    for seed in (1, 2, 3, 4):
        decision = select_dnc(table1_nf, pairing_seed=seed)
        assert decision.winner_ids == ("x6",)


def test_select_dnc_trace_knockout_arithmetic():
    # 8 distinct singleton classes: 4 + 2 + 1 comparisons
    nf = _random_nf(8, 3, seed=12)
    assert len(build_classes(nf)) == 8
    decision = select_dnc(nf, pairing_seed=0)
    assert len(decision.trace) == 7


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 64), n=st.integers(2, 6), seed=st.integers(0, 2**31))
def test_select_dnc_trace_length_is_classes_minus_one(m, n, seed):
    nf = _random_nf(m, n, seed)
    decision = select_dnc(nf, pairing_seed=seed % 17)
    assert len(decision.trace) == len(build_classes(nf)) - 1


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 64), n=st.integers(2, 6), seed=st.integers(0, 2**31))
def test_selectors_agree_on_random_fronts(m, n, seed):
    nf = _random_nf(m, n, seed)
    winner = set(select_mmd(nf).winner_ids)
    assert set(select_ws(nf).winner_ids) == winner
    assert set(select_dnc(nf, pairing_seed=seed % 1009).winner_ids) == winner


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(1, 64),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**31),
    eps=st.sampled_from([0.0, 1e-9, 1e-3, 0.5]),
)
def test_mmd_winner_class_equals_first_partition_class(m, n, seed, eps):
    # the fast threshold cluster must be the head of the full partition
    nf = _random_nf(m, n, seed)
    decision = select_mmd(nf, eps)
    assert decision.winner == build_classes(nf, eps)[0]
    # winner members sit at c_min within tolerance, everyone else above it
    tol = eps * max(1.0, abs(decision.c_min_mmd))
    winners = set(decision.winner_ids)
    for sid, mmd in zip(nf.base.ids, nf.mmd_scores.tolist()):
        if sid in winners:
            assert mmd <= decision.c_min_mmd + tol
        else:
            assert mmd > decision.c_min_mmd + tol


def test_trace_records_are_consistent(table1_nf):
    decision = select_dnc(table1_nf, pairing_seed=5)
    classes = build_classes(table1_nf)
    for rec in decision.trace:
        expected = rec.right if rec.ip > 0 else rec.left
        assert rec.winner == expected
        assert rec.ip == pytest.approx(
            100.0 * (classes[rec.left].mmd - classes[rec.right].mmd)
        )


def test_select_dnc_tie_between_classes_raises(table1_nf, monkeypatch):
    from knee_mcdm import selection

    tied = selection.EquivalenceClasses(
        ids=("x1", "x2"), rows=(0, 1), starts=(0, 1, 2), mmd=(0.5, 0.5), ws=(0.6, 0.6),
        epsilon=0.0,
    )
    monkeypatch.setattr(selection, "build_classes", lambda nf, epsilon: tied)
    with pytest.raises(EquivalenceViolation):
        select_dnc(table1_nf)
    with pytest.raises(EquivalenceViolation):
        verify_equivalence(table1_nf)


# ------------------------------------------------------------------ rank

def test_rank_table1_head(table1_nf):
    ranking = rank(table1_nf)
    ids = [cls.ids for cls in ranking[:3]]
    assert ids == [("x6",), ("x2",), ("x8",)]
    scores = [cls.mmd for cls in ranking[:3]]
    assert scores == pytest.approx([0.8448, 0.8462, 0.9232], abs=5e-4)


def test_rank_two_point_tie_is_single_class():
    nf = normalize(make_front([[0.0, 1.0], [1.0, 0.0]]))
    ranking = rank(nf)
    assert len(ranking) == 1


def test_rank_matches_sorted_ws_order():
    nf = _random_nf(40, 4, seed=21)
    ranking = rank(nf)
    by_rank = [sid for cls in ranking for sid in cls.ids]
    ws = dict(zip(nf.base.ids, nf.ws_scores.tolist()))
    assert by_rank == sorted(by_rank, key=lambda sid: (ws[sid], sid))
    assert rank(nf)[0].ids == select_mmd(nf).winner_ids


# ------------------------------------------------------------ equivalence

def test_verify_equivalence_table1(table1_nf):
    report = verify_equivalence(table1_nf, seeds=(1, 2, 3, 4))
    assert report.passed
    report.raise_if_failed()


def test_verify_equivalence_offset_constant_table1(table1_nf):
    # 0.9167 - 0.8448 ~ sum of the normalized column minima ~ 0.0718
    decision = select_mmd(table1_nf)
    offset = decision.c_min_ws - decision.c_min_mmd
    assert offset == pytest.approx(0.0719, abs=5e-4)
    assert offset == pytest.approx(table1_nf.ideal_offset, abs=1e-9)


def test_verify_equivalence_random_fronts():
    for k in range(50):
        nf = _random_nf(2 + k, 2 + k % 5, seed=100 + k)
        assert verify_equivalence(nf, seeds=(1, 2)).passed


def test_manhattan_identity_abs_sum_equals_dot_product():
    for seed in range(10):
        nf = _random_nf(30, 4, seed)
        abs_sum = np.abs(nf.y - nf.y_opt).sum(axis=1)
        dot = (nf.y - nf.y_opt) @ np.ones(nf.base.n)
        np.testing.assert_allclose(abs_sum, dot, atol=1e-12)
        np.testing.assert_allclose(abs_sum, nf.mmd_scores, atol=1e-12)


# ------------------------------------------------------------- invariance

def test_order_invariance_of_winner_and_classes():
    front = random_nondominated_front(24, 3, seed=5)
    nf = normalize(front)
    rng = np.random.default_rng(6)
    for _ in range(5):
        perm = rng.permutation(front.m)
        shuffled = normalize(front.take(perm))
        assert set(select_mmd(shuffled).winner_ids) == set(select_mmd(nf).winner_ids)
        a = sorted(tuple(sorted(c.ids)) for c in build_classes(shuffled))
        b = sorted(tuple(sorted(c.ids)) for c in build_classes(nf))
        assert a == b


def test_affine_invariance_of_distances_and_winner():
    rng = np.random.default_rng(31)
    for k in range(20):
        front = random_nondominated_front(20, 4, seed=200 + k)
        nf = normalize(front)
        a = 10.0 ** rng.uniform(-6, 6, front.n)
        b = a * rng.uniform(-100, 100, front.n)
        transformed = make_front(front.objectives * a + b, ids=front.ids)
        tnf = normalize(transformed)
        assert set(select_mmd(tnf).winner_ids) == set(select_mmd(nf).winner_ids)
        np.testing.assert_allclose(tnf.mmd_scores, nf.mmd_scores, rtol=1e-9, atol=1e-9)


def test_degenerate_dimension_consistent_across_selectors():
    rows = np.column_stack(
        [np.full(10, 3.25), np.linspace(0, 1, 10), 1 - np.sqrt(np.linspace(0, 1, 10))]
    )
    with pytest.warns(DegenerateSpreadWarning):
        nf = normalize(make_front(rows))
    report = verify_equivalence(nf)
    assert report.passed
    assert nf.degenerate_dims == {0}


def test_concave_endpoint_property_across_seeds():
    for seed in range(8):
        front = generate(FrontSpec(family="concave2d", samples=40, seed=seed))
        nf = normalize(front)
        decision = select_mmd(nf)
        assert set(decision.winner_ids) == {"p0", "p39"}


def test_planar_front_is_single_class():
    for seed in range(8):
        nf = normalize(generate(FrontSpec(family="plane3d", samples=25, seed=seed)))
        decision = select_mmd(nf)
        assert set(decision.winner_ids) == set(nf.base.ids)


def test_discontinuous_front_winner_on_left_of_extreme_segment():
    # the segment joining the two extreme samples has unit deviation sum;
    # anything selected must lie on it or on its ideal side
    for seed in range(8):
        nf = normalize(
            generate(FrontSpec(family="disconnected2d", samples=60, seed=seed))
        )
        decision = select_mmd(nf)
        assert decision.c_min_mmd <= 1.0 + 1e-12


# ---------------------------------------------------------------- output

def test_decision_json_is_deterministic_and_parses(table1_nf):
    a = select_dnc(table1_nf, pairing_seed=3).to_json()
    b = select_dnc(table1_nf, pairing_seed=3).to_json()
    assert a == b
    import json

    doc = json.loads(a)
    assert list(doc) == ["method", "winner_ids", "knee", "c_min_mmd", "c_min_ws", "scores", "trace"]
    assert doc["winner_ids"] == ["x6"]
    assert len(doc["scores"]) == 16
    assert doc["c_min_mmd"] == pytest.approx(0.8448, abs=5e-4)


def test_decision_json_without_trace(table1_nf):
    import json

    doc = json.loads(select_mmd(table1_nf).to_json())
    assert "trace" not in doc
    assert doc["method"] == "mmd"


def test_representative_is_lexicographic_min():
    nf = normalize(make_front([[0.0, 1.0], [1.0, 0.0]], ids=["zz", "aa"]))
    assert select_mmd(nf).representative == "aa"


@pytest.mark.parametrize("select", [select_mmd, select_ws, select_dnc])
def test_decision_json_equals_decision_fields(table1_nf, select):
    decision = select(table1_nf)
    expected = {
        "method": decision.method,
        "winner_ids": list(decision.winner_ids),
        "knee": decision.knee.tolist(),
        "c_min_mmd": decision.c_min_mmd,
        "c_min_ws": decision.c_min_ws,
        "scores": [
            {"id": sid, "mmd": mmd, "ws": ws}
            for sid, mmd, ws in zip(
                table1_nf.base.ids, table1_nf.mmd_scores.tolist(), table1_nf.ws_scores.tolist()
            )
        ],
    }
    if decision.trace is not None:
        expected["trace"] = [r._asdict() for r in decision.trace]
    doc = json.loads(decision.to_json())
    assert doc == expected
    # json.dumps keeps insertion order, so this also pins every key order
    assert json.dumps(doc) == json.dumps(expected)


_JSON_IDS = st.lists(
    st.text(
        st.one_of(
            st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'),
            st.characters(),
        ),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=12,
    unique=True,
)
_WIDE_FLOATS = st.builds(
    lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
    st.floats(1.0, 9.99),
    st.integers(-300, 299),
    st.sampled_from([-1.0, 1.0]),
)


@pytest.mark.filterwarnings("ignore::knee_mcdm.DegenerateSpreadWarning")
@settings(max_examples=150, deadline=None)
@given(ids=_JSON_IDS, n=st.integers(2, 4), data=st.data())
def test_decision_json_is_byte_identical_to_json_dumps(ids, n, data):
    rows = np.array(
        data.draw(st.lists(st.lists(_WIDE_FLOATS, min_size=n, max_size=n),
                           min_size=len(ids), max_size=len(ids)))
    )
    assume(len(ids) == 1 or np.ptp(rows, axis=0).any())
    nf = normalize(make_front(rows, ids=ids))
    seed = data.draw(st.integers(0, 100))
    for decision in (select_mmd(nf), select_ws(nf), select_dnc(nf, pairing_seed=seed)):
        expected = {
            "method": decision.method,
            "winner_ids": list(decision.winner_ids),
            "knee": decision.knee.tolist(),
            "c_min_mmd": decision.c_min_mmd,
            "c_min_ws": decision.c_min_ws,
            "scores": [
                {"id": sid, "mmd": mmd, "ws": ws}
                for sid, mmd, ws in zip(nf.base.ids, nf.mmd_scores.tolist(), nf.ws_scores.tolist())
            ],
        }
        if decision.trace is not None:
            expected["trace"] = [
                {"left": r.left, "right": r.right, "ip": r.ip, "winner": r.winner}
                for r in decision.trace
            ]
        assert decision.to_json() == json.dumps(expected)
