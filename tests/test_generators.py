import types

import numpy as np
import pytest

import knee_mcdm
from knee_mcdm import (
    FrontSpec,
    InvalidSpec,
    dominance_filter,
    generate,
    normalize,
    random_nondominated_front,
    select_dnc,
    select_mmd,
    select_ws,
)
from knee_mcdm.generators import _DISCONNECTED_SEGMENTS, FAMILIES, TABLE1_ROWS

from helpers import NoExpectation, expected_selection


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "noSuchShape"},
        {"family": "convex2d", "samples": 1},
        {"family": "convex2d", "noise": -0.1},
        {"family": "table1", "samples": 20},
        {"family": "table2like", "noise": 0.1},
        {"family": "plane3d", "samples": 2},
        {"family": "sphere3d", "samples": 2},
        {"family": "convex2d", "noise": float("nan")},
        {"family": "convex2d", "seed": -1},
        {"family": "table1", "seed": -1},  # fixed families reject it too
        {"family": "convex2d", "seed": 1.5},
        {"family": "convex2d", "samples": 2.5},
        {"family": "convex2d", "samples": "5"},
        {"family": "table1", "seed": 1.5},
        {"family": "convex2d", "noise": "0.1"},
        {"family": "convex2d", "noise": None},
    ],
)
def test_invalid_specs(kwargs):
    with pytest.raises(InvalidSpec):
        FrontSpec(**{"samples": 16, **kwargs})


def test_generation_is_deterministic():
    spec = FrontSpec(family="convex2d", samples=25, seed=77)
    assert generate(spec) == generate(spec)
    numpy_ints = FrontSpec(family="convex2d", samples=np.int64(25), seed=np.uint8(77))
    assert generate(numpy_ints) == generate(spec)
    other = generate(FrontSpec(family="convex2d", samples=25, seed=78))
    assert not np.array_equal(other.objectives, generate(spec).objectives)


def test_table1_is_fixed_16x5():
    front = generate(FrontSpec(family="table1"))
    assert front.ids == tuple(f"x{k}" for k in range(1, 17))
    assert front.objective_names == ("f1", "f2", "f3", "f4", "f5")
    np.testing.assert_array_equal(front.objectives, TABLE1_ROWS)


def test_convex2d_shape():
    front = generate(FrontSpec(family="convex2d", samples=30, seed=1))
    t = front.objectives[:, 0]
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) >= 0)
    np.testing.assert_allclose(front.objectives[:, 1], 1 - np.sqrt(t), atol=0)


def test_concave2d_normalized_sums_bound():
    front = generate(FrontSpec(family="concave2d", samples=50, seed=2))
    nf = normalize(front)
    sums = nf.deviations().sum(axis=1)
    assert np.all(sums >= 1.0 - 1e-12)
    at_one = {front.ids[k] for k in np.flatnonzero(np.abs(sums - 1.0) <= 1e-12)}
    assert at_one == {"p0", "p49"}


def test_line2d_sums_exactly_one():
    front = generate(FrontSpec(family="line2d", samples=5, seed=3))
    assert np.all(front.objectives.sum(axis=1) == 1.0)


def test_plane3d_exact_corners_and_plane():
    front = generate(FrontSpec(family="plane3d", samples=20, seed=4))
    np.testing.assert_array_equal(front.objectives[:3], 0.5 * np.eye(3))
    np.testing.assert_allclose(front.objectives.sum(axis=1), 0.5, atol=1e-14)
    nf = normalize(front)
    np.testing.assert_array_equal(nf.L, [0.5, 0.5, 0.5])


def test_sphere3d_axis_points_and_radius():
    front = generate(FrontSpec(family="sphere3d", samples=20, seed=5))
    np.testing.assert_array_equal(front.objectives[:3], np.eye(3))
    np.testing.assert_allclose(
        np.linalg.norm(front.objectives, axis=1), 1.0, atol=1e-12
    )


def test_disconnected2d_samples_inside_segments():
    front = generate(FrontSpec(family="disconnected2d", samples=60, seed=6))
    t = front.objectives[:, 0]
    inside = np.zeros(len(t), dtype=bool)
    for a, b in _DISCONNECTED_SEGMENTS:
        inside |= (t >= a) & (t <= b)
    assert inside.all()
    f2 = 1 - np.sqrt(t) - t * np.sin(10 * np.pi * t)
    np.testing.assert_allclose(front.objectives[:, 1], f2, atol=0)


def test_table2like_scale_pathology():
    front = generate(FrontSpec(family="table2like"))
    f1 = front.objectives[:, 0]
    assert f1.min() == 4e10 and f1.max() == 4e10 + 3
    nf = normalize(front)
    decision = select_mmd(nf)
    ws, mmd = nf.ws_scores, nf.mmd_scores
    assert (ws.max() - ws.min()) / abs(ws.min()) < 1e-6
    assert mmd.max() - mmd.min() >= 0.5
    assert decision.winner_ids not in (("x1",), ("x16",))


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "table1"])
def test_generated_fronts_are_nondominated(family):
    for seed in range(4):
        samples = 16 if family in ("table1", "table2like") else 24
        front = generate(FrontSpec(family=family, samples=samples, seed=seed))
        kept, removed = dominance_filter(front)
        assert removed == []
        assert kept == front


def test_table1_front_is_nondominated():
    _, removed = dominance_filter(generate(FrontSpec(family="table1")))
    assert removed == []


def test_noise_perturbs_values():
    base = generate(FrontSpec(family="convex2d", samples=10, seed=7))
    noisy = generate(FrontSpec(family="convex2d", samples=10, seed=7, noise=0.01))
    assert not np.array_equal(base.objectives, noisy.objectives)
    assert np.abs(base.objectives - noisy.objectives).max() < 0.1


def _all_rules(front):
    nf = normalize(front)
    return (
        select_mmd(nf),
        select_ws(nf),
        select_dnc(nf, pairing_seed=1),
        select_dnc(nf, pairing_seed=2),
    )


def test_expected_selection_predicates_hold():
    for family in ("convex2d", "concave2d", "line2d", "plane3d", "sphere3d"):
        expectation = expected_selection(family)
        front = generate(FrontSpec(family=family, samples=30, seed=13))
        for decision in _all_rules(front):
            assert expectation.check(front, decision), (
                family, decision.method, decision.winner_ids
            )
    for family in ("table1", "table2like"):
        expectation = expected_selection(family)
        front = generate(FrontSpec(family=family))
        for decision in _all_rules(front):
            assert expectation.check(front, decision), (family, decision.method)


def test_expected_selection_rejects_families_without_statement():
    with pytest.raises(NoExpectation):
        expected_selection("disconnected2d")


def test_package_exports_are_its_public_names():
    public = sorted(
        name
        for name, value in vars(knee_mcdm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert sorted(knee_mcdm.__all__) == public
    for name in ("Expectation", "expected_selection", "NoExpectation"):
        assert not hasattr(knee_mcdm, name), name
    for name in ("Decision", "normalize"):
        assert not hasattr(knee_mcdm.generators, name), name


def test_random_nondominated_front_properties():
    front = random_nondominated_front(40, 5, seed=99)
    assert front.m == 40 and front.n == 5
    _, removed = dominance_filter(front)
    assert removed == []
    assert front == random_nondominated_front(40, 5, seed=99)
    with pytest.raises(InvalidSpec):
        random_nondominated_front(0, 5, seed=1)
    with pytest.raises(InvalidSpec, match="seed must be >= 0, got -1"):
        random_nondominated_front(5, 3, seed=-1)
    for args in [(5, 3, 1.5), (2.5, 3, 1), ("5", 3, 1), (5, 3.0, 1)]:
        with pytest.raises(InvalidSpec, match="must be an integer"):
            random_nondominated_front(*args)
    assert random_nondominated_front(np.int64(40), np.int64(5), seed=np.int64(99)) == front
