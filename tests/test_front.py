import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knee_mcdm import (
    AllDimensionsDegenerate,
    DegenerateSpreadWarning,
    DuplicateId,
    EmptyFront,
    NonFiniteValue,
    ParseError,
    SpreadOverflow,
    UnknownId,
    dominance_filter,
    load_front,
    normalize,
    write_front,
)
from knee_mcdm.generators import TABLE1_ROWS, FrontSpec, generate

from helpers import brute_force_nondominated, make_front


# ---------------------------------------------------------------- loading

def test_load_csv_basic():
    front = load_front("id,f1,f2\na,0,1\nb,1,0", format="csv")
    assert front.m == 2 and front.n == 2
    assert front.ids == ("a", "b")
    assert front.objective_names == ("f1", "f2")
    np.testing.assert_array_equal(front.objectives, [[0, 1], [1, 0]])
    assert front.senses == ("min", "min")


def test_load_csv_maximize_negates():
    front = load_front("id,f1,f2\na,0,1\nb,1,0", senses={"f2": "max"})
    np.testing.assert_array_equal(front.objectives, [[0, -1], [1, 0]])
    assert front.senses == ("min", "max")


def test_load_csv_full_sense_sequence():
    front = load_front("id,f1,f2\na,2,3\nb,4,5", senses=["max", "minimize"])
    np.testing.assert_array_equal(front.objectives, [[-2, 3], [-4, 5]])


def test_load_csv_nan_reports_id_and_column():
    with pytest.raises(NonFiniteValue) as err:
        load_front("id,f1,f2\na,0,1\nc,0.5,NaN")
    assert err.value.solution_id == "c"
    assert err.value.column == "f2"


def test_load_csv_comments_and_scientific_notation():
    front = load_front("# a comment\nid,f1,f2\n# another\na,1e-3,2.5E2\n b ,1,2")
    assert front.objectives[0, 0] == pytest.approx(1e-3)
    assert front.objectives[0, 1] == 250.0
    assert front.ids[1] == "b"


@pytest.mark.parametrize(
    "text, error",
    [
        ("id,f1,f2\na,1\n", ParseError),  # wrong arity
        ("id,f1,f2\na,1,notanumber\n", ParseError),
        ("id,f1\na,1\n", ParseError),  # single objective
        ("f1,f2\n1,2\n", ParseError),  # missing id column
        ("id,f1,f2\n", EmptyFront),
        ("", EmptyFront),
        ("id,f1,f2\na,1,2\na,3,4\n", DuplicateId),
        ("id,f1,f2\na,1,inf\n", NonFiniteValue),
    ],
)
def test_load_csv_errors(text, error):
    with pytest.raises(error):
        load_front(text)


def test_load_json_with_senses_and_x():
    doc = {
        "objectives": ["cost", "yield"],
        "senses": ["min", "max"],
        "solutions": [
            {"id": "a", "f": [1.0, 5.0], "x": [0.1, 0.2]},
            {"id": "b", "f": [2.0, 9.0]},
        ],
    }
    front = load_front(json.dumps(doc), format="json")
    np.testing.assert_array_equal(front.objectives, [[1, -5], [2, -9]])
    assert front.decision_vectors == ((0.1, 0.2), None)


def test_load_json_overrides_beat_file_senses():
    doc = {
        "objectives": ["f1", "f2"],
        "senses": ["min", "max"],
        "solutions": [{"id": "a", "f": [1, 2]}, {"id": "b", "f": [3, 4]}],
    }
    front = load_front(json.dumps(doc), format="json", senses={"f2": "min"})
    np.testing.assert_array_equal(front.objectives, [[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        '{"solutions": []}',
        '{"objectives": ["f1", "f2"], "solutions": [{"id": "a", "f": [1]}]}',
        '{"objectives": ["f1", "f2"], "solutions": [{"f": [1, 2]}]}',
        "{not json",
    ],
)
def test_load_json_errors(doc):
    with pytest.raises((ParseError, EmptyFront)):
        load_front(doc, format="json")


@pytest.mark.parametrize(
    "doc, field",
    [
        ('{"objectives": ["f1", "f2"], "solutions": [{"id": "a", "f": [1, 2], "x": ["u"]}]}', "a"),
        ('{"objectives": ["f1", "f2"], "solutions": [{"id": "a", "f": [1, 2], "x": 3}]}', "x"),
        ('{"objectives": ["f1", "f2"], "senses": "min", "solutions": [{"id": "a", "f": [1, 2]}]}', "senses"),
    ],
)
def test_load_json_bad_x_or_senses(doc, field):
    with pytest.raises(ParseError, match=field):
        load_front(doc, format="json")


def test_empty_id_rejected():
    with pytest.raises(ParseError, match="empty solution id"):
        load_front("id,f1,f2\n,0,1\nb,1,0\n")


def test_normalize_spread_overflow_raises():
    front = load_front("id,f1,f2\na,-1e308,1e308\nb,1e308,-1e308\nc,0,0\n")
    with pytest.raises(SpreadOverflow, match="f1"):
        normalize(front)


_CSV_IDS = st.text(
    st.one_of(
        st.sampled_from(',"'),
        st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
    ),
    min_size=1,
    max_size=6,
).filter(lambda s: s == s.strip() and not s.startswith("#"))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.integers(1, 6), n=st.integers(2, 4))
def test_round_trip_csv_property(data, m, n):
    ids = data.draw(st.lists(_CSV_IDS, min_size=m, max_size=m, unique=True))
    cell = st.floats(allow_nan=False, allow_infinity=False)
    rows = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    front = make_front(rows, ids=ids)
    buf = io.StringIO()
    write_front(front, buf, format="csv")
    assert load_front(buf.getvalue(), format="csv") == front


def test_round_trip_csv_values():
    front = generate(FrontSpec(family="convex2d", samples=20, seed=5))
    buf = io.StringIO()
    write_front(front, buf, format="csv")
    again = load_front(buf.getvalue(), format="csv")
    assert again == front


def test_round_trip_json_full_fidelity():
    front = load_front(
        json.dumps(
            {
                "objectives": ["f1", "f2"],
                "senses": ["min", "max"],
                "solutions": [
                    {"id": "a", "f": [0.1, 0.9], "x": [1.5]},
                    {"id": "b", "f": [0.7, 0.3]},
                ],
            }
        ),
        format="json",
    )
    buf = io.StringIO()
    write_front(front, buf, format="json")
    again = load_front(buf.getvalue(), format="json")
    assert again == front
    # max column went out in its original orientation
    doc = json.loads(buf.getvalue())
    assert doc["solutions"][0]["f"] == [0.1, 0.9]
    assert doc["senses"] == ["min", "max"]


def test_front_is_immutable():
    front = make_front([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        front.objectives[0, 0] = 5.0


def test_unknown_id():
    front = make_front([[0, 1], [1, 0]])
    with pytest.raises(UnknownId):
        front.index_of("nope")


# ------------------------------------------------------- dominance filter

def test_dominance_filter_drops_dominated_point():
    front = make_front([[0, 1], [1, 0], [1, 1]], ids=["a", "b", "c"])
    kept, removed = dominance_filter(front)
    assert kept.ids == ("a", "b")
    assert removed == ["c"]


def test_dominance_filter_keeps_mutually_nondominated():
    front = make_front([[0, 1], [1, 0]])
    kept, removed = dominance_filter(front)
    assert kept == front
    assert removed == []


def test_dominance_filter_retains_duplicates():
    front = make_front([[0, 1], [0, 1], [2, 2]], ids=["a", "b", "c"])
    kept, removed = dominance_filter(front)
    assert kept.ids == ("a", "b")
    assert removed == ["c"]


def test_dominance_filter_matches_oracle_on_16_random_3d_points():
    rng = np.random.default_rng(42)
    rows = rng.uniform(0, 1, (16, 3))
    front = make_front(rows)
    kept, _ = dominance_filter(front)
    expect = [f"p{k}" for k in brute_force_nondominated(rows.tolist())]
    assert list(kept.ids) == expect


def test_dominance_filter_idempotent():
    rng = np.random.default_rng(3)
    front = make_front(rng.uniform(0, 1, (30, 4)))
    once, _ = dominance_filter(front)
    twice, removed = dominance_filter(once)
    assert twice == once
    assert removed == []


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 64),
    n=st.integers(2, 6),
    seed=st.integers(0, 2**31),
)
def test_dominance_filter_matches_oracle(m, n, seed):
    rows = np.random.default_rng(seed).uniform(0, 1, (m, n))
    kept, removed = dominance_filter(make_front(rows))
    oracle = brute_force_nondominated(rows.tolist())
    assert [int(s[1:]) for s in kept.ids] == oracle
    assert len(removed) == m - len(oracle)


# ------------------------------------------------------------- normalize

def test_normalize_two_point_example():
    nf = normalize(make_front([[0, 2], [4, 0]]))
    np.testing.assert_array_equal(nf.L, [4, 2])
    np.testing.assert_array_equal(nf.ell, [0, 0])
    np.testing.assert_array_equal(nf.y, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(nf.y_opt, [0, 0])
    assert not nf.degenerate_dims


def test_normalize_table1_ideal_vector_is_column_minima():
    nf = normalize(make_front(TABLE1_ROWS))
    np.testing.assert_allclose(
        nf.ell, [0.0074, 0.0009, 0.0152, 0.0403, 0.0080], atol=1e-12
    )
    # spreads are all within rounding of 1, so y_opt tracks the minima
    np.testing.assert_allclose(
        nf.y_opt, [0.0074, 0.0009, 0.0152, 0.0403, 0.0080], atol=2e-4
    )


def test_normalize_constant_column_is_degenerate():
    front = make_front([[1, 5], [1, 9], [1, 2]])
    with pytest.warns(DegenerateSpreadWarning):
        nf = normalize(front)
    assert nf.degenerate_dims == {0}
    assert nf.L[1] == 7
    np.testing.assert_array_equal(nf.y[:, 0], 0.0)
    assert nf.y_opt[0] == 0.0


def test_normalize_all_degenerate_raises():
    with pytest.raises(AllDimensionsDegenerate):
        normalize(make_front([[1, 2], [1, 2]]))


def test_normalize_single_solution_allowed():
    nf = normalize(make_front([[3.5, 7.0]]))
    assert nf.degenerate_dims == {0, 1}
    np.testing.assert_array_equal(nf.y, [[0.0, 0.0]])
    assert nf.mmd_scores[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 40), n=st.integers(2, 6), seed=st.integers(0, 2**31))
def test_normalize_unit_spread_property(m, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-5, 5, (m, n)) * rng.uniform(0.01, 10, n)
    nf = normalize(make_front(rows))
    for k in range(n):
        if k in nf.degenerate_dims:
            continue
        col = nf.y[:, k]
        assert abs((col.max() - col.min()) - 1.0) <= 1e-12
        assert nf.y_opt[k] == col.min()
        dev = nf.deviations[:, k]
        assert dev.min() >= 0.0 and dev.max() <= 1.0 + 1e-12


def test_sense_handling_idempotent_all_min():
    text = "id,f1,f2\na,0.25,0.5\nb,0.75,0.125\n"
    front = load_front(text)
    np.testing.assert_array_equal(
        front.objectives, [[0.25, 0.5], [0.75, 0.125]]
    )
