import csv
import io
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knee_mcdm import (
    AllDimensionsDegenerate,
    DegenerateSpreadWarning,
    DuplicateId,
    EmptyFront,
    Front,
    KneeMCDMError,
    NonFiniteValue,
    ParseError,
    SpreadOverflow,
    dominance_filter,
    load_front,
    normalize,
    write_front,
)
from knee_mcdm import front as front_module
from knee_mcdm.front import _FILTER_WINDOW
from knee_mcdm.generators import TABLE1_ROWS, FrontSpec, generate

from helpers import (
    brute_force_nondominated,
    make_front,
    reference_load_csv,
    reference_load_json,
)


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


def test_load_json_integer_ids_accepted_other_numbers_not():
    records = [{"id": 7, "f": [0, 1]}, {"id": "b", "f": [1, 0]}]
    doc = {"objectives": ["f1", "f2"], "solutions": records}
    assert load_front(json.dumps(doc), format="json").ids == ("7", "b")
    records[0]["id"] = 1.5
    with pytest.raises(ParseError, match="string or an integer"):
        load_front(json.dumps(doc), format="json")


# Objective values as both formats write them: integers, floats, -0.0 and
# repeated small values that give ties.
_VALUES = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 1, -1, 0.5, -0.0]),
)
_NAME = st.from_regex(r"[a-z][a-z0-9]{0,3}", fullmatch=True)


@st.composite
def _front_records(draw):
    """Format, objective names, senses override and records
    ``[id, values, x]``; ``x`` is "absent", None or a list of numbers."""
    fmt = draw(st.sampled_from(["csv", "json"]))
    n = draw(st.integers(2, 4))
    names = [f"f{k}" for k in range(n)]
    senses = draw(st.one_of(
        st.none(),
        st.dictionaries(st.sampled_from(names), st.sampled_from(["min", "max"])),
    ))
    ids = st.one_of(_NAME, st.integers(0, 50)) if fmt == "json" else _NAME
    records = draw(st.lists(
        st.tuples(
            ids,
            st.lists(_VALUES, min_size=n, max_size=n),
            st.one_of(st.just("absent"), st.none(), st.lists(_VALUES, max_size=3)),
        ).map(list),
        min_size=1,
        max_size=12,
        unique_by=lambda rec: str(rec[0]),
    ))
    return fmt, names, senses, records


def _json_solutions(records):
    return [
        {"id": sid, "f": f, **({} if x == "absent" else {"x": x})} for sid, f, x in records
    ]


def _front_text(fmt, names, records, pad=""):
    if fmt == "json":
        return json.dumps({"objectives": names, "solutions": _json_solutions(records)})
    cell = lambda v: pad + (repr(v) if isinstance(v, float) else str(v))  # noqa: E731
    lines = ["id," + ",".join(names)]
    lines += [",".join([sid, *map(cell, f)]) for sid, f, _ in records]
    return "\n".join(lines) + "\n"


def _load_outcome(load, *args, **kwargs):
    """A loader's front, or the type and message of the error it raised."""
    try:
        front = load(*args, **kwargs)
    except KneeMCDMError as exc:
        return type(exc), str(exc)
    # Front equality reads -0.0 as 0.0; the bytes and reprs tell them apart
    return front, front.objectives.tobytes(), repr(front.decision_vectors)


_REFERENCE_LOADERS = {"csv": reference_load_csv, "json": reference_load_json}


@settings(max_examples=400, deadline=None)
@given(front=_front_records(), pad=st.sampled_from(["", " "]))
def test_load_front_matches_reference_loops(front, pad):
    fmt, names, senses, records = front
    text = _front_text(fmt, names, records, pad)
    got = _load_outcome(load_front, text, format=fmt, senses=senses)
    assert got == _load_outcome(_REFERENCE_LOADERS[fmt], text, senses)


#: Ways to spoil one CSV record ``[id, values, x]``; each is a ParseError.
_CSV_CORRUPTIONS = {
    "cell-missing": lambda sid, f, x: [sid, f[:-1], x],
    "cell-extra": lambda sid, f, x: [sid, f + [1], x],
    "not-a-number": lambda sid, f, x: [sid, f[:-1] + ["1e"], x],
}
#: Ways to spoil one JSON solution record; each is a ParseError.
_JSON_CORRUPTIONS = {
    "f-short": lambda rec: {**rec, "f": rec["f"][:-1]},
    "f-long": lambda rec: {**rec, "f": rec["f"] + [0]},
    "f-string": lambda rec: {**rec, "f": ["1"] + rec["f"][1:]},
    "f-bool": lambda rec: {**rec, "f": rec["f"][:-1] + [True]},
    "f-huge-int": lambda rec: {**rec, "f": [10**400] + rec["f"][1:]},
    "x-bool": lambda rec: {**rec, "x": [False]},
    "x-string": lambda rec: {**rec, "x": ["7"]},
    "id-bool": lambda rec: {**rec, "id": True},
    "id-null": lambda rec: {**rec, "id": None},
    "no-f": lambda rec: {"id": rec["id"]},
    "not-an-object": lambda rec: [rec["id"]],
    "x-huge-int": lambda rec: {**rec, "x": [10**400]},
    "x-not-a-list": lambda rec: {**rec, "x": 5},
    "f-not-a-list": lambda rec: {**rec, "f": 3},
    "f-null": lambda rec: {**rec, "f": None},
    "id-float": lambda rec: {**rec, "id": 1.5},
}


@settings(max_examples=300, deadline=None)
@given(front=_front_records(), data=st.data())
def test_load_front_error_matches_reference_loops(front, data):
    # with up to three records spoiled, the first in input order names the error
    fmt, names, senses, records = front
    spoiled = data.draw(st.sets(st.integers(0, len(records) - 1), min_size=1, max_size=3))
    if fmt == "csv":
        for k in spoiled:
            records[k] = data.draw(st.sampled_from(list(_CSV_CORRUPTIONS.values())))(*records[k])
        text = _front_text(fmt, names, records)
    else:
        solutions = _json_solutions(records)
        for k in spoiled:
            solutions[k] = data.draw(st.sampled_from(list(_JSON_CORRUPTIONS.values())))(solutions[k])
        text = json.dumps({"objectives": names, "solutions": solutions})
    got = _load_outcome(load_front, text, format=fmt, senses=senses)
    assert got[0] is ParseError
    assert got == _load_outcome(_REFERENCE_LOADERS[fmt], text, senses)


#: Raw CSV cells: numbers, padded and malformed numbers, quoted cells holding
#: a separator or a line break, and characters that ``str.strip`` or
#: ``str.splitlines`` read as space or a line break but universal newlines do not.
_RAW_CELLS = st.one_of(
    st.sampled_from(["0", "1.5", " 2 ", "-0.0", "1e3", "7", "0.25", "1_0", "nan", "", "1e", "x"]),
    st.sampled_from(['"1,5"', '"a,b"', '"a\nb"', '"a\rb"', '"a\r\nb"', '" 3 "', '"4"', '"']),
    st.text(st.sampled_from('ab1.,"# \x0b\x0c\x1c\x85\xa0\u2028\u3000'), max_size=4),
)
#: A quoted cell past ``csv.field_size_limit()``: a CSV syntax error.
_HUGE_CELL = '"' + "a" * (csv.field_size_limit() + 1) + '"'


@st.composite
def _raw_csv_texts(draw):
    """CSV text as a file could hold it: a header that is mostly good, rows
    that are mostly good, comment and blank lines, mixed line endings, and
    optionally a late row with a syntax error, a lone surrogate or a NUL."""
    # hypothesis favours the first choice of a sampled_from, so the good one comes first
    n = draw(st.sampled_from([2, 3, 4, 2, 3, 1]))
    if draw(st.sampled_from([True, True, True, True, True, False])):
        header = ",".join(["id", *(f"f{k}" for k in range(n))])
    else:
        header = ",".join(draw(st.lists(_RAW_CELLS, min_size=1, max_size=4)))
    number = st.sampled_from(["0", "1.5", " 2 ", "-0.0", "1e3", "7", "0.25", '"4"'])
    row = st.tuples(
        st.one_of(*[st.from_regex(r"[a-z][0-9]{0,2}", fullmatch=True)] * 5, _RAW_CELLS),
        st.sampled_from([True] * 9 + [False]).flatmap(
            # a cell missing or extra, or a raw cell, in one row of ten
            lambda good: st.lists(number, min_size=n, max_size=n) if good else
            st.lists(_RAW_CELLS, min_size=n - 1, max_size=n + 1)
        ),
    ).map(lambda r: ",".join([r[0], *r[1]]))
    comment = st.tuples(st.sampled_from(["", " ", "\t", "\x0c", "\x85"]), _RAW_CELLS).map(
        lambda c: c[0] + "#" + c[1]
    )
    other = st.one_of(comment, st.sampled_from(["", "", "", " ", ","]))
    lines = [header, *draw(st.lists(st.one_of(row, row, row, other), min_size=1, max_size=8))]
    late = draw(st.sampled_from([None, None, None, None, "a," + _HUGE_CELL, "b,1", "c,1,x,2"]))
    if late is not None:
        lines.append(late)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    odd = draw(st.sampled_from([None] * 6 + ["\ud800", "\udc80", "\x00"]))
    if odd is not None:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + odd + text[at:]
    return text


@settings(max_examples=600, deadline=None)
@given(text=_raw_csv_texts())
def test_load_csv_matches_reference_on_raw_text(text):
    # the CSV reader itself, fed raw text: fronts and errors, precedence included
    want = _load_outcome(reference_load_csv, text)
    assert _load_outcome(load_front, text, format="csv") == want
    if not front_module._LONE_SURROGATE.search(text):
        assert _load_outcome(load_front, text.encode("utf-8"), format="csv") == want


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


_ANY_TEXT = st.text(
    st.one_of(st.sampled_from('#, "\t\r\n'), st.characters(blacklist_categories=("Cs",))),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(2, 3))
def test_write_csv_raises_or_round_trips(data, m, n):
    ids = data.draw(st.lists(_ANY_TEXT, min_size=m, max_size=m, unique=True))
    names = data.draw(st.lists(_ANY_TEXT, min_size=n, max_size=n, unique=True))
    rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                              min_size=m, max_size=m))
    front = make_front(rows, ids=ids, names=names)
    buf = io.StringIO()
    try:
        write_front(front, buf, format="csv")
    except ParseError:
        assert buf.getvalue() == ""  # nothing written before the check
        return
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


#: A decision vector: absent, empty or a few floats.
_DECISION_VECTOR = st.one_of(
    st.none(), st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3)
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(2, 3))
def test_round_trip_json_property(data, m, n):
    ids = data.draw(st.lists(_ANY_TEXT, min_size=m, max_size=m, unique=True))
    names = data.draw(st.lists(_ANY_TEXT, min_size=n, max_size=n, unique=True))
    senses = data.draw(st.lists(st.sampled_from(["min", "max"]), min_size=n, max_size=n))
    cell = st.floats(allow_nan=False, allow_infinity=False)
    rows = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=m, max_size=m))
    xs = data.draw(
        st.one_of(
            st.none(),
            st.just([None] * m),
            st.lists(_DECISION_VECTOR, min_size=m, max_size=m),
        )
    )
    front = Front(tuple(names), tuple(senses), tuple(ids), np.array(rows), xs)
    buf = io.StringIO()
    write_front(front, buf, format="json")
    assert load_front(buf.getvalue(), format="json") == front
    # a tuple of only None entries is stored as None, as the loader reads it back
    assert front.decision_vectors is None or any(x is not None for x in front.decision_vectors)


def test_front_is_immutable():
    front = make_front([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        front.objectives[0, 0] = 5.0

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


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(65, 400),
    n=st.integers(2, 6),
    levels=st.integers(2, 8),
    seed=st.integers(0, 2**31),
)
def test_dominance_filter_matches_oracle_across_blocks(m, n, levels, seed):
    # M > 64 spans several filter blocks; quantised values give ties, and
    # re-drawn rows give exact duplicates far apart in input and sort order
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, levels, (m, n)) / levels
    rows[rng.integers(0, m, m // 4)] = rows[rng.integers(0, m, m // 4)]
    rows[:, rng.random(n) < 0.5] *= -1
    kept, removed = dominance_filter(make_front(rows))
    oracle = brute_force_nondominated(rows.tolist())
    assert [int(s[1:]) for s in kept.ids] == oracle
    dropped = sorted(set(range(m)) - set(oracle))
    assert removed == [f"p{k}" for k in dropped]


def _block_boundary_rows(case):
    """Two-column rows placed around the filter's first 64-row block boundary.

    Returns the rows and the indices of those expected to be removed.  The
    ``count`` fillers (k, 100 - k) sort first, are mutually nondominated and
    dominate none of the rows after them.
    """
    if case == "run":
        # five copies of (62, 0) at sorted positions 62..66, then rows that
        # only the copies dominate (one ties them in column 0)
        count, special = 62, [[62, 0]] * 5 + [[62, 1], [63, 0], [70, 5]]
        removed = [67, 68, 69]
    else:
        # (63, 1) at sorted position 64 ties its only dominator (63, 0),
        # which sorts last in the first block, in column 0
        count, special = 63, [[63, 0], [63, 1]]
        removed = [64]
    return [[k, 100 - k] for k in range(count)] + special, removed


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("case", ["run", "tie"])
def test_dominance_filter_block_boundary(case, n):
    rows, removed_rows = _block_boundary_rows(case)
    rows = np.array(rows, dtype=float)
    # extra columns that order the rows like column 1 keep every dominance
    # relation; with n=2 the <= test past column 0 compares one column
    rows = np.hstack([rows] + [rows[:, 1:] * (k + 1) for k in range(n - 2)])
    perm = np.random.default_rng(0).permutation(len(rows))  # input order != sort order
    kept, removed = dominance_filter(make_front(rows[perm]))
    assert [int(s[1:]) for s in kept.ids] == brute_force_nondominated(rows[perm].tolist())
    assert sorted(int(perm[int(s[1:])]) for s in removed) == removed_rows


def test_dominance_filter_keeps_every_copy_of_the_best_row():
    # the copies fill the whole window; none of them dominates another
    rng = np.random.default_rng(12)
    best = rng.uniform(0, 0.1, 4)
    rows = np.vstack([np.tile(best, (100, 1)), best + rng.uniform(0.01, 1, (150, 4))])
    perm = rng.permutation(len(rows))
    kept, removed = dominance_filter(make_front(rows[perm]))
    assert sorted(int(perm[int(s[1:])]) for s in kept.ids) == list(range(100))
    assert len(removed) == 150


@pytest.mark.parametrize("extra", [0, 1])
def test_dominance_filter_window_sized_fronts(extra):
    # M = _FILTER_WINDOW puts every row in the window, one more leaves one out
    m = _FILTER_WINDOW + extra
    for seed in range(30):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 3, (m, 3)) / 2
        rows[rng.integers(0, m, 3)] = rows[rng.integers(0, m, 3)]
        kept, _ = dominance_filter(make_front(rows))
        assert [int(s[1:]) for s in kept.ids] == brute_force_nondominated(rows.tolist())


def test_dominance_filter_window_rows_tie_in_the_sum():
    # the 33 rows (k, 32 - k) and their copies all score exactly 1 (the
    # constant column adds 0), so the window is a tie; (k + 1, 32 - k) is
    # dominated by the line rows k and k + 1 only
    line = [[k, 32 - k, 5] for k in range(33)]
    rows = np.array(line + line[::4] + [[k + 1, 32 - k, 5] for k in range(32)], dtype=float)
    perm = np.random.default_rng(4).permutation(len(rows))
    kept, removed = dominance_filter(make_front(rows[perm]))
    assert [int(s[1:]) for s in kept.ids] == brute_force_nondominated(rows[perm].tolist())
    assert sorted(int(perm[int(s[1:])]) for s in removed) == list(range(42, 74))


def test_dominance_filter_raises_no_float_warning_at_the_range_ends():
    top = np.finfo(float).max
    values = [-top, -1e308, -1.0, -0.0, 0.0, 5e-324, 1e308, top]
    rng = np.random.default_rng(9)
    rows = rng.choice(values, (60, 3))
    rows[:, 2] = rng.choice([0.0, 5e-324], 60)  # a spread that halves to zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept, _ = dominance_filter(make_front(rows))
    assert [int(s[1:]) for s in kept.ids] == brute_force_nondominated(rows.tolist())


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 150),
    n=st.integers(2, 5),
    levels=st.integers(2, 6),
    size=st.integers(0, 2 * _FILTER_WINDOW),
    seed=st.integers(0, 2**31),
)
def test_dominance_filter_output_does_not_depend_on_the_window(m, n, levels, size, seed):
    # any rows, repeated or none, may form the window
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, levels, (m, n)) / levels
    rows[rng.integers(0, m, m // 4)] = rows[rng.integers(0, m, m // 4)]
    window = rng.integers(0, m, size)
    with mock.patch.object(front_module, "_filter_window", lambda lines: window):
        kept, removed = dominance_filter(make_front(rows))
    oracle = brute_force_nondominated(rows.tolist())
    assert [int(s[1:]) for s in kept.ids] == oracle
    assert removed == [f"p{k}" for k in sorted(set(range(m)) - set(oracle))]


@pytest.mark.parametrize("shape", ["cube", "sphere-octant"])
def test_dominance_filter_peak_memory(shape):
    rng = np.random.default_rng(5)
    rows = rng.uniform(0, 1, (5000, 5))
    if shape == "sphere-octant":
        rows = np.abs(rng.normal(size=(5000, 5)))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    front = make_front(rows)
    tracemalloc.start()
    try:
        _, removed = dominance_filter(front)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if shape == "sphere-octant":
        assert removed == []  # K = M, the archive's worst case
    assert peak < 16e6, peak / 1e6


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_json_peak_memory_stays_near_json_loads():
    # the loader parses the decoded text itself, with no buffer copy of it
    rng = np.random.default_rng(8)
    text = json.dumps({
        "objectives": [f"f{k}" for k in range(5)],
        "solutions": [
            {"id": f"s{k}", "f": row, "x": x}
            for k, (row, x) in enumerate(zip(rng.uniform(0, 1, (2000, 5)).tolist(),
                                             rng.uniform(0, 1, (2000, 3)).tolist()))
        ],
    })
    ratio = _peak_bytes(load_front, text, format="json") / _peak_bytes(json.loads, text)
    assert ratio < 2.2, ratio


def test_load_json_from_bytes_peak_memory_stays_near_json_loads():
    # the text decoded from the bytes is dropped before the column pass
    rng = np.random.default_rng(8)
    values, xs = rng.uniform(0, 1, (2000, 5)).tolist(), rng.uniform(0, 1, (2000, 3)).tolist()
    text = json.dumps({
        "objectives": [f"f{k}" for k in range(5)],
        "solutions": [{"id": f"s{k}", "f": f, "x": x} for k, (f, x) in enumerate(zip(values, xs))],
    })
    data = text.encode("utf-8")
    ratio = _peak_bytes(load_front, data, format="json") / _peak_bytes(json.loads, text)
    assert ratio < 1.45, ratio


@pytest.mark.parametrize("last_row", ["", "bad,0.5\n"], ids=["good", "short-last-row"])
def test_load_csv_peak_memory_stays_near_text_size(last_row):
    # rows are converted as the reader yields them, with no list of cell strings,
    # and a bad row is reported from the same pass
    rng = np.random.default_rng(9)
    rows = rng.uniform(0, 1, (2000, 5)).tolist()
    text = "id,f0,f1,f2,f3,f4\n" + "".join(
        f"s{k}," + ",".join(map(repr, row)) + "\n" for k, row in enumerate(rows)
    ) + last_row

    def load():
        if last_row:
            with pytest.raises(ParseError, match="row 'bad': expected 6 cells, got 2"):
                load_front(text, format="csv")
        else:
            load_front(text, format="csv")

    ratio = _peak_bytes(load) / len(text)
    assert ratio < 3, ratio


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
