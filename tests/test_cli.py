import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knee_mcdm
from knee_mcdm import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def table1_csv(tmp_path, capsys):
    path = tmp_path / "table1.csv"
    code, _, err = run_cli(
        ["gen", "--family", "table1", "--output", str(path)], capsys
    )
    assert code == 0, err
    return str(path)


def test_select_mmd_table1(table1_csv, capsys):
    code, out, _ = run_cli(
        ["select", "--method", "mmd", "--input", table1_csv], capsys
    )
    assert code == 0
    assert "winner ids: x6" in out
    assert "c_min_mmd: 0.844784" in out
    assert "representative: x6" in out


def test_select_dnc_prints_trace(table1_csv, capsys):
    code, out, _ = run_cli(
        ["select", "--method", "dnc", "--seed", "7", "--input", table1_csv], capsys
    )
    assert code == 0
    assert "winner ids: x6" in out
    assert "trace (15 comparisons):" in out


def test_select_json_output_is_stable(table1_csv, capsys, tmp_path):
    args = [
        "select", "--method", "ws", "--input", table1_csv, "--output-format", "json",
    ]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second
    doc = json.loads(first)
    assert doc["winner_ids"] == ["x6"]
    assert doc["method"] == "ws"
    assert doc["c_min_ws"] == pytest.approx(0.9167, abs=5e-4)


def test_select_csv_scores_output(table1_csv, capsys):
    code, out, _ = run_cli(
        ["select", "--input", table1_csv, "--output-format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,mmd,ws,winner"
    assert len(lines) == 17
    winners = [line for line in lines[1:] if line.endswith(",1")]
    assert len(winners) == 1 and winners[0].startswith("x6,")


def test_csv_outputs_quote_ids(tmp_path, capsys):
    path = tmp_path / "quoted.csv"
    path.write_text('id,f1,f2\n"a,b",0,1\n"q""x",0.4,0.4\nc,1,0\n')
    code, out, _ = run_cli(
        ["select", "--input", str(path), "--output-format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "mmd", "ws", "winner"]
    assert [row[0] for row in rows[1:]] == ["a,b", 'q"x', "c"]
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows[1:] if row[3] == "1"] == ['q"x']

    code, out, _ = run_cli(
        ["rank", "--input", str(path), "--output-format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rank", "ids", "mmd", "ws"]
    assert rows[1][:2] == ["1", 'q"x']
    assert rows[2][:2] == ["2", "a,b;c"]
    assert all(len(row) == 4 for row in rows)


def test_select_single_solution(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("id,f1,f2\nonly,3.5,4.5\n")
    code, out, _ = run_cli(["select", "--input", str(path)], capsys)
    assert code == 0
    assert "winner ids: only" in out
    assert "c_min_mmd: 0" in out


def test_select_applies_dominance_filter_by_default(tmp_path, capsys):
    path = tmp_path / "dom.csv"
    path.write_text("id,f1,f2\na,0,1\nb,1,0\nc,1,1\n")
    code, out, _ = run_cli(["select", "--input", str(path)], capsys)
    assert code == 0
    assert "filtered dominated ids: c" in out
    code, out, _ = run_cli(["select", "--input", str(path), "--no-filter"], capsys)
    assert code == 0
    assert "filtered" not in out


def test_select_maximize_flag(tmp_path, capsys):
    path = tmp_path / "mx.csv"
    # maximizing f2 turns (0,5) into the all-around best solution
    path.write_text("id,f1,f2\na,0,5\nb,1,4\n")
    code, out, _ = run_cli(
        ["select", "--input", str(path), "--maximize", "f2"], capsys
    )
    assert code == 0
    assert "filtered dominated ids: b" in out
    assert "winner ids: a" in out


def test_select_writes_output_file(table1_csv, capsys, tmp_path):
    out_path = tmp_path / "decision.json"
    code, out, _ = run_cli(
        [
            "select", "--input", table1_csv,
            "--output", str(out_path), "--output-format", "json",
        ],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["winner_ids"] == ["x6"]


@pytest.mark.parametrize("output_format", ["json", "csv", "text"])
def test_output_file_matches_stdout_across_write_slices(
    output_format, table1_csv, capsys, tmp_path, monkeypatch
):
    args = ["select", "--method", "dnc", "--input", table1_csv, "--output-format", output_format]
    _, want, _ = run_cli(args, capsys)
    monkeypatch.setattr(cli, "_WRITE_CHARS", 7)
    assert run_cli(args, capsys)[1] == want
    out_path = tmp_path / "out"
    assert run_cli([*args, "--output", str(out_path)], capsys)[0] == 0
    assert out_path.read_bytes() == want.encode("utf-8")


def test_select_dnc_json_peak_memory_stays_near_input_size(tmp_path):
    # records are packed as they are decoded, the tournament is kept as
    # columns, and the output is formatted and written a slice at a time
    rng = np.random.default_rng(3)
    f = np.abs(rng.standard_normal((5000, 5)))
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    records = zip(f.tolist(), rng.uniform(0, 1, (5000, 4)).tolist())
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps({
        "objectives": [f"f{k}" for k in range(5)],
        "senses": ["min"] * 5,
        "solutions": [{"id": f"s{k}", "f": row, "x": x} for k, (row, x) in enumerate(records)],
    }))
    argv = ["select", "--method", "dnc", "--no-filter", "--format", "json", "--output-format",
            "json", "--input", str(path), "--output", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0  # first-call allocations are not the op's
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / path.stat().st_size
    assert ratio < 3.6, ratio


def test_rank_text_output(table1_csv, capsys):
    code, out, _ = run_cli(["rank", "--input", table1_csv], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 17
    assert lines[1].split()[-1] == "x6"
    assert lines[2].split()[-1] == "x2"
    assert lines[3].split()[-1] == "x8"


def test_rank_json_output(table1_csv, capsys):
    code, out, _ = run_cli(
        ["rank", "--input", table1_csv, "--output-format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["rank"] == 1 and doc[0]["ids"] == ["x6"]


def test_verify_pass(table1_csv, capsys):
    code, out, _ = run_cli(
        ["verify", "--input", table1_csv, "--seed", "1", "--seed", "2"], capsys
    )
    assert code == 0
    assert "input front: pass" in out


def test_verify_self_test(table1_csv, capsys):
    code, out, _ = run_cli(
        ["verify", "--input", table1_csv, "--self-test", "10"], capsys
    )
    assert code == 0
    assert "self-test fronts: 10/10 pass" in out


def test_verify_self_test_reports_labels_and_class_counts(table1_csv, capsys, monkeypatch):
    code, out, _ = run_cli(
        ["verify", "--input", table1_csv, "--self-test", "3"], capsys
    )
    assert code == 0
    assert out.endswith(
        "self-test fronts: 3/3 pass (classes per front: min 3, median 4, max 7)\n"
    )

    from knee_mcdm.selection import EquivalenceReport

    def failing_verify(nf, eps, seeds):
        return EquivalenceReport(False, {}, 0.0, ("stub issue",), classes=1)

    monkeypatch.setattr(cli, "verify_equivalence", failing_verify)
    code, out, _ = run_cli(
        ["verify", "--input", table1_csv, "--self-test", "2"], capsys
    )
    assert code == 4
    assert "  self-test convex2d[0]: FAIL\n    stub issue\n" in out
    assert "  self-test sphere(M=3,N=3)[1]: FAIL\n" in out
    assert "self-test fronts: 0/2 pass" in out


def test_verify_partitions_each_front_once(table1_csv, capsys, monkeypatch):
    from knee_mcdm import normalize, selection

    calls = []
    build_classes = selection.build_classes

    def counting_build_classes(nf, epsilon):
        calls.append(nf)
        return build_classes(nf, epsilon)

    monkeypatch.setattr(selection, "build_classes", counting_build_classes)
    with open(table1_csv, "rb") as handle:
        report = selection.verify_equivalence(normalize(knee_mcdm.load_front(handle)))
    assert report.passed and report.classes == 16
    assert len(calls) == 1

    calls.clear()
    code, _, _ = run_cli(["verify", "--input", table1_csv, "--self-test", "5"], capsys)
    assert code == 0
    assert len(calls) == 1 + 5


def test_verify_negative_self_test_exits_2(table1_csv, capsys):
    code, out, err = run_cli(
        ["verify", "--input", table1_csv, "--self-test", "-1"], capsys
    )
    assert code == 2 and out == ""
    assert "--self-test must be >= 0" in err


def test_corrupt_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("id,f1,f2\na,1\n")
    code, _, err = run_cli(["select", "--input", str(path)], capsys)
    assert code == 2
    assert "error:" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(["select", "--input", "/nonexistent/nope.csv"], capsys)
    assert code == 2


def test_identical_solutions_exit_3(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("id,f1,f2\na,1,2\nb,1,2\n")
    code, _, err = run_cli(["select", "--input", str(path)], capsys)
    assert code == 3
    assert "zero spread" in err


def test_plot_2d_front(tmp_path, capsys):
    front_path = tmp_path / "cvx.csv"
    run_cli(
        ["gen", "--family", "convex2d", "--samples", "25",
         "--seed", "3", "--output", str(front_path)],
        capsys,
    )
    svg_path = tmp_path / "cvx.svg"
    code, _, _ = run_cli(
        ["plot", "--input", str(front_path), "--output", str(svg_path)], capsys
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg ") and "<polygon " in svg


def test_plot_3d_front_exits_5(tmp_path, capsys):
    path = tmp_path / "s3.csv"
    run_cli(
        ["gen", "--family", "sphere3d", "--samples", "9", "--output", str(path)],
        capsys,
    )
    code, _, err = run_cli(["plot", "--input", str(path)], capsys)
    assert code == 5
    assert "2-objective" in err


def test_gen_json_and_stdin_select(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(
        ["gen", "--family", "line2d", "--samples", "6", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["solutions"]) == 6


def test_gen_negative_seed_exits_2():
    src = str(Path(knee_mcdm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "knee_mcdm", "gen", "--family", "convex2d", "--seed", "-1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2, proc.stderr
    assert "seed must be >= 0, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_select_reads_utf8_only(tmp_path, capsys, monkeypatch):
    def from_stdin(stdin):
        monkeypatch.setattr(sys, "stdin", stdin)
        return run_cli(["select", "--input", "-"], capsys)

    code, out, _ = from_stdin(io.TextIOWrapper(io.BytesIO(TWO_POINT_TIE.encode())))
    assert code == 0 and "winner ids: a b\n" in out
    code, out, _ = from_stdin(io.StringIO(TWO_POINT_TIE))  # no .buffer
    assert code == 0 and "winner ids: a b\n" in out

    latin1 = b"id,f1,f2\n\xe9,0,1\nb,1,0\n"
    code, out, err = from_stdin(io.TextIOWrapper(io.BytesIO(latin1)))
    assert code == 2 and out == ""
    assert "not UTF-8" in err
    path = tmp_path / "latin1.csv"
    path.write_bytes(latin1)
    code, out, err = run_cli(["select", "--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert "not UTF-8" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_leading_byte_order_mark_is_dropped(fmt, tmp_path, capsys, monkeypatch):
    code, text, _ = run_cli(["gen", "--family", "table1", "--format", fmt], capsys)
    assert code == 0
    args = ["select", "--format", fmt, "--output-format", "json", "--input"]
    results = []
    for data in (text, "\ufeff" + text):
        path = tmp_path / f"front.{fmt}"
        path.write_text(data, encoding="utf-8")
        results.append(run_cli([*args, str(path)], capsys))
        for stdin in (io.TextIOWrapper(io.BytesIO(data.encode())), io.StringIO(data)):
            monkeypatch.setattr(sys, "stdin", stdin)
            results.append(run_cli([*args, "-"], capsys))
    assert results[0][0] == 0
    assert all(result == results[0] for result in results)

    plain, marked = (knee_mcdm.load_front(s, format=fmt) for s in (text, "\ufeff" + text))
    assert marked.ids == plain.ids and marked.objective_names == plain.objective_names
    assert marked.objectives.tolist() == plain.objectives.tolist()


def test_rank_csv_escapes_id_separator(tmp_path, capsys):
    def class_cell(front_text):
        path = tmp_path / "front.csv"
        path.write_text("id,f1,f2\nw,0.1,0.6\n" + front_text)
        code, out, _ = run_cli(
            ["rank", "--input", str(path), "--output-format", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[1] for row in rows[:2]] == ["ids", "w"] and len(rows) == 3
        return rows[2][1]

    assert class_cell("a;b,0,1\nc,1,0\n") == "a\\;b;c"
    assert class_cell("a,0,1\nb,0.5,0.5\nc,1,0\n") == "a;b;c"
    assert class_cell("a\\,0,1\nb,1,0\n") == "a\\\\;b"


def test_epsilon_env_var(tmp_path, capsys, monkeypatch):
    # interior solutions scored 1e-7 apart: the default epsilon keeps them
    # separate, the env override merges them into one winner class
    path = tmp_path / "near.csv"
    path.write_text(
        "id,f1,f2\ne1,0.0,1.0\ne2,1.0,0.0\na,0.2,0.3\nb,0.2000002,0.2999999\n"
    )
    code, out, _ = run_cli(["select", "--input", str(path)], capsys)
    assert "winner ids: a\n" in out
    monkeypatch.setenv(cli.EPSILON_ENV, "1e-5")
    code, out, _ = run_cli(["select", "--input", str(path)], capsys)
    assert "winner ids: a b" in out
    # explicit flag beats the environment
    code, out, _ = run_cli(
        ["select", "--input", str(path), "--epsilon", "1e-9"], capsys
    )
    assert "winner ids: a\n" in out


def test_bad_epsilon_env_var(table1_csv, capsys, monkeypatch):
    monkeypatch.setenv(cli.EPSILON_ENV, "banana")
    code, _, err = run_cli(["select", "--input", table1_csv], capsys)
    assert code == 2
    assert "not a number" in err


TWO_POINT_TIE = "id,f1,f2\na,0,1\nb,1,0\n"

BAD_INPUTS = {
    "spread-overflow.csv": "id,f1,f2\na,-1e308,1e308\nb,1e308,-1e308\nc,0,0\n",
    "empty-id.csv": "id,f1,f2\n,0,1\nb,1,0\n",
    "x-not-numbers.json": json.dumps(
        {"objectives": ["f1", "f2"], "solutions": [{"id": "a", "f": [0, 1], "x": ["u"]}]}
    ),
    "senses-string.json": json.dumps(
        {"objectives": ["f1", "f2"], "senses": "min", "solutions": [{"id": "a", "f": [0, 1]}]}
    ),
    "objectives-string.json": json.dumps(
        {"objectives": "ab", "solutions": [{"id": "a", "f": [0, 1]}, {"id": "b", "f": [1, 0]}]}
    ),
    "deep.json": "[" * 100000 + "]" * 100000,
    "duplicate-names.csv": "id,a,a\nx,0,1\ny,1,0\n",
    "huge-cell.csv": "id,f1,f2\n" + "a" * 200000 + ",0,1\nb,1,0\n",
    "huge-int.json": '{"objectives": ["f1", "f2"], "solutions": [{"id": "a", "f": [1'
    + "0" * 5000 + ", 0]}]}",
    "empty-name.csv": "id,a,\nx,0,1\ny,1,0\n",
    "x-huge-int.json": json.dumps(
        {"objectives": ["f1", "f2"], "solutions": [{"id": "a", "f": [0, 1], "x": [10**400]}]}
    ),
    "x-not-a-list.json": json.dumps(
        {"objectives": ["f1", "f2"], "solutions": [{"id": "a", "f": [0, 1], "x": 5}]}
    ),
    "record-not-an-object.json": json.dumps(
        {"objectives": ["f1", "f2"], "solutions": [1, 2]}
    ),
    **{
        f"{name}.json": json.dumps(
            {"objectives": names, "solutions": [{"id": "b", "f": [1, 0]}, {"id": sid, "f": f, **x}]}
        )
        for name, names, sid, f, x in [
            ("id-null", ["f1", "f2"], None, [0, 1], {}),
            ("id-bool", ["f1", "f2"], True, [0, 1], {}),
            ("id-list", ["f1", "f2"], ["a"], [0, 1], {}),
            ("id-object", ["f1", "f2"], {"a": 1}, [0, 1], {}),
            ("f-bool", ["f1", "f2"], "a", [False, True], {}),
            ("x-bool", ["f1", "f2"], "a", [0, 1], {"x": [True]}),
            ("f-string", ["f1", "f2"], "a", ["1_0", " 2 "], {}),
            ("x-string", ["f1", "f2"], "a", [0, 1], {"x": ["7"]}),
            ("x-nan", ["f1", "f2"], "a", [0, 1], {"x": [float("nan")]}),
            ("objective-name-null", [None, "f2"], "a", [0, 1], {}),
            ("id-lone-surrogate", ["f1", "f2"], "\ud800", [0, 1], {}),
            ("objective-name-lone-surrogate", ["a\udc00", "f2"], "a", [0, 1], {}),
        ]
    },
}


@pytest.mark.parametrize(
    "command",
    [["select", "--method", m] for m in ("mmd", "ws", "dnc")] + [["rank"]],
    ids=["mmd", "ws", "dnc", "rank"],
)
@pytest.mark.parametrize(
    "flag, env",
    [("-1", None), ("nan", None), (None, "nan")],
    ids=["flag-negative", "flag-nan", "env-nan"],
)
def test_bad_epsilon_exits_2(command, flag, env, tmp_path, capsys, monkeypatch):
    path = tmp_path / "tie.csv"
    path.write_text(TWO_POINT_TIE)
    args = command + ["--input", str(path)]
    if flag is not None:
        args += ["--epsilon", flag]
    if env is not None:
        monkeypatch.setenv(cli.EPSILON_ENV, env)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "epsilon must be finite and >= 0" in err


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2(name, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(BAD_INPUTS[name])
    fmt = path.suffix[1:]
    code, _, err = run_cli(["select", "--input", str(path), "--format", fmt], capsys)
    assert code == 2
    assert err.startswith("error:")


#: Runs ``cli.main`` over ``(name, argv, env)`` cases given as JSON in argv[1];
#: prints a JSON map from name to exit code, or to the traceback text of any
#: exception ``main`` let through.
_EXIT_CODES_CHILD = """
import contextlib, io, json, os, sys, traceback
from knee_mcdm import cli
codes = {}
for name, argv, env in json.loads(sys.argv[1]):
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = cli.main(argv)
    except Exception:
        codes[name] = traceback.format_exc()
    for key in env:
        del os.environ[key]
print(json.dumps(codes))
"""


def _assert_each_exits_2_in_one_child(interpreter_flags, command, cases, tmp_path):
    """Run ``command`` on each ``(env, name, text)`` case through ``cli.main``,
    all in one interpreter started with ``interpreter_flags``, and assert that
    every case exits 2 with no traceback."""
    runs = []
    for extra, name, text in cases:
        path = tmp_path / name
        path.write_text(text)
        runs.append((name, command + ["--input", str(path), "--format", path.suffix[1:]], extra))
    src = str(Path(knee_mcdm.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *interpreter_flags, "-c", _EXIT_CODES_CHILD, json.dumps(runs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    for name, _, _ in runs:
        assert codes[name] == 2, (name, codes[name])


def test_errors_exit_2_under_optimized_interpreter(tmp_path):
    # -O strips asserts: every check on these paths must raise regardless
    cases = [({cli.EPSILON_ENV: "nan"}, "tie.csv", TWO_POINT_TIE)]
    cases += [({}, name, text) for name, text in BAD_INPUTS.items()]
    _assert_each_exits_2_in_one_child(["-O"], ["select", "--method", "dnc"], cases, tmp_path)


def test_errors_exit_2_under_warnings_as_errors(tmp_path):
    # -W error turns a floating-point RuntimeWarning into a traceback (exit 1)
    cases = [({}, name, text) for name, text in BAD_INPUTS.items()]
    _assert_each_exits_2_in_one_child(["-W", "error"], ["select"], cases, tmp_path)


def test_zero_spread_column_is_a_warning_line_under_warnings_as_errors(tmp_path):
    # the constant column c is excluded from scoring; that is a note, not a failure
    path = tmp_path / "constant-column.csv"
    path.write_text("id,a,b,c\np,0,1,5\nq,1,0,5\nr,0.4,0.4,5\n")
    src = str(Path(knee_mcdm.__file__).resolve().parents[1])
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "knee_mcdm", "select", "--input", str(path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        for flags in ([], ["-W", "error"])
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "warning: zero-spread objective(s) excluded from scoring: c\n"
        assert "cli.py" not in proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert "winner ids: r\n" in runs[0].stdout


def test_cli_import_skips_unused_stdlib_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, email, ssl and socket
    src = str(Path(knee_mcdm.__file__).resolve().parents[1])
    unused = ["xml.sax", "urllib.request", "http.client", "email", "ssl", "statistics"]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, knee_mcdm.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(set(unused) & set(proc.stdout.split())) == []


@pytest.mark.parametrize(
    "command",
    [
        ["select"],
        ["rank"],
        ["select", "--output-format", "csv"],
        ["rank", "--output-format", "csv"],
        ["plot"],
    ],
    ids=["select", "rank", "select-csv", "rank-csv", "plot"],
)
def test_stdout_is_utf8_under_ascii_locale(command, tmp_path):
    # stdout carries the same UTF-8 bytes as --output, whatever the locale's encoding
    src = str(Path(knee_mcdm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii")
    front = tmp_path / "front.csv"
    front.write_text("id,a,b\n\u20ac,0,1\nz,1,0\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "knee_mcdm", *command, "--input", str(front)]
    file_run = subprocess.run(argv + ["--output", str(out)], capture_output=True, env=env)
    assert file_run.returncode == 0, file_run.stderr
    proc = subprocess.run(argv, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()
    assert "\u20ac".encode("utf-8") in proc.stdout


def test_verify_reports_violation_with_exit_4(table1_csv, capsys, monkeypatch):
    # a disagreement is an implementation bug and cannot be produced through
    # the public surface; stub the check to exercise the exit-code plumbing
    from knee_mcdm.selection import EquivalenceReport

    def fake_verify(nf, eps, seeds):
        return EquivalenceReport(
            passed=False,
            winners={"mmd": ("a",), "ws": ("b",)},
            offset_gap=0.0,
            issues=("ws winner ['b'] != mmd winner ['a']",),
            classes=2,
        )

    monkeypatch.setattr(cli, "verify_equivalence", fake_verify)
    code, out, _ = run_cli(["verify", "--input", table1_csv], capsys)
    assert code == 4
    assert "FAIL" in out


def test_bench_quick_run(capsys):
    code, out, _ = run_cli(["bench", "--scale", "0.02"], capsys)
    assert code == 0
    assert "dnc slower than mmd/ws" in out
    assert "C1" in out and "C2" in out and "C3" in out


@pytest.mark.parametrize("scale", ["0", "nan", "inf"])
def test_bench_bad_scale_exits_2(scale, capsys):
    code, out, err = run_cli(["bench", "--scale", scale], capsys)
    assert code == 2 and out == ""
    assert "scale must be finite and > 0" in err


FUZZ_SEEDS = {
    "csv": b"id,f1,f2\na,0,1\nb,1,0\nc,0.2,0.7\n",
    "json": b'{"objectives":["f1","f2"],"solutions":[{"id":"a","f":[0,1]},'
    b'{"id":"b","f":[1,0]},{"id":"c","f":[0.2,0.7],"x":[1]}]}',
}
FUZZ_TOKENS = [
    b"", b"id", b"f1", b"f2", b"a", b"\n", b"\r", b" ", b".", b"-", b"e", b"nan",
    *(bytes([c]) for c in b"0123456789,;\"#"), b"\x00", b"\xff", b"\xc3",
    b"[", b"]", b"{", b"}", b'"senses"', b'"min"', b"a,0,1\n", b'{"id":"a","f":[0,1]},',
]


@st.composite
def fuzzed_front(draw):
    """A valid CSV or JSON front with up to five byte ranges replaced by tokens."""
    fmt = draw(st.sampled_from(sorted(FUZZ_SEEDS)))
    data = FUZZ_SEEDS[fmt]
    for _ in range(draw(st.integers(0, 5))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 4)))
        data = data[:start] + draw(st.sampled_from(FUZZ_TOKENS)) + data[end:]
    return fmt, data


@settings(max_examples=300, deadline=None)
@given(front=fuzzed_front(), method=st.sampled_from(["mmd", "ws", "dnc"]))
def test_fuzzed_input_exits_cleanly(tmp_path_factory, front, method):
    fmt, data = front
    path = tmp_path_factory.getbasetemp() / f"fuzz.{fmt}"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["select", "--method", method, "--input", str(path), "--format", fmt])
    assert code in (0, 2, 3)


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "knee_mcdm", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "knee-mcdm" in proc.stdout
