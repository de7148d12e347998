"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import run
import workloads

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
TINY = 0.05


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Every workload, untraced and traced, at a tiny size."""
    workdir = tmp_path_factory.mktemp("inputs")
    return {
        (name, trace): run.run_workload(name, 7, 0.2, trace, scale=TINY, workdir=workdir)
        for name in workloads.WORKLOADS
        for trace in (0, 1)
    }


def test_spec_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_reports_its_metrics_without_failures(records):
    for (name, trace), record in records.items():
        result = record["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1 and record["notes"]["fail_share"] == 0
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        assert all(NAME.match(n) for n in result["metrics"])
        json.loads(json.dumps(result))
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), name


def test_traced_run_covers_every_layer(records):
    layer = {(name, key): m["value"]
             for (name, trace), r in records.items() if trace
             for key, m in r["result"]["metrics"].items()}
    for m in SPEC["per_layer"]:
        values = [layer[name, m["name"]] for name in workloads.WORKLOADS]
        if m["name"].endswith(".errors"):
            assert not any(values), m["name"]
        elif m["name"] != "normalize.degenerate_cols":
            assert max(values) > 0, m["name"]
    assert layer["sphere-cli-dnc", "filter.busy_s"] == 0
    assert layer["cube-filter", "cli.busy_s"] == 0
    assert layer["sphere-cli-dnc", "cli.busy_s"] > 0


def test_corrupted_expectation_is_a_failure(tmp_path, monkeypatch, capsys):
    real_build = workloads.build

    def corrupted(name, seed, workdir, scale=1.0):
        wl = real_build(name, seed, workdir, TINY)
        wl.items[0] = replace(wl.items[0], expected=wl.items[0].expected | {"no-such-id"})
        return wl

    monkeypatch.setattr(workloads, "build", corrupted)
    monkeypatch.setattr(run, "OUT", tmp_path)
    status = run.main(["--workload", "cube-filter", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert not result["correct"]
    assert result["failed"] >= run.SETUP_REPEATS
    assert result["metrics"]["ok_share"]["value"] < 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cube-filter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _naive_nondominated(f):
    return np.array([
        not any(all(f[j] <= f[i]) and any(f[j] < f[i]) for j in range(len(f)))
        for i in range(len(f))
    ])


def test_oracle_filter_matches_pairwise_definition():
    rng = np.random.default_rng(5)
    for m, n in itertools.product((1, 7, 40), (2, 3, 5)):
        f = rng.integers(0, 4, size=(m, n)).astype(float)  # ties and duplicates
        assert (workloads.nondominated(f, chunk=3) == _naive_nondominated(f)).all()


def test_oracle_winners_include_ties_and_skip_flat_columns():
    f = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [0.6, 0.6, 5.0]])
    assert workloads.expected_winners(["a", "b", "c"], f) == {"a", "b"}


def test_tail_leaves_ten_samples_above():
    assert run.tail([float(k) for k in range(100)])[0] == 90
    assert run.tail([float(k) for k in range(40)])[0] == 75
    assert run.tail([1.0] * 5) == (50, 1.0)
