#!/usr/bin/env python3
"""End-to-end knee-selection benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from a source checkout: the program under test is always imported
from the ``src/`` directory next to this one, never from an installed copy.
Without ``--workload`` every workload runs in turn.

Each workload is a closed loop in one process: an op (one front through
the public pipeline) starts when the previous one has ended, for
``--seconds`` seconds (default: ``run_seconds`` in ``BENCHMARK.json``).
Every op's winner ids are checked against an oracle that does not use
``knee_mcdm``; an op that raises or disagrees is a failure.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reruns the loop with a span around every call into a layer
and reports the per-layer metrics.  Both print one line per metric (name,
value, unit) and the environment, then a JSON result as the last line, and
leave a record in ``perfbench/out/``.  The exit status is 1 when any op
failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import workloads
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

#: Set-ups (fresh import plus warm-up op) per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The tail percentile reported as ``op_p90_s`` leaves at least this many
#: samples above it.
TAIL_SAMPLES = 10
#: Failures printed in full to stderr per run.
SHOWN_FAILURES = 3


def import_fresh(modules: tuple[str, ...]):
    """Import ``knee_mcdm`` from ``SRC`` as if for the first time.

    numpy stays imported (the input generator needs it), so this measures
    the program's own import cost.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "knee_mcdm" or n.startswith("knee_mcdm.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    km = sys.modules["knee_mcdm"]
    if Path(km.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported knee_mcdm from {km.__file__}, not from {SRC}")
    return km


class Tally:
    """Counts ops attempted and failed, checking each output on arrival."""

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            print(f"{self.wl.name}: {message}", file=sys.stderr)

    def run(self, km, calls: dict, tracer, item: workloads.Item) -> float:
        """Run and check one op; return its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("op"):
                output = self.wl.op(km, calls, item)
        except Exception:
            elapsed = time.perf_counter() - t0
            self._fail("op raised\n" + traceback.format_exc())
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            got = self.wl.winners(output)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._fail(f"unreadable output: {exc!r}")
            return elapsed
        if got != item.expected:
            self._fail(f"winners {sorted(got)} != expected {sorted(item.expected)}")
        return elapsed


def _loop(wl, km, calls, tracer, tally: Tally, seconds: float, keep: dict | None) -> list[float]:
    """Closed loop over the workload's fronts for ``seconds``; per-op times.

    With ``keep`` (the traced run) each op is followed by a standalone
    ``build_classes`` probe on the op's normalized front, outside the op.
    """
    gc.collect()
    durations = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        item = wl.items[k % len(wl.items)]
        tracer.op = k
        durations.append(tally.run(km, calls, tracer, item))
        nf = keep.pop("nf", None) if keep is not None else None
        if nf is not None:
            try:
                with tracer.span("partition") as a:
                    a["classes"] = len(km.build_classes(nf, workloads.EPSILON))
            except Exception:
                traceback.print_exc(file=sys.stderr)
        k += 1
        if time.perf_counter() >= deadline:
            return durations


def _peaks(wl, km, calls, tally: Tally) -> list[int]:
    """tracemalloc peak bytes of one op on each front, outside the timed loop."""
    peaks = []
    tracemalloc.start()
    try:
        for item in wl.items:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tally.run(km, calls, NullTracer(), item)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peaks


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(durations: list[float]) -> tuple[int, float]:
    """The highest percentile, at most 90, with ``TAIL_SAMPLES`` samples
    above it (the median when there are too few samples), and its value."""
    n = len(durations)
    q = max(50, min(90, math.floor(100 * (n - TAIL_SAMPLES) / n)))
    if n < 2:
        return q, durations[0]
    return q, statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, mem_tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the spans of the traced run.

    ``<layer>.busy_s`` is the median over ops of the layer's self time in
    the op, taken over the ops that reach the layer (0 if none does);
    ``residual.busy_s`` is the part of an op no layer span covers.  Counts
    are medians over the spans that carry them, errors are totals.
    """
    busy: dict[str, dict[int, float]] = {}
    counts: dict[str, list] = {}
    metrics: dict[str, float] = {}
    op_times = []
    for (op, name, start, end, _, attrs), self_s in zip(tracer.spans, tracer.self_times()):
        layer = "residual" if name == "op" else name
        per_op = busy.setdefault(layer, {})
        per_op[op] = per_op.get(op, 0.0) + self_s
        if name == "op":
            op_times.append(end - start)
        for key, value in attrs.items():
            if key == "error":
                metrics[f"{name}.errors"] = metrics.get(f"{name}.errors", 0) + value
            else:
                counts.setdefault(f"{name}.{key}", []).append(value)
    for layer, per_op in busy.items():
        metrics[f"{layer}.busy_s"] = _median(per_op.values())
    for name, values in counts.items():
        metrics[name] = _median(values)
    metrics["filter.peak_mb"] = _median(
        a["peak_mb"] for _, _, _, _, _, a in mem_tracer.spans if "peak_mb" in a
    )
    metrics["trace.op_p50_s"] = _median(op_times)
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(wl: workloads.Workload, seed: int, trace: int, ops: int) -> dict:
    rows = [item.rows for item in wl.items]
    cols = [item.cols for item in wl.items]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "fronts": len(wl.items),
        "m": [min(rows), max(rows)],
        "n": [min(cols), max(cols)],
        "ops": ops,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: int, scale: float = 1.0, workdir: Path | None = None
) -> dict:
    """Build, set up, time and check one workload; return its full record.

    Input files go to ``workdir`` (default ``OUT``); ``scale`` multiplies
    the fronts' row counts.  The record holds ``result`` (the JSON the run
    prints last, with every metric of the run's kind), ``notes`` (ungated
    figures), ``env`` and, when traced, the ``tracer``.
    """
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wl = workloads.build(name, seed, workdir or OUT, scale)
    tally = Tally(wl)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        km = import_fresh(wl.modules)
        tally.run(km, workloads.plain_calls(km), NullTracer(), wl.items[0])
        setups.append(time.perf_counter() - t0)

    tracer = None
    if trace:
        tracer, keep, mem_tracer = Tracer(), {}, Tracer()
        calls = workloads.traced_calls(km, tracer, keep)
        mem_calls = workloads.traced_calls(km, mem_tracer, {})
        with workloads.patched_cli(km, calls) if wl.cli else nullcontext():
            durations = _loop(wl, km, calls, tracer, tally, seconds, keep)
        with workloads.patched_cli(km, mem_calls) if wl.cli else nullcontext():
            _peaks(wl, km, mem_calls, tally)
        values = layer_metrics(tracer, mem_tracer)
        wanted = spec["per_layer"]
    else:
        calls = workloads.plain_calls(km)
        durations = _loop(wl, km, calls, NullTracer(), tally, seconds, None)
        peaks = _peaks(wl, km, calls, tally)
        values = {
            "ops_per_s": len(durations) / sum(durations),
            "op_p50_s": statistics.median(durations),
            "op_p90_s": tail(durations)[1],
            "peak_mem_mb": statistics.median(peaks) / 1e6,
            "ok_share": 1.0 - tally.failed / tally.attempted,
            "setup_s": statistics.median(setups),
        }
        wanted = spec["end_to_end"]

    q, _ = tail(durations)
    return {
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
            },
        },
        "notes": {
            "fail_share": tally.failed / tally.attempted,
            "timed_ops": len(durations),
            "tail_percentile": q,
            "gen_s": wl.gen_s,
            "oracle_s": wl.oracle_s,
        },
        "env": environment(wl, seed, trace, len(durations)),
        "tracer": tracer,
    }


def report(record: dict) -> None:
    """Write the record under ``OUT`` and print it, the JSON result last."""
    env, notes, result = record["env"], record["notes"], record["result"]
    OUT.mkdir(exist_ok=True)
    stem = f"{env['workload']}.trace{env['trace']}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({k: record[k] for k in ("env", "notes", "result")}, indent=1) + "\n",
        encoding="utf-8",
    )
    if record["tracer"] is not None:
        record["tracer"].write(OUT / f"{env['workload']}.spans.jsonl")

    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']}")
    print("env " + json.dumps(env))
    for name, metric in result["metrics"].items():
        note = ""
        if name == "op_p90_s":
            note = f"  (p{notes['tail_percentile']} of {notes['timed_ops']} ops)"
        print(f"{name:<26}{metric['value']!r} {metric['unit']}{note}")
    print(f"{'fail_share':<26}{notes['fail_share']!r} share"
          f"  ({result['failed']} of {result['attempted']} ops)")
    for name in ("gen_s", "oracle_s"):
        print(f"{name:<26}{notes[name]!r} s  (input generation, not gated)")
    print(json.dumps(result))


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "knee_mcdm" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} is not a knee-mcdm source checkout "
              "(needs src/knee_mcdm and BENCHMARK.json)", file=sys.stderr)
        return 2
    seconds = args.seconds or json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        record = run_workload(name, args.seed, seconds, args.trace)
        report(record)
        if record["result"]["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
