"""Command line front end.

Subcommands: select (pick the knee class), rank (order all classes), verify
(cross-check the three rules), gen (write benchmark fronts), bench (timing
sweeps), plot (SVG of a 2-D decision).  The CLI only dispatches and formats;
all computation lives in the library modules.

Exit codes: 0 ok, 2 input error, 3 degenerate front, 4 equivalence
violation, 5 plot dimensionality error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import warnings

from . import __version__
from .bench import run_bench
from .errors import (
    AllDimensionsDegenerate,
    DegenerateSpreadWarning,
    EquivalenceViolation,
    KneeMCDMError,
)
from .front import Front, dominance_filter, load_front, normalize, write_front
from .generators import FAMILIES, FrontSpec, agreement_corpus, generate
from .selection import (
    DEFAULT_EPSILON,
    DEFAULT_SEEDS,
    Decision,
    rank,
    select_dnc,
    select_mmd,
    select_ws,
    verify_equivalence,
)
from .svgplot import render_decision_svg

EPSILON_ENV = "KNEE_MCDM_EPSILON"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_VIOLATION = 4
EXIT_PLOT_DIMS = 5


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="front file, or '-' for stdin")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--maximize",
        metavar="COL,...",
        help="comma-separated objective names to treat as larger-is-better",
    )
    p.add_argument(
        "--no-filter",
        action="store_true",
        help="skip the dominated-solution filter applied before selection",
    )
    p.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help=f"score-equality tolerance (default {DEFAULT_EPSILON}, or ${EPSILON_ENV})",
    )


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write here instead of stdout")
    p.add_argument(
        "--output-format", choices=("json", "csv", "text"), default="text"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knee-mcdm",
        description="Knee selection on approximate Pareto fronts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="pick the knee class of a front")
    _add_input_args(p)
    _add_output_args(p)
    p.add_argument("--method", choices=("mmd", "ws", "dnc"), default="mmd")
    p.add_argument("--seed", type=int, default=0, help="pairing seed for --method dnc")

    p = sub.add_parser("rank", help="order all equivalence classes")
    _add_input_args(p)
    _add_output_args(p)

    p = sub.add_parser("verify", help="cross-check the three selection rules")
    _add_input_args(p)
    p.add_argument(
        "--seed",
        type=int,
        action="append",
        help="tournament pairing seed (repeatable; default "
        + " ".join(map(str, DEFAULT_SEEDS)) + ")",
    )
    p.add_argument(
        "--self-test",
        type=int,
        metavar="N",
        default=0,
        help="also verify the first N fronts of the generated agreement corpus",
    )

    p = sub.add_parser("gen", help="write a benchmark front")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="write here instead of stdout")

    p = sub.add_parser("bench", help="wall-time comparison of the selectors")
    p.add_argument("--scale", type=float, default=1.0, help="repetition multiplier")
    p.add_argument("--output", help="write here instead of stdout")
    p.add_argument("--output-format", choices=("csv", "text"), default="text")

    p = sub.add_parser("plot", help="SVG scatter of a 2-D decision")
    _add_input_args(p)
    p.add_argument("--output", help="write here instead of stdout")

    return parser


def _senses_arg(args) -> dict[str, str] | None:
    if not args.maximize:
        return None
    return {name.strip(): "max" for name in args.maximize.split(",") if name.strip()}


def _read_front(args) -> Front:
    senses = _senses_arg(args)
    if args.input == "-":
        stdin = getattr(sys.stdin, "buffer", sys.stdin)
        return load_front(stdin, format=args.format, senses=senses)
    with open(args.input, "rb") as handle:
        return load_front(handle, format=args.format, senses=senses)


def _prepare(args) -> tuple:
    front = _read_front(args)
    removed: list[str] = []
    if not args.no_filter:
        front, removed = dominance_filter(front)
    # a zero-spread column is a note on stderr, never a traceback under -W error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateSpreadWarning)
        nf = normalize(front)
    for warning in caught:
        sys.stderr.write(f"warning: {warning.message}\n")
    return nf, removed


def _epsilon(args) -> float:
    """--epsilon, else $KNEE_MCDM_EPSILON, else the default; build_classes checks it."""
    if args.epsilon is not None:
        return args.epsilon
    raw = os.environ.get(EPSILON_ENV)
    if raw is None:
        return DEFAULT_EPSILON
    try:
        return float(raw)
    except ValueError:
        raise KneeMCDMError(f"{EPSILON_ENV}={raw!r} is not a number") from None


#: Characters of a text that ``_emit`` writes, and so encodes, at a time.
_WRITE_CHARS = 1 << 16


def _emit(args, *texts: str) -> None:
    """Write ``texts`` in turn as UTF-8 to ``--output``, else to stdout
    whatever the locale, a slice at a time, so no encoded copy of a whole
    text is made."""
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            _write_slices(handle.write, texts)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        _write_slices(lambda text: sys.stdout.buffer.write(text.encode("utf-8")), texts)
    else:
        _write_slices(sys.stdout.write, texts)


def _write_slices(write, texts) -> None:
    for text in texts:
        for start in range(0, len(text), _WRITE_CHARS):
            write(text[start : start + _WRITE_CHARS])


def _decision_text(decision: Decision, removed: list[str]) -> str:
    lines = [
        f"method: {decision.method}",
        f"winner ids: {' '.join(decision.winner_ids)}",
        f"representative: {decision.representative}",
        f"c_min_mmd: {decision.c_min_mmd:.12g}",
        f"c_min_ws: {decision.c_min_ws:.12g}",
    ]
    if removed:
        lines.append(f"filtered dominated ids: {' '.join(removed)}")
    lines.append("knee vectors:")
    for sid, row in zip(decision.winner_ids, decision.knee):
        lines.append(f"  {sid}: [" + ", ".join(f"{v:.12g}" for v in row) + "]")
    if decision.trace is not None:
        lines.append(f"trace ({len(decision.trace)} comparisons):")
        for r in decision.trace:
            lines.append(
                f"  class {r.left} vs class {r.right}: ip={r.ip:.6g} -> class {r.winner}"
            )
    return "\n".join(lines) + "\n"


def _csv_text(header: list[str], rows) -> str:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def _decision_csv(decision: Decision) -> str:
    nf = decision.nf
    ids, winner = nf.base.ids, set(decision.winner_ids)
    flags = (int(sid in winner) for sid in ids)
    rows = zip(ids, map(repr, nf.mmd_scores.tolist()), map(repr, nf.ws_scores.tolist()), flags)
    return _csv_text(["id", "mmd", "ws", "winner"], rows)


def cmd_select(args) -> int:
    nf, removed = _prepare(args)
    eps = _epsilon(args)
    if args.method == "mmd":
        decision = select_mmd(nf, eps)
    elif args.method == "ws":
        decision = select_ws(nf, eps)
    else:
        decision = select_dnc(nf, eps, pairing_seed=args.seed)
    if args.output_format == "json":
        _emit(args, decision.to_json(), "\n")
    elif args.output_format == "csv":
        _emit(args, _decision_csv(decision))
    else:
        _emit(args, _decision_text(decision, removed))
    return EXIT_OK


def _escape_id(sid: str) -> str:
    """Backslash-escape ``\\`` and ``;`` so ids joined by ``;`` stay apart."""
    return sid.replace("\\", "\\\\").replace(";", "\\;")


def cmd_rank(args) -> int:
    nf, _ = _prepare(args)
    ranking = rank(nf, _epsilon(args))
    if args.output_format == "json":
        rows = [
            {"rank": k + 1, "ids": list(cls.ids), "mmd": cls.mmd, "ws": cls.ws}
            for k, cls in enumerate(ranking)
        ]
        _emit(args, json.dumps(rows) + "\n")
    elif args.output_format == "csv":
        rows = (
            [k + 1, ";".join(map(_escape_id, cls.ids)), repr(cls.mmd), repr(cls.ws)]
            for k, cls in enumerate(ranking)
        )
        _emit(args, _csv_text(["rank", "ids", "mmd", "ws"], rows))
    else:
        lines = [f"{'rank':>4}  {'mmd':>14}  {'ws':>14}  ids"]
        for k, cls in enumerate(ranking):
            lines.append(
                f"{k + 1:>4}  {cls.mmd:>14.8g}  {cls.ws:>14.8g}  {' '.join(cls.ids)}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.self_test < 0:
        raise KneeMCDMError(f"--self-test must be >= 0, got {args.self_test}")
    seeds = args.seed or DEFAULT_SEEDS
    eps = _epsilon(args)
    nf, _ = _prepare(args)
    report = verify_equivalence(nf, eps, seeds=seeds)
    lines = [f"input front: {'pass' if report.passed else 'FAIL'}"]
    lines += [f"  {issue}" for issue in report.issues]

    failed, classes = 0, []
    for label, front in agreement_corpus(args.self_test):
        sub = verify_equivalence(normalize(front), eps, seeds=seeds)
        classes.append(sub.classes)
        if not sub.passed:
            failed += 1
            lines.append(f"  self-test {label}: FAIL")
            lines += [f"    {issue}" for issue in sub.issues]
    if classes:
        lines.append(
            f"self-test fronts: {len(classes) - failed}/{len(classes)} pass "
            f"(classes per front: min {min(classes)}, "
            f"median {sorted(classes)[len(classes) // 2]}, max {max(classes)})"
        )
    _emit(args, "\n".join(lines) + "\n")
    if not report.passed or failed:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = FrontSpec(
        family=args.family, samples=args.samples, seed=args.seed, noise=args.noise
    )
    text = io.StringIO()
    write_front(generate(spec), text, format=args.format)
    _emit(args, text.getvalue())
    return EXIT_OK


def cmd_bench(args) -> int:
    report = run_bench(scale=args.scale)
    text = report.to_csv() if args.output_format == "csv" else report.to_text()
    _emit(args, text)
    return EXIT_OK


def cmd_plot(args) -> int:
    nf, _ = _prepare(args)
    if nf.base.n != 2:
        sys.stderr.write(
            f"error: plot needs a 2-objective front, got {nf.base.n} objectives\n"
        )
        return EXIT_PLOT_DIMS
    decision = select_mmd(nf, _epsilon(args))
    _emit(args, render_decision_svg(decision))
    return EXIT_OK


_COMMANDS = {
    "select": cmd_select,
    "rank": cmd_rank,
    "verify": cmd_verify,
    "gen": cmd_gen,
    "bench": cmd_bench,
    "plot": cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except AllDimensionsDegenerate as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DEGENERATE
    except EquivalenceViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATION
    except (KneeMCDMError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
