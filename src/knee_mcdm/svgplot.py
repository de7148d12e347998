"""Deterministic SVG scatter of a 2-D decision in normalized coordinates.

Shows every normalized sample, the normalized ideal point, the winner-class
samples, and the Manhattan ball (a rhombus centred on the ideal point) whose
radius is the winning distance.  Output is a plain string built with fixed
number formatting, so identical inputs give byte-identical documents.  Ids
and objective names are XML-escaped (``&``, ``<``, ``>``) in every text node,
and the characters XML 1.0 forbids are replaced with U+FFFD.
"""

from __future__ import annotations

import re

from .front import SENSE_MAX, NormalizedFront
from .selection import Decision

_SIZE = 560
_MARGIN = 56
_POINT = "#5b6977"
_WINNER = "#d1495b"
_IDEAL = "#1f7a8c"
_RHOMBUS = "#1f7a8c"


#: Characters XML 1.0 forbids: C0 controls other than tab, LF and CR,
#: surrogates, U+FFFE and U+FFFF.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _text(s: str) -> str:
    s = _XML_FORBIDDEN.sub("\ufffd", s)
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_decision_svg(nf: NormalizedFront, decision: Decision) -> str:
    """Render the normalized front and the winning Manhattan ball; 2-D only."""
    if nf.base.n != 2:
        raise ValueError(f"plot needs exactly 2 objectives, front has {nf.base.n}")

    y = nf.y
    y_opt = nf.y_opt
    c = decision.c_min_mmd
    lo = [min(y_opt[k], y[:, k].min()) for k in range(2)]
    hi = [max(y[:, k].max(), y_opt[k] + c) for k in range(2)]
    pad = [0.06 * max(hi[k] - lo[k], 1e-12) for k in range(2)]
    lo = [lo[k] - pad[k] for k in range(2)]
    hi = [hi[k] + pad[k] for k in range(2)]
    span = _SIZE - 2 * _MARGIN

    def px(v: float) -> float:
        return _MARGIN + span * (v - lo[0]) / (hi[0] - lo[0])

    def py(v: float) -> float:
        return _SIZE - _MARGIN - span * (v - lo[1]) / (hi[1] - lo[1])

    winner = set(decision.winner_ids)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{span}" height="{span}" '
        f'fill="none" stroke="#c8cdd2" stroke-width="1"/>',
    ]

    # Manhattan ball |y - y_opt|_1 = c: a rhombus with vertices one radius
    # along each axis from the ideal point
    cx, cy = y_opt[0], y_opt[1]
    verts = [(cx + c, cy), (cx, cy + c), (cx - c, cy), (cx, cy - c)]
    points = " ".join(f"{_fmt(px(vx))},{_fmt(py(vy))}" for vx, vy in verts)
    out.append(
        f'<polygon points="{points}" fill="none" stroke="{_RHOMBUS}" '
        f'stroke-width="1.5" stroke-dasharray="6,4"/>'
    )

    for sid, row in zip(nf.base.ids, y):
        if sid in winner:
            continue
        out.append(
            f'<circle cx="{_fmt(px(row[0]))}" cy="{_fmt(py(row[1]))}" r="4" '
            f'fill="{_POINT}" fill-opacity="0.75"><title>{_text(sid)}</title></circle>'
        )
    for sid in decision.winner_ids:
        row = y[nf.index_of(sid)]
        out.append(
            f'<circle cx="{_fmt(px(row[0]))}" cy="{_fmt(py(row[1]))}" r="6" '
            f'fill="{_WINNER}" stroke="white" stroke-width="1.5">'
            f"<title>{_text(sid)} (winner)</title></circle>"
        )

    ix, iy = _fmt(px(cx)), _fmt(py(cy))
    out.append(
        f'<path d="M {ix} {iy} m -6 0 l 12 0 m -6 -6 l 0 12" '
        f'stroke="{_IDEAL}" stroke-width="2" fill="none"/>'
    )

    # y is in minimization form, so a "max" axis shows the negated values
    labels = [
        _text(name) + (" (negated, normalized)" if sense == SENSE_MAX else " (normalized)")
        for name, sense in zip(nf.base.objective_names, nf.base.senses)
    ]
    out.append(
        f'<text x="{_SIZE // 2}" y="{_SIZE - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" fill="#333">{labels[0]}</text>'
    )
    out.append(
        f'<text x="16" y="{_SIZE // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" fill="#333" transform="rotate(-90 16 {_SIZE // 2})">'
        f"{labels[1]}</text>"
    )
    out.append(
        f'<text x="{_MARGIN}" y="{_MARGIN - 12}" font-family="sans-serif" '
        f'font-size="13" fill="#333">method={decision.method}  '
        f"winner={{{_text(', '.join(decision.winner_ids))}}}  "
        f"c_min={decision.c_min_mmd:.6g}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"
