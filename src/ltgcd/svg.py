"""Dependency-free SVG line plots for sweep trends."""

from __future__ import annotations

from pathlib import Path

_WIDTH, _HEIGHT = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 50, 60

_SERIES_COLORS = {
    "All": "#1f77b4",
    "Known": "#2ca02c",
    "Un1": "#ff7f0e",
    "Un2": "#d62728",
}


def _x_pos(i: int, n: int) -> float:
    span = _WIDTH - _MARGIN_L - _MARGIN_R
    return _MARGIN_L + span * i / (n - 1)


def _y_pos(v: float) -> float:
    span = _HEIGHT - _MARGIN_T - _MARGIN_B
    return _MARGIN_T + span * (1.0 - v)


def line_plot(
    path: str | Path,
    x_values: list[float],
    series: dict[str, list[float | None]],
    title: str,
    x_label: str,
) -> Path:
    """Write a fixed-viewBox line plot of accuracy series at 2 or more x
    values; the y axis spans [0, 1] and each series name is a key of
    ``_SERIES_COLORS``."""
    n = len(x_values)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="sans-serif" font-size="14">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2}" y="28" text-anchor="middle" font-size="18">{title}</text>',
    ]

    for tick in range(6):
        v = tick / 5
        y = _y_pos(v)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.1f}" x2="{_WIDTH - _MARGIN_R}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 5:.1f}" text-anchor="end">{v:.1f}</text>'
        )
    for i, x in enumerate(x_values):
        px = _x_pos(i, n)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_HEIGHT - _MARGIN_B}" x2="{px:.1f}" '
            f'y2="{_HEIGHT - _MARGIN_B + 6}" stroke="#000000"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 24}" text-anchor="middle">{x:g}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" fill="none" stroke="#000000"/>'
    )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2}" y="{_HEIGHT - 16}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="20" y="{_HEIGHT / 2}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_HEIGHT / 2})">accuracy</text>'
    )

    for row, (name, values) in enumerate(series.items()):
        color = _SERIES_COLORS[name]
        pts = [
            (_x_pos(i, n), _y_pos(v))
            for i, v in enumerate(values)
            if v is not None
        ]
        if len(pts) >= 2:
            coords = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for px, py in pts:
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="{color}"/>')
        ly = _MARGIN_T + 20 + 24 * row
        lx = _WIDTH - _MARGIN_R + 16
        parts.append(
            f'<line x1="{lx}" y1="{ly - 5}" x2="{lx + 28}" y2="{ly - 5}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 34}" y="{ly}">{name}</text>')

    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path
