"""Hand-rolled SVG for the success-probability comparison figure.

The only figure this package needs is two smooth curves on one axis pair,
so the plot is a few polylines and text labels; no plotting dependency.
"""

from __future__ import annotations

from .scheme import success_curve_new, success_curve_old

_WIDTH = 640
_HEIGHT = 420
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 24
_MARGIN_TOP = 32
_MARGIN_BOTTOM = 48

_X_MAX = 1.0
_Y_MAX = 0.26

#: Points per curve, p = 0, 0.01, ..., 1.
_SAMPLES = 101


def _to_px(p: float, value: float) -> tuple[float, float]:
    x = _MARGIN_LEFT + (p / _X_MAX) * (_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT)
    y = _HEIGHT - _MARGIN_BOTTOM - (value / _Y_MAX) * (
        _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    )
    return x, y


def _polyline(name: str, color: str, pairs: list[tuple[float, float]]) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in pairs)
    return (
        f'<polyline data-curve="{name}" fill="none" stroke="{color}" '
        f'stroke-width="2" points="{pts}"/>'
    )


def success_comparison_svg() -> str:
    """Both closed-form success curves for identical inputs, new over old."""
    ps = [i / (_SAMPLES - 1) for i in range(_SAMPLES)]
    new_pts = [_to_px(p, success_curve_new(p)) for p in ps]
    old_pts = [_to_px(p, success_curve_old(p)) for p in ps]

    x0, y0 = _to_px(0.0, 0.0)
    x1, _ = _to_px(1.0, 0.0)
    _, y1 = _to_px(0.0, _Y_MAX)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx, _ = _to_px(tick, 0.0)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{y0:.2f}" x2="{tx:.2f}" y2="{y0 + 5:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{y0 + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{tick:g}</text>'
        )
    for tick in (0.0, 0.05, 0.1, 0.15, 0.2, 0.25):
        _, ty = _to_px(0.0, tick)
        parts.append(
            f'<line x1="{x0 - 5:.2f}" y1="{ty:.2f}" x2="{x0:.2f}" y2="{ty:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 9:.2f}" y="{ty + 4:.2f}" font-size="12" '
            f'text-anchor="end">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_HEIGHT - 10}" font-size="13" '
        'text-anchor="middle">single-photon probability p</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">success probability</text>'
    )
    parts.append(_polyline("new", "#c0392b", new_pts))
    parts.append(_polyline("old", "#2980b9", old_pts))
    lx, ly = _to_px(0.62, 0.245)
    parts.append(
        f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="13" fill="#c0392b">'
        "p^2/4 (this scheme)</text>"
    )
    parts.append(
        f'<text x="{lx:.2f}" y="{ly + 18:.2f}" font-size="13" fill="#2980b9">'
        "16p^3/81 (three-splitter scheme)</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
