"""Minimal deterministic SVG rendering for figures.

Byte-identical output for identical input: fixed float formatting,
stable iteration order, no timestamps or generated ids.
"""

from __future__ import annotations

_W, _H = 640.0, 480.0
_ML, _MR, _MT, _MB = 60.0, 20.0, 20.0, 45.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _axes(x_label: str, y_label: str) -> list[str]:
    return [
        f'<rect x="{_fmt(_ML)}" y="{_fmt(_MT)}" width="{_fmt(_W - _ML - _MR)}" '
        f'height="{_fmt(_H - _MT - _MB)}" fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{_fmt(_W / 2)}" y="{_fmt(_H - 10)}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>',
        f'<text x="15" y="{_fmt(_H / 2)}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 15 {_fmt(_H / 2)})">{y_label}</text>',
    ]


def _document(body: list[str]) -> bytes:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" '
        f'height="{int(_H)}" viewBox="0 0 {int(_W)} {int(_H)}">\n'
    )
    return (head + "\n".join(body) + "\n</svg>\n").encode("utf-8")


def _scale(lo: float, hi: float, px_lo: float, px_hi: float):
    span = hi - lo if hi > lo else 1.0

    def f(v: float) -> float:
        return px_lo + (v - lo) / span * (px_hi - px_lo)

    return f


def scatter_svg(points, x_label: str = "x", y_label: str = "y") -> bytes:
    """Scatter plot; points is an iterable of (x, y)."""
    pts = [(float(x), float(y)) for x, y in points]
    body = _axes(x_label, y_label)
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        fx = _scale(min(xs), max(xs), _ML + 5, _W - _MR - 5)
        fy = _scale(min(ys), max(ys), _H - _MB - 5, _MT + 5)
        for x, y in pts:
            body.append(
                f'<circle cx="{_fmt(fx(x))}" cy="{_fmt(fy(y))}" r="1.5" '
                f'fill="steelblue"/>'
            )
    return _document(body)


def heatmap_svg(e_edges, x_edges, mass, x_label: str = "x",
                y_label: str = "E") -> bytes:
    """Heatmap of a normalized 2D histogram (rows = E bins, cols = x bins)."""
    n_e = len(e_edges) - 1
    n_x = len(x_edges) - 1
    body = _axes(x_label, y_label)
    peak = max((max(row) for row in mass), default=0.0)
    fx = _scale(float(x_edges[0]), float(x_edges[-1]), _ML, _W - _MR)
    fy = _scale(float(e_edges[0]), float(e_edges[-1]), _H - _MB, _MT)
    for i in range(n_e):
        for k in range(n_x):
            m = float(mass[i][k])
            if m <= 0.0 or peak <= 0.0:
                continue
            t = m / peak
            # blue (cold) to red (hot)
            r = int(255 * t)
            b = int(255 * (1.0 - t))
            x0, x1 = fx(float(x_edges[k])), fx(float(x_edges[k + 1]))
            y0, y1 = fy(float(e_edges[i])), fy(float(e_edges[i + 1]))
            body.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(min(y0, y1))}" '
                f'width="{_fmt(abs(x1 - x0))}" height="{_fmt(abs(y0 - y1))}" '
                f'fill="rgb({r},80,{b})" fill-opacity="0.9"/>'
            )
    return _document(body)


def curves_svg(curves, x_label: str = "q", y_label: str = "density") -> bytes:
    """Polyline plot; curves is a list of (name, color, [(x, y), ...])."""
    body = _axes(x_label, y_label)
    all_pts = [p for _, _, pts in curves for p in pts]
    if all_pts:
        xs = [p[0] for p in all_pts]
        ys = [p[1] for p in all_pts]
        fx = _scale(min(xs), max(xs), _ML + 5, _W - _MR - 5)
        fy = _scale(min(ys), max(ys), _H - _MB - 5, _MT + 5)
        for name, color, pts in curves:
            path = " ".join(
                f"{_fmt(fx(x))},{_fmt(fy(y))}" for x, y in pts
            )
            body.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.2"><title>{name}</title></polyline>'
            )
    return _document(body)
