"""Minimal standalone SVG line charts. No plotting dependency; CSV stays the
authoritative output, these are a visual convenience."""
from __future__ import annotations

WIDTH, HEIGHT = 720, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 46, 56
PALETTE = ("#1f77b4", "#d4a017", "#2ca02c", "#d62728", "#9467bd")


class LineChart:
    """Titled axes; each added series is a ``(label, xs, ys, dashed)`` tuple."""

    def __init__(self, title: str, x_label: str, y_label: str) -> None:
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.series: list[tuple[str, list[float], list[float], bool]] = []

    def add(self, label: str, xs, ys, dashed: bool = False) -> None:
        self.series.append((label, list(map(float, xs)), list(map(float, ys)), dashed))

    def render(self) -> str:
        xs = [x for _, s_xs, _, _ in self.series for x in s_xs]
        ys = [y for _, _, s_ys, _ in self.series for y in s_ys]
        if not xs:
            raise ValueError("nothing to plot")
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        pad = 0.05 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad
        plot_w = WIDTH - MARGIN_L - MARGIN_R
        plot_h = HEIGHT - MARGIN_T - MARGIN_B

        def px(x: float) -> float:
            return MARGIN_L + (x - x0) / (x1 - x0) * plot_w

        def py(y: float) -> float:
            return MARGIN_T + plot_h - (y - y0) / (y1 - y0) * plot_h

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_esc(self.title)}</text>',
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
            f'fill="none" stroke="#444" stroke-width="1"/>',
        ]
        for i in range(5):
            fx = x0 + i * (x1 - x0) / 4
            fy = y0 + i * (y1 - y0) / 4
            parts.append(
                f'<text x="{px(fx):.1f}" y="{HEIGHT - MARGIN_B + 18:.1f}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{fx:.3g}</text>'
            )
            parts.append(
                f'<text x="{MARGIN_L - 8:.1f}" y="{py(fy) + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{fy:.3g}</text>'
            )
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_esc(self.x_label)}</text>'
        )
        parts.append(
            f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{_esc(self.y_label)}</text>'
        )
        for i, (label, s_xs, s_ys, dashed) in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s_xs, s_ys))
            dash = ' stroke-dasharray="7,5"' if dashed else ""
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"{dash}/>'
            )
            ly = MARGIN_T + 16 + 16 * i
            lx = MARGIN_L + plot_w - 170
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.8"{dash}/>'
            )
            parts.append(
                f'<text x="{lx + 32}" y="{ly}" font-family="sans-serif" '
                f'font-size="12">{_esc(label)}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
