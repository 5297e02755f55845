"""Deterministic SVG pictures of the self-affine carrier.

The carrier is the attractor of three affine maps on the unit square that
thirds the x-axis while scaling heights by 1/q, with the middle branch
flipped. Iterating the maps on the diagonal produces polylines that
converge to the graph; all geometry is computed in exact rationals and
floats appear only in the final coordinate strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebraic import AlgebraicNumber, FieldElement, enclose


class RenderError(ValueError):
    pass


MAX_ITERATIONS = 12
MARGIN = 24  # pixels between the unit square and the picture's edge
STROKE = "#1a3a6b"
STROKE_WIDTH = 0.8


def _as_fraction(q) -> Fraction:
    if isinstance(q, (AlgebraicNumber, FieldElement)):
        lo, hi = enclose(q, 10**24)
        return (lo + hi) / 2
    return Fraction(q)


def graph_polyline(q, iterations: int) -> list[tuple[Fraction, Fraction]]:
    """Breakpoints of the n-th piecewise-linear approximation to the graph.

    Each pass replaces the polyline with its three affine images glued at
    shared joints; the diagonal endpoints are fixed, so breakpoints only
    accumulate.
    """
    if not 0 <= iterations <= MAX_ITERATIONS:
        raise RenderError(f"iterations must lie in 0..{MAX_ITERATIONS}")
    qf = _as_fraction(q)
    if not 1 < qf < 2:
        raise RenderError("base must lie strictly between 1 and 2")
    inv = 1 / qf
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    third = Fraction(1, 3)
    for _ in range(iterations):
        left = [(x * third, y * inv) for x, y in pts]
        mid = [
            (x * third + third, (2 * inv - 1) * (1 - y) + 1 - inv) for x, y in pts
        ]
        right = [(x * third + 2 * third, y * inv + 1 - inv) for x, y in pts]
        pts = left + mid[1:] + right[1:]
    return pts


@dataclass(frozen=True)
class RenderSpec:
    width: int = 640
    height: int = 640
    iterations: int = 7
    slice_height: Optional[Fraction] = None
    markers: tuple[tuple[Fraction, Fraction], ...] = ()
    bands: tuple[tuple[Fraction, Fraction], ...] = ()


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _check_overlays(spec: RenderSpec) -> None:
    if spec.slice_height is not None and not 0 <= spec.slice_height <= 1:
        raise RenderError("slice line height must lie in [0, 1]")
    for x, y in spec.markers:
        if not (0 <= x <= 1 and 0 <= y <= 1):
            raise RenderError("markers must lie in the unit square")
    for lo, hi in spec.bands:
        if not 0 <= lo <= hi <= 1:
            raise RenderError("bands must satisfy 0 <= lo <= hi <= 1")


def render_kq(q, spec: RenderSpec = RenderSpec()) -> str:
    """SVG drawing of the graph approximation with optional overlays:
    a horizontal slice line, point markers, and shaded vertical bands."""
    _check_overlays(spec)
    pts = graph_polyline(q, spec.iterations)
    w, h, m = spec.width, spec.height, MARGIN
    xspan = w - 2 * m
    yspan = h - 2 * m

    def px(x: Fraction) -> float:
        return m + float(x) * xspan

    def py(y: Fraction) -> float:
        return h - m - float(y) * yspan

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    )
    out.append(f'<rect width="{w}" height="{h}" fill="#ffffff"/>')
    for lo, hi in spec.bands:
        x0, x1 = px(lo), px(hi)
        out.append(
            f'<rect x="{_fmt(x0)}" y="{m}" width="{_fmt(x1 - x0)}" '
            f'height="{yspan}" fill="#d9a441" fill-opacity="0.35"/>'
        )
    out.append(
        f'<rect x="{m}" y="{m}" width="{xspan}" height="{yspan}" '
        f'fill="none" stroke="#888888" stroke-width="0.5"/>'
    )
    coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in pts)
    out.append(
        f'<polyline points="{coords}" fill="none" stroke="{STROKE}" '
        f'stroke-width="{STROKE_WIDTH}"/>'
    )
    if spec.slice_height is not None:
        yy = _fmt(py(Fraction(spec.slice_height)))
        out.append(
            f'<line x1="{m}" y1="{yy}" x2="{w - m}" y2="{yy}" '
            f'stroke="#b03030" stroke-width="1.2" stroke-dasharray="6,3"/>'
        )
    for x, y in spec.markers:
        out.append(
            f'<circle cx="{_fmt(px(Fraction(x)))}" cy="{_fmt(py(Fraction(y)))}" '
            f'r="3.5" fill="#b03030"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
