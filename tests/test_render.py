import re
from fractions import Fraction

import pytest

from qslice.algebraic import bonacci_root
from qslice.cli import run
from qslice.render import RenderError, RenderSpec, graph_polyline, render_kq

Q53 = Fraction(5, 3)


def test_first_iteration_breakpoints():
    pts = graph_polyline(Q53, 1)
    assert pts == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(3, 5)),
        (Fraction(2, 3), Fraction(2, 5)),
        (Fraction(1), Fraction(1)),
    ]


def test_second_iteration_spot_values():
    pts = graph_polyline(Q53, 2)
    assert len(pts) == 10
    assert pts[1] == (Fraction(1, 9), Fraction(9, 25))
    # flipped middle copy descends
    ys = [y for x, y in pts if Fraction(1, 3) <= x <= Fraction(2, 3)]
    assert ys[0] > ys[-1]


def test_breakpoints_persist_and_stay_in_square():
    prev = graph_polyline(Q53, 2)
    cur = graph_polyline(Q53, 4)
    assert set(prev) <= set(cur)
    assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in cur)
    xs = [x for x, _ in cur]
    assert xs == sorted(xs)
    assert xs == [Fraction(i, 3**4) for i in range(3**4 + 1)]


def test_polyline_accepts_algebraic_base():
    pts = graph_polyline(bonacci_root(3), 3)
    assert len(pts) == 3**3 + 1
    assert pts[0] == (0, 0) and pts[-1] == (1, 1)


def test_iteration_guard():
    with pytest.raises(RenderError):
        graph_polyline(Q53, 13)
    with pytest.raises(RenderError):
        graph_polyline(Fraction(5, 2), 3)


def test_svg_deterministic_and_plain_floats():
    spec = RenderSpec(iterations=4)
    a = render_kq(Q53, spec)
    b = render_kq(Q53, spec)
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")
    assert "<polyline" in a
    assert not re.search(r"\d[eE][-+]?\d", a)


def test_svg_overlays():
    spec = RenderSpec(
        iterations=3,
        slice_height=Fraction(3, 8),
        markers=((Fraction(1, 4), Fraction(3, 8)),),
        bands=((Fraction(1, 10), Fraction(2, 10)), (Fraction(7, 10), Fraction(8, 10))),
    )
    svg = render_kq(Q53, spec)
    assert svg.count("<circle") == 1
    assert svg.count("stroke-dasharray") == 1
    assert svg.count('fill-opacity="0.35"') == 2


def test_svg_plain_when_no_overlays():
    svg = render_kq(Q53, RenderSpec(iterations=2))
    assert "<circle" not in svg
    assert "dasharray" not in svg


def test_svg_respects_pixel_dimensions():
    svg = render_kq(Q53, RenderSpec(width=320, height=200, iterations=2))
    assert 'width="320" height="200"' in svg
    assert 'viewBox="0 0 320 200"' in svg


def test_overlays_must_stay_in_unit_square():
    with pytest.raises(RenderError):
        render_kq(Q53, RenderSpec(iterations=1, slice_height=Fraction(5, 4)))
    with pytest.raises(RenderError):
        render_kq(Q53, RenderSpec(iterations=1, markers=((Fraction(2), Fraction(1, 2)),)))
    for band in ((Fraction(1, 2), Fraction(1, 4)), (Fraction(2), Fraction(3)), (Fraction(-1, 4), 0)):
        with pytest.raises(RenderError):
            render_kq(Q53, RenderSpec(iterations=1, bands=(band,)))


def test_cli_rejects_band_outside_unit_interval(capsys):
    argv = ["render", "--q", "3/2", "--iterations", "1", "--svg", "-"]
    assert run(argv + ["--band", "1/2:1/4", "--band", "2:3"]) == 1
    assert "bands" in capsys.readouterr().out
    assert run(argv + ["--band", "0:1", "--band", "1/2:1/2"]) == 0
