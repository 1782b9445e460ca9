"""Pixel pins of the stdlib fallback renderer.

Every PNG the fallback renderer writes stores its rows with filter 0,
so the zlib-decompressed IDAT payload is the pixel buffer plus one
filter byte per row, whatever the compression level.  This test pins
the sha256 of that payload for

* every figure of the tiny full-paper run (``conftest.tiny_run``), and
* one synthetic canvas that draws each primitive in each of its cases:
  every glyph and an unknown one at scale 1 and 2, solid, dashed and
  thick lines, a zero-length line, axis-aligned and diagonal lines,
  and lines, rectangles and text clipped at each edge.

A change that is meant to alter pixels re-pins them in its own commit::

    PYTHONPATH=src python tests/test_pixels.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import tempfile
import zlib
from pathlib import Path
from typing import Dict

import pytest

from repro.plots import mini_png, render_run

PIXELS_PATH = Path(__file__).resolve().parent / "golden" / "pixels.json"


def idat_payload(png: bytes) -> bytes:
    """The decompressed concatenation of a PNG's IDAT chunks."""
    if png[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG byte string")
    offset, compressed = 8, b""
    while offset < len(png):
        (length,) = struct.unpack(">I", png[offset:offset + 4])
        tag = png[offset + 4:offset + 8]
        if tag == b"IDAT":
            compressed += png[offset + 8:offset + 8 + length]
        offset += 12 + length
    return zlib.decompress(compressed)


def pixel_digest(png: bytes) -> str:
    return hashlib.sha256(idat_payload(png)).hexdigest()


def synthetic_canvas() -> mini_png.Canvas:
    """One canvas exercising every drawing primitive and clipping case."""
    canvas = mini_png.Canvas(97, 83, background=mini_png.WHITE)
    red, green, blue = mini_png.PALETTE[1], mini_png.PALETTE[2], mini_png.PALETTE[0]
    glyphs = "".join(sorted(mini_png._GLYPHS)) + "?~"  # '?' and '~' have no glyph
    # Every glyph at scale 1 (runs off the right edge), then scale 2.
    canvas.draw_text(1, 1, glyphs, mini_png.BLACK)
    canvas.draw_text(-3, 10, glyphs[::-1], red, scale=2)
    # Text clipped at the left, top, right and bottom edges.
    canvas.draw_text(-4, 30, "LEFT", blue)
    canvas.draw_text(40, -3, "TOP", blue)
    canvas.draw_text(80, 30, "RIGHT", blue, scale=2)
    canvas.draw_text(20, 80, "BOTTOM", blue)
    # Axis-aligned lines in both directions, at thickness 1, 2 and 3.
    canvas.draw_line(5, 40, 60, 40, green)
    canvas.draw_line(60, 43, 5, 43, green, thickness=2)
    canvas.draw_line(8, 45, 8, 70, red)
    canvas.draw_line(12, 70, 12, 45, red, thickness=2)
    canvas.draw_line(16, 45, 16, 70, red, thickness=3)
    canvas.draw_line(20, 48, 50, 48, blue, thickness=3)
    # Zero-length lines, thin and thick.
    canvas.draw_line(30, 60, 30, 60, mini_png.BLACK)
    canvas.draw_line(34, 60, 34, 60, mini_png.BLACK, thickness=2)
    # Diagonal lines: shallow, steep, 45 degrees, thick.
    canvas.draw_line(22, 52, 70, 66, blue)
    canvas.draw_line(70, 50, 60, 78, red)
    canvas.draw_line(40, 50, 55, 65, green, thickness=2)
    # Lines clipped at each edge, axis-aligned and diagonal.
    canvas.draw_line(-10, 75, 20, 75, mini_png.BLACK)
    canvas.draw_line(80, 72, 120, 72, mini_png.BLACK, thickness=2)
    canvas.draw_line(90, -10, 90, 30, mini_png.BLACK)
    canvas.draw_line(94, 60, 94, 100, mini_png.BLACK, thickness=3)
    canvas.draw_line(-1, 0, -1, 82, red, thickness=3)
    canvas.draw_line(0, -1, 96, -1, red, thickness=3)
    canvas.draw_line(-20, 50, 30, 100, green)
    canvas.draw_line(70, -5, 110, 35, green, thickness=2)
    canvas.draw_line(200, 200, 300, 300, green)
    # A solid and a dashed polyline (the renderer's two line styles).
    points = [(25, 30), (45, 20), (65, 34), (85, 26)]
    for start, end in zip(points, points[1:], strict=False):
        canvas.draw_line(*start, *end, red)
    shifted = [(x, y + 5) for x, y in points]
    for x0, y0, x1, y1 in mini_png.dashed_segments(shifted, *mini_png.dash_pattern(1)):
        canvas.draw_line(x0, y0, x1, y1, blue)
    # Rectangles, filled and outlined, clipped at each edge.
    canvas.fill_rect(-3, 55, 6, 6, red)
    canvas.fill_rect(92, 10, 10, 5, red)
    canvas.fill_rect(45, -2, 4, 4, red)
    canvas.fill_rect(50, 80, 5, 10, red)
    canvas.fill_rect(60, 60, 0, 5, red)
    canvas.draw_rect(-2, 20, 8, 8, green)
    canvas.draw_rect(88, 40, 12, 6, green)
    canvas.draw_rect(74, 76, 30, 30, mini_png.tint(green, 0.6))
    canvas.draw_marker(80, 55, blue)
    canvas.draw_marker(96, 82, blue)
    canvas.fill_rect(48, 62, 1, 1, mini_png.BLACK)
    canvas.fill_rect(-1, 62, 1, 1, mini_png.BLACK)
    return canvas


def current_digests(run_dir: Path, plot_dir: Path) -> Dict[str, str]:
    """Pixel digests of the synthetic canvas and every rendered tiny-run figure."""
    digests = {"synthetic": pixel_digest(synthetic_canvas().to_png())}
    for name, path in render_run(run_dir, out_dir=plot_dir).items():
        digests[name] = pixel_digest(path.read_bytes())
    return digests


def test_idat_payload_is_filter_zero_rows():
    canvas = synthetic_canvas()
    payload = idat_payload(canvas.to_png())
    stride = 1 + 3 * canvas.width
    assert len(payload) == stride * canvas.height
    assert payload[::stride] == bytes(canvas.height)


def test_rendered_pixels_match_the_pinned_digests(tiny_run, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PLOTS_BACKEND", "fallback")
    run_dir, _ = tiny_run
    pinned = json.loads(PIXELS_PATH.read_text())["digests"]
    current = current_digests(run_dir, tmp_path / "plots")
    assert sorted(current) == sorted(pinned), "figure set changed; re-pin tests/golden/pixels.json"
    changed = {name: (pinned[name][:12], digest[:12]) for name, digest in current.items() if digest != pinned[name]}
    assert not changed, f"pixels changed against tests/golden/pixels.json (pinned, now): {changed}"


@pytest.mark.parametrize("scale", [1, 2])
def test_text_clipped_at_any_offset_equals_pixel_by_pixel_drawing(scale):
    # The glyph fast path writes rows as slices; a glyph box straddling
    # an edge must still set exactly the in-bounds pixels of one
    # scale x scale square per lit bitmap pixel.
    for x in range(-7 * scale, 12, 3):
        for y in range(-8 * scale, 12, 3):
            fast = mini_png.Canvas(11, 10)
            fast.draw_text(x, y, "W%?", mini_png.BLACK, scale=scale)
            slow = mini_png.Canvas(11, 10)
            cursor = x
            for char in "W%?":
                glyph = mini_png._GLYPHS.get(char, mini_png._UNKNOWN_GLYPH)
                for row, bits in enumerate(glyph):
                    for col in range(mini_png.GLYPH_WIDTH):
                        if bits & (1 << (mini_png.GLYPH_WIDTH - 1 - col)):
                            slow.fill_rect(cursor + col * scale, y + row * scale, scale, scale, mini_png.BLACK)
                cursor += mini_png.CHAR_ADVANCE * scale
            assert idat_payload(fast.to_png()) == idat_payload(slow.to_png()), (x, y)


def reference_line(canvas, x0, y0, x1, y1, color, thickness=1):
    """Bresenham, one 1x1 ``fill_rect`` per pixel: the reference ``draw_line`` must match."""
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    steep = -dy > dx
    pad = range(-(thickness // 2), thickness - thickness // 2)
    while True:
        for offset in pad:
            if steep:
                canvas.fill_rect(x0 + offset, y0, 1, 1, color)
            else:
                canvas.fill_rect(x0, y0 + offset, 1, 1, color)
        if x0 == x1 and y0 == y1:
            return
        doubled = 2 * err
        if doubled >= dy:
            err += dy
            x0 += sx
        if doubled <= dx:
            err += dx
            y0 += sy


def test_lines_equal_the_bresenham_reference():
    ends = (-4, -1, 0, 3, 6, 8, 9, 13)
    for thickness in (1, 2, 3):
        for x0 in ends:
            for y0 in ends:
                vertical = [(x0, y) for y in ends]
                horizontal = [(x, y0) for x in ends]
                for x1, y1 in [*vertical, *horizontal, (x0 + 5, y0 + 2), (x0 - 2, y0 + 7)]:
                    fast = mini_png.Canvas(10, 9)
                    fast.draw_line(x0, y0, x1, y1, mini_png.BLACK, thickness=thickness)
                    slow = mini_png.Canvas(10, 9)
                    reference_line(slow, x0, y0, x1, y1, mini_png.BLACK, thickness=thickness)
                    assert idat_payload(fast.to_png()) == idat_payload(slow.to_png()), (x0, y0, x1, y1, thickness)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_pixels.py --write")
    from conftest import build_tiny_run

    os.environ["REPRO_PLOTS_BACKEND"] = "fallback"
    with tempfile.TemporaryDirectory() as scratch:
        run_dir = Path(scratch) / "run"
        build_tiny_run(run_dir)
        digests = current_digests(run_dir, Path(scratch) / "plots")
    PIXELS_PATH.write_text(json.dumps({"digests": digests}, indent=2, sort_keys=True) + "\n")
