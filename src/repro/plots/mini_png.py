"""A tiny pure-stdlib raster canvas with a PNG encoder.

The plotting subsystem prefers matplotlib (the ``[plots]`` extra), but
the simulator itself is dependency-free and CI environments without the
extra still need figure images — the acceptance path ``run_paper(out_dir)
→ python -m repro.plots`` must work everywhere.  This module is the
fallback renderer's drawing surface: an RGB byte buffer with just enough
primitives for line charts and grouped bars (Bresenham lines, filled
rectangles, markers, a 5×7 bitmap font) and a minimal, valid PNG encoder
(8-bit RGB, no interlace) built on :mod:`zlib` and :mod:`struct`.

It is deliberately not a drawing library: no anti-aliasing, no alpha,
uppercase-only text.  Rendering fidelity belongs to matplotlib; this
exists so a missing optional dependency degrades output quality, never
functionality.
"""

from __future__ import annotations

import functools
import re
import struct
import zlib
from typing import Tuple

Color = Tuple[int, int, int]

WHITE: Color = (255, 255, 255)
BLACK: Color = (0, 0, 0)
GREY: Color = (130, 130, 130)
LIGHT_GREY: Color = (220, 220, 220)

#: Categorical series palette (matplotlib's tab10, re-ordered so the
#: first few series are maximally distinct on white).
PALETTE: Tuple[Color, ...] = (
    (31, 119, 180),   # blue
    (214, 39, 40),    # red
    (44, 160, 44),    # green
    (255, 127, 14),   # orange
    (148, 103, 189),  # purple
    (140, 86, 75),    # brown
    (23, 190, 207),   # cyan
    (227, 119, 194),  # pink
    (127, 127, 127),  # grey
    (188, 189, 34),   # olive
)


def palette_color(index: int) -> Color:
    return PALETTE[index % len(PALETTE)]


def tint(color: Color, factor: float) -> Color:
    """Blend ``color`` towards white (``factor`` 0 = unchanged, 1 = white)."""
    return tuple(round(channel + (255 - channel) * factor) for channel in color)


#: Dash patterns (on, off) by style index; index 0 is solid.
DASH_PATTERNS = (None, (6, 4), (2, 3), (9, 3))


def dash_pattern(style_index: int):
    return DASH_PATTERNS[style_index % len(DASH_PATTERNS)]


def dashed_segments(points, on: int, off: int):
    """Split a polyline into ``on``/``off``-pixel dash segments.

    Yields ``(x0, y0, x1, y1)`` pieces; the phase carries across
    polyline joints so dashes flow continuously along the curve.
    """
    phase = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:], strict=False):
        length = max(abs(x1 - x0), abs(y1 - y0))
        if length == 0:
            continue
        position = 0.0
        while position < length:
            cycle = phase % (on + off)
            if cycle < on:
                span = min(on - cycle, length - position)
                t0, t1 = position / length, (position + span) / length
                yield (
                    round(x0 + (x1 - x0) * t0),
                    round(y0 + (y1 - y0) * t0),
                    round(x0 + (x1 - x0) * t1),
                    round(y0 + (y1 - y0) * t1),
                )
            else:
                span = min((on + off) - cycle, length - position)
            position += span
            phase += span


# -- 5x7 bitmap font -------------------------------------------------------------------
#
# Each glyph is 7 rows of 5 bits, bit 4 the leftmost pixel.  Text is
# rendered uppercase-only (draw_text() upper-cases), which keeps the
# table small; an unknown character renders as a hollow box.

_GLYPHS = {
    " ": (0b00000, 0b00000, 0b00000, 0b00000, 0b00000, 0b00000, 0b00000),
    "0": (0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110),
    "1": (0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110),
    "2": (0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111),
    "3": (0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110),
    "4": (0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010),
    "5": (0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110),
    "6": (0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110),
    "7": (0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000),
    "8": (0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110),
    "9": (0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100),
    "A": (0b01110, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001),
    "B": (0b11110, 0b10001, 0b10001, 0b11110, 0b10001, 0b10001, 0b11110),
    "C": (0b01110, 0b10001, 0b10000, 0b10000, 0b10000, 0b10001, 0b01110),
    "D": (0b11100, 0b10010, 0b10001, 0b10001, 0b10001, 0b10010, 0b11100),
    "E": (0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b11111),
    "F": (0b11111, 0b10000, 0b10000, 0b11110, 0b10000, 0b10000, 0b10000),
    "G": (0b01110, 0b10001, 0b10000, 0b10111, 0b10001, 0b10001, 0b01111),
    "H": (0b10001, 0b10001, 0b10001, 0b11111, 0b10001, 0b10001, 0b10001),
    "I": (0b01110, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110),
    "J": (0b00111, 0b00010, 0b00010, 0b00010, 0b00010, 0b10010, 0b01100),
    "K": (0b10001, 0b10010, 0b10100, 0b11000, 0b10100, 0b10010, 0b10001),
    "L": (0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b10000, 0b11111),
    "M": (0b10001, 0b11011, 0b10101, 0b10101, 0b10001, 0b10001, 0b10001),
    "N": (0b10001, 0b10001, 0b11001, 0b10101, 0b10011, 0b10001, 0b10001),
    "O": (0b01110, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110),
    "P": (0b11110, 0b10001, 0b10001, 0b11110, 0b10000, 0b10000, 0b10000),
    "Q": (0b01110, 0b10001, 0b10001, 0b10001, 0b10101, 0b10010, 0b01101),
    "R": (0b11110, 0b10001, 0b10001, 0b11110, 0b10100, 0b10010, 0b10001),
    "S": (0b01111, 0b10000, 0b10000, 0b01110, 0b00001, 0b00001, 0b11110),
    "T": (0b11111, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100, 0b00100),
    "U": (0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01110),
    "V": (0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b01010, 0b00100),
    "W": (0b10001, 0b10001, 0b10001, 0b10101, 0b10101, 0b10101, 0b01010),
    "X": (0b10001, 0b10001, 0b01010, 0b00100, 0b01010, 0b10001, 0b10001),
    "Y": (0b10001, 0b10001, 0b01010, 0b00100, 0b00100, 0b00100, 0b00100),
    "Z": (0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b11111),
    ".": (0b00000, 0b00000, 0b00000, 0b00000, 0b00000, 0b01100, 0b01100),
    ",": (0b00000, 0b00000, 0b00000, 0b00000, 0b01100, 0b00100, 0b01000),
    "-": (0b00000, 0b00000, 0b00000, 0b11111, 0b00000, 0b00000, 0b00000),
    "_": (0b00000, 0b00000, 0b00000, 0b00000, 0b00000, 0b00000, 0b11111),
    "/": (0b00001, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000, 0b10000),
    "\\": (0b10000, 0b10000, 0b01000, 0b00100, 0b00010, 0b00001, 0b00001),
    "(": (0b00010, 0b00100, 0b01000, 0b01000, 0b01000, 0b00100, 0b00010),
    ")": (0b01000, 0b00100, 0b00010, 0b00010, 0b00010, 0b00100, 0b01000),
    "[": (0b01110, 0b01000, 0b01000, 0b01000, 0b01000, 0b01000, 0b01110),
    "]": (0b01110, 0b00010, 0b00010, 0b00010, 0b00010, 0b00010, 0b01110),
    ":": (0b00000, 0b01100, 0b01100, 0b00000, 0b01100, 0b01100, 0b00000),
    "=": (0b00000, 0b00000, 0b11111, 0b00000, 0b11111, 0b00000, 0b00000),
    "+": (0b00000, 0b00100, 0b00100, 0b11111, 0b00100, 0b00100, 0b00000),
    "%": (0b11001, 0b11010, 0b00010, 0b00100, 0b01000, 0b01011, 0b10011),
    "*": (0b00000, 0b10101, 0b01110, 0b11111, 0b01110, 0b10101, 0b00000),
    "<": (0b00010, 0b00100, 0b01000, 0b10000, 0b01000, 0b00100, 0b00010),
    ">": (0b01000, 0b00100, 0b00010, 0b00001, 0b00010, 0b00100, 0b01000),
    "'": (0b00100, 0b00100, 0b00000, 0b00000, 0b00000, 0b00000, 0b00000),
}
_UNKNOWN_GLYPH = (0b11111, 0b10001, 0b10001, 0b10001, 0b10001, 0b10001, 0b11111)

GLYPH_WIDTH = 5
GLYPH_HEIGHT = 7
#: Horizontal advance per character (glyph plus one pixel of spacing).
CHAR_ADVANCE = GLYPH_WIDTH + 1


@functools.lru_cache(maxsize=None)
def _glyph_runs(char: str) -> Tuple[Tuple[int, int, int], ...]:
    """The lit pixels of ``char``'s glyph as ``(row, first column, length)`` horizontal runs.

    Built on first use rather than at import: a table built at import
    raised the peak RSS of a serial simulation that draws nothing (the
    e2e ``paper_static`` workload, which imports the renderer) by 1.1 MB.
    """
    glyph = _GLYPHS.get(char, _UNKNOWN_GLYPH)
    return tuple(
        (row, run.start(), len(run.group()))
        for row, bits in enumerate(glyph)
        for run in re.finditer("1+", format(bits, f"0{GLYPH_WIDTH}b"))
    )


def text_width(text: str, scale: int = 1) -> int:
    """Pixel width :meth:`Canvas.draw_text` uses for ``text``."""
    if not text:
        return 0
    return (len(text) * CHAR_ADVANCE - 1) * scale


class Canvas:
    """A fixed-size RGB pixel buffer with chart-drawing primitives.

    The buffer is laid out as the PNG scanlines it encodes to: each row
    is one filter byte (0, "None") followed by ``3 * width`` RGB bytes,
    so :meth:`to_png` compresses it without copying.
    """

    def __init__(self, width: int, height: int, background: Color = WHITE) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"canvas size must be positive, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self._stride = 1 + 3 * self.width
        self._pixels = bytearray((b"\x00" + bytes(background) * self.width) * self.height)

    # -- primitives -------------------------------------------------------------------

    def fill_rect(self, x: int, y: int, w: int, h: int, color: Color) -> None:
        x0, x1 = max(0, x), min(self.width, x + w)
        y0, y1 = max(0, y), min(self.height, y + h)
        if x0 >= x1 or y0 >= y1:
            return
        row = bytes(color) * (x1 - x0)
        size, stride, pixels = len(row), self._stride, self._pixels
        start = y0 * stride + 1 + 3 * x0
        for offset in range(start, start + (y1 - y0) * stride, stride):
            pixels[offset:offset + size] = row

    def draw_rect(self, x: int, y: int, w: int, h: int, color: Color) -> None:
        self.fill_rect(x, y, w, 1, color)
        self.fill_rect(x, y + h - 1, w, 1, color)
        self.fill_rect(x, y, 1, h, color)
        self.fill_rect(x + w - 1, y, 1, h, color)

    def draw_line(self, x0: int, y0: int, x1: int, y1: int, color: Color, thickness: int = 1) -> None:
        """Bresenham line; ``thickness > 1`` thickens across the minor axis.

        An axis-aligned line is the rectangle of pixels Bresenham would
        set (a zero-length line thickens vertically, as Bresenham's
        non-steep case does), so it is filled as one.
        """
        x0, y0, x1, y1 = int(x0), int(y0), int(x1), int(y1)
        if y0 == y1:
            self.fill_rect(min(x0, x1), y0 - thickness // 2, abs(x1 - x0) + 1, thickness, color)
            return
        if x0 == x1:
            self.fill_rect(x0 - thickness // 2, min(y0, y1), thickness, abs(y1 - y0) + 1, color)
            return
        dx, dy = abs(x1 - x0), -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        steep = -dy > dx
        pad = range(-(thickness // 2), thickness - thickness // 2)
        width, height, stride = self.width, self.height, self._stride
        pixels, rgb = self._pixels, bytes(color)
        while True:
            for offset in pad:
                x, y = (x0 + offset, y0) if steep else (x0, y0 + offset)
                if 0 <= x < width and 0 <= y < height:
                    start = y * stride + 1 + 3 * x
                    pixels[start:start + 3] = rgb
            if x0 == x1 and y0 == y1:
                return
            doubled = 2 * err
            if doubled >= dy:
                err += dy
                x0 += sx
            if doubled <= dx:
                err += dx
                y0 += sy

    def draw_marker(self, x: int, y: int, color: Color, size: int = 2) -> None:
        self.fill_rect(int(x) - size // 2 - 1, int(y) - size // 2 - 1, size + 2, size + 2, color)

    def draw_text(self, x: int, y: int, text: str, color: Color = BLACK, scale: int = 1) -> None:
        """Render ``text`` (upper-cased) with its top-left corner at (x, y).

        Each glyph is drawn as its cached horizontal runs.  A glyph box
        inside the canvas is written as direct row slices; one crossing
        an edge goes through :meth:`fill_rect`, which clips.
        """
        cursor, y = int(x), int(y)
        stride, pixels = self._stride, self._pixels
        rgb = bytes(color)
        segments = [rgb * (length * scale) for length in range(GLYPH_WIDTH + 1)]
        rows_inside = 0 <= y and y + GLYPH_HEIGHT * scale <= self.height
        right = self.width - GLYPH_WIDTH * scale
        for char in text.upper():
            runs = _glyph_runs(char)
            if rows_inside and 0 <= cursor <= right:
                origin = y * stride + 1 + 3 * cursor
                for row, start, length in runs:
                    segment = segments[length]
                    first = origin + row * scale * stride + 3 * start * scale
                    for offset in range(first, first + scale * stride, stride):
                        pixels[offset:offset + len(segment)] = segment
            else:
                for row, start, length in runs:
                    self.fill_rect(cursor + start * scale, y + row * scale, length * scale, scale, color)
            cursor += CHAR_ADVANCE * scale

    # -- encoding ---------------------------------------------------------------------

    def to_png(self) -> bytes:
        """Encode the buffer as an 8-bit RGB PNG (filter 0, no interlace).

        Deflate level 1: about a third of level 6's time on these
        charts, for files roughly twice the size.
        """

        def chunk(tag: bytes, payload: bytes) -> bytes:
            body = tag + payload
            return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

        header = struct.pack(">IIBBBBB", self.width, self.height, 8, 2, 0, 0, 0)
        return b"".join((
            b"\x89PNG\r\n\x1a\n",
            chunk(b"IHDR", header),
            chunk(b"IDAT", zlib.compress(self._pixels, 1)),
            chunk(b"IEND", b""),
        ))


def png_size(data: bytes) -> Tuple[int, int]:
    """(width, height) from a PNG byte string (used by the tests)."""
    if data[:8] != b"\x89PNG\r\n\x1a\n" or data[12:16] != b"IHDR":
        raise ValueError("not a PNG byte string")
    width, height = struct.unpack(">II", data[16:24])
    return width, height
