"""Numbers as text, byte for byte as Python's "%.17g" and "%d", in numpy.

The snapshot, probe, mesh, node-set, trajectory and error-histogram writers
print every number through :func:`float_cells` and :func:`int_cells`, which
spell whole arrays at once. Each value becomes a fixed-width cell: its text,
its separator, and NUL padding. Cells of several arrays can be laid side by
side, and :func:`compact` drops the padding. The writers import this module
inside the function that writes, so that a command which writes no such
file never compiles it, and its digit tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

# Bytes of a float's cell: sign, "0.000", 17 digits and the separator at
# most, for every value that float_cells prints in numpy
CELL = 24
# Bytes of a cell that fits any "%.17g" text and its separator, such as
# "-1.2345678901234567e-300,"; only arrays holding such a value use it
WIDE_CELL = 32
# Values per numpy pass: bounds the formatter's temporaries (about 85
# bytes per value) while its fixed cost per pass stays small
BLOCK_VALUES = 4096
LAYOUTS = 21 * CELL  # (exponent, separator column) pairs of a float's cell
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


@functools.cache
def _digit_tables():
    """(words, zeros): words[c] spells 0 <= c < 10**4 as four ASCII digits,
    viewed as one uint32; zeros[c] counts its trailing zero digits (4 for
    0). Built on first use, so that importing the module builds nothing."""
    c = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([c // 1000, c // 100 % 10, c // 10 % 10, c % 10], axis=1)
    words = (digits.astype(np.uint8) + ord("0")).view(np.uint32).ravel()
    zeros = (c % 10 == 0).astype(np.uint8) + (c % 100 == 0) + (c % 1000 == 0) + (c == 0)
    return words, zeros


@functools.cache
def _powers_of_ten():
    """10**p for p = 0 .. 22 (all exact) and their Veltkamp halves."""
    p = 10.0 ** np.arange(23)
    t = p * _SPLIT
    hi = t - (t - p)
    return p, hi, p - hi


@functools.cache
def _cell_masks(sep: int, row_end: int):
    """Three tables of a float's cell as rows of three uint64, indexed by
    (e + 4) * CELL + end, where e is the decimal exponent and end the
    separator's column, plus LAYOUTS * (negative + 2 * last) in the third,
    where last says whether the value ends its row:

    - the bytes taken from the digits moved left by one: the digits after
      the point, and all digits when e < 0;
    - the bytes taken from the digits moved left by two: those before it;
    - every other byte: the point, the zeros of "0.000", the sign and the
      separator (row_end when last).
    """
    last = np.arange(2)[:, None, None, None, None]
    neg = np.arange(2)[None, :, None, None, None]
    e = np.arange(-4, 17)[None, None, :, None, None]
    end = np.arange(CELL)[None, None, None, :, None]
    c = np.arange(CELL)
    keep = c < end
    after = keep & (c >= np.maximum(7 + e, 6)) & (c <= 22)
    before = keep & (c >= 5) & (c <= 5 + e)
    byte = np.uint8
    text = (np.where(keep & (c == 6 + e), byte(ord(".")), 0)
            + np.where((e < 0) & (((c >= 7 + e) & (c <= 5)) | (c == 5 + e)), byte(ord("0")), 0)
            + np.where((neg == 1) & (c == 4 + np.minimum(e, 0)), byte(ord("-")), 0)
            + np.where(c == end, np.where(last == 1, byte(row_end), byte(sep)), 0))
    return tuple(np.ascontiguousarray(np.broadcast_to(table, shape + (CELL,)), dtype=np.uint8)
                 .reshape(-1, CELL).view(np.uint64)
                 for table, shape in ((after[0, 0] * byte(255), (21, CELL)),
                                      (before[0, 0] * byte(255), (21, CELL)),
                                      (text, (2, 2, 21, CELL))))


def _scaled(y, e):
    """round(y * 10**(16 - e)) as int64, half to even, exactly. The product
    is hi + lo by Dekker's two-product (Numer. Math. 18, 1971); where
    hi >= 2**53 it is an even integer, so hi + rint(lo) rounds the sum."""
    p, p_hi, p_lo = _powers_of_ten()
    k = 16 - e
    hi, ph, pl = p[k], p_hi[k], p_lo[k]
    del k
    hi *= y
    yh = y * _SPLIT
    yl = yh - y
    yh -= yl
    np.subtract(y, yh, out=yl)
    lo = yh * ph
    lo -= hi
    yh *= pl
    lo += yh
    ph *= yl
    lo += ph
    yl *= pl
    lo += yl
    del yh, yl, ph, pl
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    return d


def _fixed_cells(x, out, first_last: int, cols: int, masks) -> np.ndarray:
    """Fill out (m, CELL) with the cells of x, value first_last + k * cols
    ending its row; returns the indices of the values left to Python
    (whose cells hold placeholder text)."""
    y = np.abs(x)
    fast = y >= 1e-4
    fast &= y < 1e17
    slow = np.flatnonzero(~fast & (y != 0))
    e = np.where(fast, y, 1.0)
    np.floor(np.log10(e, out=e), out=e)
    e = np.clip(e, -4, 16, out=e).astype(np.intp)
    np.copyto(y, 0.0, where=~fast)
    d = _scaled(y, e)
    redo = np.flatnonzero(((d < 10**16) & fast) | (d >= 10**17))
    if redo.size:
        e[redo] += np.where(d[redo] >= 10**17, 1, -1)
        d[redo] = _scaled(y[redo], e[redo])
    del y, fast

    # d's 17 digits at columns 7 .. 23 of a scratch cell: the leading digit
    # alone, then four words of four digits
    m = x.size
    words, zeros = _digit_tables()
    scratch = np.zeros(m * CELL + 8, np.uint8)
    digit_words = scratch[:m * CELL].view(np.uint32).reshape(m, CELL // 4)
    high = d // 10**8
    d -= high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    lead += ord("0")
    scratch[7:m * CELL:CELL] = lead
    del lead
    chunks = []
    for col, part in ((3, high), (5, d)):
        upper = part // 10**4
        part -= upper * 10**4
        digit_words[:, col - 1] = words[upper]
        digit_words[:, col] = words[part]
        chunks += [upper, part]
    del high, d

    # trailing zeros of d, from the last word back while words are zero;
    # the digits after the point lose them, and a point left bare goes
    tz = zeros[chunks[3]]
    rows = np.flatnonzero(chunks[3] == 0)
    for chunk in chunks[2::-1]:
        if not rows.size:
            break
        part = chunk[rows]
        tz[rows] += zeros[part]
        rows = rows[part == 0]
    del chunks
    frac = 16 - e
    strip = np.minimum(tz, frac)
    code = e
    code += 4
    code *= CELL
    code += 23
    code -= strip
    code -= strip == frac
    del tz, frac, strip

    after, before, text = masks
    shifted1 = scratch[1:1 + m * CELL].view(np.uint64).reshape(m, 3)
    shifted2 = scratch[2:2 + m * CELL].view(np.uint64).reshape(m, 3)
    # every code is in range, so "clip" only spares take a buffered copy
    cell = out.view(np.uint64)
    np.take(after, code, axis=0, out=cell, mode="clip")
    cell &= shifted1
    part = np.take(before, code, axis=0)
    part &= shifted2
    cell |= part
    code += LAYOUTS * np.signbit(x)
    code[first_last::cols] += 2 * LAYOUTS
    cell |= np.take(text, code, axis=0, out=part, mode="clip")
    return slow


def _as_rows(values, dtype):
    values = np.asarray(values, dtype=dtype)
    cols = values.shape[1] if values.ndim == 2 else 1
    return values.ravel(), values.shape[0], cols


def float_cells(values, sep: bytes = b" ", row_end: bytes = b"\n") -> np.ndarray:
    """The "%.17g" texts of a float64 array as cells: uint8 (rows, cols *
    width), each value's text then ``sep`` (``row_end`` after the last value
    of a row), NUL-padded to ``width`` bytes. A 1-D array is one column.
    width is CELL, or WIDE_CELL when an exponent form does not fit CELL.

    Values with 1e-4 <= |x| < 1e17 (where "%.17g" prints fixed notation)
    and zeros are printed in numpy. With e = floor(log10|x|), the digits are
    d = round(|x| 10**(16 - e)), rounded half to even from the exact binary
    value as CPython's dtoa (Gay 1990) does. Where d falls outside
    [10**16, 10**17), log10 was one off (or d rounded up to 10**17) and d is
    taken again with e moved by one. This needs that no double in the range
    lies within half a unit of d below a power of ten; none does (the
    nearest are 0.83 units away, below 0.1), so d = 10**16 always has the
    right e and a second d never rounds up to 10**17.
    Every other value (|x| < 1e-4, |x| >= 1e17, inf, nan) is printed by
    Python and spliced into its cell.
    """
    x, rows, cols = _as_rows(values, np.float64)
    masks = _cell_masks(sep[0], row_end[0])
    cells = np.empty((x.size, CELL), np.uint8)
    slow = []
    for s in range(0, x.size, BLOCK_VALUES):
        left = _fixed_cells(x[s:s + BLOCK_VALUES], cells[s:s + BLOCK_VALUES],
                            (cols - 1 - s) % cols, cols, masks)
        slow += (left + s).tolist()
    if slow:
        texts = [b"%.17g" % v + (row_end if i % cols == cols - 1 else sep)
                 for i, v in zip(slow, x[slow].tolist())]
        if max(map(len, texts)) > CELL:
            cells = np.pad(cells, ((0, 0), (0, WIDE_CELL - CELL)))
        cells[slow] = 0
        for i, text in zip(slow, texts):
            cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells.reshape(rows, cols * cells.shape[1])


def int_cells(values, sep: bytes = b" ", row_end: bytes = b"\n") -> np.ndarray:
    """The "%d" texts of an integer array as cells, laid out as by
    float_cells; the width is four bytes per four digits of the widest
    value (and its sign), plus four for the separator."""
    v, rows, cols = _as_rows(values, np.int64)
    negative = np.flatnonzero(v < 0)
    v = np.abs(v)
    top = int(v.max()) if v.size else 0
    width = 4 * -(-(len(str(top)) + bool(negative.size)) // 4)
    # a value of n digits keeps the last n of its cell's digit columns
    n = np.searchsorted(10 ** np.arange(1, min(width, 19)), v, side="right")
    n += 1
    cells = np.zeros((v.size, width + 4), np.uint8)
    cell_words = cells.view(np.uint32)
    words, _ = _digit_tables()
    for col in range(width // 4 - 1, -1, -1):
        cell_words[:, col] = words[v % 10**4]
        v //= 10**4
    cells[:, :width] *= np.arange(width) >= width - n[:, None]
    cells[negative, width - 1 - n[negative]] = ord("-")
    cells[:, width] = sep[0]
    cells[cols - 1::cols, width] = row_end[0]
    return cells.reshape(rows, cols * (width + 4))


def compact(cells: np.ndarray) -> np.ndarray:
    """The text of cells: their bytes in order, padding dropped."""
    flat = cells.reshape(-1)
    return flat[flat != 0]


def compact_blocks(cells: np.ndarray):
    """Yield the text of a 2-D array of cells in pieces of about
    BLOCK_VALUES float cells, so that no mask of the whole array is made."""
    step = max(1, BLOCK_VALUES * CELL // cells.shape[1])
    for s in range(0, cells.shape[0], step):
        yield compact(cells[s:s + step])


def text_blocks(values, sep: bytes = b" ", row_end: bytes = b"\n"):
    """Yield the text of an int or float64 array, row by row: each value as
    "%d" or "%.17g", then ``sep``, or ``row_end`` after the last value of a
    row. The pieces hold about BLOCK_VALUES values each, so that writing a
    large array never holds all its cells."""
    values = np.asarray(values)
    cells = int_cells if values.dtype.kind in "iu" else float_cells
    step = max(1, BLOCK_VALUES // (values.shape[1] if values.ndim == 2 else 1))
    for s in range(0, values.shape[0], step):
        yield compact(cells(values[s:s + step], sep, row_end))
