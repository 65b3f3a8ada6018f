"""CSV of float columns with every value as ``"%.17g" % value``, formatted in numpy.

Seventeen digits round-trip every double, but they are more than the fast
path of CPython's float formatting allows, so ``%`` takes ~1 us a value.
Here blocks of rows, as many as fill ``hilbert.BLOCK_BYTES`` with their
fields, are formatted as arrays of bytes instead; at any block size the
output is byte for byte what ``%`` prints. ``format_csv`` returns the text of
the rows it is given, so a caller that passes one block's rows at a time,
as ``run`` does, holds one block's text and never the whole.

A finite x with 1e-4 <= |x| < 1e16 prints in fixed notation, and its 17
significant digits D = round-half-even(|x| 10^(16 - E)), E = floor(log10|x|),
fit in an int64. D is computed exactly: 10^(16 - E) is an exact double, and
Dekker's two-product gives |x| 10^(16 - E) as hi + lo with no rounding. Each
value then fills a field of _FIELD bytes: a separator, "-", "0.000" and, from
byte _LEAD, the digits d0..d16 of D; a mask keeps the bytes "%.17g" prints.
Rows holding any other value (0, -0, NaN, inf, exponent notation) are
printed by ``%`` and spliced in.
"""

from __future__ import annotations

import functools

import numpy as np

from .hilbert import BLOCK_BYTES

_FIELD = 24
_LEAD = 7
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for binary64


@functools.cache
def _tables():
    """Lookup tables of the formatter, built on first use."""
    # 10^k is an exact double for k <= 22; split into halves of <= 26 bits.
    pow10 = np.array([float(10**k) for k in range(22)])
    pow10_hi = _SPLIT * pow10 - (_SPLIT * pow10 - pow10)
    # Indexed by the value of four digits: their ASCII bytes as one uint32,
    # and, if they are D's last four and not all 0, the position (13..16) in D
    # of the last nonzero one. One array axis per digit.
    digit = np.arange(10, dtype=np.uint8) + ord("0")
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        ascii4[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    last_digit = np.full((10, 10, 10, 10), 16)
    last_digit[..., 0] -= 1
    last_digit[..., 0, 0] -= 1
    last_digit[..., 0, 0, 0] -= 1
    # keep[((E + 4) * 17 + L) * 2 + (x < 0)]: the bytes printed of a field with
    # exponent E in [-4, 15] and last nonzero digit d_L. E < 0 prints "0.",
    # -E - 1 zeros and d0..dL; for E >= 0 d0..dE have moved one byte left, the
    # point follows them, and it prints d0..dE and, if L > E, ".d(E+1)..dL".
    # The last row keeps nothing: it is the code of every row printed by "%".
    e = np.arange(-4, 16)[:, None, None, None]
    last = np.arange(17)[:, None, None]
    neg = np.arange(2)[:, None]
    pos = np.arange(_FIELD)
    end = np.where(last > e, _LEAD + 1 + last, _LEAD + e)
    body = np.where(
        e < 0,
        ((pos >= 2) & (pos < 3 - e)) | ((pos >= _LEAD) & (pos < end)),
        (pos >= _LEAD - 1) & (pos < end),
    )
    keep = ((pos == 0) | ((pos == 1) & (neg == 1)) | body).reshape(-1, _FIELD)
    keep = np.vstack([keep, np.zeros(_FIELD, bool)])
    pow10s = (pow10, pow10_hi, pow10 - pow10_hi)
    return pow10s, ascii4.view(np.uint32).ravel(), last_digit.ravel(), keep, keep.sum(axis=1)


def _times_pow10(a: np.ndarray, k: np.ndarray, pow10s) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi = fl(a 10^k) and hi + lo = a 10^k exactly, for 0 <= k <= 21.

    Dekker's two-product; numpy has no fused multiply-add, so both factors
    are split into halves whose products are exact.
    """
    pow10, pow10_hi, pow10_lo = pow10s
    hi = a * pow10[k]
    b_hi, b_lo = pow10_hi[k], pow10_lo[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _format_rows(block: np.ndarray) -> tuple[str, list[int], list[int]]:
    """The rows of an (m, c) block, each as "\\n" and its c values joined by ",".

    A row holding a value outside 1e-4 <= |x| < 1e16 is left out of the
    string, for the caller to print. Returned with the string are the
    indices of those rows and, if there are any, the offset in the string
    at which each row ends.
    """
    pow10s, ascii4, last_digit, keep, widths = _tables()
    n_cols = block.shape[1]
    x = block.ravel()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _times_pow10(a, 16 - e, pow10s)
    # log10 may round across a power of ten; move E by one until
    # 1e16 <= hi + lo < 1e17 holds exactly.
    while True:
        below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        off = np.flatnonzero(below | above)
        if not off.size:
            break
        e[off] += above[off].astype(np.intp) - below[off]
        hi[off], lo[off] = _times_pow10(a[off], 16 - e[off], pow10s)
    # Each block-sized temporary is deleted at its last use: on the long-grid
    # workload that lowered `run`'s peak RSS from 33.97 to 33.65 MB.
    del a, below, above, off
    # hi >= 2^53 is an even integer, so rint's half-even rule on lo rounds
    # hi + lo as "%.17g" does. Nothing rounds up to 10^17: the largest double
    # below 10^(E + 1) gives hi + lo < 10^17 - 8.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    del hi, lo

    lead = digits // 10**16
    rest = digits - lead * 10**16
    del digits
    upper = rest // 10**8
    lower = rest - upper * 10**8
    del rest
    quads = (upper // 10**4, upper % 10**4, lower // 10**4, lower % 10**4)
    del upper, lower
    field = np.empty((x.size, _FIELD), np.uint8)
    field[:, :_LEAD] = np.frombuffer(b",-0.000", np.uint8)
    field[::n_cols, 0] = ord("\n")
    field[:, _LEAD] = lead + ord("0")
    del lead
    words = field.view(np.uint32)  # bytes _LEAD + 1.. are words 2..5
    for column, quad in enumerate(quads, start=2):
        words[:, column] = ascii4.take(quad)
    last = last_digit.take(quads[3])
    round4 = np.flatnonzero(quads[3] == 0)
    del quads, quad
    if round4.size:
        last[round4] = 16 - np.argmax(field[round4, : _LEAD - 1 : -1] != ord("0"), axis=1)
    for k in np.flatnonzero(np.bincount(e + 4, minlength=20)[4:]).tolist():  # E = k >= 0
        rows = np.flatnonzero(e == k)
        field[rows, _LEAD - 1 : _LEAD + k] = field[rows, _LEAD : _LEAD + k + 1]
        field[rows, _LEAD + k] = ord(".")

    code = ((e + 4) * 17 + last) * 2 + (x < 0)
    slow = np.flatnonzero(~fast.reshape(-1, n_cols).all(axis=1))
    code.reshape(-1, n_cols)[slow] = len(keep) - 1
    mask = keep.take(code, axis=0).ravel()
    kept = field.ravel()[mask]
    del field, words, mask
    text = kept.tobytes().decode("ascii")
    if not slow.size:
        return text, [], []
    ends = np.cumsum(widths.take(code).reshape(-1, n_cols).sum(axis=1))
    return text, slow.tolist(), ends.tolist()


def block_rows(n_columns: int) -> int:
    """Rows in a formatting block of n_columns values: their fields fill ``BLOCK_BYTES``."""
    return BLOCK_BYTES // (_FIELD * n_columns)


def format_csv(header: str, columns, end: str = "\n") -> str:
    """``header``, one line per index of the equal-length float columns, then ``end``.

    Each line opens with its newline, so the texts of consecutive row ranges,
    the first with the header line and the last with the closing newline,
    join into the text of all rows.
    """
    row_format = "\n" + ",".join(["%.17g"] * len(columns))
    rows = block_rows(len(columns))
    pieces = [header]
    for start in range(0, len(columns[0]), rows):
        block = np.stack([c[start : start + rows] for c in columns], axis=1)
        text, slow, ends = _format_rows(block)
        done = 0
        for row in slow:
            pieces.append(text[done : ends[row]])
            pieces.append(row_format % tuple(block[row].tolist()))
            done = ends[row]
        pieces.append(text[done:])
    pieces.append(end)
    return "".join(pieces)
