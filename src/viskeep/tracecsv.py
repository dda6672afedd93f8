"""The number format of the trace CSV: rows of floats as ``"%.12g" % x``
text, at array speed.

Each cell is built in a fixed-width byte row from lookup tables, and the
cells that the tables cannot write exactly are written by ``%.12g``
itself, so that operator is the only output contract.  `SimTrace.to_csv`
in :mod:`viskeep.simulate` loads this module when it writes its first
trace.
"""

from __future__ import annotations

import numpy as np

# Each cell of `format_csv_rows` is 32 bytes, four 8-byte words: its sign and
# the "0." and up to three zeros before the digits of a value below 1 (word
# 0), then its 12 significant digits, four per word, each followed by a slot
# for the decimal point; the last slot, never a point, holds the separator.
# A zero byte is an empty slot, and the joined cells drop them.
_SCALE = np.array([float(10 ** (11 - e)) for e in range(-4, 12)])  # exact
_BLANK_KEY = 16 * 12 * 2  # the template row after one per (e, last digit, sign)


def _tables():
    """The word tables of `format_csv_rows`:

    - the digit words of each four-digit group, each digit followed by a
      0xFF slot that the template masks;
    - for each group position j, the index 4 j + k of its last nonzero
      digit k, or -1 if the group is 0;
    - four template word columns, one row per (exponent e in [-4, 11],
      index of the last nonzero digit, sign), and a last row of zeros for
      a blank cell: sign and prefix bytes, 0xFF at the digits that are kept
      (through the last nonzero or the units digit) and the point after
      the units digit when a nonzero digit follows it."""
    group = np.arange(10000)
    digits = np.stack([group // 10 ** (3 - k) % 10 for k in range(4)], axis=1)
    words = np.full((10000, 8), 0xFF, np.uint8)
    words[:, 0::2] = digits + ord("0")
    last = np.where(digits.any(axis=1),
                    3 - np.argmax(digits[:, ::-1] > 0, axis=1), -1)
    lasts = [np.where(last < 0, -1, 4 * j + last).astype(np.int8)
             for j in range(3)]
    template = np.zeros((16, 12, 2, 32), np.uint8)
    for e in range(-4, 12):
        for k in range(12):
            cells = template[e + 4, k]
            cells[1, 0] = ord("-")
            if e < 0:
                cells[:, 1:2 - e] = np.frombuffer(b"0." + b"0" * (-e - 1),
                                                  np.uint8)
            cells[:, 8:10 + 2 * max(e, k):2] = 0xFF
            if k > e >= 0:
                cells[:, 9 + 2 * e] = ord(".")
    template = np.vstack([template.reshape(-1, 32), np.zeros((1, 32), np.uint8)])
    template = template.view(np.uint64)
    return (words.view(np.uint64).ravel(), lasts,
            [np.ascontiguousarray(template[:, w]) for w in range(4)])


_DIGIT_WORDS, _LAST_DIGIT, _TEMPLATE = _tables()


def format_csv_rows(values, blank) -> bytes:
    """CSV lines of the rows of the 2-D float array `values`: each cell
    ``"%.12g" % x``, empty in the columns where the bool mask `blank` is
    true, and every line ended by ``\\n``.

    A cell with e = floor(log10|x|) in [-4, 11], where ``%.12g`` writes
    fixed notation, gets its 12 significant digits from n = rint(m),
    m = |x| * 10**(11 - e): the power of ten is exact and the product
    rounded once, so m is within 1.2e-4 of the exact scaled value, and n is
    that value's rounding when m is farther than 2.5e-4 from a half-integer
    and 10**11 <= m, n < 10**12.  Every other cell is written by
    ``"%.12g" % x`` itself: 0, -0.0, non-finite values, |x| < 1e-4, values
    that round to 1e12 or more, near-ties and an exponent log10 got wrong
    by one."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    x = values.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.abs(x)
        e = np.floor(np.log10(mag))
        fast = (e >= -4) & (e <= 11)
        e[~fast] = 11  # any row of the tables: these cells are rewritten
        row = e.astype(np.intp) + 4
        m = mag * _SCALE[row]
        n = np.rint(m)
        fast &= (np.abs(m - np.floor(m) - 0.5) > 2.5e-4) & (m >= 1e11) \
            & (n < 1e12)
    n[~fast] = 1e11
    high = np.floor(n / 1e8)  # exact: n is an integer below 2**53
    n -= high * 1e8
    mid = np.floor(n / 1e4)
    n -= mid * 1e4
    groups = [g.astype(np.intp) for g in (high, mid, n)]
    last = np.maximum(np.maximum(_LAST_DIGIT[0][groups[0]],
                                 _LAST_DIGIT[1][groups[1]]),
                      _LAST_DIGIT[2][groups[2]])
    key = (row * 12 + last) * 2 + (x < 0)
    empty = np.tile(np.asarray(blank, bool), rows)
    key[empty] = _BLANK_KEY
    cells = np.empty((rows, cols, 4), np.uint64)
    words = cells.reshape(-1, 4)
    words[:, 0] = _TEMPLATE[0][key]
    for w, g in enumerate(groups, start=1):
        np.bitwise_and(_TEMPLATE[w][key], _DIGIT_WORDS[g], out=words[:, w])
    separators = np.zeros((cols, 8), np.uint8)
    separators[:, 7] = ord(",")
    separators[-1, 7] = ord("\n")
    cells[:, :, 3] |= separators.view(np.uint64).ravel()
    slow = np.flatnonzero(~fast & ~empty)
    if slow.size:
        text = np.array([b"%.12g" % v for v in x[slow].tolist()], "S31")
        words.view(np.uint8)[slow, :31] = text.view(np.uint8).reshape(-1, 31)
    return cells.tobytes().translate(None, b"\0")
