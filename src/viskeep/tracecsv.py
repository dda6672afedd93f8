"""The number format of the trace CSV: rows of floats as ``"%.12g" % x``
text, at array speed.

Each cell is built in a fixed-width byte row from lookup tables, and the
cells that the tables cannot write exactly are written by ``%.12g``
itself, so that operator is the only output contract.  `SimTrace.to_csv`
in :mod:`viskeep.simulate` loads this module when it writes its first
trace, and formats each trace's chunks in one `CsvWorkspace`, whose
`format` is the module's one formatter: every intermediate and the cells'
byte rows are written into buffers made once per trace and dropped with
it, so no chunk allocates and faults in fresh memory.
"""

from __future__ import annotations

import numpy as np

# Each cell of `CsvWorkspace.format` is 32 bytes, four 8-byte words: its
# sign and the "0." and up to three zeros before the digits of a value below
# 1 (word 0), then its 12 significant digits, four per word, each followed
# by a slot for the decimal point; the last slot, never a point, holds the
# separator.
# A zero byte is an empty slot, and the joined cells drop them.
_SCALE = np.array([float(10 ** (11 - e)) for e in range(-4, 12)])  # exact
_BLANK_KEY = 16 * 12 * 2  # the template row after one per (e, last digit, sign)


def _tables():
    """The word tables of `CsvWorkspace.format`:

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


class CsvWorkspace:
    """The working buffers of the formatter for up to `cells` cells, made
    once, so a trace written in chunks allocates none per chunk: every
    intermediate, and the 32-byte slot rows of the cells over a bytearray
    that `bytearray.translate` joins in place.  A call rewrites every slot
    of its cells and zeroes the slots past them, which the join drops.
    Table lookups take ``mode="clip"`` (every index is in range), so
    np.take writes into its `out` directly, not through a copy."""

    def __init__(self, cells: int):
        self.real = np.empty((3, cells))
        self.index = np.empty((4, cells), np.intp)
        self.flag = np.empty((3, cells), bool)
        self.last = np.empty((2, cells), np.int8)
        self.word = np.empty((2, cells), np.uint64)
        self.text = bytearray(32 * cells)
        self.slots = np.frombuffer(self.text, np.uint64).reshape(-1, 4)

    def format(self, values, blank) -> bytearray:
        """CSV lines of the rows of the 2-D float array `values`, at most
        `cells` cells: each cell ``"%.12g" % x``, empty in the columns where
        the bool mask `blank` is true, and every line ended by ``\\n``.

        A cell with e = floor(log10|x|) in [-4, 11], where ``%.12g`` writes
        fixed notation, gets its 12 significant digits from n = rint(m),
        m = |x| * 10**(11 - e): the power of ten is exact and the product
        rounded once, so m is within 1.2e-4 of the exact scaled value, and
        n is that value's rounding when m is farther than 2.5e-4 from a
        half-integer and 10**11 <= m, n < 10**12.  Every other cell is
        written by ``"%.12g" % x`` itself: 0, -0.0, non-finite values,
        |x| < 1e-4, values that round to 1e12 or more, near-ties and an
        exponent log10 got wrong by one."""
        values = np.asarray(values, dtype=np.float64)
        rows, cols = values.shape
        size = values.size
        x = values.ravel()
        mag, e, n = (r[:size] for r in self.real)
        row, *groups = (i[:size] for i in self.index)
        fast, other, empty = (f[:size] for f in self.flag)
        last, digit = (k[:size] for k in self.last)
        template, digits = (w[:size] for w in self.word)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.abs(x, out=mag)
            np.floor(np.log10(mag, out=e), out=e)
            np.greater_equal(e, -4, out=fast)
            fast &= np.less_equal(e, 11, out=other)
            # any row of the tables: these cells are rewritten
            np.copyto(e, 11, where=np.logical_not(fast, out=other))
            np.copyto(row, e, casting="unsafe")
            row += 4
            m = np.take(_SCALE, row, out=e, mode="clip")
            m *= mag
            np.rint(m, out=n)
            np.subtract(m, np.floor(m, out=mag), out=mag)
            mag -= 0.5
            fast &= np.greater(np.abs(mag, out=mag), 2.5e-4, out=other)
            fast &= np.greater_equal(m, 1e11, out=other)
            fast &= np.less(n, 1e12, out=other)
        np.copyto(n, 1e11, where=np.logical_not(fast, out=other))
        for g, scale in zip(groups, (1e8, 1e4)):
            # exact: n is an integer below 2**53
            high = np.floor(np.divide(n, scale, out=mag), out=mag)
            np.copyto(g, high, casting="unsafe")
            n -= np.multiply(high, scale, out=mag)
        np.copyto(groups[2], n, casting="unsafe")
        np.take(_LAST_DIGIT[0], groups[0], out=last, mode="clip")
        for j in (1, 2):
            np.maximum(last, np.take(_LAST_DIGIT[j], groups[j], out=digit,
                                     mode="clip"), out=last)
        key = row
        key *= 12
        key += last
        key *= 2
        key += np.less(x, 0, out=other)
        empty.reshape(rows, cols)[...] = np.asarray(blank, bool)
        np.copyto(key, _BLANK_KEY, where=empty)
        words = self.slots[:size]
        words[:, 0] = np.take(_TEMPLATE[0], key, out=template, mode="clip")
        for w, g in enumerate(groups, start=1):
            np.bitwise_and(
                np.take(_TEMPLATE[w], key, out=template, mode="clip"),
                np.take(_DIGIT_WORDS, g, out=digits, mode="clip"),
                out=words[:, w])
        separators = np.zeros((cols, 8), np.uint8)
        separators[:, 7] = ord(",")
        separators[-1, 7] = ord("\n")
        words.reshape(rows, cols, 4)[:, :, 3] |= \
            separators.view(np.uint64).ravel()
        self.slots[size:] = 0
        np.logical_not(np.logical_or(fast, empty, out=other), out=other)
        slow = np.flatnonzero(other)
        if slow.size:
            text = np.array([b"%.12g" % v for v in x[slow].tolist()], "S31")
            words.view(np.uint8)[slow, :31] = \
                text.view(np.uint8).reshape(-1, 31)
        return self.text.translate(None, b"\0")
