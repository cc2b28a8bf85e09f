"""Exact column-wise rendering of '%.9g' and '%.2f' numbers into ASCII bytes.

Python's % costs a few hundred nanoseconds per number however the calls are
batched, so the CSV and SVG emitters render whole columns with numpy instead,
byte for byte as Python does:

* The 9 significant digits D of a '%.9g' cell are |v| * 10^k rounded half to
  even on the exact binary value.  The scale 10^k, k = 8 - X with X the
  decimal exponent, is an exact double for 0 <= k <= 22; where the floating
  product lands on a tie, its Dekker two-product error decides the rounding.
* Each cell is built in a 16-byte slot, two uint64 words: byte 0 is "-", the
  body (at most 14 bytes, as in "0.000123456789" or "1.23456789e-05") starts
  at byte 1 and the separator follows it, so the cell is the one byte range
  [0 if negative else 1, end).  A table row per shape (X, digits kept after
  stripping trailing zeros, separator) holds the words of the cell's text
  with every digit written as "0": the sign, "0." and leading zeros, ".",
  "e-XX" and the separator.  The digits are or-ed over it as byte values
  0-9: d1..d8 as one word split at the decimal point (the digits before it
  shifted to byte 1, or past the leading zeros, and the rest one byte
  further on), and d9 on its own.  A stripped zero adds 0 bytes, so the
  constants that land on its place keep their value.
* numpy's boolean compress costs ~0.55 ns per mask byte plus ~10-12 ns per
  run of kept bytes, so with one run per 16-byte cell it packs a block of
  rows at close to its per-byte cost.

Cells outside that exact domain (|v| not 0 and not in [1e-14, 1e9), and the
carry of 999999999.5 up to 1e+09) leave their whole row to Python's %.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

_X_MIN, _X_MAX = -14, 8      # decimal exponents whose scale 10**(8 - X) is exact
_N_X = _X_MAX - _X_MIN + 1
_SLOT = 16                   # bytes of one '%.9g' cell: "-", a body of at most 14, separator
_BLOCK_ROWS = 4096
_SPLITTER = 134217729.0      # 2**27 + 1, splits a double into two 26-bit halves
_POW10 = np.array([float(10**k) for k in range(_X_MAX - _X_MIN + 1)])  # each exact


def _word(text: str) -> int:
    """Four ASCII characters as one little-endian uint32."""
    return int.from_bytes(text.encode("ascii"), "little")


# row k: the bytes f2_point_runs keeps of a coordinate with k + 1 integer digits
_F2_MASKS = np.arange(12) >= 7 - np.arange(5)[:, None]
# ".", two decimals and the separator as one word: cents 0-99 after ",", then after " "
_F2_TAILS = np.array([_word(f".{c:02d}{sep}") for sep in ", " for c in range(100)], dtype="<u4")
for _table in (_POW10, _F2_MASKS, _F2_TAILS):
    _table.flags.writeable = False


@functools.cache
def _tables():
    """Read-only lookup tables: 4-digit words, trailing-zero counts and the slot tables."""
    i = np.arange(10000, dtype="<u4")
    quad = sum((i // 10**(3 - n) % 10 + ord("0")) << (8 * n) for n in range(4))
    zeros = sum((i % 10**n == 0).astype(np.int8) for n in range(1, 5))  # 4 for i = 0
    raw = (quad - _word("0000")).astype(np.uint64)  # four digits as byte values 0-9
    # per X, for d1..d8 split at the gap left for ".": the mask of the digits before it,
    # their bit shift and 64 minus it (those after it go 16 bits up), and d9's bit shift
    per_x = np.empty((4, _N_X), dtype=np.uint64)
    # per (X, kept, newline, sign): the cell's text, digits as "0", and its kept byte range
    words = np.zeros((_N_X, 10, 2, 2, 2), dtype="<u8")
    keep = np.zeros((_N_X, 10, 2, 2, _SLOT), dtype=bool)
    for x in range(_X_MIN, _X_MAX + 1):
        if x >= 0:  # X + 1 integer digits, then "." and the fraction
            before, shift, ninth_at = min(x + 1, 8), 8, 9 if x == 8 else 10
        elif x >= -4:  # "0." and -X - 1 zeros, then every digit
            before, shift, ninth_at = 8, 16 - 8 * x, 10 - x
        else:  # d1, then "." and the rest, then "e-XX"
            before, shift, ninth_at = 1, 8, 10
        per_x[:, x - _X_MIN] = (1 << 8 * before) - 1, shift, 64 - shift, 8 * ninth_at - 64
        for n in range(1, 10):  # Python's text of n ones at exponent X, the ones as "0"
            mantissa, e, exponent = ("%.9g" % float(f"{'1' * n}e{x - n + 1}")).partition("e")
            body = mantissa.replace("1", "0") + e + exponent
            for newline, sep in enumerate(",\n"):
                text = f"-{body}{sep}".encode("ascii")
                words[x - _X_MIN, n, newline] = np.frombuffer(text.ljust(_SLOT, b"\0"), "<u8")
                keep[x - _X_MIN, n, newline, 0, 1:len(text)] = True
                keep[x - _X_MIN, n, newline, 1, :len(text)] = True
    tables = quad, zeros, raw, *per_x, words.reshape(-1, 2), keep.reshape(-1, _SLOT)
    for table in tables:
        table.flags.writeable = False
    return tables


def _two_product_error(a, b):
    """a * b - fl(a * b), exactly (Dekker); no overflow or underflow in range."""
    p = a * b
    ca, cb = _SPLITTER * a, _SPLITTER * b
    a_hi, b_hi = ca - (ca - a), cb - (cb - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _round_product(a, scale):
    """a * scale rounded half to even on its exact value, for a >= 0 and an exact scale."""
    p = a * scale
    d = np.rint(p)
    tie = np.flatnonzero(p - np.floor(p) == 0.5)
    if tie.size:  # the product rounded onto a tie: the sign of its error picks the side
        err = _two_product_error(a[tie], np.broadcast_to(scale, p.shape)[tie])
        d[tie] = np.where(err > 0, np.ceil(p[tie]), np.where(err < 0, np.floor(p[tie]), d[tie]))
    return d


def _g9_cells(v: np.ndarray, slots: np.ndarray, keep: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Fill the 16-byte slots and kept-byte masks of '%.9g' for a 2-D float block.

    slots is (rows, columns, 2) uint64, keep (rows, columns, 16) bool and
    work (4, cells) uint64 scratch.  Returns which cells lie in the exact
    domain; the others get a valid but meaningless slot.
    """
    quad, zeros, raw, before, shift, back, ninth_shift, words, keeps = _tables()
    flat = v.ravel()
    a = np.abs(flat)
    ok = (a < 1e9) & ((a >= 1e-14) | (a == 0.0))
    a[~ok | (a == 0.0)] = 1.0  # stands in for zeros and foreign cells
    x = np.clip(np.floor(np.log10(a)), _X_MIN, _X_MAX).astype(np.intp)
    d = _round_product(a, _POW10.take(_X_MAX - x))
    for _ in range(2):  # floor(log10) can be one off, and rounding can carry into 10^9
        step = (d >= 1e9).astype(np.intp) - (d < 1e8)
        fix = np.flatnonzero(step)
        if not fix.size:
            break
        x[fix] += step[fix]
        ok[fix] &= (x[fix] >= _X_MIN) & (x[fix] <= _X_MAX)  # 999999999.5 carries to 1e+09
        x[fix] = np.clip(x[fix], _X_MIN, _X_MAX)
        d[fix] = _round_product(a[fix], _POW10.take(_X_MAX - x[fix]))
    ok &= (d >= 1e8) & (d < 1e9)
    zero = flat == 0.0
    d[zero | ~ok] = 0.0
    x[zero] = 0  # "0" is a one-digit integer
    # q = d // c and d - q c: exact, and several times faster than np.divmod on int32
    d = d.astype(np.int32)
    hi = d // 10000
    lo = d - hi * 10000
    first = hi // 10000
    mid = hi - first * 10000
    kept = 9 - zeros.take(lo) - (lo == 0) * zeros.take(mid)  # first >= 1 unless D = 0
    x -= _X_MIN
    shape = x * 40 + kept * 4 + np.signbit(flat)
    shape.reshape(v.shape)[:, -1] += 2  # the last column ends in a newline
    # every index is in range; mode="clip" writes into out directly, where "raise" buffers
    w = slots.reshape(-1, 2)
    words.take(shape, axis=0, out=w, mode="clip")
    keeps.take(shape, axis=0, out=keep.reshape(-1, _SLOT), mode="clip")
    digits, head, tmp, ninth = work
    np.right_shift(raw.take(lo, out=tmp, mode="clip"), np.uint64(24), out=ninth)
    np.left_shift(raw.take(mid, out=digits, mode="clip"), np.uint64(8), out=digits)
    digits |= np.left_shift(tmp, np.uint64(40), out=tmp)  # d9 shifts out
    np.bitwise_or(digits, first, out=digits, dtype=np.uint64, casting="unsafe")  # d1..d8
    # the digit bits of each slot word are gathered in a contiguous array, then or-ed in once
    np.left_shift(ninth, ninth_shift.take(x, out=tmp, mode="clip"), out=ninth)
    np.bitwise_and(digits, before.take(x, out=head, mode="clip"), out=head)  # before the gap
    digits ^= head  # and after it
    ninth |= np.right_shift(head, back.take(x, out=tmp, mode="clip"), out=tmp)
    ninth |= np.right_shift(digits, np.uint64(48), out=tmp)
    w[:, 1] |= ninth
    np.left_shift(head, shift.take(x, out=tmp, mode="clip"), out=head)
    head |= np.left_shift(digits, np.uint64(16), out=digits)
    w[:, 0] |= head
    return ok.reshape(v.shape)


def g9_rows(columns: Sequence[np.ndarray], row_format: str) -> Iterator[bytes]:
    """The bytes of ``row_format % row`` for each row of the columns, block by block.

    row_format holds one "%.9g" or "%d" field per column, joined by "," and
    ended by a newline; every cell must be finite.
    """
    fields = row_format[:-1].split(",")
    n_rows = len(columns[0])
    rows = min(n_rows, _BLOCK_ROWS)
    # reused by every block
    slots = np.empty((rows, len(fields), 2), dtype=np.uint64)
    keep = np.empty((rows, len(fields), _SLOT), dtype=bool)
    work = np.empty((4, rows * len(fields)), dtype=np.uint64)
    for start in range(0, n_rows, _BLOCK_ROWS):
        block = [c[start:start + _BLOCK_ROWS] for c in columns]
        cells = np.stack([np.trunc(c) + 0.0 if f == "%d" else c for c, f in zip(block, fields)],
                         axis=1).astype(float, copy=False)
        n = len(cells)
        mask = keep[:n]
        ok = _g9_cells(cells, slots[:n], mask, work[:, :cells.size])
        if ok.all():  # no foreign row, so no per-row scan
            yield slots[:n].view(np.uint8)[mask].tobytes()
            continue
        foreign = np.flatnonzero(~ok.all(axis=1))
        mask[foreign] = False
        packed = slots[:n].view(np.uint8)[mask]
        ends = np.cumsum(mask.sum(axis=(1, 2)))
        done = 0
        for i in foreign.tolist():
            yield packed[done:ends[i]].tobytes()
            yield (row_format % tuple(c[i].item() for c in block)).encode("ascii")
            done = ends[i]
        yield packed[done:].tobytes()


def f2_point_runs(u: np.ndarray, v: np.ndarray, bounds: Sequence[int]) -> list[bytes]:
    """ASCII " ".join(f"{a:.2f},{b:.2f}") over each run of points [bounds[j], bounds[j + 1]).

    Coordinates must lie in [0, 1e4): D = u * 100 rounded half to even is
    exact there, and the text is its integer digits, "." and two decimals.
    """
    uv = np.stack([u, v], axis=1).astype(float, copy=False)
    quad = _tables()[0]
    d = _round_product(uv.ravel(), 100.0).astype(np.int32).reshape(uv.shape)
    whole = d // 100
    cents = d - whole * 100
    digits = (whole >= 10).astype(np.int8) + (whole >= 100) + (whole >= 1000) + (whole >= 10000)
    # bytes: 3 "1" of 10000, 4-7 the last four integer digits, 8 ".", 9-10 cents, 11 separator
    words = np.empty(uv.shape + (3,), dtype="<u4")
    words[..., 0] = _word("   1")
    words[..., 1] = quad.take(whole, mode="wrap")  # 10000 wraps to "0000"
    words[..., 2] = _F2_TAILS.take(cents + [0, 100])  # ".", two decimals, separator
    packed = memoryview(words.view(np.uint8)[_F2_MASKS.take(digits, axis=0)])
    # a point takes 10 bytes plus its integer digits beyond the first; offsets only at the bounds
    ends = np.zeros(len(d) + 1, dtype=np.intp)
    np.cumsum(digits[:, 0] + digits[:, 1] + 10, dtype=np.intp, out=ends[1:])
    starts = ends[np.asarray(bounds)].tolist()
    return [packed[lo:hi][:-1].tobytes() for lo, hi in zip(starts[:-1], starts[1:])]
