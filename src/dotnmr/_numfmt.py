"""Exact column-wise rendering of '%.9g' and '%.2f' numbers into ASCII bytes.

Python's % costs a few hundred nanoseconds per number however the calls are
batched, so the CSV and SVG emitters render whole columns with numpy instead,
byte for byte as Python does:

* The 9 significant digits D of a '%.9g' cell are |v| * 10^k rounded half to
  even on the exact binary value.  The scale 10^k, k = 8 - X with X the
  decimal exponent, is an exact double for 0 <= k <= 22; where the floating
  product lands on a tie, its Dekker two-product error decides the rounding.
* Each cell fills a fixed 36-byte template: sign, "0.", leading zeros, the
  digits twice, ".", "e-XX" and the separator.  Which bytes print depends
  only on the sign, X and the number of digits kept after stripping trailing
  zeros, so a mask table selects them and one boolean compress packs a block
  of rows.

Cells outside that exact domain (|v| not 0 and not in [1e-14, 1e9), and the
carry of 999999999.5 up to 1e+09) leave their whole row to Python's %.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence

import numpy as np

_X_MIN, _X_MAX = -14, 8      # decimal exponents whose scale 10**(8 - X) is exact
_N_X = _X_MAX - _X_MIN + 1
_WIDTH = 36                  # template bytes of one '%.9g' cell (9 uint32 words)
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
    """Read-only lookup tables: 4-digit words, trailing-zero counts, exponent words, masks."""
    i = np.arange(10000, dtype="<u4")
    quad = sum((i // 10**(3 - n) % 10 + ord("0")) << (8 * n) for n in range(4))
    zeros = sum((i % 10**n == 0).astype(np.int8) for n in range(1, 5))  # 4 for i = 0
    expo = np.array([_word(f"e-{-x:02d}") if x < 0 else 0 for x in range(_X_MIN, _X_MAX + 1)],
                    dtype="<u4")
    # byte layout: 0 sign, 1-2 "0.", 3-5 zeros, 7 d1, 8-15 d2..d9,
    # 19 ".", 20-27 d2..d9 again, 28-31 "e-XX", 32 separator
    masks = np.zeros((2, _N_X, 9, _WIDTH), dtype=bool)
    masks[..., 32] = True
    masks[1, ..., 0] = True
    for x in range(_X_MIN, _X_MAX + 1):
        for n in range(1, 10):  # digits kept
            m = masks[:, x - _X_MIN, n - 1]
            if x >= 0:  # integer digits from the first copy, the fraction from the second
                m[:, 7:8 + x] = True
                if n > x + 1:
                    m[:, 19] = True
                    m[:, 20 + x:19 + n] = True
            elif x >= -4:  # "0." and -x - 1 zeros before the digits
                m[:, 1:2 - x] = True
                m[:, 7:7 + n] = True
            else:
                m[:, 7] = True
                if n > 1:
                    m[:, 19:19 + n] = True
                m[:, 28:32] = True
    masks = masks.reshape(-1, _WIDTH)
    for table in (quad, zeros, expo, masks):
        table.flags.writeable = False
    return quad, zeros, expo, masks


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


def _g9_cells(v: np.ndarray, words: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fill the digit words and byte masks of '%.9g' for a 2-D float block.

    Returns which cells lie in the exact domain; the others get a valid but
    meaningless template.
    """
    quad, zeros, expo, masks = _tables()
    flat = v.ravel()
    a = np.abs(flat)
    ok = (a < 1e9) & ((a >= 1e-14) | (a == 0.0))
    a[~ok | (a == 0.0)] = 1.0  # stands in for zeros and foreign cells
    x = np.clip(np.floor(np.log10(a)), _X_MIN, _X_MAX).astype(np.intp)
    d = _round_product(a, _POW10[_X_MAX - x])
    for _ in range(2):  # floor(log10) can be one off, and rounding can carry into 10^9
        step = (d >= 1e9).astype(np.intp) - (d < 1e8)
        fix = np.flatnonzero(step)
        if not fix.size:
            break
        x[fix] += step[fix]
        ok[fix] &= (x[fix] >= _X_MIN) & (x[fix] <= _X_MAX)  # 999999999.5 carries to 1e+09
        x[fix] = np.clip(x[fix], _X_MIN, _X_MAX)
        d[fix] = _round_product(a[fix], _POW10[_X_MAX - x[fix]])
    ok &= (d >= 1e8) & (d < 1e9)
    zero = flat == 0.0
    d[zero | ~ok] = 0.0
    x[zero] = 0  # "0" is a one-digit integer
    hi, lo = np.divmod(d.astype(np.int32), 10000)
    first, mid = np.divmod(hi, 10000)
    kept = 9 - zeros[lo] - (lo == 0) * zeros[mid]  # first >= 1 unless D = 0
    shape = (np.signbit(flat) * _N_X + (x - _X_MIN)) * 9 + (kept - 1)
    words[..., 1] = (_word("00 0") + (first << 24)).reshape(v.shape)
    words[..., 2] = words[..., 5] = quad[mid].reshape(v.shape)
    words[..., 3] = words[..., 6] = quad[lo].reshape(v.shape)
    words[..., 7] = expo[x - _X_MIN].reshape(v.shape)
    masks.take(shape.reshape(v.shape), axis=0, out=mask)
    return ok.reshape(v.shape)


def g9_rows(columns: Sequence[np.ndarray], row_format: str) -> Iterator[bytes]:
    """The bytes of ``row_format % row`` for each row of the columns, block by block.

    row_format holds one "%.9g" or "%d" field per column, joined by "," and
    ended by a newline; every cell must be finite.
    """
    fields = row_format[:-1].split(",")
    n_rows = len(columns[0])
    # one template per block, reused: sign, "0.0", "00 ", "   .", separator stay put
    template = np.empty((min(n_rows, _BLOCK_ROWS), len(fields), _WIDTH // 4), dtype="<u4")
    template[..., 0] = _word("-0.0")
    template[..., 4] = _word("   .")
    template[..., 8] = [_word(",   ")] * (len(fields) - 1) + [_word("\n   ")]
    masks = np.empty(template.shape[:2] + (_WIDTH,), dtype=bool)
    for start in range(0, n_rows, _BLOCK_ROWS):
        block = [c[start:start + _BLOCK_ROWS] for c in columns]
        cells = np.stack([np.trunc(c) + 0.0 if f == "%d" else c for c, f in zip(block, fields)],
                         axis=1).astype(float, copy=False)
        words, mask = template[:len(cells)], masks[:len(cells)]
        ok = _g9_cells(cells, words, mask)
        foreign = np.flatnonzero(~ok.all(axis=1))
        mask[foreign] = False
        packed = words.view(np.uint8)[mask]
        if not foreign.size:
            yield packed.tobytes()
            continue
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
    whole, cents = np.divmod(d, 100)
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
