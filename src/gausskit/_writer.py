"""The array writer of `io`: `_number`'s text for every float of an array,
assembled into rows of text with other fields.

`io` imports this module on the first array it writes, so that a process
which writes none (most CLI subcommands) does not compile it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .io import _number

# Digits.  Per float x = m 2^e (frexp, 1/2 <= m < 1), E0 = floor((e - 1)
# log10 2) is the decimal exponent of 2^(e-1), so 10^16 <= V < 2 10^17 for
# V = |x| 10^(16-E0).  With 10^k = (hi + lo) 2^g to 107 bits (hi a 53-bit
# integer, |lo| <= 1/2), V = (p + q) 2^s, where p + err = m hi exactly
# (Dekker's product) and q = err + m lo.  The error of p + q is below 2^-52
# (table 2^-55, m lo 2^-55, the sum 2^-53) and s <= 6, so the computed V is
# within 2^-46 of the exact one.  The 17 digits are V rounded to an
# integer, or V / 10 rounded when V >= 10^17, where the exponent is E0 + 1;
# a carry to 10^17 raises it once more.  A value whose remainder lies
# within _MARGIN = 2^-32 of one half could round either way on the exact V,
# so it takes _number's text instead; exact ties such as
# 1000000000000000.25 are among them.  Every step is a correctly rounded
# IEEE operation or integer arithmetic, elementwise, so the text does not
# depend on which SIMD loops numpy runs.
#
# Layout.  Each number is a canonical row of _WIDTH bytes, looked up by its
# leading digit, four 4-digit groups and its exponent,
#     "-0.000" d0 "." d1 d2 ... d16 "e" sign e2 e1 e0, then 3 unused bytes,
# and a mask of the bytes that its sign, form and digit count keep.  %g is
# fixed-point for -4 <= E <= 16 (form E + 4), else e-notation with a two-
# or three-digit exponent (forms 21 and 22); zero has digit count 0.  For
# E >= 0 the point follows d_E, so those rows are first permuted to
# "-" d0 ... d_E "." d_(E+1) ... d16.

BLOCK = 4096  # entries per block: the block's temporaries stay in cache
_KMIN, _KMAX = -292, 340  # 10^(16 - E) over every decimal exponent E of a double
_EMIN, _EMAX = -324, 308
_LOG10_2 = math.log10(2.0)
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitting factor
_MARGIN = 2.0 ** -32
_E16, _E17 = 10 ** 16, 10 ** 17
_WIDTH = 32
_DIGIT = np.r_[6, 8:24]  # column of each digit in the canonical row
_UNUSED = 29  # the first unused column
_FORMS = 23


class _Tables(NamedTuple):
    high: np.ndarray  # per k in [_KMIN, _KMAX]: Dekker's halves of hi,
    low: np.ndarray
    hi: np.ndarray  # and hi, lo and g of 10^k = (hi + lo) 2^g
    lo: np.ndarray
    g: np.ndarray
    lead: np.ndarray  # first word of the canonical row, per leading digit
    groups: np.ndarray  # ASCII of each 4-digit group
    count: np.ndarray  # [j, group]: digit count through group j's last nonzero digit, or 0
    exponent: np.ndarray  # last word of the canonical row, per E - _EMIN
    form: np.ndarray  # per E - _EMIN
    perm: np.ndarray  # per E in [0, 16]: the fixed-point layout's columns
    masks: np.ndarray  # [word, (sign * _FORMS + form) * 18 + digit count]: kept bytes


@lru_cache(maxsize=1)
def _tables() -> _Tables:
    """The writer's tables, built on first use from Python integers."""
    rows = []
    for k in range(_KMIN, _KMAX + 1):
        if k >= 0:
            g = (10 ** k).bit_length() - 107
            n = 10 ** k << -g if g <= 0 else (10 ** k + (1 << (g - 1))) >> g
        else:
            g = -106 - (10 ** -k).bit_length()
            n = ((1 << -g) + 10 ** -k // 2) // 10 ** -k
        hi = (n + (1 << 53)) >> 54
        rows.append((float(hi), (n - (hi << 54)) / 2.0 ** 54, g + 54))
    hi, lo, g = (np.array(col) for col in zip(*rows))
    c = _SPLIT * hi
    high = c - (c - hi)
    group = np.arange(10 ** 4)
    digits = group[:, None] // np.array([1000, 100, 10, 1]) % 10
    sig = 4 - sum(group % 10 ** j == 0 for j in range(1, 5))  # without trailing zeros
    exps = range(_EMIN, _EMAX + 1)
    perm = np.full((17, _WIDTH), _UNUSED)
    perm[:, 0] = 0
    for e in range(17):
        perm[e, 1:e + 2] = _DIGIT[:e + 1]
        perm[e, e + 2] = _DIGIT[0] + 1
        perm[e, e + 3:19] = _DIGIT[e + 1:]
    keep = np.zeros((2, _FORMS, 18, _WIDTH), dtype=bool)
    keep[1, ..., 0] = True
    keep[:, :, 0, 1] = True
    for nd in range(1, 18):
        for e in range(-4, 0):
            keep[:, e + 4, nd, 1:2 - e] = True
            keep[:, e + 4, nd, _DIGIT[:nd]] = True
        for e in range(17):
            keep[:, e + 4, nd, 1:max(e, nd - 1) + 2] = True
            if nd - 1 > e:
                keep[:, e + 4, nd, e + 2:nd + 2] = True
        for form, exp_digits in ((21, 2), (22, 3)):
            keep[:, form, nd, _DIGIT[:nd]] = True
            keep[:, form, nd, _DIGIT[0] + 1] = nd > 1
            keep[:, form, nd, 24:26] = True
            keep[:, form, nd, _UNUSED - exp_digits:_UNUSED] = True
    return _Tables(
        high, hi - high, hi, lo, g.astype(np.int32),
        _words([f"-0.000{d}." for d in range(10)]),
        (digits + 48).astype(np.uint8).view(np.uint32).reshape(-1),
        np.where(sig > 0, sig + 1 + 4 * np.arange(4)[:, None], 0).astype(np.uint8),
        _words([f"e{e:+04d}   " for e in exps]),
        np.array([e + 4 if -4 <= e <= 16 else 21 + (abs(e) >= 100) for e in exps]),
        perm, keep.reshape(-1, _WIDTH).view(np.uint64).T.copy())


def _words(texts: list[str]) -> np.ndarray:
    """8-byte ASCII texts as one uint64 word each."""
    return np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint64)


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Rows `index` of a table of uint64 words stored word by word, one 1-D
    take per word: far cheaper than gathering short rows of a 2-D table."""
    out = np.empty((len(index), len(table)), dtype=np.uint64)
    for j, column in enumerate(table):
        out[:, j] = np.take(column, index)
    return out


def _digits(x: np.ndarray) -> tuple:
    """For nonzero finite floats x: the words of each canonical row, its
    form, its digit count, and the positions of near ties."""
    t = _tables()
    m, e = np.frexp(np.abs(x))
    e10 = np.floor((e - 1) * _LOG10_2).astype(np.int32)
    k = (16 - _KMIN) - e10  # row of 10^(16 - E0)
    c = _SPLIT * m
    mh = c - (c - m)
    ml = m - mh
    th, tl = np.take(t.high, k), np.take(t.low, k)
    p = m * np.take(t.hi, k)
    err = ((mh * th - p) + mh * tl + ml * th) + ml * tl
    s = e + np.take(t.g, k)
    vh, vl = np.ldexp(p, s), np.ldexp(err + m * np.take(t.lo, k), s)
    whole = np.floor(vl)
    frac = vl - whole
    v = vh.astype(np.int64) + whole.astype(np.int64)
    tens = v // 10
    big = v >= _E17
    rem = np.where(big, (v - 10 * tens) + frac, frac)
    half = np.where(big, 5.0, 0.5)
    d = np.where(big, tens, v) + (rem > half)
    carry = d == _E17
    d[carry] = _E16
    ex = e10 + big + carry - _EMIN
    top = d // 10 ** 8
    first = top // 10 ** 8
    eights = ((top - first * 10 ** 8).astype(np.int32), (d - top * 10 ** 8).astype(np.int32))
    limbs = [part for eight in eights for part in (eight // 10 ** 4, eight % 10 ** 4)]
    words = np.empty((len(x), _WIDTH // 8), dtype=np.uint64)
    words[:, 0] = np.take(t.lead, first)
    words[:, 3] = np.take(t.exponent, ex)
    nd = np.ones(len(x), dtype=np.uint8)
    for j, (counts, limb) in enumerate(zip(t.count, limbs)):
        words.view(np.uint32)[:, 2 + j] = np.take(t.groups, limb)
        np.maximum(nd, np.take(counts, limb), out=nd)
    return words, np.take(t.form, ex), nd, np.flatnonzero(np.abs(rem - half) < _MARGIN)


def _write_numbers(values: np.ndarray, sep: bytes, chars: np.ndarray, keep: np.ndarray) -> None:
    """Write _number's text of each finite float of the (rows, c) array
    `values` into its _WIDTH columns of the (rows, c * _WIDTH) array `chars`,
    `sep` (at most 3 bytes) in the unused columns of each but the last in a
    row, and mark in `keep` the bytes that the texts use."""
    t = _tables()
    x = values.reshape(-1)
    nonzero = np.flatnonzero(x)  # a zero is "0" or "-0", from any row with digit count 0
    row = np.dtype((np.void, _WIDTH))  # a canonical row as one item: a cheap scatter
    text = np.empty(len(x), dtype=row)
    text.view(np.uint64)[::_WIDTH // 8] = t.lead[0]
    mask = np.zeros(len(x), dtype=np.intp)
    words, form, nd, ties = _digits(x[nonzero])
    text[nonzero] = words.view(row).reshape(-1)
    mask[nonzero] = form * 18 + nd
    text = text.view(np.uint8).reshape(len(x), _WIDTH)
    point = (form >= 4) & (form <= 20)
    rows = nonzero[point]
    text[rows] = np.take_along_axis(text[rows], t.perm[form[point] - 4], axis=1)
    used = _gather(t.masks, mask + np.signbit(x) * _FORMS * 18).view(bool)
    for i in nonzero[ties]:
        tie = np.frombuffer(_number(float(x[i])).encode(), dtype=np.uint8)
        text[i, :len(tie)] = tie
        used[i] = np.arange(_WIDTH) < len(tie)
    shape = (*values.shape, _WIDTH)
    text, used = text.reshape(shape), used.reshape(shape)
    text[:, :-1, _UNUSED:_UNUSED + len(sep)] = np.frombuffer(sep, dtype=np.uint8)
    used[:, :-1, _UNUSED:_UNUSED + len(sep)] = True
    chars[...] = text.reshape(chars.shape)
    keep[...] = used.reshape(keep.shape)


def numbers(values: np.ndarray, sep: bytes) -> tuple:
    """A field of rows: the texts of the floats values[i], a (rows, c)
    array, in row i, `sep` between them."""
    return values.shape[1] * _WIDTH, \
        lambda lo, hi, chars, keep: _write_numbers(values[lo:hi], sep, chars, keep)


def lookup(texts: list[str], index) -> tuple:
    """A field of rows: texts[index(i)] in row i, for an array of row numbers i."""
    width = max(map(len, texts), default=0)
    words = max(1, -(-width // 8))
    table = _words([t.ljust(8 * words) for t in texts]).reshape(len(texts), words).T.copy()
    used = np.arange(8 * words) < np.array([len(t) for t in texts], dtype=int)[:, None]
    used = used.view(np.uint64).T.copy()

    def fill(lo, hi, chars, keep):
        i = index(np.arange(lo, hi))
        chars[...] = _gather(table, i).view(np.uint8)[:, :width]
        keep[...] = _gather(used, i).view(bool)[:, :width]

    return width, fill


def rows(size: int, fields: list) -> list[str]:
    """`size` rows of text, each the concatenation of its `fields`, as one
    string per block of rows.

    A field is bytes, the same in every row, or a (width, fill) pair whose
    fill(lo, hi, chars, keep) writes rows lo..hi-1 into its columns of a
    block's byte rows and marks the bytes it keeps.  Rows are written a
    block at a time and compressed at once.
    """
    edges = np.cumsum([0] + [len(f) if isinstance(f, bytes) else f[0] for f in fields]).tolist()
    block = max(1, min(size, BLOCK))
    chars = np.empty((block, edges[-1]), dtype=np.uint8)
    keep = np.ones((block, edges[-1]), dtype=bool)
    for f, a in zip(fields, edges):
        if isinstance(f, bytes):
            chars[:, a:a + len(f)] = np.frombuffer(f, dtype=np.uint8)
    out = []
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        for f, a, b in zip(fields, edges, edges[1:]):
            if not isinstance(f, bytes):
                f[1](lo, hi, chars[:hi - lo, a:b], keep[:hi - lo, a:b])
        used = (hi - lo) * edges[-1]
        text = np.compress(keep.reshape(-1)[:used], chars.reshape(-1)[:used])
        out.append(text.tobytes().decode("ascii"))
    return out
