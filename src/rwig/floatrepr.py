"""``float.__repr__`` of a whole float64 array at once.

``json_reprs(values)`` returns the text ``json.dumps`` writes for each
value, from array operations only: ``float.__repr__`` for a finite value,
NaN, Infinity or -Infinity for others.  Two steps:

* **Digits.**  Schubfach (R. Giulietti, *The Schubfach way to render
  doubles*, 2020) finds each finite value's shortest decimal that reads
  back as the value, the closest to it when there are two, ties to even:
  the shortest round-trip digits that ``repr`` writes.  A value's bounds
  and itself are scaled by 10^-k with three round-to-odd 128-bit products,
  on uint64 arrays split into 32-bit halves, against a 617-entry table of
  ``⌊10^-k 2^-r⌋ + 1`` built exactly from Python ints on first use.
* **Text.**  ``repr`` writes a value positionally when the exponent x of
  its leading digit is in [-4, 16), as "0.0001234", "1.0" or "123.5", and
  otherwise as "d.ddde-05": a dot only after a leading digit that others
  follow, and a signed exponent of at least two digits.  Values that share
  a sign, a digit count and x share one layout, so a block's values are
  sorted by layout and each layout fills its rows of one uint8 matrix by
  one slice assignment per piece, spaces after each text.  The matrix is
  decoded and split on whitespace once.

``float.__repr__`` itself, CPython's own dtoa, is the tests' oracle.
"""

from __future__ import annotations

import functools
import re

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)
# Decimal exponents k of the scaled values, and their table's entries.
_K_MIN, _K_MAX = -324, 292
_DIGITS = 17
_POW10 = np.array([10**i for i in range(_DIGITS + 1)], _U64)
_SPACE = ord(" ")
_NONFINITE = ("NaN", "Infinity", "-Infinity")


def _flog10pow2(e: np.ndarray) -> np.ndarray:
    """⌊log10(2^e)⌋ for |e| ≤ 5,456,721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e: np.ndarray) -> np.ndarray:
    """⌊log10(3/4 2^e)⌋."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """⌊log2(10^e)⌋."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _table() -> np.ndarray:
    """Column k - ``_K_MIN``: g = ⌊10^-k 2^-r⌋ + 1 in [2^125, 2^126), r =
    ⌊log2(10^-k)⌋ - 125, as the 32-bit halves of g1 = g >> 63 and g0 = g
    mod 2^63: rows g1 low, g1 high, g0 low, g0 high."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        shift = 125 - _flog2pow10(-k)
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        g = num // den + 1
        words = (g >> 63, g & ((1 << 63) - 1))
        rows.append([half for w in words for half in (w & 0xFFFFFFFF, w >> 32)])
    return np.array(rows, _U64).T.copy()


def _mulhi(a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """The high 64 bits of the 128-bit products a b, from 32-bit halves."""
    lo_lo = a_lo * b_lo
    lo_hi = a_lo * b_hi
    hi_lo = a_hi * b_lo
    mid = (lo_lo >> 32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """⌊g cp 2^-127⌋ rounded to odd: its lowest bit set when the product
    has bits below it."""
    cp_lo, cp_hi = cp & _LOW32, cp >> 32
    x1 = _mulhi(g[2], g[3], cp_lo, cp_hi)
    g1 = g[0] | (g[1] << 32)
    z = ((g1 * cp) >> 1) + x1
    vbp = _mulhi(g[0], g[1], cp_lo, cp_hi) + (z >> 63)
    return vbp | (((z & _LOW63) + _LOW63) >> 63)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, e), d 10^e the value of the uint64 bit patterns ``bits`` (sign
    ignored, finite, not zero) as ``repr`` writes its digits: d has at most
    17 digits and no trailing zero."""
    biased = (bits >> 52) & _U64(0x7FF)
    frac = bits & _U64((1 << 52) - 1)
    normal = biased != 0
    c = np.where(normal, frac | _U64(1 << 52), frac)
    q = np.where(normal, biased.astype(np.int64) - 1075, np.int64(-1074))
    # c < 3 at the least exponent reads as 10 c at 10^-1: the shortest
    # digits need that much room.
    tiny = ~normal & (frac < 3)
    c[tiny] *= _U64(10)
    dk = -tiny.astype(np.int64)
    # A power of two above the least exponent has a lower bound half as
    # far below it as its upper bound is above it.
    irregular = normal & (frac == 0) & (biased > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    g = _table()[:, k - _K_MIN]
    out = c & _U64(1)
    cb = c << _U64(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U64(2) + irregular.astype(_U64)) << h)
    vbr = _rop(g, (cb + _U64(2)) << h)
    vbl += out
    vbr -= out
    s = vb >> _U64(2)
    # One digit fewer, if exactly one of the two candidates is in bounds.
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = tp10 << _U64(2) <= vbr
    shorter = (s >= _U64(10)) & (upin != wpin)
    # Else s or s + 1: the one in bounds, or the closer, ties to even.
    t = s + _U64(1)
    uin = vbl <= s << _U64(2)
    win = t << _U64(2) <= vbr
    mid = (s + t) << _U64(1)
    closer = (vb < mid) | ((vb == mid) & (s & _U64(1) == 0))
    take_s = np.where(uin != win, uin, closer)
    d = np.where(shorter, np.where(upin, sp10, tp10), np.where(take_s, s, t))
    e = k + dk
    for p in (16, 8, 4, 2, 1):
        zeros = d % _POW10[p] == 0
        d[zeros] //= _POW10[p]
        e[zeros] += p
    return d, e


def _ascii_digits(d: np.ndarray) -> np.ndarray:
    """(len(d), ``_DIGITS``) ASCII digits of d < 10^17, left-padded with
    "0": d split at 10^9, then nine steps of q = v // 10 on both halves at
    once, each q = (v 0xCCCCCCCD) >> 35, exact for v < 2^32."""
    halves = np.empty((2, len(d)), _U64)
    np.divmod(d, _POW10[9], out=(halves[0], halves[1]))
    digits = np.empty((18, len(d)), np.uint8)
    for j in range(8, -1, -1):
        q = (halves * _U64(0xCCCCCCCD)) >> _U64(35)
        digits[j::9] = halves - q * _U64(10)
        halves = q
    digits += ord("0")
    return digits[1:].T


@functools.cache
def _layout(negative: int, n: int, x: int) -> tuple:
    """The text of a value with ``n`` digits whose leading digit has the
    exponent ``x``, as (ASCII codes, runs): each run (start, stop, column)
    copies the digit matrix's columns from ``column`` on to start:stop.
    n = 0 marks a value that is not finite, spelt ``_NONFINITE[x]``."""
    digits = "#" * n
    if n == 0:
        text = _NONFINITE[x]
    elif -4 <= x < 16:
        if x < 0:
            text = "0." + "0" * (-x - 1) + digits
        elif x >= n - 1:
            text = digits + "0" * (x - n + 1) + ".0"
        else:
            text = digits[: x + 1] + "." + digits[x + 1 :]
    else:
        text = digits[0] + "." * (n > 1) + digits[1:] + f"e{x:+03d}"
    text = "-" * negative + text
    runs = []
    column = _DIGITS - n
    for run in re.finditer("#+", text):
        runs.append((run.start(), run.end(), column))
        column += run.end() - run.start()
    return np.frombuffer(text.encode(), np.uint8), runs


def json_reprs(values: np.ndarray) -> list[str]:
    """``[json.dumps(v) for v in values.tolist()]`` for a float64 array."""
    values = np.ascontiguousarray(values, np.float64).ravel()
    if not len(values):
        return []
    bits = values.view(_U64)
    negative = (bits >> _U64(63)).astype(np.int64)
    finite = np.isfinite(values)
    regular = finite & (values != 0)
    d = np.zeros(len(values), _U64)
    x = np.zeros(len(values), np.int64)
    if regular.any():
        d[regular], x[regular] = _shortest(bits[regular])
    n = np.searchsorted(_POW10[1:], d, side="right") + 1
    x += n - 1
    # Not finite: n = 0, x the index of its spelling.
    n[~finite] = 0
    x[~finite] = np.where(np.isnan(values[~finite]), 0, 1 + negative[~finite])
    negative[~finite] = 0
    # Layouts sort by one radix sort of 16-bit keys.
    key = ((negative * 32 + n) * 1024 + (x + 512)).astype(np.uint16)
    order = np.argsort(key, kind="stable")
    key = key[order]
    ascii = _ascii_digits(d[order])
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    groups = []
    for lo, hi, k in zip(starts.tolist(), [*starts[1:].tolist(), len(key)], key[starts].tolist()):
        (negative_k, n_k), x_k = divmod(k // 1024, 32), k % 1024 - 512
        groups.append((lo, hi, *_layout(negative_k, n_k, x_k)))
    width = max(len(text) for _, _, text, _ in groups) + 1
    matrix = np.full((len(key), width), _SPACE, np.uint8)
    for lo, hi, text, runs in groups:
        matrix[lo:hi, : len(text)] = text
        for start, stop, column in runs:
            matrix[lo:hi, start:stop] = ascii[lo:hi, column : column + stop - start]
    unsorted = np.empty_like(matrix)
    unsorted[order] = matrix
    return unsorted.tobytes().decode("ascii").split()
