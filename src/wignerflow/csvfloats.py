"""Exact CSV cells of float64 arrays: 17 significant digits, byte for byte
as ``format(x, ".17g")`` writes them, for a whole block in one numpy pass.

A float x with 1e-280 <= |x| <= 1e280 is written from the integer
n = round(|x| 10^(16 - e)), e = floor(log10 |x|), so 10^16 <= n < 10^17.
The power of ten is a double-double (hi, lo), and |x| hi is taken exactly
by Dekker's product, so the fraction of |x| 10^(16 - e) is known to better
than 1e-13.  A cell whose fraction lies within 1e-9 of 1/2 (a possible tie
of round-half-even), whose n leaves [10^16, 10^17) (log10 off by one next
to a power of ten), or that is not finite or, zeros aside, outside that
range is written by format() itself.  A cell's text fills a slot of
``SLOT`` bytes, in the layout of the CSV writer in ``tables``:

    byte  0      the sign
    1, 2         "0." when -4 <= e < 0
    3..19        the integer digits, from d0
    20..22       "." or, when e < 0, the zeros between "0." and d0
    23..39       the fraction digits, up to d16
    40..44       "e", the exponent's sign and two or three digits
    47           the separator

The table writer imports this module for its first CSV table of more
than 512 rows, so a process that writes no such table never compiles it;
``csv_cells`` and ``csv_rows`` write such a table's blocks.
"""

from functools import lru_cache
from itertools import repeat

import numpy as np

SLOT = 48
_E_RANGE = (-281, 281)  # floor(log10 |x|) for 1e-280 <= |x| <= 1e280
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into halves
# layout codes: -4 <= e <= 16 is written in fixed notation, as e + 4;
# larger e and smaller e in exponent notation, as 21 and 22
_FIXED_CODES, _LAYOUTS = 21, 23 * 17 * 2


@lru_cache(maxsize=None)
def _pow10_pairs():
    """10^(16 - e) for e in _E_RANGE as double-doubles (hi + lo), with hi
    split by Dekker: arrays hi, hi_head, hi_tail, lo indexed by e - e_min.
    Python integers and their correctly rounded true division make each
    pair exact to 2^-106."""
    hi, lo = [], []
    for q in range(16 - _E_RANGE[0], 15 - _E_RANGE[1], -1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    t = _SPLIT * hi
    head = t - (t - hi)
    return hi, head, hi - head, np.array(lo)


@lru_cache(maxsize=None)
def _digit_words():
    """The ASCII of 0000..9999 as one uint32 each, then the leading digit
    0..9 as NUL NUL NUL d (index 10000 + d), in native byte order."""
    words = np.zeros((10010, 4), np.uint8)
    words[:10000] = (np.arange(10000, dtype=np.uint16)[:, None]
                     // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48)
    words[10000:, 3] = np.arange(48, 58)
    return words.view(np.uint32).ravel()


@lru_cache(maxsize=None)
def _slot_layouts():
    """Per layout (code * 17 + m - 1) * 2 + negative, with m the count of
    significant digits, the bytes OR-ed onto a slot that holds the digit
    words twice (bytes 0..19 and 20..39) and zeros elsewhere: 0 keeps a
    digit, _PAD drops it, and the characters are set outright."""
    key = np.arange(_LAYOUTS)
    neg, m, code = key % 2 == 1, key // 2 % 17 + 1, key // 34
    sci = code >= _FIXED_CODES
    small = code < 4  # "0.", zeros, then every digit a fraction digit
    point = np.where(sci, 0, code - 4)  # the last integer digit
    k = np.arange(17)
    out = np.full((_LAYOUTS, SLOT), _PAD, np.uint8)
    out[:, 3:20][~small[:, None] & (k <= point[:, None])] = 0
    out[:, 23:40][(k < m[:, None])
                  & (small[:, None] | (k > point[:, None]))] = 0
    out[neg, 0] = ord("-")
    out[small, 1] = ord("0")
    out[small, 2] = ord(".")
    for j in (1, 2, 3):  # the zeros between "0." and the digits
        out[small & (3 - code >= j), 23 - j] = ord("0")
    out[~small & (m > point + 1), 20] = ord(".")
    out[sci, 40] = ord("e")
    out[sci, 41] = np.where(code[sci] == _FIXED_CODES, ord("+"), ord("-"))
    out[:, -1] = ord(",")
    return out.view(np.uint32)


def float_digits(values):
    """(n, e, exact) with |x| = n 10^(e - 16) rounded to 17 significant
    digits, 10^16 <= n < 10^17 (n = e = 0 for a zero), for the cells marked
    exact; the others (possible ties, non-finite values, |x| outside
    [1e-280, 1e280]) are left to format()."""
    zero = values == 0.0
    a = np.abs(values)
    exact = (a >= 1e-280) & (a <= 1e280)
    a[~exact] = 1.0
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.int32)
    i = e - _E_RANGE[0]
    hi, head, tail, lo = _pow10_pairs()
    p = a * hi.take(i)
    head, tail = head.take(i), tail.take(i)
    a_head = _SPLIT * a
    a_head -= a_head - a
    a_tail = a - a_head
    # c = |x| 10^(16 - e) - p: Dekker's exact error of p, then |x| lo
    c = a_head * head
    c -= p
    c += a_head * tail
    c += a_tail * head
    c += a_tail * tail
    c += a * lo.take(i)
    n = np.floor(c)
    c -= n  # the fraction
    n = p.astype(np.int64) + n.astype(np.int64)
    exact &= (n >= 10 ** 16) & (n < 10 ** 17) & (np.abs(c - 0.5) > 1e-9)
    n += c > 0.5
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    n[~exact] = 10 ** 16
    n[zero] = 0
    return n, e, exact | zero


def float_slots(values):
    """(len(values), SLOT) uint8: each float's format(x, ".17g") text in
    its slot, closed by a comma."""
    n, e, exact = float_digits(values)
    head, tail = (h.astype(np.int32) for h in np.divmod(n, 10 ** 8))
    chunks = (head // 10 ** 8 + 10000, head // 10000 % 10000, head % 10000,
              tail // 10000, tail % 10000)
    digits = _digit_words()
    m = np.full(len(n), 17, np.int32)
    round_ = np.flatnonzero(chunks[-1] % 10 == 0)  # trailing zeros to strip
    if round_.size:
        ascii_ = digits.take(np.stack([c[round_] for c in chunks], 1))
        nonzero = ascii_.view(np.uint8)[:, :3:-1] != 48  # d16 down to d1
        m[round_] -= np.where(nonzero.any(1), nonzero.argmax(1), 16)
    code = np.where(e < -4, 22, np.minimum(e + 4, _FIXED_CODES))
    words = _slot_layouts().take(
        (code * 17 + m - 1) * 2 + np.signbit(values), axis=0)
    for j, chunk in enumerate(chunks):  # the digits, before and after "."
        word = digits.take(chunk)
        words[:, j] |= word
        words[:, j + 5] |= word
    slots = words.view(np.uint8)
    sci = np.flatnonzero(code >= _FIXED_CODES)
    if sci.size:
        power = np.abs(e[sci])
        slots[sci, 42] = np.where(power >= 100, 48 + power // 100, _PAD)
        slots[sci, 43] = 48 + power // 10 % 10
        slots[sci, 44] = 48 + power % 10
    rest = np.flatnonzero(~exact)
    if rest.size:
        slots[rest] = _formatted_slots(values[rest], SLOT)
    return slots


# ---------------------------------------------------------------------------
# CSV blocks: each cell's text in a fixed-width slot of bytes, _PAD after it
# and a separator in its last byte; the slots of a block stand side by side
# and _PAD is dropped when the block is joined.  0xFF is no byte of UTF-8
# text, so string cells keep every byte.
# ---------------------------------------------------------------------------

_PAD = 0xFF


def _formatted_slots(values, width=None):
    """Float slots written by format() itself, one cell at a time."""
    return _text_slots(np.array(
        list(map(format, values.tolist(), repeat(".17g")))), width)


def _text_slots(text, width=None):
    """(len(text), width) uint8 of a 1-D str array: each cell's UTF-8
    bytes, _PAD after them and a comma in the last byte; width defaults to
    the longest cell plus one."""
    text = np.ascontiguousarray(text)
    codes = text.view(np.uint32).reshape(len(text), -1)
    if codes.max(initial=0) < 128:  # ASCII: one byte per code point
        data, lengths = codes, np.char.str_len(text)
    else:
        encoded = [c.encode() for c in text.tolist()]
        lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
        data = np.array(encoded, dtype=bytes)
        data = data.view(np.uint8).reshape(len(text), -1)
    slots = np.full((len(text), width or data.shape[1] + 1), _PAD, np.uint8)
    slots[:, :data.shape[1]] = np.where(
        np.arange(data.shape[1]) < lengths[:, None], data, _PAD)
    slots[:, -1] = ord(",")
    return slots


def _str_slots(col):
    """Slots of an integer, bool or str column, each cell as str() writes
    it (a bool as 0 or 1)."""
    if col.dtype.kind == "b":
        slots = np.full((len(col), 2), ord(","), np.uint8)
        slots[:, 0] = col.view(np.uint8) + 48
        return slots
    return _text_slots(col.astype(str, copy=False))


def csv_cells(cols):
    """One block's numpy columns as slot arrays that join side by side into
    its rows; all its float cells are written by one float_slots call, and
    a block of float columns only is one array."""
    is_float = [c.dtype.kind == "f" for c in cols]
    if not any(is_float):
        return [_str_slots(c) for c in cols]
    floats = np.stack([c for c, f in zip(cols, is_float) if f], 1,
                      dtype=float).reshape(-1)
    slots = float_slots(floats)
    width = slots.shape[1]
    slots = slots.reshape(len(cols[0]), -1)
    if all(is_float):
        return [slots]
    per_column = iter(slots.reshape(len(cols[0]), -1, width)
                      .transpose(1, 0, 2))
    return [next(per_column) if f else _str_slots(c)
            for c, f in zip(cols, is_float)]


def csv_rows(parts):
    """One block's slot arrays joined into its CSV rows, UTF-8 bytes."""
    block = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\xff")
