"""Exact CSV and JSON cells of float64 arrays, for a whole block in one
numpy pass: in CSV 17 significant digits, byte for byte as
``format(x, ".17g")`` writes them, in JSON the shortest round-trip digits,
as json writes ``repr(x)``.

A float x with 1e-280 <= |x| <= 1e280 is written from the expansion
|x| 10^(16 - e) = N + c, e = floor(log10 |x|), with N an integer in
[10^16, 10^17) and the fraction 0 <= c < 1.  The power of ten is a
double-double (hi, lo), and |x| hi is taken exactly by Dekker's product, so
c is known to better than 1e-13.  The 17 digits of CSV are round(N + c).
The decimals that round-trip to x are the integers within h of N + c,
with h half the gap to the next double in units of N: 1 to 23 integers,
as 0.55 < h <= 11.1.  JSON writes the one with the most trailing zeros:
the multiple of 100 among them, of which there is at most one, else the
multiple of 10 or, failing that, the integer nearest to N + c.

A cell is written by format() or repr() itself where its rounding is
ambiguous or the expansion is out of reach: a fraction within 1e-9 of a
tie of round-half-even, in JSON a multiple of 10 within 1e-9 of distance
h, an N outside [10^16, 10^17) (log10 off by one next to a power of ten),
in JSON an exact power of two (the gap below it is half the gap above),
and, zeros aside, a value that is not finite or is outside that range.
A cell's text fills a slot of ``SLOT`` bytes:

    byte  0      the sign
    1, 2         "0." when -4 <= e < 0
    3..19        the integer digits, from d0
    20..22       "." or, when e < 0, the zeros between "0." and d0
    23..39       the fraction digits, up to d16
    40..44       "e", the exponent's sign and two or three digits
    47           the separator

JSON differs from ``.17g`` in its fixed notation for -4 <= e < 16, not
e < 17, with ".0" after an integral value, and in ``NaN``, ``Infinity``
and ``-Infinity``; its strings are written by ``json.dumps``.

The table writer imports this module for its first table of more than
512 rows, so a process that writes no such table never compiles it;
``table_cells`` and ``csv_rows`` or ``json_rows`` write such a table's
blocks.
"""

from functools import lru_cache

import numpy as np

from .tables import _csv_text

SLOT = 48
_E_RANGE = (-281, 281)  # floor(log10 |x|) for 1e-280 <= |x| <= 1e280
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into halves
# layout codes: -4 <= e < _EXP_FROM[fmt] is written in fixed notation, as
# e + 4; larger e and smaller e in exponent notation, as 21 and 22
_FIXED_CODES, _LAYOUTS = 21, 23 * 17 * 2
_EXP_FROM = {"csv": 17, "json": 16}


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
def _trailing_zeros():
    """The count of trailing zero digits of 0..9999 as four digits."""
    zeros = np.zeros(10000, np.int32)
    for k in (10, 100, 1000, 10000):
        zeros[::k] += 1
    return zeros


@lru_cache(maxsize=None)
def _slot_layouts(fmt):
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
    if fmt == "json":  # repr writes an integral fixed value with ".0"
        whole = np.flatnonzero(~small & (code < 4 + _EXP_FROM[fmt])
                               & (m <= point + 1))
        out[whole, 20] = ord(".")
        out[whole, 24 + point[whole]] = 0  # the digit after it, a zero
    out[sci, 40] = ord("e")
    out[sci, 41] = np.where(code[sci] == _FIXED_CODES, ord("+"), ord("-"))
    out[:, -1] = ord(",")
    return out.view(np.uint32)


def _expansion(values):
    """(a, n, c, e, ok) with a = |x| and a 10^(16 - e) = n + c for the
    cells marked ok: n an int64 in [10^16, 10^17) and the fraction c in
    [0, 1).  The others are not finite, outside [1e-280, 1e280] (a = 1
    there) or have a misjudged e."""
    a = np.abs(values)
    ok = (a >= 1e-280) & (a <= 1e280)
    a[~ok] = 1.0
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
    ok &= (n >= 10 ** 16) & (n < 10 ** 17)
    return a, n, c, e, ok


def _rounded(n, e, exact, zero):
    """(n, e, exact) of float_digits from rounded digits n <= 10^17."""
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    e += carry
    n[~exact] = 10 ** 16
    n[zero] = 0
    return n, e, exact | zero


def float_digits(values):
    """(n, e, exact) with |x| = n 10^(e - 16) rounded to 17 significant
    digits, 10^16 <= n < 10^17 (n = e = 0 for a zero), for the cells marked
    exact; the others (possible ties, non-finite values, |x| outside
    [1e-280, 1e280]) are left to format()."""
    _, n, c, e, exact = _expansion(values)
    exact &= np.abs(c - 0.5) > 1e-9
    n += c > 0.5
    return _rounded(n, e, exact, values == 0.0)


def shortest_digits(values):
    """(n, e, exact) as float_digits gives them, with n the shortest digits
    that round-trip, as repr writes them, followed by zeros; the cells not
    marked exact (possible ties, exact powers of two, the cells float_digits
    leaves) are left to repr()."""
    a, n, c, e, exact = _expansion(values)
    bits = a.view(np.int64)
    exact &= bits & (2 ** 52 - 1) != 0  # no power of two
    # h, half the gap to the next double, 2^(exponent - 53), in units of n:
    # the integers n + lo + 1 .. n + hi lie within h of n + c, 1 to 23 of
    # them, so 17 digits always round-trip
    h = ((bits >> 52) - 53 << 52).view(float)
    h *= _pow10_pairs()[0].take(e - _E_RANGE[0])
    lo, hi = c - h, c + h
    last = (n % 100).astype(float)  # n's last two digits
    # a multiple of 10 exactly h away ties two lengths
    near = np.flatnonzero((np.abs(lo - np.rint(lo)) < 1e-9)
                          | (np.abs(hi - np.rint(hi)) < 1e-9))
    for edge in (lo[near], hi[near]):
        exact[near[(last[near] + np.rint(edge)) % 10 == 0]] = False
    lo, hi = np.floor(lo), np.ceil(hi) - 1.0
    top = last + hi  # the last two digits of n + hi (% is slow on floats)
    top -= 100.0 * (top >= 100.0)
    # a multiple of 100 among them is the only one, and its digits are the
    # shortest; else those of the multiple of 10, or of the integer, that
    # is nearest to n + c
    hundred = top < hi - lo
    ten = ~hundred & (top - 10.0 * np.floor(0.1 * top) < hi - lo)
    unit = last - 10.0 * np.floor(0.1 * last)
    half = 2.0 * (unit + c) - 10.0  # twice n + c past a multiple of 10
    offset = np.where(hundred, hi - top,
                      np.where(ten, 10.0 * (half > 0.0) - unit, c > 0.5))
    exact &= hundred | (np.abs(np.where(ten, half, 2.0 * c - 1.0)) > 2e-9)
    n += offset.astype(np.int64)
    return _rounded(n, e, exact, values == 0.0)


def float_slots(values, fmt="csv"):
    """(len(values), width) uint8: each float's text in its slot, closed by
    a comma: format(x, ".17g") for CSV, with width SLOT, or as json writes
    repr(x) for JSON, without the byte columns of the slot that no cell
    uses."""
    digits = float_digits if fmt == "csv" else shortest_digits
    n, e, exact = digits(values)
    head, tail = (h.astype(np.int32) for h in np.divmod(n, 10 ** 8))
    chunks = (head // 10 ** 8 + 10000, head // 10000 % 10000, head % 10000,
              tail // 10000, tail % 10000)
    digit_words = _digit_words()
    m = 17 - _trailing_zeros().take(chunks[-1])
    round_ = np.flatnonzero(chunks[-1] == 0)  # more trailing zeros to strip
    if round_.size:
        ascii_ = digit_words.take(np.stack([c[round_] for c in chunks], 1))
        nonzero = ascii_.view(np.uint8)[:, :3:-1] != 48  # d16 down to d1
        m[round_] = 17 - np.where(nonzero.any(1), nonzero.argmax(1), 16)
    code = np.where(e < -4, 22,
                    np.where(e < _EXP_FROM[fmt], e + 4, _FIXED_CODES))
    layout = (code * 17 + m - 1) * 2 + np.signbit(values)
    layouts = _slot_layouts(fmt)
    words = layouts.take(layout, axis=0)
    for j, chunk in enumerate(chunks):  # the digits, before and after "."
        word = digit_words.take(chunk)
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
        slots[rest] = _formatted_slots(values[rest], fmt)
    if fmt == "csv":
        return slots
    # a JSON block is joined with the keys between its columns, so the byte
    # columns that no cell uses are dropped first (a CSV block of orbit rows
    # loses more to the copy than it saves): those a layout in use drops
    used = layouts.view(np.uint8)[np.bincount(layout, minlength=_LAYOUTS) > 0]
    keep = (used != _PAD).any(0)
    keep[42:45] |= sci.size > 0
    if rest.size:
        keep |= (slots[rest] != _PAD).any(0)
    return slots.compress(keep, axis=1)


# ---------------------------------------------------------------------------
# table blocks: each cell's text in a fixed-width slot of bytes, _PAD after
# it and a separator in its last byte; the slots of a block stand side by
# side and _PAD is dropped when the block is joined.  0xFF is no byte of
# UTF-8 text, so string cells keep every byte.
# ---------------------------------------------------------------------------

_PAD = 0xFF
_JSON_ROW_END = b"\n },\n"


def _formatted_slots(values, fmt):
    """Float slots written one cell at a time, by the table writer's own
    CSV cells or by ``json.dumps``."""
    import json
    text = _csv_text if fmt == "csv" else lambda v: list(map(json.dumps, v))
    return _text_slots(np.array(text(values.tolist())), SLOT)


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


def _str_slots(col, fmt):
    """Slots of an integer, bool or str column, each cell as str() writes
    it (a bool as 0 or 1), a JSON string as json.dumps() writes it, once
    per distinct string."""
    if col.dtype.kind == "b":
        slots = np.full((len(col), 2), ord(","), np.uint8)
        slots[:, 0] = col.view(np.uint8) + 48
        return slots
    if col.dtype.kind == "U" and fmt == "json":
        import json
        strings, index = np.unique(col, return_inverse=True)
        col = np.array(list(map(json.dumps, strings.tolist())))[index]
    return _text_slots(col.astype(str, copy=False))


def table_cells(cols, fmt="csv"):
    """One block's numpy columns as slot arrays that join side by side into
    its CSV rows or JSON objects; all its float cells are written by one
    float_slots call, and a CSV block of float columns only is one array."""
    is_float = [c.dtype.kind == "f" for c in cols]
    if not any(is_float):
        return [_str_slots(c, fmt) for c in cols]
    floats = np.stack([c for c, f in zip(cols, is_float) if f], 1,
                      dtype=float).reshape(-1)
    slots = float_slots(floats, fmt)
    width = slots.shape[1]
    slots = slots.reshape(len(cols[0]), -1)
    if all(is_float) and fmt == "csv":
        return [slots]
    per_column = iter(slots.reshape(len(cols[0]), -1, width)
                      .transpose(1, 0, 2))
    return [next(per_column) if f else _str_slots(c, fmt)
            for c, f in zip(cols, is_float)]


def csv_rows(parts):
    """One block's slot arrays joined into its CSV rows, UTF-8 bytes."""
    block = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\xff")


def json_rows(parts, heads):
    r"""One block's slot arrays, one per column, joined into its JSON
    objects, separated by ",\n", as a view of UTF-8 bytes: each column's
    cells after its constant head (' {\n  "x": ', then '\n  "k": ' and so
    on), and a row end in place of the last comma."""
    rows = len(parts[0])
    const = [np.broadcast_to(np.frombuffer(b, np.uint8), (rows, len(b)))
             for b in heads + [_JSON_ROW_END]]
    block = np.concatenate(
        [s for pair in zip(const, parts) for s in pair] + const[-1:], axis=1)
    block[:, -len(_JSON_ROW_END) - 1] = _PAD
    data = block.tobytes()
    del block  # the peak memory of a block: two copies, not four
    return memoryview(data.translate(None, b"\xff"))[:-2]
