"""Tables and their CSV/JSON writer.

A Table is named columns written one block of rows at a time, so an export
never holds the whole file in memory.  CSV floats carry 17 significant
digits and JSON floats their shortest repr; both round-trip doubles
exactly.  This module imports no physics module: every subcommand writes
through it, and a grid or trajectory serializes itself by its ``table()``
method.
"""

import json
from itertools import repeat

import numpy as np

from .errors import UsageError

__all__ = ["Table", "column_table", "as_table", "export_table"]

_BLOCK_ROWS = 512
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class Table:
    """Named columns, written one block of rows at a time (at most
    ``_BLOCK_ROWS`` rows in a column table): ``blocks(cells)`` yields per
    block a list of cell sequences that stand side by side in column order,
    as ``cells`` returns them for a list of the block's equally long 1-D
    numpy columns (float, integer, bool or str)."""

    def __init__(self, names, rows, blocks):
        self.names, self.rows, self.blocks = tuple(names), rows, blocks

    def __len__(self):
        return self.rows


def column_table(columns):
    """Table of a dict of equally long 1-D columns; each column's numpy
    dtype decides how its cells are written."""
    cols = [np.asarray(c) for c in columns.values()]
    rows = len(cols[0]) if cols else 0
    if any(c.ndim != 1 or len(c) != rows or c.dtype.kind not in "biufU"
           for c in cols):
        raise UsageError("columns must be equally long 1-D numbers or strings")

    def blocks(cells):
        for lo in range(0, rows, _BLOCK_ROWS):
            yield cells([c[lo:lo + _BLOCK_ROWS] for c in cols])

    return Table(tuple(columns), rows, blocks)


def as_table(obj):
    """The Table of a Table or of an object with a ``table()`` method (a
    grid or a trajectory)."""
    if isinstance(obj, Table):
        return obj
    if callable(getattr(obj, "table", None)):
        return obj.table()
    raise UsageError(f"cannot serialize object of type {type(obj).__name__}")


def _values(col):
    return (col.astype(int) if col.dtype.kind == "b" else col).tolist()


# ---------------------------------------------------------------------------
# CSV cells: each cell's text in a fixed-width slot of bytes, _PAD after it
# and a separator in its last byte; the slots of a block stand side by side
# and _PAD is dropped when the block is joined.  0xFF is no byte of UTF-8
# text, so string cells keep every byte.  Floats carry 17 significant
# digits, as format(x, ".17g") writes them.
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


def _csv_cells(cols, float_slots):
    """One block's columns as slot arrays that join side by side into its
    rows; all its float cells are written by one float_slots call, and a
    block of float columns only is one array."""
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


def _json_cells(col):
    """Cells as json writes them: float repr, NaN, Infinity, ints, strings."""
    if col.dtype.kind == "f":
        cells = list(map(float.__repr__, col.tolist()))
        if np.isfinite(col).all():
            return cells
        return [_JSON_NONFINITE.get(c, c) for c in cells]
    return list(map(json.dumps if col.dtype.kind == "U" else str,
                    _values(col)))


def _json_block(cols):
    return [_json_cells(c) for c in cols]


def _csv_rows(parts):
    """One block's slot arrays joined into its CSV rows, UTF-8 bytes."""
    block = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\xff")


def _write_csv(fh, table):
    """CSV rows to a binary file: each block's bytes are written as
    joined, with no text layer between."""
    if table.rows > _BLOCK_ROWS:
        from .csvfloats import float_slots
    else:
        # _BLOCK_ROWS rows or fewer: the kernel's fixed cost, about 80 us per
        # block and, once per process, 3 ms to compile its module and 0.7 MB
        # of numpy code pages, outweighs format()'s 0.7 us per cell
        float_slots = _formatted_slots
    fh.write((",".join(table.names) + "\n").encode())
    blocks = table.blocks(lambda cols: _csv_cells(cols, float_slots))
    for rows in map(_csv_rows, blocks):
        fh.write(rows)


def _write_json(fh, table):
    """The layout of ``json.dump(rows, fh, indent=1)`` plus a newline."""
    if not table.rows:
        fh.write("[]\n")
        return
    row = " {\n" + ",\n".join("  " + json.dumps(n).replace("%", "%%") + ": %s"
                              for n in table.names) + "\n }"
    sep = "[\n"
    for cols in table.blocks(_json_block):
        fh.write(sep + ",\n".join(map(row.__mod__, zip(*cols))))
        sep = ",\n"
    fh.write("\n]\n")


def export_table(obj, fmt, path):
    """Write a Table, or what ``as_table`` makes one of, as CSV (a header
    row, 17-significant-digit floats) or JSON (``json.dump(..., indent=1)``
    of one object per row, shortest round-trip floats), one block of rows at
    a time.  An empty table is refused as CSV and written as ``[]`` in JSON.
    """
    table = as_table(obj)
    if fmt not in ("csv", "json"):
        raise UsageError("format must be 'csv' or 'json'")
    if fmt == "csv" and not table.rows:
        raise UsageError("refusing to write an empty table")
    try:
        if fmt == "csv":
            with open(path, "wb") as fh:
                _write_csv(fh, table)
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                _write_json(fh, table)
    except OSError as exc:
        raise IOError(f"failed writing {path}: {exc}") from exc
