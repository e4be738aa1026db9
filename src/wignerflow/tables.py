"""Tables and their CSV/JSON writer.

A Table is named columns written one block of rows at a time, so an export
never holds the whole file in memory.  CSV floats carry 17 significant
digits and JSON floats their shortest repr; both round-trip doubles
exactly.  A table of at most ``_BLOCK_ROWS`` rows is written from its
Python values, CSV by ``format`` and ``str`` and JSON by ``json.dumps``;
the slot kernel of ``csvfloats`` writes the blocks of a longer one.  This
module imports neither numpy nor a physics module, and json only where a
JSON document is written: a column table of at most ``_BLOCK_ROWS`` rows
of lists of one type each, as ``thermo`` writes, is written without
numpy, and a grid or trajectory serializes itself by its ``table()``
method.
"""

from itertools import repeat

from .errors import UsageError

_BLOCK_ROWS = 512
_INT64 = range(-2 ** 63, 2 ** 63)


class Table:
    """Named columns, written one block of rows at a time (at most
    ``_BLOCK_ROWS`` rows in a column table): ``blocks(cells)`` yields per
    block a list of cell sequences that stand side by side in column order,
    as ``cells`` returns them for a list of the block's equally long
    columns, each a 1-D numpy array (float, integer, bool or str) or a list
    of Python values of one of those types."""

    def __init__(self, names, rows, blocks):
        self.names, self.rows, self.blocks = tuple(names), rows, blocks

    def __len__(self):
        return self.rows


def _plain(col, rows):
    """A list or tuple of rows values of one type (bool, int within int64,
    float or str) as a list; None where numpy decides instead (another
    column, mixed types, another type, or an integer beyond int64)."""
    if not isinstance(col, (list, tuple)) or len(col) != rows:
        return None
    types = set(map(type, col))
    if len(types) > 1 or not types <= {bool, int, float, str} or (
            int in types and not all(v in _INT64 for v in col)):
        return None
    return list(col)


def column_table(columns):
    """Table of a dict of equally long 1-D columns.  Each column's type, as
    numpy infers it, decides how its cells are written; in a table of at most
    ``_BLOCK_ROWS`` rows, lists or tuples of one type each stay lists."""
    cols = list(columns.values())
    rows = len(cols[0]) if cols else 0
    plain = [_plain(c, rows) for c in cols] if rows <= _BLOCK_ROWS else [None]
    if None in plain:
        import numpy as np
        cols = [np.asarray(c) for c in cols]
        if any(c.ndim != 1 or len(c) != rows or c.dtype.kind not in "biufU"
               for c in cols):
            raise UsageError(
                "columns must be equally long 1-D numbers or strings")
    else:
        cols = plain

    def blocks(cells):
        for lo in range(0, rows, _BLOCK_ROWS):
            yield cells([c[lo:lo + _BLOCK_ROWS] for c in cols])

    return Table(tuple(columns), rows, blocks)


# ---------------------------------------------------------------------------
# a short table's cells: its Python values, and CSV text made of them
# ---------------------------------------------------------------------------

def _values(cols):
    """A Table's ``cells`` argument that gives each column as a list of
    Python values, a bool as 0 or 1, as the slot kernel writes it."""
    values = [c if isinstance(c, list) else c.tolist() for c in cols]
    return [list(map(int, v)) if type(v[0]) is bool else v for v in values]


def _csv_text(values):
    """CSV cells: floats as format(x, ".17g"), integers and strings as
    str() writes them."""
    if type(values[0]) is float:
        return [format(v, ".17g") for v in values]
    return list(map(str, values))


def _text_rows(parts):
    """One block's text cells joined into its CSV rows, UTF-8 bytes."""
    return ("\n".join(map(",".join, zip(*parts))) + "\n").encode()


def _write_csv(fh, table):
    """CSV rows to a binary file, one block's bytes at a time."""
    fh.write((",".join(table.names) + "\n").encode())
    if table.rows > _BLOCK_ROWS:
        from .csvfloats import csv_rows, table_cells
        blocks = map(csv_rows, table.blocks(table_cells))
    else:
        # _BLOCK_ROWS rows or fewer: the kernel's fixed cost, about 80 us per
        # block and, once per process, 3 ms to compile its module and 0.7 MB
        # of numpy code pages, outweighs format()'s 0.7 us per cell
        blocks = (_text_rows(list(map(_csv_text, cols)))
                  for cols in table.blocks(_values))
    # a block's cells are freed before the next block is made, so that its
    # buffers are reused
    for rows in blocks:
        fh.write(rows)


def _write_json(fh, table):
    """``json.dump(rows, fh, indent=1)`` of one object per row, plus a
    newline, to a binary file; a table of more than ``_BLOCK_ROWS`` rows in
    that layout one block's objects at a time."""
    import json
    if table.rows <= _BLOCK_ROWS:
        rows = [dict(zip(table.names, row))
                for cols in table.blocks(_values) for row in zip(*cols)]
        fh.write((json.dumps(rows, indent=1) + "\n").encode())
        return
    # the slot kernel, as in _write_csv; each column's cells after its key
    from .csvfloats import json_rows, table_cells
    heads = [f"\n  {json.dumps(name)}: ".encode() for name in table.names]
    heads[0] = b" {" + heads[0]
    sep = b"[\n"
    for rows in map(json_rows, table.blocks(lambda c: table_cells(c, "json")),
                    repeat(heads)):
        fh.write(sep)
        fh.write(rows)
        sep = b",\n"
    fh.write(b"\n]\n")


def export_table(obj, fmt, path):
    """Write a Table, or the ``table()`` of a grid or a trajectory, as CSV
    (a header row, 17-significant-digit floats) or JSON
    (``json.dump(..., indent=1)`` of one object per row, shortest
    round-trip floats), one block of rows at a time.  An empty table is
    refused as CSV and written as ``[]`` in JSON.
    """
    if isinstance(obj, Table):
        table = obj
    elif callable(getattr(obj, "table", None)):
        table = obj.table()
    else:
        raise UsageError(
            f"cannot serialize object of type {type(obj).__name__}")
    if fmt not in ("csv", "json"):
        raise UsageError("format must be 'csv' or 'json'")
    if fmt == "csv" and not table.rows:
        raise UsageError("refusing to write an empty table")
    try:
        with open(path, "wb") as fh:
            (_write_csv if fmt == "csv" else _write_json)(fh, table)
    except OSError as exc:
        raise IOError(f"failed writing {path}: {exc}") from exc
