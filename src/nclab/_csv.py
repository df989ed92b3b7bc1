"""The CSV format shared by the sweep, frontier and trajectory writers, and
the file writer they share with the JSON commands' ``--out``.

Every cell is ``%.9g`` and the rows are the bytes ``np.savetxt`` writes with
that format.  Each chunk of rows is formatted by a single ``%`` on a row
template.  A table whose leading m >= 2 columns are a product grid (every
m-tuple of one axis in ``itertools.product`` order, as ``sweep``'s channel
means and ``allocate --frontier-out``'s grid) has its axis values formatted
once, and their texts are spliced into the template, so the ``%`` formats
only the remaining columns.  The grid is recognised bit for bit, so a
``-0.0`` is never taken for a ``0.0``; the output bytes are the same either
way.
"""

from __future__ import annotations

import itertools

import numpy as np

# Rows formatted by one ``%`` operation: a few MB of text per chunk.
_CHUNK_ROWS = 1 << 16


def write_text(path, chunks) -> None:
    """Write the text chunks to the file ``path``.  A path that cannot be
    written raises ``ValueError("cannot write <path>: <reason>")``; a path
    that cannot be opened, such as one in a missing directory or a
    directory, leaves no file."""
    try:
        with open(path, "w") as fh:  # a plain file, also for a path ending in .gz
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _row_chunks(table: np.ndarray):
    """The rows of ``table``, each chunk formatted by one ``%`` on the row
    template repeated."""
    row = ",".join(["%.9g"] * table.shape[1]) + "\n"
    for lo in range(0, table.shape[0], _CHUNK_ROWS):
        chunk = table[lo:lo + _CHUNK_ROWS]
        yield row * chunk.shape[0] % tuple(chunk.ravel().tolist())


def _grid_columns(table: np.ndarray) -> tuple[int, int]:
    """(m, k) for the largest m >= 2 for which the leading m columns of
    ``table`` equal ``allocation.grid_points`` of the first block's k >= 2
    values (the first k rows of column m - 1) bit for bit; (0, 0) when
    there is none."""
    rows, cols = table.shape
    bits = table.view(np.int64)  # -0.0 and 0.0 print differently
    for m in range(cols, 1, -1):
        k = round(rows ** (1.0 / m))
        if k < 2 or k ** m != rows:
            continue
        lead = bits[:, :m].reshape((k,) * m + (m,))
        axis = bits[:k, m - 1]
        # coordinate j of a grid point is the axis value at index j of the point
        if all(np.all(lead[..., j] == axis.reshape((k,) + (1,) * (m - 1 - j)))
               for j in range(m)):
            return m, k
    return 0, 0


def _grid_chunks(table: np.ndarray, m: int, k: int):
    """The rows of ``table`` whose leading m columns are the product grid of
    k axis values, in chunks of whole blocks of k rows: the axis texts are
    spliced into each chunk's template, and its ``%`` formats the other
    columns."""
    axis = ["%.9g" % v for v in table[:k, m - 1].tolist()]
    rest = ",%.9g" * (table.shape[1] - m) + "\n"
    tails = [a + rest for a in axis]  # the rows of a block, after their prefix
    prefixes = ("".join(p) for p in itertools.product([a + "," for a in axis], repeat=m - 1))
    blocks = max(1, _CHUNK_ROWS // k)
    for lo in range(0, table.shape[0], blocks * k):
        chunk = table[lo:lo + blocks * k, m:]
        template = "".join([p + p.join(tails) for p in itertools.islice(prefixes, blocks)])
        yield template % tuple(chunk.ravel().tolist())


def write_csv(path, header: list[str], table: np.ndarray) -> None:
    """Write a header line and the rows of a 2-D table, every cell ``%.9g``
    and comma-separated, the bytes ``np.savetxt`` writes with that format.
    A table with a cell that is not finite raises ``ValueError``, naming
    the first such column, before the file is opened.  The module docstring
    says how the rows are formatted: by chunks, not row by row as
    ``np.savetxt`` does, and with leading product-grid columns spliced in."""
    table = np.asarray(table, dtype=float)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise ValueError(f"column {header[int(np.argmin(finite))]} holds a value that is "
                         f"not finite; no CSV was written")
    m, k = _grid_columns(table)
    chunks = _grid_chunks(table, m, k) if m else _row_chunks(table)
    write_text(path, itertools.chain([",".join(header) + "\n"], chunks))
