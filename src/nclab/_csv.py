"""The CSV format shared by the sweep, frontier and trajectory writers."""

from __future__ import annotations

import numpy as np

# Rows formatted by one ``%`` operation: a few MB of text per chunk.
_CHUNK_ROWS = 1 << 16


def write_csv(path, header: list[str], table: np.ndarray) -> None:
    """Write a header line and the rows of a 2-D table, every cell ``%.9g``
    and comma-separated, the bytes ``np.savetxt`` writes with that format.
    A table with a cell that is not finite raises ``ValueError``, naming
    the first such column, before the file is opened.
    Each chunk of rows is formatted by a single ``%`` on a repeated row
    template, where ``np.savetxt`` formats row by row."""
    table = np.asarray(table, dtype=float)
    finite = np.isfinite(table).all(axis=0)
    if not finite.all():
        raise ValueError(f"column {header[int(np.argmin(finite))]} holds a value that is "
                         f"not finite; no CSV was written")
    row = ",".join(["%.9g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:  # a plain file, also for a path ending in .gz
        fh.write(",".join(header) + "\n")
        for lo in range(0, table.shape[0], _CHUNK_ROWS):
            chunk = table[lo:lo + _CHUNK_ROWS]
            fh.write(row * chunk.shape[0] % tuple(chunk.ravel().tolist()))
