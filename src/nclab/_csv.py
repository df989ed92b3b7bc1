"""The CSV format shared by the sweep, frontier and trajectory writers, and
the file writer they share with the JSON commands' ``--out``."""

from __future__ import annotations

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

    def text():
        yield ",".join(header) + "\n"
        for lo in range(0, table.shape[0], _CHUNK_ROWS):
            chunk = table[lo:lo + _CHUNK_ROWS]
            yield row * chunk.shape[0] % tuple(chunk.ravel().tolist())

    write_text(path, text())
