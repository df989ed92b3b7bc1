"""The CSV writer against a per-cell ``f"{v:.9g}"`` reference, on tables
whose leading columns are a product grid (formatted once per axis value and
spliced into the row template) and on tables that only look like one."""

import numpy as np
import pytest

from nclab import _csv, allocation, analysis, fixture_path, simulator
from nclab._csv import write_csv
from nclab.allocation import grid_points
from nclab.cli import run

from conftest import CSV_EDGE_VALUES, csv_reference

ALLOCATE = ["--protocol", "udp", "--alpha", "119", "--beta", "0.05,1"]


def _assert_same(text, reference):
    """``text == reference``, reporting the first differing line (pytest's
    own diff of two multi-MB strings takes minutes)."""
    if text != reference:
        lines = list(zip(text.split("\n"), reference.split("\n")))
        i = next((i for i, (a, b) in enumerate(lines) if a != b), len(lines))
        raise AssertionError(f"line {i} differs: {lines[i] if i < len(lines) else 'length'}")


def _recording(monkeypatch, module):
    """Record each (header, table) that ``module`` hands to ``write_csv``."""
    calls = []

    def record(path, header, table):
        calls.append((header, np.asarray(table, dtype=float)))
        write_csv(path, header, table)

    monkeypatch.setattr(module, "write_csv", record)
    return calls


@pytest.mark.parametrize("module, argv, grid", [
    (analysis, ["sweep", "--out"], (2, 99)),
    (allocation, ["allocate", *ALLOCATE, "--frontier-out"], (2, 100)),
    (analysis, ["sweep", "--scalar", "--out"], (0, 0)),
    (simulator, ["simulate", "--protocol", "tcp", "--mode", "receding", "--out"], (0, 0)),
])
def test_command_csvs_match_the_per_cell_reference(tmp_path, capsys, monkeypatch, module, argv,
                                                   grid):
    # the 2-D sweep and the frontier are spliced grids; the shared-mean
    # sweep and the trajectory take the plain row template
    calls = _recording(monkeypatch, module)
    path = tmp_path / "out.csv"
    assert run(argv + [str(path), "--scenario", str(fixture_path("mixed"))]) == 0
    capsys.readouterr()
    [(header, table)] = calls
    assert _csv._grid_columns(table) == grid
    _assert_same(path.read_text(), csv_reference(header, table))


def _grid_table(axis, m, extra, seed=0):
    points = grid_points(axis, m)
    rng = np.random.default_rng(seed)
    return np.column_stack([points, rng.normal(size=(len(points), extra)) * 1e3])


def _written(tmp_path, table):
    header = [f"c{i}" for i in range(table.shape[1])]
    path = tmp_path / "t.csv"
    write_csv(path, header, table)
    return path.read_text(), csv_reference(header, table)


def test_a_three_channel_grid_spans_several_chunks(tmp_path):
    table = _grid_table(np.linspace(0.01, 0.99, 42), 3, 3)
    assert table.shape[0] == 42 ** 3 > _csv._CHUNK_ROWS
    assert _csv._grid_columns(table) == (3, 42)
    _assert_same(*_written(tmp_path, table))


def test_signed_zeros_and_edge_values_on_a_grid_axis(tmp_path):
    # -0.0 and 0.0 are two axis values, printed "-0" and "0"
    table = _grid_table([-0.0, 0.0, *CSV_EDGE_VALUES[1:]], 2, 2)
    assert _csv._grid_columns(table) == (2, 7)
    text, reference = _written(tmp_path, table)
    _assert_same(text, reference)
    assert "\n-0,0," in text and "\n0,-0," in text


@pytest.mark.parametrize("edit", ["signed zero", "one ulp", "swapped rows", "one coordinate"])
def test_a_table_that_is_almost_a_grid_is_printed_cell_by_cell(tmp_path, edit):
    table = _grid_table([0.0, 0.25, 0.5, 1.0], 2, 3)
    if edit == "signed zero":
        table[4, 1] = -0.0  # == 0.0, but it prints "-0"
    elif edit == "one ulp":
        table[9, 0] = np.nextafter(table[9, 0], 2.0)
    elif edit == "swapped rows":
        table[[2, 3]] = table[[3, 2]]
    else:
        table[:, 0] = table[:, 1]  # a repeated column pair, not every tuple
    assert _csv._grid_columns(table) == (0, 0)
    _assert_same(*_written(tmp_path, table))


@pytest.mark.parametrize("table", [
    np.zeros((0, 5)), np.resize(CSV_EDGE_VALUES, (1, 5)), np.array([[-0.0, 0.5]]),
    grid_points([0.0, 0.25], 2), grid_points([-0.0, 0.0], 3), grid_points([0.25, 0.5, 1.0], 2),
], ids=["0 rows", "1 row", "1 row of 2", "grid 2x2", "grid 2x2x2", "grid 3x3"])
def test_small_and_grid_only_tables(tmp_path, table):
    # 0 and 1 rows, and tables all of whose columns are grid columns
    _assert_same(*_written(tmp_path, table))


def test_a_cell_that_is_not_finite_is_refused_on_a_grid(tmp_path):
    table = _grid_table([0.1, 0.2, 0.3], 2, 3)
    path = tmp_path / "t.csv"
    for column, bad in ((3, np.inf), (1, np.nan), (4, -np.inf)):
        edited = table.copy()
        edited[5:, column] = bad
        edited[7, 4] = np.nan
        with pytest.raises(ValueError, match=f"column c{column} holds a value that is not finite"):
            write_csv(path, [f"c{i}" for i in range(5)], edited)
        assert list(tmp_path.iterdir()) == []
