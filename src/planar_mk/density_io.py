"""Density and grid file formats.

JSON densities:
    {"grid_x": {"min": 0.0, "max": 1.0, "n": 16},
     "grid_y": {"min": 0.0, "max": 1.0, "n": 16},
     "values": [[...], ...]}                         # one row per x cell

A JSON file stores each grid only as min, max and n, so it holds uniform
grids only: the writer refuses any other grid, which the CSV format carries.

CSV grids: the header row carries the y-cell edges (first field is a label),
each data row carries its left x-edge followed by the row of values, and a
final short row carries the last x-edge. The format is self-contained. The
writers' bytes are fixed (JSON in the `indent=1` layout with each float as
its `repr`, CSV with every number as `%.17g`), and both round-trip every
float64 exactly. Densities are 2-D in both formats, and ingestion (one step
for both) rejects a non-finite or negative value, then floors and
renormalizes.

The writers format the values in blocks of whole rows, about _BLOCK_FLOATS
floats each, and the CSV reader parses one row at a time, so each holds one
block's (or row's) Python floats and strings, not the grid's. The JSON reader
holds every value: `json.load` parses the whole document.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .measures import DiscreteDensity2D, Grid1D


_BLOCK_FLOATS = 1 << 14  # floats formatted per write, in whole rows

# what closes one row of values and opens the next in the JSON layout
_JSON_ROW_BREAK = "\n  ],\n  [\n   "


class DensityFormatError(ValueError):
    pass


def _row_blocks(n_rows: int, row_floats: int) -> range:
    """The first row of each block of whole rows, at least one row and about _BLOCK_FLOATS floats per block."""
    return range(0, n_rows, max(1, _BLOCK_FLOATS // row_floats))


def json_numbers(raw, what: str) -> np.ndarray:
    """A JSON number or (nested) list of numbers as a float array.

    Every entry must be an int or a float: strings, booleans, null and
    objects are rejected, although `float()` would take "1" or true.
    """
    rows = [[raw]]
    while rows:  # one nesting level at a time, collecting the entries' types
        kinds = set().union(*(map(type, row) for row in rows))
        bad = {t for t in kinds if t is not list and (t is bool or not issubclass(t, (int, float)))}
        if bad:
            v = next(v for row in rows for v in row if type(v) in bad)
            raise DensityFormatError(f"{what} must be numbers, got {v!r}")
        rows = [v for row in rows for v in row if type(v) is list] if list in kinds else []
    try:
        return np.asarray(raw, dtype=float)
    except ValueError as exc:  # ragged rows
        raise DensityFormatError(f"{what} must be numbers ({exc})") from exc


def read_json(path: str | Path):
    """The JSON document in a UTF-8 file; a file that does not decode is named in the error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DensityFormatError(f"{path}: invalid JSON ({exc})") from exc


def _grid_fields(spec: dict, label: str) -> tuple[float, float, int]:
    """min, max and n of a grid spec, checked but not yet built into a grid."""
    try:
        fields = [spec["min"], spec["max"], spec["n"]]
    except (KeyError, TypeError) as exc:
        raise DensityFormatError(f"{label} must provide min, max and n") from exc
    lo, hi, n = json_numbers(fields, f"{label} min, max and n").tolist()
    # a finite width also keeps the grid's nodes finite
    if not (hi > lo and math.isfinite(hi - lo)) or not (n >= 1 and float(n).is_integer()):
        raise DensityFormatError(f"{label} needs finite max > min and an integer n >= 1")
    return lo, hi, int(n)


def grid_spec(grid: Grid1D) -> dict:
    """The {"min", "max", "n"} record of a uniform grid, as density files and reports store it."""
    return {"min": float(grid.nodes[0]), "max": float(grid.nodes[-1]), "n": grid.n_cells}


def _ingest(path: str | Path, grid_x: Grid1D, grid_y: Grid1D, values: np.ndarray) -> DiscreteDensity2D:
    """The one ingestion step of both formats: `DiscreteDensity2D.from_values`, its errors naming the file."""
    try:
        return DiscreteDensity2D.from_values(grid_x, grid_y, values)
    except ValueError as exc:
        raise DensityFormatError(f"{path}: {exc}") from exc


def read_density_json(path: str | Path) -> DiscreteDensity2D:
    doc = read_json(path)
    if not isinstance(doc, dict) or not all(key in doc for key in ("grid_x", "grid_y", "values")):
        raise DensityFormatError(f"{path}: expected an object with grid_x, grid_y and values")
    specs = [_grid_fields(doc[key], f"{path}: {key}") for key in ("grid_x", "grid_y")]
    values = json_numbers(doc["values"], f"{path}: values")
    # the shape is compared before any grid is built, so that an absurd n is
    # rejected instead of allocated
    shape = tuple(n for _, _, n in specs)
    if values.shape != shape:
        raise DensityFormatError(f"{path}: values shape {values.shape} does not match the grids {shape}")
    return _ingest(path, *(Grid1D.uniform(*spec) for spec in specs), values)


def _uniform_spec(grid: Grid1D, label: str) -> dict:
    """`grid_spec(grid)`, provided that `read_density_json` rebuilds the same nodes from it, bit for bit."""
    nodes = grid.nodes
    if nodes.tobytes() != Grid1D.uniform(nodes[0], nodes[-1], grid.n_cells).nodes.tobytes():
        raise ValueError(f"{label} is not uniform, and a JSON density stores only its min, max and n; "
                         "write a nonuniform grid with write_grid_csv")
    return grid_spec(grid)


def write_density_json(path: str | Path, d: DiscreteDensity2D) -> None:
    """Write the bytes of `json.dump(doc, fh, indent=1)` plus a newline, the floats encoded in C.

    Raises ValueError if a grid is not uniform: the file would read back on another grid.
    """
    doc = {"grid_x": _uniform_spec(d.grid_x, "grid_x"), "grid_y": _uniform_spec(d.grid_y, "grid_y")}
    blocks = _row_blocks(*d.values.shape)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1)[:-2] + ',\n "values": [\n  [\n   ')
        for r in blocks:
            if r:
                fh.write(_JSON_ROW_BREAK)
            # one float per line; the separator also joins the rows, and "],\n   [" occurs only there
            rows = json.dumps(d.values[r:r + blocks.step].tolist(), separators=(",\n   ", ":"))[2:-2]
            fh.write(rows.replace("],\n   [", _JSON_ROW_BREAK))
        fh.write("\n  ]\n ]\n}\n")


def write_grid_csv(path: str | Path, grid_x: Grid1D, grid_y: Grid1D, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid_x.n_cells, grid_y.n_cells):
        raise ValueError("values must be (n_x, n_y)")
    row = ",".join(["%.17g"] * (grid_y.n_cells + 1)) + "\n"  # left x-edge, then the values
    edges = grid_x.nodes[:-1]  # each row's left x-edge
    blocks = _row_blocks(edges.size, grid_y.n_cells + 1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x_edge\\y_edges," + row % tuple(grid_y.nodes.tolist()))
        for r in blocks:
            cells = np.column_stack((edges[r:r + blocks.step], values[r:r + blocks.step]))
            fh.write(row * len(cells) % tuple(cells.ravel().tolist()))
        fh.write("%.17g\n" % grid_x.nodes[-1])


def _csv_numbers(path: str | Path, fields: list[str]) -> np.ndarray:
    """CSV fields as float64, each parsed by `float`."""
    try:
        return np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError as exc:
        raise DensityFormatError(f"{path}: malformed grid CSV ({exc})") from exc


def read_grid_csv(path: str | Path) -> tuple[Grid1D, Grid1D, np.ndarray]:
    """The grids and values of a grid CSV, read and parsed one row at a time."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = filter(None, map(str.strip, fh))  # the nonblank lines, decoded as they are read
            head = list(itertools.islice(lines, 3))
            if len(head) < 3:
                raise DensityFormatError(f"{path}: too short for a grid CSV")
            y_nodes = _csv_numbers(path, head[0].split(",")[1:])
            x_fields, rows = [], []
            last = head[1].split(",")
            for line in itertools.chain(head[2:], lines):  # a line follows `last`, so `last` is a value row
                x_fields.append(last[0])
                rows.append(_csv_numbers(path, last[1:]))
                if rows[-1].size != rows[0].size:
                    raise DensityFormatError(f"{path}: malformed grid CSV (value row {len(rows)} holds "
                                             f"{rows[-1].size} values, the first {rows[0].size})")
                last = line.split(",")
    except (OSError, UnicodeDecodeError) as exc:
        raise DensityFormatError(f"{path}: {exc}") from exc
    x_nodes = _csv_numbers(path, x_fields + last[:1])
    if len(last) != 1:
        raise DensityFormatError(f"{path}: final row must carry only the last x-edge")
    values = np.array(rows)
    if values.shape != (x_nodes.size - 1, y_nodes.size - 1):
        raise DensityFormatError(f"{path}: value block does not match the edge counts")
    try:
        return Grid1D(x_nodes), Grid1D(y_nodes), values
    except ValueError as exc:
        raise DensityFormatError(f"{path}: {exc}") from exc


def read_density_csv(path: str | Path) -> DiscreteDensity2D:
    return _ingest(path, *read_grid_csv(path))


def read_density(path: str | Path) -> DiscreteDensity2D:
    """Dispatch on extension: .json or .csv."""
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return read_density_json(path)
    if suffix == ".csv":
        return read_density_csv(path)
    raise DensityFormatError(f"{path}: unsupported extension {suffix!r}")
