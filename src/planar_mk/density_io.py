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

A CSV block of at least _NUMPY_FLOATS floats is formatted in whole-array numpy
arithmetic (`_format_rows`), which writes the same bytes as `%.17g` in a
fraction of its time; smaller blocks, and the values that `%.17g` writes as 0,
nan, inf or in exponent notation, keep the `%` operator. The JSON writer
(shortest `repr`, a different digit search) and both readers still run at
CPython's per-float cost.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .measures import DiscreteDensity2D, Grid1D


_BLOCK_FLOATS = 1 << 12  # floats formatted per write, in whole rows
# a CSV block this large is formatted by _format_rows, a smaller one by `%`: at 16x16 (272 floats) the
# two cost the same per block, yet a whole 16x16 solve ran about 3% faster with `%` and without the
# formatter's 218 KB of tables, built once per process
_NUMPY_FLOATS = 1 << 9

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
    """The JSON document in a UTF-8 file; a file that does not decode is named in the error.

    That includes bad UTF-8, an integer too long for `int` and nesting past the recursion limit.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
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


# _format_rows writes each value in the fixed notation of `%.17g` into a row of
# _ROW bytes, as three little-endian words, then keeps each row's bytes from its
# first character to its separator. The 17 significant digits sit at columns
# _DIGIT0 to _DIGIT0 + 16 after six '0's, and the decimal point's column is
# _DIGIT0 + k for the decimal exponent k: right of it the digits stay in place,
# left of it they come from the row shifted one column left, so that
# 0.000ddd, 0.ddd and ddd.ddd all come out of the same row.
_ROW = 24
_DIGIT0 = 6
_LOW, _HIGH = 1e-4, 1e17  # the magnitudes that `%.17g` writes in fixed notation, 1e-4 <= |x| < 1e17
_DEKKER = 134217729.0  # 2**27 + 1, which splits a double into two 26-bit halves


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: hi + lo == x, each with at most 26 significant bits, so that products of halves are exact."""
    c = _DEKKER * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _format_tables() -> dict[str, np.ndarray]:
    """The lookup tables of _format_rows, built at its first call so that importing stays cheap."""
    pow10 = 10.0 ** np.arange(21)  # exact in binary64: 5**20 < 2**53
    t = np.arange(10000, dtype=np.uint64)
    # each 4-digit group's ASCII digits as the low four bytes of a little-endian word
    ascii4 = sum((t // 10 ** (3 - i) % 10 + 48) << np.uint64(8 * i) for i in range(4))
    trailing_zeros = np.select([t % 10 > 0, t % 100 > 0, t % 1000 > 0, t > 0], [0, 1, 2, 3], 4)
    # one row layout per combination of exponent k, sign and trailing zeros tz of the last 16 digits:
    # `shifted` and `kept` mask the bytes taken from the shifted and the unshifted digits,
    # `marks` holds the '.', the '-' and a ',' after the last character, `length` counts the row's bytes
    k, neg, tz = (v.ravel() for v in np.meshgrid(np.arange(-4, 17), [0, 1], np.arange(17), indexing="ij"))
    point = _DIGIT0 + k
    first = np.minimum(point - 1, _DIGIT0 - 1) - neg
    stop = _DIGIT0 + 17 - tz
    stop = np.where(stop > point + 1, stop, point)  # a fraction of zeros only loses its '.' as well
    col = np.arange(_ROW)
    point, first, stop, neg = (v[:, None] for v in (point, first, stop, neg))
    marks = (np.where((col == point) & (stop > point), 46, 0) + np.where((col == first) & (neg == 1), 45, 0)
             + np.where(col == stop, 44, 0))
    as_words = lambda b: np.ascontiguousarray(b, dtype=np.uint8).view("<u8")
    return {
        "pow10": pow10,
        "pow10_split": np.stack(_split(pow10)),
        "ascii4": ascii4,
        "trailing_zeros": trailing_zeros,
        "shifted": as_words(((col < point) & (col >= first + neg)) * 255),
        "kept": as_words(((col > point) & (col < stop)) * 255),
        "marks": as_words(marks),
        "length": (stop - first + 1).ravel(),
    }


def _scaled(tables: dict, a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - k) exactly, as hi + lo with hi the rounded product (Dekker's two-product)."""
    q = 16 - k
    hi = a * tables["pow10"].take(q)
    ph, pl = tables["pow10_split"].take(q, axis=1)
    ah, al = _split(a)
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _format_rows(cells: np.ndarray) -> bytes:
    """The bytes of `("%.17g," * (m - 1) + "%.17g\\n") * len(cells) % tuple(cells.ravel().tolist())` for m columns.

    Values with 1e-4 <= |x| < 1e17 are formatted in whole-array arithmetic: the 17
    significant digits are |x| * 10**(16 - k) rounded half to even, computed exactly
    as a double-double. k, the decimal exponent, is estimated by log10 and then
    corrected by comparing that double-double exactly with 1e16 and 1e17, since
    log10 can misjudge k next to a power of ten and its last bit varies with
    numpy's SIMD paths. The other values (0, nan, inf and exponent notation) are
    formatted one at a time by `%` and spliced in.
    """
    tables = _format_tables()
    width = cells.shape[1]
    flat = cells.ravel()
    a = np.abs(flat)
    fixed = (a >= _LOW) & (a < _HIGH)
    a = np.where(fixed, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _scaled(tables, a, k)
    # the exact product must lie in [1e16, 1e17); otherwise log10 was one off
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(up | down)
    if moved.size:
        k[moved] += up[moved].astype(np.intp) - down[moved]
        hi[moved], lo[moved] = _scaled(tables, a[moved], k[moved])
    # hi >= 1e16 is an even integer, so rounding lo half to even rounds hi + lo half to even
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # the digits in groups: d0 d1 | d2..d9 | d10..d16, one group per word of the row
    top, rest = np.divmod(n, 10**15)
    mid, low = np.divmod(rest, 10**7)
    mid_hi, mid_lo = np.divmod(mid, 10**4)
    low_hi, low_lo = np.divmod(low, 1000)
    ascii4 = tables["ascii4"]
    words = np.empty((flat.size, 3), dtype="<u8")
    words[:, 0] = ascii4.take(top) >> np.uint64(16) << np.uint64(48) | np.uint64(0x303030303030)
    words[:, 1] = ascii4.take(mid_hi) | ascii4.take(mid_lo) << np.uint64(32)
    words[:, 2] = ascii4.take(low_hi) | ascii4.take(low_lo) >> np.uint64(8) << np.uint64(32)
    # trailing zeros of d1..d16, group by group while a group is all zeros
    zeros = tables["trailing_zeros"]
    tz = zeros.take(low_lo * 10) - 1
    more = np.flatnonzero(low_lo == 0)
    for tz0, group in ((3, low_hi), (7, mid_lo), (11, mid_hi)):
        tz[more] = tz0 + zeros.take(group[more])
        more = more[group[more] == 0]
    tz[more] = 15 + (top[more] % 10 == 0)  # d1, the last digit that can be zero
    layout = ((k + 4) * 2 + np.signbit(flat)) * 17 + tz
    flat_words = words.reshape(-1)
    shifted = flat_words >> np.uint64(8)  # column c + 1 moved to column c; a row's last byte is never kept
    shifted[:-1] |= flat_words[1:] << np.uint64(56)
    out = shifted & tables["shifted"].take(layout, axis=0).reshape(-1)
    out |= flat_words & tables["kept"].take(layout, axis=0).reshape(-1)
    out |= tables["marks"].take(layout, axis=0).reshape(-1)
    lengths = tables["length"].take(layout)
    others = np.flatnonzero(~fixed)
    out.reshape(-1, 3)[others] = 0
    lengths[others] = 0
    text = out.view(np.uint8)
    text = text[text != 0]  # every kept byte is a character, every other byte is 0
    ends = np.cumsum(lengths)
    row_ends = np.arange(width - 1, flat.size, width)
    text[ends[row_ends[lengths[row_ends] > 0]] - 1] = 10  # '\n' in place of the last ','
    if not others.size:
        return text.tobytes()
    raw, pieces, prev = text.tobytes(), [], 0
    for i, at, v in zip(others.tolist(), ends[others].tolist(), flat[others].tolist()):
        pieces += [raw[prev:at], (("%.17g\n" if i % width == width - 1 else "%.17g,") % v).encode()]
        prev = at
    pieces.append(raw[prev:])
    return b"".join(pieces)


def write_grid_csv(path: str | Path, grid_x: Grid1D, grid_y: Grid1D, values: np.ndarray) -> None:
    """Write a grid CSV with every number, edges included, as `%.17g`.

    The bytes are fixed: those of formatting each number with `%.17g`. Rows are
    written a block of about _BLOCK_FLOATS floats at a time; a block of at least
    _NUMPY_FLOATS floats is formatted by `_format_rows` in numpy, a smaller one
    by a single `%` call, with the same bytes either way.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid_x.n_cells, grid_y.n_cells):
        raise ValueError("values must be (n_x, n_y)")
    row = ",".join(["%.17g"] * (grid_y.n_cells + 1)) + "\n"  # left x-edge, then the values
    edges = grid_x.nodes[:-1]  # each row's left x-edge
    blocks = _row_blocks(edges.size, grid_y.n_cells + 1)
    with open(path, "wb") as fh:
        fh.write(("x_edge\\y_edges," + row % tuple(grid_y.nodes.tolist())).encode())
        for r in blocks:
            cells = np.column_stack((edges[r:r + blocks.step], values[r:r + blocks.step]))
            if cells.size >= _NUMPY_FLOATS:
                fh.write(_format_rows(cells))
            else:
                fh.write((row * len(cells) % tuple(cells.ravel().tolist())).encode())
        fh.write(b"%.17g\n" % grid_x.nodes[-1])


def _csv_numbers(path: str | Path, fields: list[str]) -> np.ndarray:
    """CSV fields as float64, each parsed by `float`."""
    try:
        return np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError as exc:
        raise DensityFormatError(f"{path}: malformed grid CSV ({exc})") from exc


def read_grid_csv(path: str | Path) -> tuple[Grid1D, Grid1D, np.ndarray]:
    """The grids and values of a grid CSV, read and parsed one row at a time.

    Each parsed row's bytes are appended to one buffer, which becomes the values
    array without a copy, so the values are held once.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = filter(None, map(str.strip, fh))  # the nonblank lines, decoded as they are read
            head = list(itertools.islice(lines, 3))
            if len(head) < 3:
                raise DensityFormatError(f"{path}: too short for a grid CSV")
            y_nodes = _csv_numbers(path, head[0].split(",")[1:])
            x_fields, held = [], bytearray()  # the value rows' float64 bytes, one after the other
            last = head[1].split(",")
            for line in itertools.chain(head[2:], lines):  # a line follows `last`, so `last` is a value row
                x_fields.append(last[0])
                row = _csv_numbers(path, last[1:])
                if len(x_fields) == 1:
                    width = row.size
                elif row.size != width:
                    raise DensityFormatError(f"{path}: malformed grid CSV (value row {len(x_fields)} holds "
                                             f"{row.size} values, the first {width})")
                held += memoryview(row)
                last = line.split(",")
    except (OSError, UnicodeDecodeError) as exc:
        raise DensityFormatError(f"{path}: {exc}") from exc
    x_nodes = _csv_numbers(path, x_fields + last[:1])
    if len(last) != 1:
        raise DensityFormatError(f"{path}: final row must carry only the last x-edge")
    values = np.frombuffer(held, dtype=float).reshape(len(x_fields), width)
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
