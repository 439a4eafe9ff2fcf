"""Text file formats for far-field data, indicator maps, heatmaps and locations.

All numeric output uses 17-significant-digit decimals, which round-trips
IEEE doubles exactly, keeps files diff-able, and stays language-portable.
Every format starts with a magic+version line; readers reject unknown
versions. Direction grids are implicit, 0-based (:func:`bhs.grids.equiangular_directions`).

Far-field, indicator, mask and heatmap files are tables, written by
``_write`` and parsed by ``_read``/``_rows``: the one place the row format
and its row-count, row-width and finiteness checks live. Integer tables
(heatmap pixels and 0/1 masks) are rendered to decimal digits by numpy, with
the same bytes ``%d`` (and ``%.17g`` of 0.0/1.0) would give. Far-field data
is a plain complex (N, N) array written and read with its kappa beside it.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .exceptions import FormatError
from .grids import IndicatorMap, SamplingGrid

__all__ = [
    "write_farfield",
    "read_farfield",
    "write_indicator",
    "read_indicator",
    "write_heatmap",
    "write_mask",
    "write_localization",
]

_FF_MAGIC = "#bhff v1"
_IND_MAGIC = "#bhind v1"
_LOC_MAGIC = "#bhloc v1"
_PGM_MAXVAL = 65535


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write(path, header_lines, rows) -> None:
    """The one table writer: header lines, then one line of values per row, as
    ``%.17g`` floats or, for unsigned integers, numpy-rendered ``%d`` digits."""
    rows, head = np.asarray(rows), "\n".join(header_lines)
    if rows.dtype.kind != "u":
        np.savetxt(path, rows, fmt="%.17g", header=head, comments="", encoding="utf-8")
        return
    width = len(str(rows.max(initial=0)))
    cells = np.full(rows.shape + (width + 1,), ord(" "), np.uint8)
    cells[:, -1, -1] = ord("\n")
    keep = np.ones(cells.shape, bool)
    for k in range(width):
        power = 10 ** (width - 1 - k)
        cells[..., k] = rows // power % 10 + ord("0")
        keep[..., k] = (rows >= power) | (power == 1)    # no leading zeros
    Path(path).write_bytes(head.encode("utf-8") + b"\n" + cells[keep].tobytes())


def _read(path, magic: str):
    """Check the magic line; return the leading key=value lines as a dict and
    the data lines after them."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != magic:
        raise FormatError(f"{path}: expected magic line {magic!r}")
    pos = 1
    while pos < len(lines) and "=" in lines[pos]:
        pos += 1
    header = dict(line.split("=", 1) for line in lines[1:pos])
    return header, lines[pos:]


def _rows(path, data, count: int, width: int) -> np.ndarray:
    """The one table parser: the first ``count`` data lines as a (count, width)
    array of finite values."""
    if len(data) < count:
        raise FormatError(f"{path}: expected {count} data rows, found {len(data)}")
    out = np.empty((count, width))
    for i, line in enumerate(data[:count]):
        row = line.split()
        if len(row) != width:
            raise FormatError(f"{path}: row {i} has {len(row)} values, expected {width}")
        try:
            out[i] = row
        except ValueError as exc:
            raise FormatError(f"{path}: row {i}: {exc}") from None
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: row {bad[0]} has a non-finite value")
    return out


def write_farfield(path, F: np.ndarray, kappa: float) -> None:
    """Write an (N, N) far-field array: magic, kappa, N, then N rows of 2N
    decimals (real and imaginary parts interleaved)."""
    rows = np.ascontiguousarray(F, dtype=np.complex128).view(np.float64)
    _write(path, [_FF_MAGIC, f"kappa={_fmt(kappa)}", f"N={len(F)}"], rows)


def read_farfield(path) -> tuple[np.ndarray, float]:
    """Read a far-field file as (F, kappa); warns on an odd direction count
    (reciprocity diagnostics need an even grid) but accepts it."""
    header, data = _read(path, _FF_MAGIC)
    try:
        kappa, N = float(header["kappa"]), int(header["N"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed header") from exc
    if N < 1:
        raise FormatError(f"{path}: header key 'N' must be >= 1, got {N}")
    if not (np.isfinite(kappa) and kappa > 0.0):
        raise FormatError(f"{path}: header key 'kappa' must be finite and > 0, got {kappa}")
    F = _rows(path, data, N, 2 * N).view(np.complex128)
    if N % 2 != 0:
        warnings.warn(f"{path}: odd direction count {N}; reciprocity diagnostics need even N")
    return F, kappa


def _indicator_header(grid: SamplingGrid, meta: dict) -> list:
    bounds = [f"{key}={_fmt(getattr(grid, key))}" for key in ("xmin", "xmax", "ymin", "ymax")]
    return ([_IND_MAGIC, *bounds, f"nx={grid.nx}", f"ny={grid.ny}"]
            + [f"meta.{key}={meta[key]}" for key in sorted(meta)])


def write_indicator(path, indicator: IndicatorMap) -> None:
    """Write an indicator map: header with bounds/resolution and metadata,
    then ny rows of nx decimals with y increasing row by row."""
    _write(path, _indicator_header(indicator.grid, indicator.meta), indicator.as_array())


def read_indicator(path) -> IndicatorMap:
    header, data = _read(path, _IND_MAGIC)
    try:
        grid = SamplingGrid(
            xmin=float(header["xmin"]), xmax=float(header["xmax"]),
            ymin=float(header["ymin"]), ymax=float(header["ymax"]),
            nx=int(header["nx"]), ny=int(header["ny"]),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed header") from exc
    meta = {key[5:]: value for key, value in header.items() if key.startswith("meta.")}
    values = _rows(path, data, grid.ny, grid.nx).ravel()
    try:
        return IndicatorMap(grid=grid, values=values, meta=meta)
    except ValueError as exc:    # a negative value
        raise FormatError(f"{path}: {exc}") from None


def write_heatmap(path, indicator: IndicatorMap) -> None:
    """Render an indicator map as an ASCII PGM (P2) image.

    Values map linearly from [min, max] to [0, 65535] via
    pix = min(floor((v - min) / (max - min) * 65536), 65535); a constant
    map renders as all zeros. Image convention: the top pixel row is the
    y = ymax grid row.
    """
    g = indicator.grid
    arr = indicator.as_array()
    lo, hi = float(arr.min()), float(arr.max())
    pix = np.zeros(arr.shape, np.uint16)
    if hi > lo:
        pix[:] = np.minimum(np.floor((arr - lo) / (hi - lo) * (_PGM_MAXVAL + 1)), _PGM_MAXVAL)
    _write(path, ["P2", f"{g.nx} {g.ny}", str(_PGM_MAXVAL)], pix[::-1])


def write_mask(path, indicator: IndicatorMap, mask: np.ndarray) -> None:
    """Write a boolean mask in the indicator format with 0/1 values."""
    g = indicator.grid
    header = _indicator_header(g, {**indicator.meta, "content": "mask"})
    _write(path, header, np.asarray(mask).reshape(g.ny, g.nx).astype(np.uint8))


def write_localization(path, result) -> None:
    """Write a multilevel localization result with its level history."""
    lines = [
        _LOC_MAGIC,
        f"center_x={_fmt(result.center[0])}",
        f"center_y={_fmt(result.center[1])}",
        f"radius={_fmt(result.radius)}",
        f"low_confidence={int(result.low_confidence)}",
        f"levels={len(result.history)}",
    ]
    for level, radius, z in result.history:
        lines.append(f"level.{level}={_fmt(radius)} {_fmt(z[0])} {_fmt(z[1])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
