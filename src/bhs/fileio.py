"""Text file formats for far-field data, indicator maps, heatmaps and locations.

All numeric output uses 17-significant-digit decimals, which round-trips
IEEE doubles exactly, keeps files diff-able, and stays language-portable.
Every format starts with a magic+version line; readers reject unknown
versions. Direction grids are implicit, 0-based (:func:`bhs.grids.equiangular_directions`).

Far-field, indicator, mask and heatmap files are tables, written by
``_write`` and parsed by ``_read``/``_rows``: the one place the row format
and its row-count, row-width and finiteness checks live. Far-field data is a
plain complex (N, N) array written and read with its kappa beside it.

Tables are rendered to bytes by numpy, a row block at a time, with exactly
the bytes ``%d`` (unsigned integers) or ``%.17g`` (floats) would give. For a
float v != 0 with X = floor(log10|v|), y = |v| * 10**(16 - X) is formed in
long double from a correctly rounded power of ten. Two roundings leave
|y - exact| <= eps_ld * y, so where frac(y) is farther than 2 * eps_ld * y
from 1/2, rounding y half up gives the same 17 digits D as correct rounding.
A value near such a tie, or whose D falls outside [1e16, 1e17) (X was off by
one, or rounding carried), takes Python's correctly rounded ``'%.16e'``
instead. Where long double is plain double, that tolerance exceeds 1/2, so
every value takes this path: the bytes stay exact and only speed is lost.
"""

from __future__ import annotations

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


_BLOCK = 1 << 14
_LD_TOL = 2 * np.finfo(np.longdouble).eps
_POW10 = np.array([np.longdouble(f"1e{k}") for k in range(-292, 341)])   # 10**(16 - X)
_QUADS = (np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")
          ).astype(np.uint8).view(np.uint32).ravel()    # "%04d" % i as four bytes


def _render_uint(rows) -> bytes:
    """Unsigned integers as ``%d``: one byte cell per decimal place; leading
    zeros become zero bytes, which are dropped."""
    width = len(str(rows.max(initial=0)))
    cells = np.full(rows.shape + (width + 1,), ord(" "), np.uint8)
    cells[:, -1, -1] = ord("\n")
    for k in range(width):
        power = 10 ** (width - 1 - k)
        cells[..., k] = np.where((rows >= power) | (power == 1), rows // power % 10 + ord("0"), 0)
    return cells[cells != 0].tobytes()


def _render_float(rows) -> bytes:
    """Finite doubles as ``%.17g``: 17 digits D and exponent X per value, laid
    out in 25-byte cells (sign, mantissa, ``e+XX``, separator) with static
    slices per exponent; zero bytes (trailing zeros, a bare point, unused
    cells) are dropped."""
    v = np.asarray(rows, np.float64).ravel()
    a = np.abs(v)
    X = np.floor(np.log10(np.where(a > 0, a, 1.0))).astype(np.int64)
    with np.errstate(invalid="ignore"):    # powers above 1e308 are inf where long double is double
        y = a.astype(np.longdouble) * _POW10[308 - X]
        t = y.astype(np.int64)
    frac = y - t
    fast = (np.abs(frac - 0.5) > _LD_TOL * y) & (t >= 10**16)
    D = np.where(fast, t + (frac > 0.5), 10**16)
    slow = np.flatnonzero((~fast | (D >= 10**17)) & (a > 0))
    exact = [("%.16e" % f).split("e") for f in a[slow].tolist()]
    D[slow] = [int(mantissa.replace(".", "")) for mantissa, _ in exact]
    X[slow] = [int(exponent) for _, exponent in exact]
    order = np.argsort(X.astype(np.int16), kind="stable")    # a radix sort for int16
    X, D, v = X[order], D[order], v[order]
    quads = np.empty((len(v), 5), np.uint32)
    for j, power in enumerate((10**16, 10**12, 10**8, 10**4, 1)):
        quads[:, j] = _QUADS[D // power % 10**4]
    digits = quads.view(np.uint8)[:, 3:]                        # "000" + 17 digits
    sig = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)    # digits up to the last nonzero
    digits[v == 0, 0] = ord("0")    # zeros: D = 1e16, X = 0
    cells = np.zeros((len(v), 25), np.uint8)
    cells[:, 0] = np.where(np.signbit(v), ord("-"), 0)
    cuts = np.flatnonzero(np.diff(X)) + 1
    for start, stop in zip([0, *cuts], [*cuts, len(v)]):
        x = int(X[start])
        fixed = -4 <= x < 17
        lead = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        point = 0 if lead else x + 1 if fixed else 1    # digits before the decimal point
        tail = b"" if fixed else b"e%+03d" % x
        body = lead + bytes(point) + b"." * (not lead) + bytes(17 - point) + tail
        m, cell, s = len(body) - len(tail), cells[start:stop], sig[start:stop]
        cell[:, 1:1 + len(body)] = np.frombuffer(body, np.uint8)
        cell[:, 1 + len(lead):1 + len(lead) + point] = digits[start:stop, :point]
        cell[:, 1 + m - 17 + point:1 + m] = digits[start:stop, point:]
        kept = len(lead) + np.where(s > point, s + (not lead), point)    # mantissa bytes kept
        cell[:, 1:1 + m] *= (np.arange(m) < kept[:, None]).view(np.uint8)
    out = np.empty_like(cells)
    out[order] = cells
    out[:, -1] = ord(" ")
    out[rows.shape[1] - 1::rows.shape[1], -1] = ord("\n")
    return out[out != 0].tobytes()


def _write(path, header_lines, rows) -> None:
    """The one table writer: header lines, then one line of values per row, as
    ``%d`` for unsigned integers and ``%.17g`` otherwise, rendered exactly (see
    the module docstring; on platforms without extended long double the float
    path is exact but slower). A non-finite float, which every reader rejects,
    raises ``ValueError`` before the file is created."""
    rows = np.asarray(rows)
    render = _render_uint if rows.dtype.kind == "u" else _render_float
    if render is _render_float and not np.isfinite(rows).all():
        raise ValueError(f"{path}: a table value is not finite")
    step = max(1, _BLOCK // rows.shape[1])
    with open(path, "wb") as f:
        f.write(("\n".join(header_lines) + "\n").encode("utf-8"))
        for i in range(0, len(rows), step):
            f.write(render(rows[i:i + step]))


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
    decimals (real and imaginary parts interleaved). Raises ``ValueError``,
    before creating the file, for data ``read_farfield`` would reject: a
    non-finite entry of F, or kappa not finite and > 0."""
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be finite and > 0, got {kappa}")
    rows = np.ascontiguousarray(F, dtype=np.complex128).view(np.float64)
    _write(path, [_FF_MAGIC, f"kappa={_fmt(kappa)}", f"N={len(F)}"], rows)


def read_farfield(path) -> tuple[np.ndarray, float]:
    """Read a far-field file as (F, kappa). Any N >= 1 is accepted; an odd N
    has no -xhat on its grid, so its reciprocity residual reads NaN."""
    header, data = _read(path, _FF_MAGIC)
    try:
        kappa, N = float(header["kappa"]), int(header["N"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed header") from exc
    if N < 1:
        raise FormatError(f"{path}: header key 'N' must be >= 1, got {N}")
    if not (np.isfinite(kappa) and kappa > 0.0):
        raise FormatError(f"{path}: header key 'kappa' must be finite and > 0, got {kappa}")
    return _rows(path, data, N, 2 * N).view(np.complex128), kappa


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
