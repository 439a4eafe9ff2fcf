"""File formats: exact round trips, pinned PGM mapping, format errors."""

import re
import warnings

import numpy as np
import pytest

from bhs import fileio
from bhs.cli import main
from bhs.esm import LocalizationResult
from bhs.exceptions import FormatError
from bhs.fileio import (
    _write,
    read_farfield,
    read_indicator,
    write_farfield,
    write_heatmap,
    write_indicator,
    write_localization,
    write_mask,
)
from bhs.grids import IndicatorMap, SamplingGrid


def random_farfield(rng, N=6):
    entries = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return entries * np.exp(rng.standard_normal())


def test_farfield_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    F, kappa = random_farfield(rng, N=8), 2 * np.pi / 3
    path = tmp_path / "data.ff"
    write_farfield(path, F, kappa)
    G, kappa_read = read_farfield(path)
    assert kappa_read == kappa
    assert np.array_equal(G, F)


def test_farfield_zero_matrix_layout(tmp_path):
    F = np.zeros((4, 4), complex)
    path = tmp_path / "zero.ff"
    write_farfield(path, F, 1.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "#bhff v1"
    assert lines[2] == "N=4"
    assert len(lines) == 7
    assert all(len(line.split()) == 8 for line in lines[3:])


def test_farfield_decimal_text_pinned(tmp_path):
    entries = np.array([[complex(0.1, -0.0), complex(1e-300, 1.0)],
                        [complex(-0.0, 0.1), complex(2.5, -3.0)]])
    path = tmp_path / "pinned.ff"
    write_farfield(path, entries, np.pi)
    assert path.read_text().splitlines() == [
        "#bhff v1",
        "kappa=3.1415926535897931",
        "N=2",
        "0.10000000000000001 -0 1e-300 1",
        "-0 0.10000000000000001 2.5 -3",
    ]
    back, _ = read_farfield(path)
    assert np.array_equal(back, entries)
    assert np.signbit(back[0, 0].imag) and np.signbit(back[1, 0].real)


def test_farfield_odd_grid_flagged(tmp_path, capsys):
    path = tmp_path / "odd.ff"
    path.write_text("#bhff v1\nkappa=1\nN=3\n" + "\n".join(["0 0 0 0 0 0"] * 3) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F, _ = read_farfield(path)
    assert len(F) == 3
    # An odd grid has no -xhat pairs: verify succeeds and reports the residual as
    # nan, which is the only sign of the odd count (no warning).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", str(path)]) == 0
    assert "reciprocity_residual=nan" in capsys.readouterr().out.splitlines()


def test_farfield_format_errors(tmp_path):
    bad_magic = tmp_path / "a.ff"
    bad_magic.write_text("#bhff v2\nkappa=1\nN=2\n0 0 0 0\n0 0 0 0\n")
    with pytest.raises(FormatError):
        read_farfield(bad_magic)
    no_count = tmp_path / "n.ff"
    no_count.write_text("#bhff v1\nkappa=1\n0 0 0 0\n0 0 0 0\n")
    with pytest.raises(FormatError, match="malformed header"):
        read_farfield(no_count)
    short = tmp_path / "b.ff"
    short.write_text("#bhff v1\nkappa=1\nN=3\n0 0 0 0 0 0\n")
    with pytest.raises(FormatError):
        read_farfield(short)
    ragged = tmp_path / "c.ff"
    ragged.write_text("#bhff v1\nkappa=1\nN=2\n0 0 0 0\n0 0\n")
    with pytest.raises(FormatError):
        read_farfield(ragged)
    not_a_number = tmp_path / "d.ff"
    not_a_number.write_text("#bhff v1\nkappa=1\nN=2\n0 0 0 0\n0 0 abc 0\n")
    with pytest.raises(FormatError, match="row 1: could not convert string to float: 'abc'"):
        read_farfield(not_a_number)
    for value in ("nan", "inf", "-inf"):
        non_finite = tmp_path / f"{value}.ff"
        non_finite.write_text(f"#bhff v1\nkappa=1\nN=2\n0 0 0 0\n0 {value} 0 0\n")
        with pytest.raises(FormatError, match="row 1 has a non-finite value"):
            read_farfield(non_finite)
        assert main(["verify", str(non_finite)]) == 2


@pytest.mark.parametrize(
    "header,key",
    [
        ("kappa=1\nN=-2", "'N'"),
        ("kappa=1\nN=0", "'N'"),
        ("kappa=-6.283185307179586\nN=2", "'kappa'"),
        ("kappa=0\nN=2", "'kappa'"),
        ("kappa=nan\nN=2", "'kappa'"),
        ("kappa=inf\nN=2", "'kappa'"),
    ],
)
def test_farfield_header_values_checked(tmp_path, capsys, header, key):
    path = tmp_path / "bad.ff"
    path.write_text(f"#bhff v1\n{header}\n0 0 0 0\n0 0 0 0\n")
    with pytest.raises(FormatError, match=key):
        read_farfield(path)
    assert main(["verify", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_indicator_round_trip(tmp_path):
    grid = SamplingGrid(-1.5, 1.5, -0.5, 2.5, 5, 4)
    rng = np.random.default_rng(2)
    values = rng.random(grid.size) * 1e-3
    indicator = IndicatorMap(grid=grid, values=values, meta={"method": "lsm", "kappa": 3.14})
    path = tmp_path / "map.ind"
    write_indicator(path, indicator)
    back = read_indicator(path)
    assert np.array_equal(back.values, indicator.values)
    assert back.grid == grid
    assert back.meta["method"] == "lsm"
    assert float(back.meta["kappa"]) == 3.14


def test_indicator_reader_rejects_bad_files(tmp_path):
    bad_magic = tmp_path / "a.ind"
    bad_magic.write_text("#bhind v2\nxmin=0\nxmax=1\nymin=0\nymax=1\nnx=2\nny=2\n0 0\n0 0\n")
    with pytest.raises(FormatError):
        read_indicator(bad_magic)
    short = tmp_path / "b.ind"
    short.write_text("#bhind v1\nxmin=0\nxmax=1\nymin=0\nymax=1\nnx=2\nny=3\n0 0\n0 0\n")
    with pytest.raises(FormatError):
        read_indicator(short)
    ragged = tmp_path / "c.ind"
    ragged.write_text("#bhind v1\nxmin=0\nxmax=1\nymin=0\nymax=1\nnx=2\nny=2\nmeta.a=b\n0 0\n0\n")
    with pytest.raises(FormatError, match="row 1 has 1 values, expected 2"):
        read_indicator(ragged)
    for value, needle in (("nan", "non-finite"), ("inf", "non-finite"), ("-1e-3", "nonnegative")):
        bad_value = tmp_path / "d.ind"
        bad_value.write_text(f"#bhind v1\nxmin=0\nxmax=1\nymin=0\nymax=1\nnx=2\nny=2\n"
                             f"0 0\n{value} 0\n")
        with pytest.raises(FormatError, match=f"d.ind: .*{needle}"):
            read_indicator(bad_value)


def test_heatmap_pinned_two_by_two(tmp_path):
    """Documented mapping: values [0, 1; 0.5, 0.25] -> {0, 65535, 32768, 16384}."""
    grid = SamplingGrid(0.0, 1.0, 0.0, 1.0, 2, 2)
    indicator = IndicatorMap(grid=grid, values=np.array([0.0, 1.0, 0.5, 0.25]), meta={})
    path = tmp_path / "map.pgm"
    write_heatmap(path, indicator)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["P2", "2 2", "65535"]
    # top row is y = ymax, i.e. values (0.5, 0.25); bottom row is (0, 1)
    assert lines[3].split() == ["32768", "16384"]
    assert lines[4].split() == ["0", "65535"]


def test_heatmap_constant_map_all_zero(tmp_path):
    grid = SamplingGrid(0.0, 1.0, 0.0, 1.0, 3, 2)
    indicator = IndicatorMap(grid=grid, values=np.full(6, 0.7), meta={})
    path = tmp_path / "const.pgm"
    write_heatmap(path, indicator)
    pixels = " ".join(path.read_text().splitlines()[3:]).split()
    assert set(pixels) == {"0"}


def test_mask_round_trip(tmp_path):
    grid = SamplingGrid(0.0, 1.0, 0.0, 1.0, 3, 3)
    indicator = IndicatorMap(grid=grid, values=np.linspace(0, 1, 9), meta={"method": "lsm"})
    mask = indicator.values > 0.5
    path = tmp_path / "m.mask"
    write_mask(path, indicator, mask)
    back = read_indicator(path)
    assert back.meta["content"] == "mask"
    assert np.array_equal(back.values.astype(bool), mask)


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[0, 9, 10, 99, 100, 65535]]),
        np.array([[0], [9], [10], [99], [100], [65535]]),
        np.zeros((3, 4), int),
        np.random.default_rng(9).integers(0, 65536, (512, 512)),
    ],
    ids=["one-row", "one-column", "all-zero", "random-512"],
)
def test_integer_table_bytes_match_savetxt(tmp_path, rows):
    header = ["P2", f"{rows.shape[1]} {rows.shape[0]}", "65535"]
    _write(tmp_path / "fast.pgm", header, rows.astype(np.uint16))
    np.savetxt(tmp_path / "ref.pgm", rows, fmt="%d", header="\n".join(header), comments="",
               encoding="utf-8")
    assert (tmp_path / "fast.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()


def _bit_patterns(shape, seed=12):
    """Uniformly random int64 bit patterns read as doubles: every finite
    exponent and both signs; the rare inf/nan pattern is replaced by 1."""
    bits = np.random.default_rng(seed).integers(-2**63, 2**63 - 1, shape, dtype=np.int64)
    values = bits.view(np.float64)
    return np.where(np.isfinite(values), values, 1.0)


def _near_ties(count=200_000, seed=13):
    """Random doubles whose 17-digit scaled value y = |v| * 10**(16 - X) lies
    within 1/64 of a rounding tie, where the long-double error is largest
    relative to the distance from the tie."""
    values = np.abs(_bit_patterns(count, seed))
    exponent = np.floor(np.log10(values))
    y = values.astype(np.longdouble) * np.power(np.longdouble(10), 16 - exponent)
    return values[None, np.abs(y - np.floor(y) - 0.5) < 1 / 64]


def _neighbours(values):
    values = np.asarray(values, float)
    return np.stack([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


FLOAT_TABLES = {
    "random-bits": _bit_patterns((300, 200)),
    "zeros-subnormals-extremes": np.array([
        [0.0, -0.0, 5e-324, -5e-324, 1e-320, 4.9406564584124654e-322],
        [2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310, -3.3e-315,
         1.7976931348623157e308, -1.7976931348623157e308],
    ]),
    "near-ties": _near_ties(),
    "powers-of-ten": _neighbours([float(f"1e{k}") for k in range(-307, 309)]),
    "format-switch": np.vstack([_neighbours([1e-5, 1e-4, 1e16, 1e17]),
                                -_neighbours([1e-5, 1e-4, 1e16, 1e17])]),
    "dyadic-ties": np.arange(1, 64, 2)[:, None] * 2.0 ** -np.arange(1, 80)[None, :],
    "integers": np.arange(-500.0, 500.0).reshape(20, 50),
    "one-by-one": np.array([[0.1]]),
    "one-row": np.random.default_rng(3).random((1, 50)),
    "one-column": np.random.default_rng(4).standard_normal((50, 1)),
    "row-wider-than-a-block": np.random.default_rng(5).lognormal(0.0, 20.0,
                                                                 (2, 2 * fileio._BLOCK + 3)),
}


def _assert_bytes_match_percent_17g(tmp_path, rows):
    header = ["#table", "n=1"]
    _write(tmp_path / "fast.txt", header, rows)
    np.savetxt(tmp_path / "ref.txt", rows, fmt="%.17g", header="\n".join(header), comments="",
               encoding="utf-8")
    assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


@pytest.mark.parametrize("name", FLOAT_TABLES)
def test_float_table_bytes_match_percent_17g(tmp_path, name):
    _assert_bytes_match_percent_17g(tmp_path, FLOAT_TABLES[name])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["random-bits", "zeros-subnormals-extremes", "near-ties",
                                  "powers-of-ten", "dyadic-ties"])
def test_float_table_fallback_only_matches(tmp_path, monkeypatch, name):
    # What a platform whose long double is plain double computes: powers of
    # ten rounded to double (inf above 1e308) and a tolerance above 1/2, so
    # every value takes the '%.16e' path.
    powers = np.array([float(f"1e{k}") for k in range(-292, 341)], dtype=np.longdouble)
    monkeypatch.setattr(fileio, "_POW10", powers)
    monkeypatch.setattr(fileio, "_LD_TOL", 2 * np.finfo(np.float64).eps)
    _assert_bytes_match_percent_17g(tmp_path, FLOAT_TABLES[name])


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_float_table_exponent_estimate_off_by_one(tmp_path, monkeypatch, shift):
    # A log10 one too low or too high puts y outside [1e16, 1e17): every value
    # must then take the '%.16e' path.
    monkeypatch.setattr(np, "log10", lambda values, log10=np.log10: log10(values) + shift)
    rows = np.vstack([FLOAT_TABLES["random-bits"][:3].ravel(),
                      FLOAT_TABLES["powers-of-ten"].ravel()[:600]])
    _assert_bytes_match_percent_17g(tmp_path, rows)


@pytest.mark.parametrize("entry,kappa", [(np.nan, 1.0), (np.inf, 1.0), (complex(0, -np.inf), 1.0),
                                         (0.5, 0.0), (0.5, -1.0), (0.5, np.nan), (0.5, np.inf)])
def test_write_farfield_refuses_what_read_farfield_rejects(tmp_path, entry, kappa):
    F = np.ones((2, 2), complex)
    F[1, 0] = entry
    path = tmp_path / "bad.ff"
    with pytest.raises(ValueError, match="not finite|kappa"):
        write_farfield(path, F, kappa)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(3, 4), (4,), (0, 0)])
def test_write_farfield_refuses_non_square_shapes(tmp_path, shape):
    """A non-square F was written and then rejected by the reader, a 1-d F
    raised IndexError and an empty one ZeroDivisionError; each is now a
    ValueError naming the shape, before the file is created."""
    path = tmp_path / "bad.ff"
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        write_farfield(path, np.ones(shape, complex), 1.0)
    assert not path.exists()


def test_mask_bytes_match_float_rendering(tmp_path):
    grid = SamplingGrid(-1.0, 1.0, 0.0, 2.0, 7, 5)
    indicator = IndicatorMap(grid=grid, values=np.random.default_rng(4).random(grid.size),
                             meta={"method": "lsm", "alpha": 1e-6})
    mask = indicator.values > 0.5
    write_mask(tmp_path / "m.mask", indicator, mask)
    # The float rendering: the mask as a 0.0/1.0 indicator map written with %.17g.
    as_map = IndicatorMap(grid=grid, values=mask.astype(float),
                          meta={**indicator.meta, "content": "mask"})
    write_indicator(tmp_path / "ref.mask", as_map)
    assert (tmp_path / "m.mask").read_bytes() == (tmp_path / "ref.mask").read_bytes()


def test_localization_file(tmp_path):
    result = LocalizationResult(
        center=np.array([-1.5, 1.5]),
        radius=0.5,
        history=((0, 4.0, np.array([0.0, 0.0])), (1, 2.0, np.array([-1.5, 1.5]))),
        low_confidence=False,
    )
    path = tmp_path / "r.loc"
    write_localization(path, result)
    text = path.read_text().splitlines()
    assert text[0] == "#bhloc v1"
    assert "center_x=-1.5" in text[1]
    assert text[4] == "low_confidence=0"
    assert text[5] == "levels=2"
    assert text[6].startswith("level.0=4 ")
