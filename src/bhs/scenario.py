"""Scenario files and deterministic end-to-end drivers.

A scenario is a UTF-8 text file of ``key=value`` lines ('#' starts a
comment, blank lines are skipped, a duplicated key keeps the last value
with a warning). Unknown keys, malformed or non-finite numbers and
out-of-range values (grid bounds compared after defaults are filled in)
raise :class:`ConfigError` naming the key and line.

Recognized keys (defaults in parentheses):

    mode            forward | lsm | esm | esm-multilevel      (required)
    shape           apple | peanut | peach | circle | ellipse
    center          two comma-separated floats (0,0)
    scale           similarity factor (1)
    kappa           wavenumber; required unless multi-frequency or reading
                    farfield_in, whose file sets it (giving both is an error)
    kappa_min, kappa_max, L   uniform multi-frequency grid (mode=esm only, and
                    kappa_min/kappa_max only with L > 1; L=1)
    N               direction count, >= 8 (32); even for forward and lsm, whose
                    manifests report the reciprocity residual; not with
                    farfield_in, whose file sets it
    n               boundary quadrature parameter, power of two (128); not
                    with farfield_in, which needs no quadrature
    delta           relative noise level (0); forward and lsm data only
    seed            noise seed (0)
    alpha           Tikhonov parameter (1e-6 for lsm, 1e-4 for esm modes)
    grid_xmin, grid_xmax, grid_ymin, grid_ymax, grid_nx, grid_ny
                    sampling region and resolution
                    (lsm: [-1.5, 1.5]^2 at 128 x 128; esm: [-3, 3]^2 at 200 x 200)
    zeta            mask cutoff on the normalized indicator (0.2)
    R               sampling-disk radius; mode=esm only, and required there
    R0              initial radius; mode=esm-multilevel only, and required there
    directions      comma-separated incident angles in radians (pi/3);
                    mode=esm-multilevel takes exactly one
    out             output path prefix (run)
    farfield_in     read far-field data from this file instead of synthesizing
                    (lsm, esm with L=1 and esm-multilevel; not with kappa, N,
                    n or delta)

Each key is one field of :class:`Scenario` that carries its default, its
parser, its bound and the one mode that reads it; a key of another mode is an
error unless it is at its default. A new key that needs no rule across keys is
one field line, plus its entries in this list and in the README.

All randomness flows from ``seed``; re-running an identical scenario
produces byte-identical outputs. Each run writes a ``<out>.manifest`` that
is itself a valid scenario reproducing the run, with diagnostics appended
as comments.
"""

from __future__ import annotations

import warnings
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import esm as esm_mod
from . import fileio, lsm
from .exceptions import ConfigError
from .forward import add_noise, far_field_columns, far_field_matrix, reciprocity_residual
from .geometry import CURVE_NAMES, make_named_curve
from .grids import SamplingGrid, antipodes, equiangular_angles

__all__ = ["Scenario", "parse_scenario", "load_scenario", "run"]

_GRID_KEYS = ("grid_xmin", "grid_xmax", "grid_ymin", "grid_ymax", "grid_nx", "grid_ny")
_GRID_DEFAULTS = {
    "lsm": (-1.5, 1.5, -1.5, 1.5, 128, 128),
    "esm": (-3.0, 3.0, -3.0, 3.0, 200, 200),
}
_ALPHA_DEFAULTS = {"lsm": lsm.DEFAULT_ALPHA, "esm": esm_mod.DEFAULT_ALPHA}


def _floats(value: str) -> tuple:
    return tuple(float(p) for p in value.split(","))


def _pair(value: str) -> tuple:
    parsed = _floats(value)
    if len(parsed) != 2:
        raise ValueError("expected two comma-separated numbers")
    return parsed


def _key(default, parse=float, rule=None, owner=None):
    """One scenario key: its default, its parser, a (test, message) bound on its value
    and the one mode that reads it (None: every mode)."""
    return field(default=default, metadata={"parse": parse, "rule": rule, "owner": owner})


_POSITIVE = (lambda v: v > 0, "must be > 0")
_GRID_SIZE = (lambda v: v >= 2, "must be >= 2")


@dataclass(frozen=True)
class Scenario:
    mode: str = _key(MISSING, str)
    shape: str | None = _key(None, str, (lambda v: v in CURVE_NAMES,
                                         f"must be one of {CURVE_NAMES}"))
    center: tuple = _key((0.0, 0.0), _pair)
    scale: float = _key(1.0, rule=_POSITIVE)
    kappa: float | None = _key(None, rule=_POSITIVE)
    kappa_min: float | None = _key(None, rule=_POSITIVE, owner="esm")
    kappa_max: float | None = _key(None, rule=_POSITIVE, owner="esm")
    L: int = _key(1, int, (lambda v: v >= 1, "must be >= 1"), owner="esm")
    N: int = _key(32, int)                  # its bound depends on the mode: see _validate
    n: int = _key(128, int, (lambda v: 8 <= v <= 1024 and v & (v - 1) == 0,
                             "must be a power of two in [8, 1024]"))
    delta: float = _key(0.0, rule=(lambda v: v >= 0, "must be >= 0"))
    seed: int = _key(0, int)
    alpha: float | None = _key(None, rule=_POSITIVE)
    grid_xmin: float | None = _key(None)
    grid_xmax: float | None = _key(None)
    grid_ymin: float | None = _key(None)
    grid_ymax: float | None = _key(None)
    grid_nx: int | None = _key(None, int, _GRID_SIZE)
    grid_ny: int | None = _key(None, int, _GRID_SIZE)
    zeta: float = _key(0.2, rule=_POSITIVE)
    R: float | None = _key(None, rule=_POSITIVE, owner="esm")
    R0: float | None = _key(None, rule=_POSITIVE, owner="esm-multilevel")
    directions: tuple = _key((np.pi / 3,), _floats)
    out: str = _key("run", str)
    farfield_in: str | None = _key(None, str)

    def effective_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return _ALPHA_DEFAULTS["lsm" if self.mode == "lsm" else "esm"]

    def _grid_values(self) -> dict:
        """The grid_* keys with the mode's defaults filled in."""
        defaults = _GRID_DEFAULTS["lsm" if self.mode == "lsm" else "esm"]
        return {key: default if getattr(self, key) is None else getattr(self, key)
                for key, default in zip(_GRID_KEYS, defaults)}

    def grid(self) -> SamplingGrid:
        return SamplingGrid(*self._grid_values().values())

    def wavenumbers(self) -> list:
        if self.L > 1:
            lo, hi = self.kappa_min, self.kappa_max
            return [lo + (ell - 1) * (hi - lo) / (self.L - 1) for ell in range(1, self.L + 1)]
        return [self.kappa]


_KEYS = {spec.name: spec for spec in fields(Scenario)}


def _fail(key: str, line_no: int, why: str):
    raise ConfigError(f"key '{key}' (line {line_no}): {why}")


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a validated Scenario."""
    raw: dict = {}
    lines_of: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key=value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}' (line {line_no})")
        if key in raw:
            warnings.warn(f"duplicate key '{key}' on line {line_no}; last value wins")
        try:
            parsed = _KEYS[key].metadata["parse"](value)
        except ValueError as exc:
            _fail(key, line_no, f"malformed value {value!r} ({exc})")
        if isinstance(parsed, (float, tuple)) and not np.all(np.isfinite(parsed)):
            _fail(key, line_no, f"must be finite, got {value!r}")
        raw[key] = parsed
        lines_of[key] = line_no

    scenario = Scenario(**{"mode": raw.pop("mode", None), **raw})
    _validate(scenario, lines_of)
    return scenario


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _validate(s: Scenario, lines_of: dict) -> None:
    def where(key: str) -> int:
        return lines_of.get(key, 0)

    if s.mode not in MODES:
        _fail("mode", where("mode"), f"must be one of {MODES}, got {s.mode!r}")
    # Each key's bound, then its owner: a key of another mode would be ignored yet recorded in
    # the manifest, unless it is at its default (every manifest writes L=1: only L > 1 is stray).
    for key, spec in _KEYS.items():
        value, rule, owner = getattr(s, key), spec.metadata["rule"], spec.metadata["owner"]
        if value is not None and rule is not None and not rule[0](value):
            _fail(key, where(key), rule[1])
        if owner not in (None, s.mode) and value != spec.default:
            _fail(key, where(key), f"applies to mode={owner} only")
    bounds = s._grid_values()
    for lo, hi in (("grid_xmin", "grid_xmax"), ("grid_ymin", "grid_ymax")):
        if not bounds[lo] < bounds[hi]:
            key = lo if lo in lines_of else hi
            _fail(key, where(key), f"needs {lo} < {hi}, got {bounds[lo]!r} and {bounds[hi]!r}")

    if s.farfield_in is None:
        if s.shape is None:
            _fail("shape", 0, f"required for mode={s.mode} without farfield_in")
    elif s.mode == "forward":
        _fail("farfield_in", where("farfield_in"), "mode=forward synthesizes its data")
    elif s.kappa is not None or "N" in lines_of:
        key = "N" if s.kappa is None else "kappa"
        _fail(key, where(key), f"the farfield_in file sets {key}; drop {key}")
    elif "n" in lines_of:
        _fail("n", where("n"), "the quadrature applies when synthesizing data; drop n")
    elif s.delta > 0:
        _fail("delta", where("delta"),
              "noise applies when synthesizing data; drop farfield_in or set delta=0")
    if s.mode in ("esm", "esm-multilevel") and s.delta > 0:
        _fail("delta", where("delta"), f"mode={s.mode} adds no noise to its data; set delta=0")
    # Reciprocity is the accuracy witness of forward and lsm runs, so -xhat must be on their grid.
    witnessed = s.mode in ("forward", "lsm")
    if s.N < 8 or (witnessed and antipodes(s.N) is None):
        _fail("N", where("N"), "must be even and >= 8" if witnessed else "must be >= 8")
    if s.mode == "esm":
        if s.R is None:
            _fail("R", 0, "required for mode=esm")
        if s.L > 1:
            if s.kappa_min is None or s.kappa_max is None:
                _fail("kappa_min", 0, "kappa_min and kappa_max required when L > 1")
            if s.kappa_max <= s.kappa_min:
                _fail("kappa_max", where("kappa_max"), "must exceed kappa_min")
            if s.farfield_in is not None:
                _fail("farfield_in", where("farfield_in"), "multi-frequency runs synthesize data")
        else:
            for key in ("kappa_min", "kappa_max"):
                if getattr(s, key) is not None:
                    _fail(key, where(key), "applies to multi-frequency runs (L > 1) only")
    elif s.mode == "esm-multilevel":
        if s.R0 is None:
            _fail("R0", 0, "required for mode=esm-multilevel")
        if len(s.directions) > 1:
            _fail("directions", where("directions"),
                  "mode=esm-multilevel uses one incident direction; give one angle")
    multi_frequency = s.mode == "esm" and s.L > 1
    if s.kappa is None and s.farfield_in is None and not multi_frequency:
        _fail("kappa", 0, f"required for mode={s.mode}")


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------
def _fmt(x) -> str:
    return fileio._fmt(x) if isinstance(x, float) else str(x)


def _manifest(path, scenario: Scenario, diagnostics: dict) -> None:
    """Write a manifest that is itself a valid scenario re-running the job."""
    lines = ["#bhman v1  (re-runnable scenario)"]
    for key in sorted(_KEYS):
        value = getattr(scenario, key)
        # A farfield_in run takes N from its file and synthesizes nothing, so it used neither.
        if value is None or (scenario.farfield_in is not None and key in ("N", "n")):
            continue
        if isinstance(value, tuple):
            value = ",".join(_fmt(v) for v in value)
        lines.append(f"{key}={_fmt(value)}")
    for key in sorted(diagnostics):
        lines.append(f"# {key}={_fmt(diagnostics[key])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _far_field_data(s: Scenario):
    """The (N, N) far-field array and its wavenumber: read from farfield_in, or
    synthesized with the configured noise."""
    if s.farfield_in is not None:
        return fileio.read_farfield(s.farfield_in)
    curve = make_named_curve(s.shape, s.center, s.scale)
    return add_noise(far_field_matrix(curve, s.kappa, s.N, n=s.n), s.delta, s.seed), s.kappa


def _esm_columns(s: Scenario):
    """Far-field columns (L, J, N) for the configured directions/wavenumbers."""
    kappas = s.wavenumbers()
    angles = np.asarray(s.directions, dtype=float)
    if s.farfield_in is not None:
        F, kappa = fileio.read_farfield(s.farfield_in)
        gap = (equiangular_angles(len(F))[:, None] - angles) % (2 * np.pi)   # (N, J), wraps at 2 pi
        on_grid = np.minimum(gap, 2 * np.pi - gap) < 1e-9
        missing = angles[~on_grid.any(axis=0)]
        if len(missing):
            raise ConfigError(f"direction {float(missing[0])!r} is not on the "
                              f"{len(F)}-point grid of {s.farfield_in}")
        return F[:, on_grid.argmax(axis=0)].T[None], [kappa]   # first grid match per angle
    curve = make_named_curve(s.shape, s.center, s.scale)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    columns = [far_field_columns(curve, k, s.N, dirs, n=s.n).T for k in kappas]
    return np.asarray(columns), kappas


def _run_forward(s: Scenario, prefix: str):
    F, kappa = _far_field_data(s)
    residual = reciprocity_residual(F)
    outputs = [f"{prefix}.ff"]
    fileio.write_farfield(outputs[0], F, kappa)
    return outputs, {"reciprocity_residual": residual}


def _run_lsm(s: Scenario, prefix: str):
    F, kappa = _far_field_data(s)
    residual = reciprocity_residual(F)
    meta = {"delta": s.delta, "seed": s.seed, "shape": s.shape or "file"}
    indicator = lsm.lsm_indicator(F, kappa, s.grid(), s.effective_alpha(), meta=meta)
    mask = lsm.classify(indicator, s.zeta)
    outputs = [f"{prefix}.ind", f"{prefix}.mask", f"{prefix}.pgm"]
    fileio.write_indicator(outputs[0], indicator)
    fileio.write_mask(outputs[1], indicator, mask)
    fileio.write_heatmap(outputs[2], indicator)
    return outputs, {"reciprocity_residual": residual, "mask_points": int(mask.sum())}


def _run_esm(s: Scenario, prefix: str):
    columns, kappas = _esm_columns(s)
    meta = {"delta": s.delta, "seed": s.seed, "shape": s.shape or "file"}
    indicator = esm_mod.esm_indicator(columns, kappas, s.grid(), s.R, s.effective_alpha(), meta)
    z = indicator.argmin_point()
    outputs = [f"{prefix}.ind", f"{prefix}.pgm", f"{prefix}.loc"]
    fileio.write_indicator(outputs[0], indicator)
    fileio.write_heatmap(outputs[1], indicator)
    result = esm_mod.LocalizationResult(center=z, radius=s.R, history=((0, s.R, z),))
    fileio.write_localization(outputs[2], result)
    return outputs, {"estimate_x": float(z[0]), "estimate_y": float(z[1])}


def _run_esm_multilevel(s: Scenario, prefix: str):
    columns, kappas = _esm_columns(s)                 # (1, 1, N): one direction, one kappa
    grid = s.grid()
    region = (grid.xmin, grid.xmax, grid.ymin, grid.ymax)
    result = esm_mod.multilevel_esm(columns[0, 0], kappas[0], s.R0, region, s.effective_alpha())
    outputs = [f"{prefix}.loc"]
    fileio.write_localization(outputs[0], result)
    return outputs, {
        "estimate_x": float(result.center[0]),
        "estimate_y": float(result.center[1]),
        "final_radius": result.radius,
        "levels": len(result.history),
        "low_confidence": int(result.low_confidence),
    }


_DRIVERS = {
    "forward": _run_forward,
    "lsm": _run_lsm,
    "esm": _run_esm,
    "esm-multilevel": _run_esm_multilevel,
}
MODES = tuple(_DRIVERS)


def run(scenario: Scenario, out: str | None = None):
    """Execute a scenario; returns (output paths, diagnostics dict).

    The manifest is always written last, as ``<out>.manifest``.
    """
    if out is not None:
        scenario = replace(scenario, out=out)
    prefix = scenario.out
    parent = Path(prefix).parent
    if parent != Path(""):
        parent.mkdir(parents=True, exist_ok=True)
    outputs, diagnostics = _DRIVERS[scenario.mode](scenario, prefix)
    manifest = f"{prefix}.manifest"
    _manifest(manifest, scenario, diagnostics)
    outputs.append(manifest)
    return outputs, diagnostics
