"""Exception types shared across the package."""


class BhsError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BhsError):
    """Invalid scenario configuration (unknown key, malformed or out-of-range value)."""


class GeometryError(BhsError):
    """Degenerate boundary curve (non-regular parametrization, wrong orientation)."""


class IllConditionedSystemError(BhsError):
    """Boundary-integral system cannot be solved reliably.

    Raised when it is numerically singular (likely a spurious resonance) or
    when its kernel arguments leave the range of ``bhs.special``.
    """


class NearBoundaryError(BhsError):
    """Field evaluation requested too close to the boundary for plain quadrature."""


class DataError(BhsError):
    """Measured data violates a method hypothesis (e.g. identically zero far field)."""


class FormatError(BhsError):
    """Malformed data file (bad magic, version, or dimensions)."""


class OracleError(BhsError):
    """Analytic reference solution could not be evaluated."""
