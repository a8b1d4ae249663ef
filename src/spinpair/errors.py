"""Exception types shared across the package."""


class SpinPairError(Exception):
    """Base class for every error raised by this package."""


class NonHermitianInput(SpinPairError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NonNormalizedInput(SpinPairError):
    """A state vector deviates from unit norm beyond tolerance."""


class OutOfRange(SpinPairError):
    """A tabulated profile was queried outside its sample range."""


class UnsupportedOrientation(SpinPairError):
    """Closed-form machinery requested for a field orientation it does not cover."""


class DegenerateGap(SpinPairError):
    """The central two-level sub-block has no gap for these parameters."""


class ToleranceNotMet(SpinPairError):
    """Step halving exhausted its budget before reaching the accuracy target."""


class QuadratureFailure(SpinPairError):
    """A quadrature did not stabilize within its refinement budget."""


class ZeroRate(SpinPairError):
    """The sweep-rate oracle was called with a zero ramp rate."""


class ConfigError(SpinPairError):
    """A scenario configuration failed schema validation."""


class ComputeError(SpinPairError):
    """A computation produced an internally inconsistent result."""


class IoError(SpinPairError):
    """Reading inputs or writing outputs failed."""
