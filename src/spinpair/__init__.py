"""Quantum dynamics of two spins coupled by an axially symmetric hyperfine
interaction in a time-dependent magnetic field.

The package provides the instantaneous Hamiltonian and its closed-form
spectrum for a field along or across the symmetry axis, the rotating
eigenbasis frame (mixing angles, gauge term), block-wise propagators built
from accumulated phases plus a first-order time-ordered-exponential
correction, and a brute-force reference integrator to validate them.
"""

__version__ = "0.1.0"

from .analysis import (
    ComparisonReport,
    compare_solutions,
    lz_asymptotic,
)
from .errors import (
    ComputeError,
    ConfigError,
    DegenerateGap,
    IoError,
    NonHermitianInput,
    NonNormalizedInput,
    OutOfRange,
    QuadratureFailure,
    SpinPairError,
    ToleranceNotMet,
    UnsupportedOrientation,
    ZeroRate,
)
from .fields import (
    Constant,
    FieldProfile,
    Harmonic,
    LinearRamp,
    Tabulated,
    TanhRamp,
)
from .frames import (
    AdiabaticAngles,
    FrameSnapshot,
    effective_hamiltonian,
    frame_unitary,
    gauge_term,
    initial_adiabatic_states,
    mixing_angles,
)
from .hamiltonian import SystemParams, closed_eigenvalues
from .linalg import expm_unitary, fidelity
from .propagators import (
    Frame,
    TimeGrid,
    Trajectory,
    full_propagator_paths,
    reference_propagate,
)
from .scenario import ScenarioConfig, load_config, parse_config, run_scenario
