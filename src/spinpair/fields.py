"""Scalar driving profiles: the field frequency omega(t) and its analytic rate.

The field enters the dynamics only through omega(t), expressed in the same
frequency units as the hyperfine constants.  Every profile kind returns both
the value and its analytic time derivative, because the frame machinery needs
the rate exactly, not through finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import OutOfRange

OMEGA_SINGULAR = 1e-12


class FieldProfile:
    """Base interface: ``evaluate(t) -> (omega, omega_dot)``."""

    knots = np.empty(0)  # interior times where the rate has a kink

    def _values(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def evaluate(self, t):
        """Value and rate at time(s) ``t``; scalars in, scalars out."""
        arr = np.asarray(t, dtype=float)
        w, wdot = self._values(np.atleast_1d(arr).astype(float))
        if arr.ndim == 0:
            return float(w[0]), float(wdot[0])
        return w.reshape(arr.shape), wdot.reshape(arr.shape)


@dataclass(frozen=True)
class Constant(FieldProfile):
    """Fixed field, omega(t) = omega0."""

    omega0: float

    def _values(self, t):
        return np.full(t.shape, float(self.omega0)), np.zeros(t.shape)


@dataclass(frozen=True)
class LinearRamp(FieldProfile):
    """omega(t) = omega_start + rate * t."""

    omega_start: float
    rate: float

    def _values(self, t):
        return self.omega_start + self.rate * t, np.full(t.shape, float(self.rate))


@dataclass(frozen=True)
class TanhRamp(FieldProfile):
    """Smooth sweep omega(t) = omega_mid + amplitude * tanh(t / tau).

    The midpoint sits at t = 0; grids may start at negative times to cover
    the approach.
    """

    omega_mid: float
    amplitude: float
    tau: float

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("tanh ramp timescale tau must be positive")
        if not math.isfinite(self.amplitude / self.tau):
            raise ValueError("tanh ramp peak rate amplitude / tau overflows")

    def _values(self, t):
        with np.errstate(over="ignore"):  # x = +-inf gives the exact limits below
            x = t / self.tau
        # sech(x) assembled from decaying exponentials so large |x| cannot overflow
        e = np.exp(-np.abs(x))
        sech = 2.0 * e / (1.0 + e * e)
        return (
            self.omega_mid + self.amplitude * np.tanh(x),
            (self.amplitude / self.tau) * sech * sech,
        )


@dataclass(frozen=True)
class Harmonic(FieldProfile):
    """omega(t) = omega0 + amplitude * cos(angular_frequency * t + phase)."""

    omega0: float
    amplitude: float
    angular_frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if self.angular_frequency < 0.0:
            raise ValueError("harmonic angular frequency must be non-negative")

    def _values(self, t):
        arg = self.angular_frequency * t + self.phase
        return (
            self.omega0 + self.amplitude * np.cos(arg),
            -self.amplitude * self.angular_frequency * np.sin(arg),
        )


def _pchip_end_slope(h0, h1, m0, m1):
    """Three-point end slope with Moler's shape-preserving clamps."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True, eq=False)
class Tabulated(FieldProfile):
    """Sampled profile interpolated by a monotone (shape-preserving) cubic.

    The piecewise-cubic Hermite interpolant of Fritsch & Carlson (SIAM J.
    Numer. Anal. 17:238, 1980): interior slopes are the Fritsch & Butland
    weighted harmonic mean of the neighbouring secants (SIAM J. Sci. Stat.
    Comput. 5:300, 1984), zero where the secants change sign or one is zero,
    and end slopes follow Moler's three-point rule (*Numerical Computing with
    MATLAB*, 2004, ``pchip``).  The interpolant is C1, so the derivative used
    by the gauge term is continuous; on each interval it stays between the two
    samples that bound it.  Queries outside the sample range raise
    :class:`OutOfRange`.
    """

    times: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        omegas = np.asarray(self.omegas, dtype=float)
        if times.ndim != 1 or omegas.ndim != 1 or times.size != omegas.size:
            raise ValueError("tabulated profile needs matching 1-d time/omega arrays")
        if times.size < 2:
            raise ValueError("tabulated profile needs at least two samples")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(omegas))):
            raise ValueError("tabulated samples must be finite")
        if not np.all(times[1:] > times[:-1]):  # a difference could overflow
            raise ValueError("tabulated sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "knots", times[1:-1])
        with np.errstate(all="ignore"):  # flat means are discarded, overflows rejected
            h = np.diff(times)
            m = np.diff(omegas) / h
            slopes = np.full(times.size, m[0])  # two samples: a straight line
            if times.size > 2:
                w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
                flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
                mean = (w1 + w2) / (w1 / m[:-1] + w2 / m[1:])
                slopes[1:-1] = np.where(flat, 0.0, mean)
                slopes[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
                slopes[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
            # per interval: the cubic in the local power basis, highest power
            # first, then the interval's left sample time
            curve = (slopes[:-1] + slopes[1:] - 2.0 * m) / h
            table = np.stack([curve / h, (m - slopes[:-1]) / h - curve, slopes[:-1],
                              omegas[:-1], times[:-1]])
        if not np.all(np.isfinite(table)):
            raise ValueError("tabulated samples give a coefficient that is not finite")
        object.__setattr__(self, "_table", table)

    def _values(self, t):
        if np.any(t < self.times[0]) or np.any(t > self.times[-1]):
            raise OutOfRange(
                f"query outside tabulated range [{self.times[0]}, {self.times[-1]}]"
            )
        # a knot belongs to the interval on its right, the last sample to the last
        cell = np.searchsorted(self.knots, t, side="right")
        c3, c2, c1, c0, start = np.take(self._table, cell, axis=1)
        s = t - start
        return ((c3 * s + c2) * s + c1) * s + c0, (3.0 * c3 * s + 2.0 * c2) * s + c1

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        """Load two columns (t, omega); header optional, comma or whitespace split."""
        times: list[float] = []
        omegas: list[float] = []
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            try:
                values = [float(p) for p in parts]
            except ValueError:
                if not times:
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: non-numeric data row {line!r}")
            if len(values) < 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            times.append(values[0])
            omegas.append(values[1])
        return cls(np.asarray(times), np.asarray(omegas))


def adiabaticity_profile(w, wdot) -> np.ndarray:
    """Rate-of-change metric omega_dot / omega**2 (dimensionless) from the
    field ``w`` and its rate ``wdot``.

    The metric diverges where omega vanishes, although the dynamics stay
    perfectly regular there; those entries are +inf rather than clamped.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    wdot = np.atleast_1d(np.asarray(wdot, dtype=float))
    out = np.full(w.shape, np.inf)
    ok = np.abs(w) >= OMEGA_SINGULAR
    with np.errstate(over="ignore"):  # a ratio beyond the largest float is inf
        out[ok] = wdot[ok] / w[ok] ** 2
    return out
