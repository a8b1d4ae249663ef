"""Scenario generators for the three benchmark workloads.

Every workload is a *pass*: a fixed list of requests built from the workload
seed.  The properties the code's cost depends on (orientation, profile kind,
tolerance, grid size, knot/cell alignment) are laid out as a stratified design
inside one pass, so every seed issues the same mix of work; the seed draws the
values inside each stratum (cell counts, physical constants, profile shapes,
sampled field values, initial states) and the order of the pass.  A run issues
whole passes, so fractions such as the share of failed requests are a property
of the design and repeat exactly for a seed.

A ``Request`` carries the subcommand, the JSON document handed to the
program, and the scenario documents the correctness oracle solves (one per
sweep point for ``sweep``, since the sweep report only carries each point's
survival probability).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep_compare", "tabulated_compare", "oblique_long")


@dataclass(frozen=True)
class Request:
    subcommand: str
    config: dict
    points: tuple  # scenario documents whose final state the oracle checks


def _system(rng: random.Random, orientation) -> dict:
    return {
        "a_par": round(rng.uniform(0.8, 1.2), 6),
        "a_perp": round(rng.uniform(0.3, 0.6), 6),
        "zeta": round(rng.uniform(0.0, 0.2), 6),
        "orientation": orientation,
    }


def _stratified_ints(rng: random.Random, lo: int, hi: int, n: int) -> list:
    """``n`` integers in ``[lo, hi]``, one drawn inside each of ``n`` equal
    strata, returned in stratum order."""
    width = (hi - lo + 1) / n
    return [lo + int((k + rng.random()) * width) for k in range(n)]


# --- sweep_compare ----------------------------------------------------------

_SWEEP_KINDS = ("tanh", "harmonic", "linear")
_SWEEP_ORIENTATIONS = ("parallel", "perpendicular")
# Two requests at 1e-9 for each at 1e-10: a 1e-10 request costs two to three
# times as much, and with an even split the median would fall in the gap
# between the two cost clusters, where it jumps from seed to seed.
_SWEEP_TOLS = ((1e-9, 4), (1e-10, 2))  # (tolerance, requests per kind/orientation)


def _analytic_profile(rng: random.Random, kind: str):
    """A gentle drive of the given kind and the grid it spans (at rate 1).

    Amplitudes are small enough that the certified reference needs four to
    six halvings at the sweep tolerances, which keeps one request well under
    a second; the rate sweep rescales time, not the number of halvings.
    """
    if kind == "tanh":
        tau = rng.uniform(4.0, 8.0)
        profile = {"kind": "tanh", "omega_mid": round(rng.uniform(2.5, 3.5), 6),
                   "amplitude": round(rng.uniform(0.03, 0.06), 6), "tau": round(tau, 6)}
        grid = {"t_start": round(-2.0 * tau, 6), "t_end": round(4.0 * tau, 6)}
    elif kind == "harmonic":
        freq = rng.uniform(0.2, 0.4)
        profile = {"kind": "harmonic", "omega0": round(rng.uniform(3.0, 4.0), 6),
                   "amplitude": round(rng.uniform(0.02, 0.04), 6),
                   "angular_frequency": round(freq, 6),
                   "phase": round(rng.uniform(0.0, 2.0 * math.pi), 6)}
        grid = {"t_start": 0.0, "t_end": round(2.0 * math.pi / freq, 6)}
    else:
        duration = rng.uniform(10.0, 20.0)
        profile = {"kind": "linear", "omega_start": round(rng.uniform(2.0, 2.5), 6),
                   "rate": round(rng.uniform(0.6, 0.9) / duration, 6)}
        grid = {"t_start": 0.0, "t_end": round(duration, 6)}
    return profile, grid


def _rate_point(config: dict, s: float) -> dict:
    """The scenario one ``rate`` sweep point runs: the drive sped up by ``s``
    and the time axis compressed by ``1/s`` at a fixed cell count."""
    profile = dict(config["profile"])
    if profile["kind"] == "tanh":
        profile["tau"] = profile["tau"] / s
    elif profile["kind"] == "harmonic":
        profile["angular_frequency"] = profile["angular_frequency"] * s
    else:
        profile["rate"] = profile["rate"] * s
    grid = dict(config["grid"])
    grid["t_start"] = grid["t_start"] / s
    grid["t_end"] = grid["t_end"] / s
    point = {k: v for k, v in config.items() if k != "sweep"}
    point["profile"] = profile
    point["grid"] = grid
    return point


def sweep_compare(seed: int) -> list:
    rng = random.Random(f"sweep_compare/{seed}")
    requests = []
    for kind in _SWEEP_KINDS:
        for orientation in _SWEEP_ORIENTATIONS:
            for tol, count in _SWEEP_TOLS:
                for n_steps in _stratified_ints(rng, 150, 350, count):
                    profile, grid = _analytic_profile(rng, kind)
                    grid["n_steps"] = n_steps
                    top = rng.uniform(1.0, 1.5)
                    config = {
                        "system": _system(rng, orientation),
                        "profile": profile,
                        "grid": grid,
                        "initial_state": f"phi{rng.randint(1, 4)}",
                        "outputs": ["comparison"],
                        "integrator": {"tol_per_time": tol},
                        "sweep": {"parameter": "rate",
                                  "values": [round(top, 6), round(top / 2, 6),
                                             round(top / 4, 6)]},
                        "seed": seed,
                    }
                    points = tuple(_rate_point(config, v)
                                   for v in config["sweep"]["values"])
                    requests.append(Request("sweep", config, points))
    rng.shuffle(requests)
    return requests


# --- tabulated_compare ------------------------------------------------------

# Knot counts and cell counts form a full factorial, each pair once per pass:
# where the knots fall inside the cells follows from the two counts alone, so
# the share of grids the quadrature can refine to convergence is a property
# of the design, not of the seed, and no pairing is chosen to avoid a failure.
_KNOT_INTERVALS = tuple(range(3, 9))
_TAB_CELLS = tuple(range(12, 36))
_TAB_TOL = 1e-6


def _sampled_field(rng: random.Random, times: list) -> list:
    """A random drive sampled at ``times``: offset, two modes and per-sample
    noise, so each interior knot is a genuine kink in the interpolated rate."""
    span = times[-1] - times[0]
    base = rng.uniform(2.5, 3.5)
    modes = [(rng.uniform(0.3, 0.8), rng.uniform(0.5, 2.0) * 2.0 * math.pi / span,
              rng.uniform(0.0, 2.0 * math.pi)) for _ in range(2)]
    return [round(base + rng.uniform(-0.3, 0.3)
                  + sum(a * math.sin(f * (t - times[0]) + p) for a, f, p in modes), 9)
            for t in times]


def tabulated_compare(seed: int) -> list:
    rng = random.Random(f"tabulated_compare/{seed}")
    requests = []
    for intervals in _KNOT_INTERVALS:
        for n_steps in _TAB_CELLS:
            duration = rng.uniform(8.0, 16.0)
            times = [round(duration * k / intervals, 12) for k in range(intervals + 1)]
            times[-1] = round(duration, 12)
            orientation = rng.choice(_SWEEP_ORIENTATIONS)
            config = {
                "system": _system(rng, orientation),
                "profile": {"kind": "tabulated", "times": times,
                            "omegas": _sampled_field(rng, times)},
                "grid": {"t_start": 0.0, "t_end": times[-1], "n_steps": n_steps},
                "initial_state": f"phi{rng.randint(1, 4)}",
                "outputs": ["trajectory", "comparison"],
                "integrator": {"tol_per_time": _TAB_TOL},
                "seed": seed,
            }
            requests.append(Request("compare", config, (config,)))
    rng.shuffle(requests)
    return requests


# --- oblique_long -----------------------------------------------------------

_OBLIQUE_TOLS = (1e-7, 1e-8)
_OBLIQUE_PER_TOL = 12


def oblique_long(seed: int) -> list:
    rng = random.Random(f"oblique_long/{seed}")
    requests = []
    for tol in _OBLIQUE_TOLS:
        kinds = [_SWEEP_KINDS[k % 3] for k in range(_OBLIQUE_PER_TOL)]
        for kind, n_steps in zip(kinds, _stratified_ints(rng, 3000, 6000,
                                                         _OBLIQUE_PER_TOL)):
            profile, grid = _analytic_profile(rng, kind)
            grid["n_steps"] = n_steps
            theta = rng.uniform(0.2, 1.4)
            config = {
                "system": _system(rng, round(theta, 9)),
                "profile": profile,
                "grid": grid,
                "initial_state": f"chi{rng.randint(1, 4)}",
                "outputs": ["trajectory", "propagator"],
                "integrator": {"tol_per_time": tol},
                "seed": seed,
            }
            requests.append(Request("propagate", config, (config,)))
    rng.shuffle(requests)
    return requests


def build(workload: str, seed: int) -> list:
    """The request pass of ``workload`` for ``seed``."""
    return {"sweep_compare": sweep_compare,
            "tabulated_compare": tabulated_compare,
            "oblique_long": oblique_long}[workload](seed)
