"""Scenario configs, execution, and machine-readable exports.

A scenario is a single JSON document; the command line only selects the
config path, output directory, format, and verbosity, so a run is fully
reproducible from the file alone.  Schema validation is strict: unknown keys
are rejected and no physics parameter has a silent default.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    BLOCK_CENTRAL,
    BLOCK_CORNER,
    compare_solutions,
    lz_asymptotic,
    populations,
)
from .errors import ConfigError, IoError
from .fields import (
    Constant,
    FieldProfile,
    Harmonic,
    LinearRamp,
    Tabulated,
    TanhRamp,
    adiabaticity_profile,
)
from .frames import AdiabaticAngles, block_splitting_and_rate, gauge_term, mixing_angle_arrays
from .hamiltonian import (
    BLOCK_SLOTS,
    THETA_PERPENDICULAR,
    SystemParams,
    closed_eigenvalues,
    hamiltonian_batch,
)
from .linalg import STATE_NORM_TOL, dagger, hermiticity_defect, unitarity_defect
from .propagators import (
    DEFAULT_MAX_HALVINGS,
    DEFAULT_TOL_PER_TIME,
    Frame,
    TimeGrid,
    check_budget,
    fixed_step_propagators,
    frame_rotations,
    reference_propagate,
)

_TOP_KEYS = {"system", "profile", "grid", "initial_state", "outputs",
             "integrator", "seed", "sweep"}
_SYSTEM_KEYS = {"a_par", "a_perp", "zeta", "orientation"}
_GRID_KEYS = {"t_start", "t_end", "n_steps"}
_INTEGRATOR_KEYS = {"tol_per_time", "max_halvings"}
_SWEEP_KEYS = {"parameter", "values"}
_OUTPUT_KINDS = ("trajectory", "comparison", "propagator")
_CSV_BLOCK = 1 << 12  # values the CSV writer formats at once
# the decimal exponents X = floor(log10 |v|) of the finite doubles, and the
# powers 10^k, k = 16 - X, that scale them to 17 digits
_CSV_EXPONENTS, _CSV_POWERS = (-324, 309), (-292, 341)
# summary entries a sweep tabulates per point, those a point has
_SWEEP_COLUMNS = ("survival_probability", "max_eta", "final_infidelity_zeroth",
                  "final_infidelity_first", "final_beta_sq_central", "lz_prediction")
ADIABATIC_WARNING_THRESHOLD = 0.1  # max |eta| above which a run is flagged
# a profile's config keys are its class's fields (a tabulated one may name a
# csv file instead); a field with a default is an optional key
_PROFILES = {"constant": Constant, "linear": LinearRamp, "tanh": TanhRamp,
             "harmonic": Harmonic, "tabulated": Tabulated}


@dataclass(frozen=True)
class ScenarioConfig:
    params: SystemParams
    grid: TimeGrid
    initial_label: str
    initial_state: np.ndarray
    initial_frame: Frame
    outputs: tuple
    tol_per_time: float
    max_halvings: int
    seed: int
    sweep: dict | None
    raw: dict


def _is_finite(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def _require_number(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    if not _is_finite(mapping[key]):
        raise ConfigError(f"{context}: {key} must be a finite number")
    return float(mapping[key])


def _reject_unknown(mapping, allowed, context):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _profile_keys(cls) -> set:
    keys = {f.name for f in fields(cls)}
    return keys | {"csv"} if cls is Tabulated else keys


def _parse_profile(spec, base_dir: Path) -> FieldProfile:
    _reject_unknown(spec, {"kind"}.union(*map(_profile_keys, _PROFILES.values())),
                    "profile")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _PROFILES:
        raise ConfigError(
            f"profile: kind must be one of {sorted(_PROFILES)}, got {kind!r}"
        )
    cls = _PROFILES[kind]
    _reject_unknown(spec, _profile_keys(cls) | {"kind"}, f"profile({kind})")
    try:
        if cls is not Tabulated:
            return cls(*(_require_number(spec, f.name, "profile") for f in fields(cls)
                         if f.name in spec or f.default is MISSING))
        if "csv" in spec:
            if "times" in spec or "omegas" in spec:
                raise ConfigError("profile(tabulated): give csv or inline samples, not both")
            path = Path(spec["csv"])
            if not path.is_absolute():
                path = base_dir / path
            try:
                return Tabulated.from_csv(path)
            except OSError as exc:
                raise IoError(f"cannot read tabulated profile: {exc}") from exc
        if "times" not in spec or "omegas" not in spec:
            raise ConfigError("profile(tabulated): needs csv or times+omegas")
        return Tabulated(np.asarray(spec["times"], dtype=float),
                         np.asarray(spec["omegas"], dtype=float))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"profile: {exc}") from exc


def _parse_initial(value, orientation_is_literal: bool):
    basis = np.eye(4, dtype=complex)
    if isinstance(value, str):
        label = value.lower()
        if label in {"chi1", "chi2", "chi3", "chi4"}:
            return label, basis[int(label[-1]) - 1], Frame.LAB
        if label in {"phi1", "phi2", "phi3", "phi4"}:
            if not orientation_is_literal:
                raise ConfigError(
                    "initial_state: frame-basis states need orientation "
                    "'parallel' or 'perpendicular' (numeric angles are for "
                    "lab-frame oracle runs only)"
                )
            return label, basis[int(label[-1]) - 1], Frame.ADIABATIC
        raise ConfigError(f"initial_state: unknown label {value!r}")
    if isinstance(value, list):
        if len(value) != 4 or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_finite, p)) for p in value
        ):
            raise ConfigError("initial_state: custom state needs four [re, im] number pairs")
        amps = np.array([complex(p[0], p[1]) for p in value])
        deviation = abs(np.linalg.norm(amps) - 1.0)
        if not deviation <= STATE_NORM_TOL:
            raise ConfigError(
                f"initial_state: custom amplitudes off unit norm by {deviation:.3e}"
            )
        return "custom", amps, Frame.LAB
    raise ConfigError("initial_state: expected a label or four [re, im] pairs")


def parse_config(raw: dict, base_dir: Path | None = None) -> ScenarioConfig:
    """Validate a parsed JSON document and build the scenario objects."""
    base_dir = base_dir or Path.cwd()
    _reject_unknown(raw, _TOP_KEYS, "config")
    for key in ("system", "profile", "grid", "initial_state", "outputs"):
        if key not in raw:
            raise ConfigError(f"config: missing required section {key!r}")

    system = raw["system"]
    _reject_unknown(system, _SYSTEM_KEYS, "system")
    a_par = _require_number(system, "a_par", "system")
    a_perp = _require_number(system, "a_perp", "system")
    zeta = _require_number(system, "zeta", "system")
    if "orientation" not in system:
        raise ConfigError("system: missing required key 'orientation'")
    orientation = system["orientation"]
    orientation_is_literal = orientation in ("parallel", "perpendicular")
    if orientation == "parallel":
        theta = 0.0
    elif orientation == "perpendicular":
        theta = THETA_PERPENDICULAR
    elif _is_finite(orientation):
        theta = float(orientation)
    else:
        raise ConfigError(
            "system: orientation must be 'parallel', 'perpendicular', or an "
            "angle in radians"
        )

    profile = _parse_profile(raw["profile"], base_dir)
    try:
        params = SystemParams(a_par=a_par, a_perp=a_perp, zeta=zeta,
                              theta=theta, profile=profile)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"system: {exc}") from exc

    grid_spec = raw["grid"]
    _reject_unknown(grid_spec, _GRID_KEYS, "grid")
    t_start = _require_number(grid_spec, "t_start", "grid")
    t_end = _require_number(grid_spec, "t_end", "grid")
    n_steps = grid_spec.get("n_steps")
    if not isinstance(n_steps, int) or not _is_finite(n_steps):
        raise ConfigError("grid: n_steps must be an integer")
    try:
        grid = TimeGrid(t_start=t_start, t_end=t_end, n_steps=n_steps)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    if isinstance(profile, Tabulated):
        if t_start < profile.times[0] or t_end > profile.times[-1]:
            raise ConfigError("grid: extends outside the tabulated profile range")

    label, state, frame = _parse_initial(raw["initial_state"], orientation_is_literal)

    outputs = raw["outputs"]
    if (not isinstance(outputs, list) or not outputs
            or not all(kind in _OUTPUT_KINDS for kind in outputs)):
        raise ConfigError(f"outputs: expected a non-empty list from {sorted(_OUTPUT_KINDS)}")
    if "comparison" in outputs:
        if not label.startswith("phi"):
            raise ConfigError(
                "outputs: 'comparison' requires a frame-basis initial state (phi1..phi4)"
            )

    integrator = raw.get("integrator", {})
    _reject_unknown(integrator, _INTEGRATOR_KEYS, "integrator")
    tol_per_time = (_require_number(integrator, "tol_per_time", "integrator")
                    if "tol_per_time" in integrator else DEFAULT_TOL_PER_TIME)
    max_halvings = integrator.get("max_halvings", DEFAULT_MAX_HALVINGS)
    try:
        check_budget(tol_per_time, max_halvings)
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from exc

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("config: seed must be a non-negative integer")

    sweep = raw.get("sweep")
    if sweep is not None:
        _reject_unknown(sweep, _SWEEP_KEYS, "sweep")
        if sweep.get("parameter") not in ("rate", "omega0"):
            raise ConfigError("sweep: parameter must be 'rate' or 'omega0'")
        values = sweep.get("values")
        if (not isinstance(values, list) or not values
                or not all(_is_finite(v) and float(v) > 0.0 for v in values)):
            raise ConfigError("sweep: values must be a non-empty list of positive numbers")

    return ScenarioConfig(
        params=params,
        grid=grid,
        initial_label=label,
        initial_state=state,
        initial_frame=frame,
        outputs=tuple(outputs),
        tol_per_time=tol_per_time,
        max_halvings=max_halvings,
        seed=seed,
        sweep=sweep,
        raw=raw,
    )


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(raw, base_dir=path.parent)


def _json_safe(value):
    """``value`` with every non-finite float, at any depth, replaced by None:
    JSON (RFC 8259) has no token for NaN or an infinity, so they are null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _write_json(path: Path, document) -> None:
    """``document`` as indented, key-sorted strict JSON at ``path``."""
    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(document, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_csv_tables(out_dir: Path, tables: dict, stacks: dict) -> None:
    """Write each table, stacked as ``(n, width)`` floats in ``stacks``, as
    ``<kind>.csv``, formatting about ``_CSV_BLOCK`` values at a time."""
    for kind, rows in stacks.items():
        path = out_dir / f"{kind}.csv"
        step = max(1, _CSV_BLOCK // rows.shape[1])
        try:
            with open(path, "wb") as fh:
                fh.write((",".join(tables[kind]) + "\n").encode())
                for start in range(0, len(rows), step):
                    fh.write(_format_rows(rows[start:start + step]))
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc


@functools.cache
def _csv_tables() -> dict:
    """The CSV writer's lookup tables, built on first use: ``powers``, 10^k
    * 2^7 for k in ``_CSV_POWERS`` rounded to 64 significant bits (1 where
    ``np.longdouble`` has fewer); ``groups``, each 4-digit group as 8 bytes,
    every digit followed by a 0xFF point slot; ``last``, the place (1-4) of
    each group's last nonzero digit, 0 for 0000; ``templates``, for X in
    -4..16 and the place (0-16) of the last nonzero digit, the AND mask of a
    value's 48 byte slots; ``exponents``, the last 8 slots for each X."""
    extended = np.finfo(np.longdouble).nmant == 63
    mants, shifts = [], []
    for k in range(*_CSV_POWERS):
        num, den = (10 ** k << 7, 1) if k >= 0 else (1 << 7, 10 ** -k)
        cut = num.bit_length() - den.bit_length() - 64
        num, den = (num, den << cut) if cut >= 0 else (num << -cut, den)
        if num >= den << 64:  # the quotient, 10^k * 2^(7 - cut), below 2^64
            den, cut = den << 1, cut + 1
        mants.append((2 * num + den) // (2 * den))  # rounded to nearest
        shifts.append(cut)
    powers = (np.ldexp(np.array(mants, np.uint64).astype(np.longdouble), shifts)
              if extended else np.ones(len(mants), np.longdouble))
    chars = np.arange(10000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1])
    chars = (chars % 10 + ord("0")).astype(np.uint8)
    groups = np.full((10000, 4, 2), 0xFF, np.uint8)
    groups[:, :, 0] = chars
    nonzero = chars != ord("0")
    last = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    last = last.astype(np.uint8)
    # slots: sign, "0.000" prefix, 17 digit-and-point pairs, exponent,
    # separator, 2 spare; the point follows digit p unless the digits end there
    digit, point = np.arange(17), np.arange(-1, 17)[:, None, None]
    last_digit = digit[:, None]
    keep = np.zeros((18, 17, 48), np.uint8)
    keep[..., 0] = 0xFF
    keep[..., 6:40:2] = 0xFF * (digit <= np.maximum(point, last_digit))
    keep[..., 7:41:2] = ord(".") * ((digit == point) & (last_digit > point))
    # X in -4..16 prints in fixed notation, from a "0.000" prefix where X < 0;
    # any other X prints as X = 0 does, with its exponent
    fixed = np.arange(-4, 17)
    prefixes = "".join(("\0" + "0." + "0" * (-1 - x) if x < 0 else "").ljust(48, "\0")
                       for x in fixed)
    templates = keep[np.maximum(fixed, -1) + 1]
    templates |= np.frombuffer(prefixes.encode(), np.uint8).reshape(-1, 1, 48)
    exponents = "".join(("" if -4 <= x <= 16 else f"e{x:+03d}").ljust(8, "\0")
                        for x in range(*_CSV_EXPONENTS))
    return dict(extended=extended, powers=powers, last=last,
                groups=groups.reshape(-1, 8).view("<u8").ravel(),
                templates=templates.reshape(-1, 8).view("<u8").reshape(-1, 6),
                exponents=np.frombuffer(exponents.encode(), "<u8"))


def _format_rows(rows: np.ndarray) -> bytes:
    """The CSV lines of ``rows``, a C-contiguous ``(n, width)`` float64
    block: each value as ``'%.17g' % v``, comma-separated.

    |v| * 10^(16 - X) * 2^7, X = floor(log10 |v|), is formed in the extended
    type and truncated: its top bits are the 17 significant digits D, its
    low 7 the fraction in 128ths (fixed-precision Ryu printf, Adams, PLDI
    2019).  The power and the product round once each, by at most 2^-64, so
    the product is within 1.39/128 of exact and D rounds half-even unless
    the fraction is 62-65/128.  Such a near tie, a product outside [10^16,
    10^17) (an X off by one, or a rounding that carries), a non-finite value,
    and every value without a 64-bit extended type, take ``'%.17g' % v``
    itself (the exact fallback of Grisu3, Loitsch, PLDI 2010).  A zero prints
    as 1.0 does with the digit 0.  Each value fills 48 byte slots from its
    digit groups and its ``templates`` mask, or from its text padded with
    spaces; the zero bytes of unused slots and the spaces are deleted.
    """
    tables = _csv_tables()
    values = rows.ravel()
    x = np.abs(values)
    zero = x == 0
    decided = np.isfinite(x) & tables["extended"]
    x[zero | ~decided] = 1.0
    exponent = np.floor(np.log10(x)).astype(np.intp)
    x = x.astype(np.longdouble)
    scaled = (x * tables["powers"][16 - _CSV_POWERS[0] - exponent]).astype(np.uint64)
    fraction = scaled & np.uint64(127)
    digits = ((scaled >> np.uint64(7)) + (fraction >= 64)).astype(np.intp)
    decided &= ((fraction < 62) | (fraction > 65)) & (scaled >= 10 ** 16 << 7)
    decided &= digits < 10 ** 17
    digits[zero] = 0
    # D as its lead digit and four 4-digit groups
    high, low = np.divmod(digits, 10 ** 8)
    lead, high = np.divmod(high, 10 ** 8)
    quads = np.empty((len(values), 4), np.intp)
    quads[:, 0], quads[:, 1] = np.divmod(high, 10000)
    quads[:, 2], quads[:, 3] = np.divmod(low, 10000)
    last = 12 + np.take(tables["last"], quads[:, 3])
    short = np.flatnonzero(last == 12)  # the last group is 0000
    if short.size:
        places = np.take(tables["last"], quads[short, :3])
        last[short] = np.max((places > 0) * (places + [0, 4, 8]), axis=1)
    fixed = np.where((exponent >= -4) & (exponent <= 16), exponent, 0)
    words = np.take(tables["templates"], (fixed + 4) * 17 + last, axis=0)
    words[:, 5] = np.take(tables["exponents"], exponent - _CSV_EXPONENTS[0])
    words[:, 1:5] &= np.take(tables["groups"], quads)
    # slots 0-7: the sign, five prefix slots, the lead digit, its point slot
    words[:, 0] &= (((lead.astype(np.uint64) + np.uint64(0xFF30)) << np.uint64(48))
                    | np.uint64(0xFFFFFFFFFF00) | np.signbit(values) * np.uint64(ord("-")))
    text = words.view(np.uint8).reshape(len(values), 48)
    fallback = np.flatnonzero(~decided)
    if fallback.size:
        texts = "%-48.17g" * fallback.size % tuple(values[fallback].tolist())
        text[fallback] = np.frombuffer(texts.encode(), np.uint8).reshape(-1, 48)
    slots = text.reshape(*rows.shape, 48)
    slots[:, :, 45] = ord(",")
    slots[:, -1, 45] = ord("\n")
    return text.tobytes().translate(None, b"\0 ")


def _amplitude_columns(prefix: str, states: np.ndarray) -> dict:
    columns = {}
    for i in range(4):
        columns[f"re_{prefix}{i + 1}"] = states[:, i].real
        columns[f"im_{prefix}{i + 1}"] = states[:, i].imag
    return columns


def run_scenario(config: ScenarioConfig, out_dir, fmt: str = "csv",
                 quiet: bool = True) -> dict:
    """Execute one scenario and write its requested artifacts.

    Everything is computed before anything is written, so a failed run leaves
    no partial outputs.  Returns the run report (also written as report.json).
    """
    trajectory, eta, comparison, summary = _run_point(
        config, "comparison" in config.outputs)
    times = trajectory.times()
    report = {
        "version": __version__,
        "config": config.raw,
        "outputs": {},
        "summary": summary,
    }

    infidelities = {} if comparison is None else {
        "infidelity_zeroth": comparison.infidelity_zeroth,
        "infidelity_first": comparison.infidelity_first}
    tables = {}
    if "trajectory" in config.outputs:
        table = {"t": times, **_amplitude_columns("chi", trajectory.states)}
        if trajectory.adiabatic_states is not None:
            table |= _amplitude_columns("phi", trajectory.adiabatic_states)
        pops = populations(trajectory.states)
        table |= {f"pop_chi{i + 1}": pops[:, i] for i in range(4)}
        tables["trajectory"] = {**table, "eta": eta, **infidelities}

    if comparison is not None:
        tables["comparison"] = {"t": times, **infidelities, "eta": eta}

    if "propagator" in config.outputs:
        lab_props = trajectory.propagators
        if trajectory.frame is Frame.ADIABATIC:
            rot = trajectory.rotations
            lab_props = np.einsum("nij,njk,lk->nil", rot, trajectory.propagators,
                                  np.conj(rot[0]))
        table = {"t": times}
        for i in range(4):
            table |= _amplitude_columns(f"u{i + 1}", lab_props[:, i])
        tables["propagator"] = table

    write_outputs(out_dir, fmt, report, tables)
    if not quiet:
        for key, value in summary.items():
            print(f"{key}: {value}")
    return report


def _run_point(config: ScenarioConfig, compare: bool):
    """Certified reference, rate metric, block-route comparison (when
    ``compare``) and summary of one scenario point."""
    trajectory = reference_propagate(
        config.params, config.grid, config.initial_state, config.initial_frame,
        tol_per_time=config.tol_per_time, max_halvings=config.max_halvings,
    )
    eta = adiabaticity_profile(trajectory.omega, trajectory.omega_rate)
    comparison = None
    if compare:
        comparison = compare_solutions(
            config.params, config.grid, int(config.initial_label[-1]) - 1,
            reference=trajectory,
        )
    return trajectory, eta, comparison, _summarize(config, trajectory, eta, comparison)


def _summarize(config: ScenarioConfig, trajectory, eta, comparison) -> dict:
    params = config.params
    final_lab = trajectory.states[-1]
    initial_lab = trajectory.states[0]
    pops = np.abs(final_lab) ** 2
    max_eta = float(np.max(np.abs(eta)))
    summary = {
        "initial_state": config.initial_label,
        "final_populations": [float(p) for p in pops],
        "survival_probability": float(abs(np.vdot(initial_lab, final_lab)) ** 2),
        "max_eta": max_eta,
        "adiabatic_warning": bool(max_eta > ADIABATIC_WARNING_THRESHOLD),
        "scheme": trajectory.scheme,
        "halvings": int(trajectory.halvings),
        "error_estimate": float(trajectory.error_estimate),
    }
    if trajectory.adiabatic_states is not None:
        frame_pops = np.abs(trajectory.adiabatic_states[-1]) ** 2
        summary["final_frame_populations"] = [float(p) for p in frame_pops]
    if trajectory.frame is Frame.ADIABATIC:
        # central-block jump probability read off the frame propagator; for a
        # wide sweep through the crossing this is the diabatic survival
        i, j = BLOCK_SLOTS[0]
        summary["block_jump_probability"] = float(abs(trajectory.propagators[-1, i, j]) ** 2)
    if comparison is not None:
        summary["final_infidelity_zeroth"] = float(comparison.infidelity_zeroth[-1])
        summary["final_infidelity_first"] = float(comparison.infidelity_first[-1])
        summary["final_beta_sq_central"] = comparison.final_beta_sq[BLOCK_CENTRAL]
        if BLOCK_CORNER in comparison.final_beta_sq:
            summary["final_beta_sq_corner"] = comparison.final_beta_sq[BLOCK_CORNER]
        summary["max_gauge_rate"] = float(comparison.max_gauge_rate)
        summary["max_rate_over_gap"] = float(comparison.max_rate_over_gap)
    if (isinstance(params.profile, LinearRamp) and params.is_parallel
            and params.a_perp > 0.0 and params.profile.rate != 0.0):
        summary["lz_prediction"] = lz_asymptotic(params, params.profile)
    return summary


def write_outputs(out_dir, fmt: str, report: dict, tables: dict | None = None,
                  name: str = "report.json") -> None:
    """Write a run's tables and its JSON report into ``out_dir``.

    ``tables`` maps an output kind to its table, a mapping from column name
    to column array whose order is the column order; each is written as
    ``<kind>.<fmt>`` and listed, with the report itself, in
    ``report["outputs"]``.  ``fmt`` is checked before the directory is
    created, so a rejected format writes nothing.  A CSV table holds
    ``'%.17g' % v`` fields, ``nan``/``inf`` included, formatted in this
    process by ``_format_rows``; every JSON file holds each non-finite
    number as null, and ``report`` is updated to match.
    """
    if fmt not in {"csv", "json"}:
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    out_dir = Path(out_dir)
    if tables is not None:
        report["outputs"] = {**{kind: f"{kind}.{fmt}" for kind in tables},
                             "report": name}
    report.update(_json_safe(report))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    tables = tables or {}
    stacks = {kind: np.column_stack(list(table.values())).astype(float, copy=False)
              for kind, table in tables.items()}
    if fmt == "csv":
        _write_csv_tables(out_dir, tables, stacks)
    else:
        for kind, rows in stacks.items():
            _write_json(out_dir / f"{kind}.json",
                        {"columns": list(tables[kind]), "rows": _json_safe(rows.tolist())})
    _write_json(out_dir / name, report)


def _scaled_scenario(config: ScenarioConfig, parameter: str, value: float) -> ScenarioConfig:
    """Derive the scenario for one sweep point.

    ``rate`` scales the drive rate by ``value`` at fixed sweep shape (the time
    axis stretches by 1/value); ``omega0`` re-spans a symmetric linear ramp
    across (-value, +value) at fixed rate, from the end the rate's sign
    leaves from.  A value that leaves the point invalid, such as a time
    axis that overflows, is a ``ConfigError`` naming it.
    """
    params, grid = config.params, config.grid
    profile = params.profile
    try:
        if parameter == "rate":
            s = float(value)
            if isinstance(profile, LinearRamp):
                new_profile = LinearRamp(profile.omega_start, profile.rate * s)
            elif isinstance(profile, TanhRamp):
                new_profile = TanhRamp(profile.omega_mid, profile.amplitude, profile.tau / s)
            elif isinstance(profile, Harmonic):
                new_profile = Harmonic(profile.omega0, profile.amplitude,
                                       profile.angular_frequency * s, profile.phase)
            elif isinstance(profile, Tabulated):
                with np.errstate(over="ignore"):  # an overflow is rejected below
                    new_profile = Tabulated(profile.times / s, profile.omegas)
            else:
                raise ConfigError("sweep: a constant profile has no rate to sweep")
            new_grid = TimeGrid(grid.t_start / s, grid.t_end / s, grid.n_steps)
        else:
            if not isinstance(profile, LinearRamp):
                raise ConfigError("sweep: omega0 sweeps need a linear profile")
            if profile.rate == 0.0:
                raise ConfigError("sweep: omega0 sweeps need a nonzero rate")
            w0 = float(value)
            new_profile = LinearRamp(-math.copysign(w0, profile.rate), profile.rate)
            new_grid = TimeGrid(0.0, 2.0 * w0 / abs(profile.rate), grid.n_steps)
    except ValueError as exc:
        raise ConfigError(f"sweep: {parameter} value {value!r}: {exc}") from exc
    return replace(config, params=replace(params, profile=new_profile), grid=new_grid)


def run_sweep(config: ScenarioConfig, out_dir, fmt: str = "csv",
              quiet: bool = True) -> dict:
    """Run the scenario once per sweep value and emit a scaling table.

    Points execute in config order and the table rows keep that order, so the
    output is deterministic regardless of how the work is scheduled.
    """
    if config.sweep is None:
        raise ConfigError("sweep command needs a 'sweep' section in the config")
    parameter = config.sweep["parameter"]
    values = [float(v) for v in config.sweep["values"]]

    # every point is built before the first runs, so a bad value fails early
    points = [_scaled_scenario(config, parameter, value) for value in values]
    rows = []
    for value, point in zip(values, points):
        *_, summary = _run_point(point, point.initial_label.startswith("phi"))
        rows.append({"value": value,
                     **{key: summary[key] for key in _SWEEP_COLUMNS if key in summary}})

    table = {key: np.array([row.get(key, np.nan) for row in rows])
             for key in ("value", *_SWEEP_COLUMNS) if any(key in row for row in rows)}

    report = {
        "version": __version__,
        "config": config.raw,
        "outputs": {},
        # every point shares the orientation and budget that choose the scheme
        "summary": {"parameter": parameter, "scheme": summary["scheme"],
                    "points": rows},
    }
    write_outputs(out_dir, fmt, report, {"sweep": table})
    if not quiet:
        for row in rows:
            print(row)
    return report


def run_validation(config: ScenarioConfig) -> dict:
    """Run the invariant suite on the configured system over its grid.

    Draws 50 times from the grid with the config seed and checks, in one
    pass over the draws, the identities the rest of the package relies on,
    on the builders the propagators use.  A rate check counts only the error
    of its central difference beyond twice the difference's round-off bound,
    ``eps (|f(t + h)| + |f(t - h)|) / 2h``, plus for an angle
    ``|dtheta / domega|`` times the field's.  Returns a report dict with one
    entry per check.
    """
    params, grid = config.params, config.grid
    rng = np.random.default_rng(config.seed)
    h_fd = 1e-6
    lo, hi = grid.t_start + h_fd, grid.t_end - h_fd
    if hi < lo:
        # a grid shorter than two difference steps: draw from all of it
        lo, hi = grid.t_start, grid.t_end
    draws = rng.uniform(lo, hi, size=50)
    w, wdot = params.profile.evaluate(draws)
    w_plus, _ = params.profile.evaluate(draws + h_fd)
    w_minus, _ = params.profile.evaluate(draws - h_fd)
    h = hamiltonian_batch(params, draws)
    checks = {}

    def record(name, value, threshold):
        checks[name] = {"value": float(value), "threshold": float(threshold),
                        "pass": bool(value <= threshold)}

    def roundoff(plus, minus):
        return np.finfo(float).eps * (np.abs(plus) + np.abs(minus)) / (2.0 * h_fd)

    def rate_error(closed, plus, minus, slack=0.0):
        fd = (plus - minus) / (2.0 * h_fd)
        excess = np.abs(closed - fd) - 2.0 * (roundoff(plus, minus) + slack)
        return np.max(np.maximum(excess, 0.0)
                      / np.maximum(np.maximum(np.abs(closed), np.abs(fd)), 1e-8))

    record("hamiltonian_hermiticity", hermiticity_defect(h), 1e-12)
    record("profile_rate_consistency", rate_error(wdot, w_plus, w_minus), 1e-5)

    props = fixed_step_propagators(params, TimeGrid(grid.t_start, grid.t_end, 16),
                                   Frame.LAB, substeps=2)
    record("propagator_unitarity", unitarity_defect(props[-1]), 1e-12)

    if params.is_special_orientation:
        rotations = frame_rotations(params, draws, w)
        transformed = dagger(rotations) @ h @ rotations
        record("frame_diagonalization",
               np.max(np.abs(transformed[:, ~np.eye(4, dtype=bool)])), 1e-12)

        closed = np.sort(np.stack(closed_eigenvalues(params, draws), axis=-1))
        record("spectrum_closure",
               np.max(np.abs(np.sort(np.linalg.eigvalsh(h)) - closed)), 1e-11)

        theta, theta_plus, theta_minus = np.swapaxes(
            mixing_angle_arrays(params, [w, w_plus, w_minus]), 0, 1)
        # the angle rates, and d theta / d omega as the rates at a unit field rate
        rates, slopes = (block_splitting_and_rate(params, w, r)[1] for r in (wdot, 1.0))
        record("angle_rate_consistency", rate_error(
            rates, theta_plus, theta_minus, np.abs(slopes) * roundoff(w_plus, w_minus)), 1e-5)

        gauge = gauge_term(AdiabaticAngles(*theta, *rates))
        effective = transformed - 1j * gauge
        # each block's rows against the other block's columns
        off_block = effective[:, BLOCK_SLOTS[:, :, None], BLOCK_SLOTS[::-1, None, :]]
        record("block_preservation",
               max(np.max(np.abs(off_block)),
                   np.max(np.abs(gauge + np.swapaxes(gauge, -1, -2)))), 0.0)

    all_pass = all(entry["pass"] for entry in checks.values())
    return {"version": __version__, "config": config.raw,
            "checks": checks, "all_pass": all_pass}
