"""Scenario configs, execution, and machine-readable exports.

A scenario is a single JSON document; the command line only selects the
config path, output directory, format, and verbosity, so a run is fully
reproducible from the file alone.  Schema validation is strict: unknown keys
are rejected and no physics parameter has a silent default.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import queue
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import compare_solutions, lz_asymptotic, populations
from .errors import ConfigError, IoError, ZeroRate
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
    _beside,
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
_CSV_BLOCK = 1 << 14  # values stage 1 of the CSV writer formats at once
_CSV_QUEUE = 1  # formatted blocks that may wait for the CSV writer's worker
# the decimal exponents X = floor(log10 |v|) of the finite doubles, which
# index the CSV writer's tables
_CSV_EXPONENTS = (-324, 309)
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


def _write_csv_tables(out_dir: Path, tables: dict) -> None:
    """Write each table, a mapping from column name to column array, as
    ``<kind>.csv`` in two stages.

    Stage 1, on the calling thread (``_csv_items``), forms ``_CSV_BLOCK``
    values at a time from a table's columns and lays each out in its 32-byte
    slot (``_format_slots``).  Stage 2 (``_write_items``) deletes the unused
    bytes (``_compact``) and writes the blocks in order.  Stage 1 makes about
    40 short numpy calls per block and takes the interpreter lock between
    them; stage 2 is two long calls that run without it.  So stage 2 runs on
    one worker thread, fed through a queue of at most ``_CSV_QUEUE`` blocks,
    and the two overlap.  A set of at most ``_CSV_BLOCK`` values runs both
    stages inline, where a thread's start costs more than the overlap saves.
    A write that fails raises ``IoError`` naming its file, once every file is
    closed and the worker has returned; a worker that fails takes the rest
    of the queue unwritten, so the caller never waits on a full queue.
    """
    items = _csv_items(out_dir, tables)
    if sum(len(next(iter(table.values()))) * len(table)
           for table in tables.values()) <= _CSV_BLOCK:
        _write_items(items)
        return
    blocks = queue.Queue(_CSV_QUEUE)

    def received():
        while (item := blocks.get()) is not None:
            yield item

    def write():
        queued = received()
        try:
            _write_items(queued)
        except BaseException:
            for _ in queued:  # up to the end mark, so that no put waits forever
                pass
            raise

    def produce():
        try:
            for item in items:
                blocks.put(item)
        finally:
            blocks.put(None)

    _beside(write, produce)


def _csv_items(out_dir: Path, tables: dict):
    """Stage 1 of the CSV writer: for each table, its path and header line,
    then the slots of its rows, ``_CSV_BLOCK`` values at a time."""
    for kind, table in tables.items():
        yield out_dir / f"{kind}.csv", (",".join(table) + "\n").encode()
        columns = list(table.values())
        n, step = len(columns[0]), max(1, _CSV_BLOCK // len(columns))
        for start in range(0, n, step):
            rows = np.empty((min(step, n - start), len(columns)))
            for j, column in enumerate(columns):
                rows[:, j] = column[start:start + step]
            yield _format_slots(rows)


def _write_items(items) -> None:
    """Stage 2 of the CSV writer: a ``(path, header)`` of ``items`` closes
    the file before and opens ``path`` with ``header``; the slots that follow
    are compacted and appended to it."""
    path = None
    try:
        with contextlib.ExitStack() as files:
            for item in items:
                if isinstance(item, tuple):
                    files.close()
                    path, header = item
                    fh = files.enter_context(open(path, "wb"))
                    fh.write(header)
                else:
                    fh.write(_compact(item))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _compact(slots: np.ndarray) -> np.ndarray:
    """The text of ``slots``, C-contiguous, without its zero bytes (the
    unused slots): a compare and a boolean compress, which numpy runs
    without the interpreter lock."""
    text = slots.view(np.uint8).reshape(-1)
    return text[text != 0]


@functools.cache
def _csv_tables() -> dict:
    """The CSV writer's lookup tables, built on first use.  A table over the
    decimal exponents X is indexed by X itself, a negative X counting from
    the end as a Python index does.

    ``powers``: 10^(16 - X) * 2^7 rounded to 64 significant bits, None where
    ``np.longdouble`` has fewer; ``exact``, whether no rounding was needed.
    ``decides``: at X * 128 + f, whether a truncated fraction of f/128
    settles the rounding of the digits.
    ``heads``: at 2 X + p, slots 0-7 of a value: an empty sign slot, the
    "0.000" prefix of X in -4..-1, a "0" lead digit, and a point if p for X
    = 0 and exponent notation, always for X in 1..15 (to be moved or
    dropped).  ``exponents``: slots 24-31,
    the exponent of X outside -4..16 and a ",".  ``groups``: each 4-digit
    group as the low 4 bytes of a word, and from row 10000 on without its
    trailing zeros; ``groups_high``, the same in the high 4 bytes.  For X in
    1..16: ``units``, 10^(16 - X), the place value of digit X;
    ``point_moves``, at 2 X + p, the source slot of each of slots 0-23, with
    a point after digit X if p; ``integer_zeros``, a "0" in each slot that
    then holds a digit before the point.
    """
    extended = np.finfo(np.longdouble).nmant == 63
    exponents = np.roll(np.arange(*_CSV_EXPONENTS), _CSV_EXPONENTS[0])
    mants, shifts = [], []
    for k in (16 - exponents).tolist():
        num, den = (10 ** k << 7, 1) if k >= 0 else (1 << 7, 10 ** -k)
        cut = num.bit_length() - den.bit_length() - 64
        num, den = (num, den << cut) if cut >= 0 else (num << -cut, den)
        if num >= den << 64:  # the quotient, 10^k * 2^(7 - cut), below 2^64
            den, cut = den << 1, cut + 1
        mants.append((2 * num + den) // (2 * den))  # rounded to nearest
        shifts.append(cut)
    powers = (np.ldexp(np.array(mants, np.uint64).astype(np.longdouble), shifts)
              if extended else None)
    # fractions in doubt (see _format_slots): 64 where 10^k * 2^7 = 5^k *
    # 2^(k + 7) is exact (5^k < 2^64 for k = 16 - X in 0..27), else 63-65
    exact = (exponents >= -11) & (exponents <= 16)
    decides = np.abs(np.arange(128) - 64) > np.where(exact, 0, 1)[:, None]
    # heads of X in -4..16; the exponent notation takes that of X = 0
    heads = []
    for x in range(-4, 17):
        prefix = "0." + "0" * (-1 - x) if x < 0 else ""
        for point in (False, True):
            dot = "." if (point and x == 0) or 1 <= x <= 15 else "\0"
            heads.append("\0" + prefix.rjust(5, "\0") + "0" + dot)
    heads = np.frombuffer("".join(heads).encode(), "<u8").reshape(-1, 2)
    fixed = (exponents >= -4) & (exponents <= 16)
    tails = "".join(("" if x else f"e{e:+03d}").ljust(5, "\0") + ",\0\0"
                    for e, x in zip(exponents.tolist(), fixed.tolist()))
    chars = np.arange(10000, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1])
    chars = (chars % 10 + ord("0")).astype(np.uint8)
    # the bare group keeps the digits up to its last one that is not "0"
    nonzero = chars != ord("0")
    last = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    bare = chars * (np.arange(4) < last[:, None])
    groups = np.concatenate([chars, bare]).view("<u4").ravel().astype(np.uint64)
    # X in 1..15: digits 1..X move from slots 8..7 + X to 7..6 + X, and slot
    # 7 + X takes the point (slot 7) or nothing (slot 1, an empty prefix
    # slot); X = 16 stays; slots 24-31 never move
    slot, places = np.arange(24), np.arange(17)[:, None]
    point_moves = np.tile(slot, (17, 2, 1))
    for x in range(1, 16):
        point_moves[x, :, 7:7 + x] = np.arange(8, 8 + x)
        point_moves[x, :, 7 + x] = [1, 7]
    first = np.where(places < 16, 7, 8)
    integer_zeros = ord("0") * ((slot >= first) & (slot < first + places))
    return dict(extended=extended, powers=powers, exact=exact, decides=decides.ravel(),
                heads=heads[np.where(fixed, exponents + 4, 4)].ravel(),
                exponents=np.frombuffer(tails.encode(), "<u8"),
                groups=groups, groups_high=groups << np.uint64(32),
                units=np.array([10 ** (16 - x) for x in range(17)], np.uint64),
                point_moves=point_moves.reshape(34, 24),
                integer_zeros=integer_zeros.astype(np.uint8))


def _format_slots(rows: np.ndarray) -> np.ndarray:
    """Each value of ``rows``, a C-contiguous ``(n, width)`` float64 block,
    as ``'%.17g' % v`` and its separator, a comma or a line end, in 32 byte
    slots, zero where unused: an ``(n * width, 4)`` array of words.

    The extended product C of |v| and 10^(16 - X) * 2^7, X = floor(log10
    |v|), is truncated: its top bits are the 17 significant digits D, its
    low 7 the fraction f in 128ths (fixed-precision Ryu printf, Adams, PLDI
    2019).  C is T, the exact value, rounded once to a multiple of its last
    place u <= 1, so |C - T| <= u/2, plus T * 2^-64 < 0.7 where the power
    itself is rounded (X outside -11..16; for k = 16 - X in 0..27, 10^k *
    2^7 = 5^k * 2^(k + 7) is exact).  With an exact power f = 63 gives C <=
    64 - u and T < 64, and f = 65 gives T >= 64.5: D rounds half-even by f
    unless f = 64 (63-65 with a rounded power).  An exact power with f = 64
    and C above its truncation, C >= 64 + u, gives T >= 64 + u/2: D rounds
    up.  The other near ties, a product outside [10^16, 10^17) * 2^7 (an X
    off by one, or a rounding that carries) and a non-finite value take
    ``'%.17g' % v`` itself (the exact fallback of Grisu3, Loitsch, PLDI
    2010), and so does every value without a 64-bit extended type.  A zero
    prints as 1.0 does with the digit 0.

    D splits by ``//`` into its lead digit and two 8-digit halves, held as
    one ``(2, n)`` array so each step is one contiguous pass, and each half
    into two 4-digit groups.  A value fills 32 byte slots: sign, prefix,
    lead digit and point from ``heads``; the 16 digits after the lead from
    ``groups``, a group without its trailing zeros where all later groups
    are 0000; exponent and separator.  For X in 1..16 the digits up to digit
    X keep their zeros and, for X <= 15, move one slot toward the lead, with
    the point after them if a later digit is not zero.  A value that falls
    back fills slots 0-28 with its text padded with zeros.
    """
    tables = _csv_tables()
    values = rows.ravel()
    if tables["extended"]:
        words, fallback = _digit_slots(values, tables)
    else:
        words = np.zeros((len(values), 4), np.uint64)
        words[:, 3] = tables["exponents"][0]  # no exponent, a ","
        fallback = np.arange(len(values))
    words.reshape(*rows.shape, 4)[:, -1, 3] ^= (ord(",") ^ ord("\n")) << 40
    if fallback.size:
        texts = "%-29.17g" * fallback.size % tuple(values[fallback].tolist())
        words.view(np.uint8)[fallback, :29] = np.frombuffer(
            texts.encode().replace(b" ", b"\0"), np.uint8).reshape(-1, 29)
    return words


def _digit_slots(values: np.ndarray, tables: dict):
    """The slots of ``values`` from the extended product (see
    ``_format_slots``), each followed by a ",", and the indices of the
    values that fall back."""
    x = np.abs(values)
    zero = x == 0
    decided = np.isfinite(x)
    x[zero | ~decided] = 1.0
    exponent = np.floor(np.log10(x)).astype(np.intp)
    product = tables["powers"][exponent]
    product *= x
    scaled = product.astype(np.uint64)
    # scaled in [10^16, 10^17 - 1/2) * 2^7: D has 17 digits after rounding
    decided &= scaled - (10 ** 16 << 7) < (9 * 10 ** 16 << 7) - 64
    # a fraction in doubt is decided where the power is exact (so f = 64)
    # and the product lies above its truncation: D rounds up
    doubt = np.flatnonzero(~tables["decides"][exponent * 128 + (scaled.view(np.intp) & 127)])
    up = tables["exact"][exponent[doubt]] & (product[doubt] > scaled[doubt])
    decided[doubt[~up]] = False
    del x, product
    digits = (scaled + 64) >> 7
    digits[zero] = 0
    # D as its lead digit and two 8-digit halves, each two 4-digit groups
    high = digits // 10 ** 8
    lead = high // 10 ** 8
    halves = np.empty((2, len(values)), np.uint64)
    np.subtract(high, lead * 10 ** 8, out=halves[0])
    np.subtract(digits, high * 10 ** 8, out=halves[1])
    upper = (halves // 10 ** 4).view(np.intp)  # groups 1 and 3
    lower = halves.view(np.intp) - upper * 10 ** 4  # groups 2 and 4
    # a group loses its trailing zeros (rows 10000 on) when every later
    # group is 0000
    lower[1] += 10000
    lower[0] += (halves[1] == 0) * 10000
    upper += (lower == 10000) * 10000
    words = np.empty((len(values), 4), np.uint64)
    np.bitwise_or(tables["groups"][upper], tables["groups_high"][lower],
                  out=words[:, 1:3].T)
    # group 1 is bare 0000 exactly when no digit follows the lead
    head = tables["heads"][exponent * 2 + (upper[0] != 10000)]
    del high, halves, upper, lower
    head |= lead << 48
    np.bitwise_or(head, np.signbit(values) * np.uint64(ord("-")), out=words[:, 0])
    words[:, 3] = tables["exponents"][exponent]
    text = words.view(np.uint8)
    # X in 1..16 (fixed notation past the lead digit): digits 1..X keep
    # their zeros and move one slot toward the lead, and the point follows
    # them if a later digit is not zero
    fixed = np.flatnonzero((exponent - 1).view(np.uintp) < 16)
    if fixed.size:
        places = exponent[fixed]
        point = digits[fixed] % tables["units"][places] != 0
        moves = tables["point_moves"][places * 2 + point] + 32 * fixed[:, None]
        text[fixed, :24] = text.ravel()[moves] | tables["integer_zeros"][places]
    return words, np.flatnonzero(~decided)


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
        summary["final_beta_sq_central"] = float(comparison.final_beta_sq[0])
        if params.is_perpendicular:
            summary["final_beta_sq_corner"] = float(comparison.final_beta_sq[1])
        summary["max_gauge_rate"] = float(comparison.max_gauge_rate)
        summary["max_rate_over_gap"] = float(comparison.max_rate_over_gap)
    if isinstance(params.profile, LinearRamp) and params.is_parallel and params.a_perp > 0.0:
        try:
            summary["lz_prediction"] = lz_asymptotic(params, params.profile)
        except ZeroRate:
            pass  # the central splitting never sweeps: no prediction
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
    process by ``_write_csv_tables``; every JSON file holds each non-finite
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
    if fmt == "csv":
        _write_csv_tables(out_dir, tables)
    else:
        for kind, table in tables.items():
            rows = np.column_stack(list(table.values())).astype(float, copy=False)
            _write_json(out_dir / f"{kind}.json",
                        {"columns": list(table), "rows": _json_safe(rows.tolist())})
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


# a value that overflows is not finite, so it fails its check: numpy need not warn
@np.errstate(all="ignore")
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
        # eigvalsh fails on a matrix that is not finite: its draw reads nan
        numeric = np.full(closed.shape, np.nan)
        finite = np.all(np.isfinite(h), axis=(-2, -1))
        numeric[finite] = np.linalg.eigvalsh(h[finite])
        record("spectrum_closure", np.max(np.abs(numeric - closed)), 1e-11)

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
