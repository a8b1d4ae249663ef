import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import spinpair.analysis
import spinpair.fields
import spinpair.propagators
import spinpair.scenario

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from split_quad import first_order_block
import writer_values

from spinpair.cli import main
from spinpair.errors import ConfigError, IoError
from spinpair.fields import FieldProfile, Harmonic, Tabulated, TanhRamp
from spinpair.hamiltonian import BLOCK_SLOTS, hamiltonian_batch
from spinpair.linalg import unitarity_defect
from spinpair.propagators import TimeGrid, full_propagator_paths
from spinpair.scenario import (
    _PROFILES,
    ADIABATIC_WARNING_THRESHOLD,
    _scaled_scenario,
    load_config,
    parse_config,
    run_scenario,
    run_sweep,
    run_validation,
    write_outputs,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# the required keys of each numeric profile kind
NUMERIC_PROFILES = {
    "constant": ["omega0"],
    "linear": ["omega_start", "rate"],
    "tanh": ["omega_mid", "amplitude", "tau"],
    "harmonic": ["omega0", "amplitude", "angular_frequency"],
}
AMPLITUDES = [f"{part}_{level}{i}" for level in ("chi", "phi") for i in range(1, 5)
              for part in ("re", "im")]
POPULATIONS = ["pop_chi1", "pop_chi2", "pop_chi3", "pop_chi4"]


def csv_header(path):
    return path.read_text().splitlines()[0].split(",")


def base_config(**overrides):
    config = {
        "system": {"a_par": 1.0, "a_perp": 0.5, "zeta": 0.1,
                   "orientation": "parallel"},
        "profile": {"kind": "constant", "omega0": 2.0},
        "grid": {"t_start": 0.0, "t_end": 5.0, "n_steps": 50},
        "initial_state": "phi2",
        "outputs": ["trajectory", "comparison"],
        "seed": 0,
    }
    config.update(overrides)
    return config


class TestConfigValidation:
    def test_round_trip(self):
        cfg = parse_config(base_config())
        assert cfg.initial_label == "phi2"
        assert cfg.params.a_par == 1.0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            parse_config(base_config(extra_knob=1))

    def test_unknown_nested_key(self):
        bad = base_config()
        bad["system"] = dict(bad["system"], typo=2.0)
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_missing_physics_parameter(self):
        bad = base_config()
        del bad["system"]["zeta"]
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_negative_steps(self):
        bad = base_config()
        bad["grid"]["n_steps"] = -5
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_steps_beyond_float_range(self):
        bad = base_config()
        bad["grid"]["n_steps"] = 10**400
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize("sample", [math.nan, math.inf, -math.inf])
    def test_tabulated_samples_must_be_finite(self, sample):
        bad = base_config(profile={"kind": "tabulated", "times": [0.0, 2.5, 5.0],
                                   "omegas": [1.0, sample, 2.0]})
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_tabulated_times_must_be_finite(self):
        bad = base_config(profile={"kind": "tabulated", "times": [0.0, 5.0, math.inf],
                                   "omegas": [1.0, 1.5, 2.0]})
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_shipped_inline_samples_parse_to_their_values(self):
        raw = json.loads((SCENARIOS / "tabulated_compare.json").read_text())["profile"]
        profile = load_config(SCENARIOS / "tabulated_compare.json").params.profile
        for key in ("times", "omegas"):
            assert getattr(profile, key).dtype == np.float64
            np.testing.assert_array_equal(getattr(profile, key), raw[key])

    @pytest.mark.parametrize("key, samples", [
        ("times", [False, True, 2.0, 3.0]),
        ("omegas", [1.0, True, 2.0, 2.5]),
        ("times", ["0", "1", "2", "3"]),
        ("omegas", [1.0, "1.5", 2.0, 2.5]),
        ("times", 3.0),
        ("omegas", {"0": 1.0}),
        ("times", [[0.0, 1.0], [2.0, 3.0]]),
    ], ids=["bool-times", "bool-omegas", "string-times", "string-omegas", "number",
            "object", "nested"])
    def test_tabulated_samples_must_be_lists_of_numbers(self, tmp_path, capsys, key,
                                                        samples):
        profile = {"kind": "tabulated", "times": [0.0, 1.0, 2.0, 3.0],
                   "omegas": [1.0, 1.5, 2.0, 2.5]}
        config = base_config(profile=dict(profile, **{key: samples}),
                             grid={"t_start": 0.0, "t_end": 3.0, "n_steps": 6})
        with pytest.raises(ConfigError, match="times and omegas must be lists of finite"):
            parse_config(config)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_bad_profile_kind(self):
        bad = base_config(profile={"kind": "sawtooth", "omega0": 1.0})
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_profile_kinds_are_their_classes(self):
        numeric = {kind: [f.name for f in dataclasses.fields(cls)
                          if f.default is dataclasses.MISSING]
                   for kind, cls in _PROFILES.items() if cls is not Tabulated}
        assert numeric == NUMERIC_PROFILES

    @pytest.mark.parametrize("kind, key", [(kind, key) for kind, keys
                                           in NUMERIC_PROFILES.items() for key in keys])
    def test_profile_needs_each_required_key(self, kind, key):
        spec = {"kind": kind, **dict.fromkeys(NUMERIC_PROFILES[kind], 1.0)}
        parse_config(base_config(profile=spec))
        del spec[key]
        with pytest.raises(ConfigError, match=f"profile: missing required key '{key}'"):
            parse_config(base_config(profile=spec))

    def test_harmonic_phase_is_optional(self):
        spec = {"kind": "harmonic", "omega0": 2.0, "amplitude": 0.5,
                "angular_frequency": 1.0}
        assert parse_config(base_config(profile=spec)).params.profile.phase == 0.0
        spec["phase"] = 0.25
        assert parse_config(base_config(profile=spec)).params.profile.phase == 0.25

    def test_key_of_another_profile_kind_is_rejected(self):
        bad = base_config(profile={"kind": "constant", "omega0": 1.0, "rate": 0.5})
        with pytest.raises(ConfigError,
                           match=r"profile\(constant\): unknown keys \['rate'\]"):
            parse_config(bad)
        bad = base_config(profile={"kind": "constant", "omega0": 1.0, "typo": 0.5})
        with pytest.raises(ConfigError, match=r"profile: unknown keys \['typo'\]"):
            parse_config(bad)

    def test_comparison_needs_frame_state(self):
        bad = base_config(initial_state="chi2")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_frame_state_needs_special_orientation(self):
        bad = base_config()
        bad["system"]["orientation"] = 0.3
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_frame_state_needs_orientation_literal(self):
        # a numeric 0.0 happens to be the parallel angle but stays oracle-only
        bad = base_config()
        bad["system"]["orientation"] = 0.0
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_custom_state_must_be_normalized(self):
        bad = base_config(initial_state=[[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                          outputs=["trajectory"])
        with pytest.raises(ConfigError):
            parse_config(bad)

    @pytest.mark.parametrize("pair", [["a", 0], [None, 0], [True, 0], [10**400, 0],
                                      [math.nan, 0]])
    def test_custom_state_needs_finite_numbers(self, pair):
        bad = base_config(initial_state=[pair, [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                          outputs=["trajectory"])
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_numeric_orientation_accepted_for_lab_runs(self):
        ok = base_config(initial_state="chi1", outputs=["trajectory"])
        ok["system"]["orientation"] = 0.3
        cfg = parse_config(ok)
        assert cfg.params.theta == 0.3


class TestRunScenario:
    def test_constant_field_report(self, tmp_path):
        cfg = parse_config(base_config())
        report = run_scenario(cfg, tmp_path)
        assert report["summary"]["final_infidelity_first"] <= 1e-9
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "report.json").exists()
        assert csv_header(tmp_path / "trajectory.csv") == [
            "t", *AMPLITUDES, *POPULATIONS, "eta", "infidelity_zeroth", "infidelity_first"]
        assert csv_header(tmp_path / "comparison.csv") == [
            "t", "infidelity_zeroth", "infidelity_first", "eta"]

    def test_csv_row_count(self, tmp_path):
        cfg = parse_config(base_config())
        run_scenario(cfg, tmp_path)
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == cfg.grid.n_steps + 2  # header + nodes

    def test_json_report_round_trips(self, tmp_path):
        cfg = parse_config(base_config())
        report = run_scenario(cfg, tmp_path)
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == report

    def test_deterministic_outputs(self, tmp_path):
        cfg = parse_config(base_config())
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for name in ("trajectory.csv", "comparison.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_table_writer_matches_per_value_format(self, tmp_path):
        # 2^-25 and (2^52 + 1) / 8 = 562949953421312.125 are decimal ties at
        # 17 digits (the second prints as ...12, its neighbours 1/8 away as
        # ...312 and ...312.25), and log10(1e-304) rounds up to the next decade
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1,
                   1.0 / 3.0, 2.0 ** 53 + 2.0, -7.0, 2.0 ** -25, 1e-304,
                   1.7976931348623157e308, (2 ** 52 + 1) / 8, (2 ** 52) / 8,
                   (2 ** 52 + 2) / 8]
        # enough rows that the table crosses a block boundary of the writer;
        # column j repeats the special values from special[j]
        width = len(special) + 1
        n_rows = spinpair.scenario._CSV_BLOCK // width + 100
        cycle = np.resize(special, n_rows + len(special))
        columns = [cycle[j:][:n_rows] for j in range(len(special))]
        columns.append(np.linspace(-1.0, 1.0, n_rows))
        header = [f"c{j}" for j in range(width)]
        rows = np.column_stack(columns)
        spinpair.scenario.write_outputs(tmp_path, "csv", {},
                                        {"t": dict(zip(header, columns))})
        expected = ",".join(header) + "\n" + "".join(
            ",".join(f"{float(v):.17g}" for v in row) + "\n" for row in rows)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()
        spinpair.scenario.write_outputs(tmp_path, "json", {},
                                        {"t": dict(zip(header, columns))})
        # JSON has no token for NaN or an infinity: they are written as null
        payload = {"columns": header,
                   "rows": [[float(v) if math.isfinite(v) else None for v in row]
                            for row in rows]}
        expected = json.dumps(payload, indent=2) + "\n"
        assert (tmp_path / "t.json").read_bytes() == expected.encode()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(values=st.lists(st.floats() | st.sampled_from(
               [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-308]),
               min_size=1, max_size=80),
           width=st.integers(1, 40), extra_rows=st.integers(0, 3))
    def test_table_writer_matches_per_value_format_on_any_floats(
            self, tmp_path_factory, values, width, extra_rows):
        # any floats, with both zeros, nan, both infinities and subnormals
        # drawn for sure, tiled over rows that reach or cross the writer's
        # block boundary
        n_rows = spinpair.scenario._CSV_BLOCK // width + extra_rows
        rows = np.resize(np.array(values), (n_rows, width))
        out = tmp_path_factory.mktemp("writer")
        header = [f"c{j}" for j in range(width)]
        write_outputs(out, "csv", {}, {"t": dict(zip(header, rows.T))})
        lines = (out / "t.csv").read_bytes().decode().splitlines()
        assert lines[0] == ",".join(header)
        assert lines[1:] == [",".join("%.17g" % v for v in row) for row in rows.tolist()]

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), width=st.integers(1, 33))
    def test_table_writer_matches_per_value_format_at_and_beside_ties(self, seed, width):
        # exact 18-digit ties and their two neighbours, values within
        # 60-67/128 of a 17-digit tie at every decade from -12 to 17,
        # 3-digit exponents, subnormals and signed zeros, in rows of any width
        families = writer_values.families(np.random.default_rng(seed), 48)
        # the generator selects near ties with the extended product, if any
        extended = spinpair.scenario._csv_tables()["extended"]
        for value in families["near_ties"].tolist() if extended else []:
            exact = abs(Fraction(value))
            decade = math.floor(math.log10(exact))
            decade += (exact >= Fraction(10) ** (decade + 1)) - (exact < Fraction(10) ** decade)
            assert -12 <= decade <= 17
            assert 60 <= math.floor(exact * Fraction(10) ** (16 - decade) * 128) % 128 <= 67
        values = np.concatenate(list(families.values()))
        rows = np.resize(np.random.default_rng(seed).permuted(values),
                         (-(-len(values) // width), width))
        lines = writer_values.format_rows(rows).decode().split("\n")
        assert lines.pop() == ""
        assert lines == [",".join("%.17g" % v for v in row) for row in rows.tolist()]

    def test_writer_powers_are_rounded_to_nearest(self):
        # each 10^k * 2^7, k = 16 - X, of the digit stage within half a unit
        # in the last place of its 64-bit significand, checked in exact
        # rational arithmetic
        tables = spinpair.scenario._csv_tables()
        if not tables["extended"]:
            pytest.skip("no 64-bit extended significand: every value falls back")
        for x in range(*spinpair.scenario._CSV_EXPONENTS):
            k = 16 - x
            mantissa, exponent = np.frexp(tables["powers"][x])
            ulp = Fraction(2) ** (int(exponent) - 64)
            value = int(np.ldexp(mantissa, 64)) * ulp
            assert abs(value - Fraction(10) ** k * 128) <= ulp / 2, k
            # 5^k < 2^64 for k in 0..27: the narrow tie band rests on these
            # powers being exact
            assert (value == Fraction(10) ** k * 128) == (0 <= k <= 27), k

    def test_writer_without_extended_type_formats_every_value_per_value(
            self, monkeypatch):
        tables = dict(spinpair.scenario._csv_tables(), extended=False)
        monkeypatch.setattr(spinpair.scenario, "_csv_tables", lambda: tables)
        rows = np.array([[0.1, -2.5e-300, 1e22], [np.nan, 7.0, -0.0]])
        text = writer_values.format_rows(rows).decode()
        assert text == "".join(",".join("%.17g" % v for v in row) + "\n"
                               for row in rows.tolist())

    def test_propagator_dump(self, tmp_path):
        cfg = parse_config(base_config(outputs=["trajectory", "propagator"],
                                       initial_state="chi1"))
        report = run_scenario(cfg, tmp_path)
        assert "propagator" in report["outputs"]
        header = (tmp_path / "propagator.csv").read_text().splitlines()[0]
        assert header.startswith("t,re_u11,im_u11")
        assert csv_header(tmp_path / "propagator.csv") == ["t"] + [
            f"{part}_u{i}{j}" for i in range(1, 5) for j in range(1, 5)
            for part in ("re", "im")]
        assert csv_header(tmp_path / "trajectory.csv") == [
            "t", *AMPLITUDES, *POPULATIONS, "eta"]

    def test_json_format_trajectory(self, tmp_path):
        cfg = parse_config(base_config(outputs=["trajectory"],
                                       initial_state="chi1"))
        run_scenario(cfg, tmp_path, fmt="json")
        payload = json.loads((tmp_path / "trajectory.json").read_text())
        assert payload["columns"][0] == "t"
        assert len(payload["rows"]) == cfg.grid.n_steps + 1

    def test_general_theta_lab_run(self, tmp_path):
        cfg_dict = base_config(initial_state="chi1", outputs=["trajectory"])
        cfg_dict["system"]["orientation"] = 0.7
        cfg = parse_config(cfg_dict)
        report = run_scenario(cfg, tmp_path)
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert "re_phi1" not in header  # no frame companion away from 0, pi/2
        assert csv_header(tmp_path / "trajectory.csv") == [
            "t", *AMPLITUDES[:8], *POPULATIONS, "eta"]
        assert report["summary"]["survival_probability"] <= 1.0

    def test_one_reference_run_per_compared_point(self, tmp_path, monkeypatch):
        calls = []
        original = spinpair.scenario.reference_propagate

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for module in (spinpair.scenario, spinpair.analysis):
            monkeypatch.setattr(module, "reference_propagate", counting)
        config = base_config(outputs=["trajectory", "comparison"])
        config["profile"] = {"kind": "tanh", "omega_mid": 3.0,
                             "amplitude": 2.0, "tau": 2.0}
        config["grid"] = {"t_start": -4.0, "t_end": 8.0, "n_steps": 100}
        config["sweep"] = {"parameter": "rate", "values": [1.0, 0.5, 0.25]}
        cfg = parse_config(config)
        run_scenario(cfg, tmp_path / "single")
        assert len(calls) == 1
        report = run_sweep(cfg, tmp_path / "sweep")
        assert len(calls) == 4
        assert len(report["summary"]["points"]) == 3
        assert len(set(calls[1:])) == 3

    def test_compared_point_reads_node_data_once(self, tmp_path, monkeypatch):
        # the reference evaluates the field on the nodes once and keeps it on
        # the trajectory; the rotations, the eta profile and the comparison's
        # gauge diagnostics all read it from there
        cfg = load_config(SCENARIOS / "tanh_compare.json")
        nodes = cfg.grid.times()
        counts = {"evaluate": 0, "frame_rotations": 0, "adiabaticity_profile": 0}
        evaluate = FieldProfile.evaluate

        def counting_evaluate(self, t):
            if np.shape(t) == nodes.shape and np.array_equal(t, nodes):
                counts["evaluate"] += 1
            return evaluate(self, t)

        monkeypatch.setattr(FieldProfile, "evaluate", counting_evaluate)

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        wrappers = {
            "frame_rotations": counted("frame_rotations",
                                       spinpair.propagators.frame_rotations),
            "adiabaticity_profile": counted("adiabaticity_profile",
                                            spinpair.fields.adiabaticity_profile),
        }
        # wrapped under every module name it is looked up by
        for module in (spinpair.fields, spinpair.propagators,
                       spinpair.analysis, spinpair.scenario):
            for name, wrapper in wrappers.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        run_scenario(cfg, tmp_path)
        assert counts["evaluate"] == 1
        assert counts["frame_rotations"] == 1
        assert counts["adiabaticity_profile"] == 1

    @pytest.mark.parametrize("orientation", ["parallel", "perpendicular"])
    def test_propagator_dump_from_frame_start(self, tmp_path, orientation):
        # a phi* start integrates in the frame and converts R(t) U R(t0)^dagger;
        # a chi* start integrates the lab propagator directly
        config = base_config(outputs=["propagator"])
        config["system"]["orientation"] = orientation
        config["profile"] = {"kind": "tanh", "omega_mid": 3.0,
                             "amplitude": 2.0, "tau": 2.0}
        config["grid"] = {"t_start": -4.0, "t_end": 8.0, "n_steps": 120}
        config["integrator"] = {"tol_per_time": 1e-9}
        dumps = {}
        for start in ("phi2", "chi2"):
            cfg = parse_config(dict(config, initial_state=start))
            run_scenario(cfg, tmp_path / start)
            table = np.loadtxt(tmp_path / start / "propagator.csv", delimiter=",",
                               skiprows=1)
            dumps[start] = (table[:, 1::2] + 1j * table[:, 2::2]).reshape(-1, 4, 4)
        target = 2.0 * cfg.tol_per_time * cfg.grid.duration
        assert np.max(np.abs(dumps["phi2"] - dumps["chi2"])) <= target
        assert unitarity_defect(dumps["phi2"]) <= 1e-12

    def test_summary_flags_fast_ramp(self, tmp_path):
        config = base_config(outputs=["comparison"])
        config["profile"] = {"kind": "tanh", "omega_mid": 0.5,
                             "amplitude": 2.0, "tau": 0.5}
        config["grid"] = {"t_start": -1.0, "t_end": 2.0, "n_steps": 200}
        summary = run_scenario(parse_config(config), tmp_path)["summary"]
        eta = np.loadtxt(tmp_path / "comparison.csv", delimiter=",",
                         skiprows=1)[:, 3]
        assert summary["max_eta"] == np.max(np.abs(eta))
        assert summary["max_eta"] > ADIABATIC_WARNING_THRESHOLD
        assert summary["adiabatic_warning"]

    def test_unknown_format_writes_nothing(self, tmp_path):
        config = base_config(outputs=["comparison"])
        config["sweep"] = {"parameter": "rate", "values": [1.0, 0.5]}
        config["profile"] = {"kind": "linear", "omega_start": 1.0, "rate": 0.1}
        cfg = parse_config(config)
        for run in (run_scenario, run_sweep):
            with pytest.raises(ConfigError):
                run(cfg, tmp_path / "out", fmt="xml")
            assert not (tmp_path / "out").exists()

    def test_custom_initial_state(self, tmp_path):
        amp = 1.0 / np.sqrt(2.0)
        cfg = parse_config(base_config(
            initial_state=[[amp, 0.0], [0.0, amp], [0.0, 0.0], [0.0, 0.0]],
            outputs=["trajectory"],
        ))
        report = run_scenario(cfg, tmp_path)
        assert report["summary"]["initial_state"] == "custom"

    @pytest.mark.parametrize("rate", [0.5, -0.5])
    def test_omega0_sweep_spans_each_value_symmetrically(self, tmp_path, rate):
        config = base_config(outputs=["comparison"])
        config["profile"] = {"kind": "linear", "omega_start": 0.0, "rate": rate}
        config["sweep"] = {"parameter": "omega0", "values": [2.0, 3.0]}
        cfg = parse_config(config)
        for value in (2.0, 3.0):
            point = _scaled_scenario(cfg, "omega0", value)
            ends = [point.grid.t_start, point.grid.t_end]
            w, _ = point.params.profile.evaluate(np.array(ends))
            np.testing.assert_allclose(w, np.sign(rate) * np.array([-value, value]),
                                       rtol=1e-15)
        # the field along the axis sweeps the central pair through its
        # crossing: every row carries the Landau-Zener prediction
        report = run_sweep(cfg, tmp_path)
        rows = report["summary"]["points"]
        assert [row["value"] for row in rows] == [2.0, 3.0]
        assert all(0.0 < row["lz_prediction"] < 1.0 for row in rows)
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header.split(",")[-1] == "lz_prediction"
        assert csv_header(tmp_path / "sweep.csv") == [
            "value", "survival_probability", "max_eta", "final_infidelity_zeroth",
            "final_infidelity_first", "final_beta_sq_central", "lz_prediction"]

    @pytest.mark.parametrize("s", [2.0, 0.25])
    def test_rate_point_runs_a_harmonic_drive_on_a_compressed_time_axis(self, s):
        config = base_config(profile={"kind": "harmonic", "omega0": 3.0, "amplitude": 0.5,
                                      "angular_frequency": 0.7, "phase": 0.3},
                             grid={"t_start": -1.0, "t_end": 9.0, "n_steps": 40},
                             sweep={"parameter": "rate", "values": [s]})
        cfg = parse_config(config)
        point = _scaled_scenario(cfg, "rate", s)
        assert point.params.profile == Harmonic(3.0, 0.5, 0.7 * s, 0.3)
        assert point.grid == TimeGrid(-1.0 / s, 9.0 / s, 40)
        assert dataclasses.replace(point.params, profile=cfg.params.profile) == cfg.params
        # the same drive, s times as fast: the field at t / s is the field at t
        t = cfg.grid.times()
        w, wdot = cfg.params.profile.evaluate(t)
        w_s, wdot_s = point.params.profile.evaluate(t / s)
        np.testing.assert_allclose(w_s, w, rtol=1e-13)
        np.testing.assert_allclose(wdot_s, s * wdot, rtol=0, atol=1e-13)

    def test_json_files_write_non_finite_numbers_as_null(self, tmp_path):
        report = {"summary": {"max_eta": math.inf, "points": [{"v": math.nan}, 1.5]}}
        columns = [np.array([0.0, 1.0]), np.array([-np.inf, 2.0])]
        write_outputs(tmp_path, "json", report,
                      {"trajectory": dict(zip(["t", "eta"], columns))})

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        on_disk = {name: json.loads((tmp_path / name).read_text(), parse_constant=reject)
                   for name in ("report.json", "trajectory.json")}
        assert on_disk["report.json"]["summary"] == {"max_eta": None,
                                                     "points": [{"v": None}, 1.5]}
        assert on_disk["trajectory.json"]["rows"] == [[0.0, None], [1.0, 2.0]]
        # the report is updated to match its file; CSV keeps inf
        assert report == json.loads((tmp_path / "report.json").read_text())
        write_outputs(tmp_path / "csv", "csv", {},
                      {"trajectory": dict(zip(["t", "eta"], columns))})
        assert (tmp_path / "csv" / "trajectory.csv").read_text() == "t,eta\n0,-inf\n1,2\n"


# a drive slow enough that the round-off of the rate checks' central
# difference alone is more than 1e-5 of its smallest rates
ROUNDOFF_CONFIG = {
    "system": {"a_par": 0.932643, "a_perp": 0.45963, "zeta": 0.002821,
               "orientation": "parallel"},
    "profile": {"kind": "tanh", "omega_mid": 2.701668, "amplitude": 0.047825,
                "tau": 3.751510692420724},
    "grid": {"t_start": -7.503021384841448, "t_end": 15.006042769682896, "n_steps": 171},
    "initial_state": "phi2", "outputs": ["comparison"],
    "integrator": {"tol_per_time": 1e-10}, "seed": 1,
}
RATE_CHECKS = ("profile_rate_consistency", "angle_rate_consistency")


BLOCK = spinpair.scenario._CSV_BLOCK


def adversarial_tables(shapes, seed=0):
    """Tables ``t0, t1, ...`` of the given ``(width, rows)``, filled with
    ties, their neighbours, near ties and extremes, signed zeros, nan and
    both infinities."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([*writer_values.families(rng, 512).values(),
                           [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, 1e16, 0.1]])
    tables = {}
    for k, (width, rows) in enumerate(shapes):
        values = rng.choice(pool, (rows, width))
        tables[f"t{k}"] = {f"c{j}": values[:, j] for j in range(width)}
    return tables


def expected_csv(table) -> bytes:
    rows = np.column_stack(list(table.values()))
    return (",".join(table) + "\n").encode() + writer_values.per_value(rows)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs, counted at ``_beside``'s
    ``threading.Thread``."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(spinpair.propagators.threading, "Thread", Counted)
    return started


# the worker's first compaction waits while the producer fills the queue
# and blocks on it, then fails as a full disk does
FULL_DISK = """
def full(slots):
    time.sleep(0.3)
    raise OSError(errno.ENOSPC, "No space left on device")
scenario._compact = full
"""


class TestCsvPipeline:
    """The CSV writer formats blocks on the calling thread and compacts and
    writes them on one worker, once a set holds more than one block of
    values."""

    @pytest.mark.parametrize("shapes", [
        [(16, BLOCK // 16), (32, BLOCK // 32)],
        [(16, BLOCK // 16 + 1)],
        [(14, 3 * (BLOCK // 14) + 5), (33, 2 * (BLOCK // 33) + 7)],
        [(33, BLOCK // 33 + 40), (7, 2 * (BLOCK // 7) + 3), (3, 50)]],
        ids=["one-block-each", "one-block-and-a-row", "straddling-tables",
             "widths-that-do-not-divide"])
    def test_pipeline_matches_inline_and_per_value_format(self, tmp_path, thread_starts,
                                                          shapes):
        tables = adversarial_tables(shapes)
        for side in ("pipeline", "inline"):
            (tmp_path / side).mkdir()
        spinpair.scenario._write_csv_tables(tmp_path / "pipeline", tables)
        assert len(thread_starts) == 1
        spinpair.scenario._write_items(spinpair.scenario._csv_items(tmp_path / "inline", tables))
        for kind, table in tables.items():
            written = (tmp_path / "pipeline" / f"{kind}.csv").read_bytes()
            assert written == (tmp_path / "inline" / f"{kind}.csv").read_bytes()
            assert written == expected_csv(table)

    @pytest.mark.parametrize("extra, threads", [(0, 0), (1, 1)])
    def test_a_set_of_at_most_one_block_starts_no_thread(self, tmp_path, thread_starts,
                                                         extra, threads):
        # two tables of one half block each, and a third of `extra` values
        shapes = [(16, BLOCK // 32), (32, BLOCK // 64)] + [(1, extra)] * (extra > 0)
        tables = adversarial_tables(shapes)
        spinpair.scenario._write_csv_tables(tmp_path, tables)
        assert len(thread_starts) == threads
        for kind, table in tables.items():
            assert (tmp_path / f"{kind}.csv").read_bytes() == expected_csv(table)

    def test_pipeline_without_extended_type(self, tmp_path, monkeypatch, thread_starts):
        tables = dict(spinpair.scenario._csv_tables(), extended=False)
        monkeypatch.setattr(spinpair.scenario, "_csv_tables", lambda: tables)
        data = adversarial_tables([(14, BLOCK // 14 + 9), (33, 2 * (BLOCK // 33) + 1)])
        spinpair.scenario._write_csv_tables(tmp_path, data)
        assert len(thread_starts) == 1
        for kind, table in data.items():
            assert (tmp_path / f"{kind}.csv").read_bytes() == expected_csv(table)

    @pytest.mark.parametrize("failing, setup", [
        ("trajectory", '(out / "trajectory.csv").mkdir()'),
        ("propagator", '(out / "propagator.csv").mkdir()'),
        ("trajectory", FULL_DISK)], ids=["trajectory-is-a-directory",
                                         "propagator-is-a-directory", "disk-full"])
    def test_failed_write_is_io_error_with_every_file_closed(self, tmp_path, failing, setup):
        # a directory in place of either table: the first fails before any
        # block is written, the second after the first table is whole; or a
        # full disk at the first block, once the producer waits on a full
        # queue.  A file left open would print an error here under -W
        # error::ResourceWarning, and a producer left waiting on the worker
        # would hang to the timeout
        script = f"""
import errno, gc, json, threading, time
import numpy as np
from pathlib import Path
from spinpair import scenario
from spinpair.errors import IoError
out = Path({str(tmp_path)!r})
{setup}
rows = np.linspace(-1.0, 1.0, 6 * scenario._CSV_BLOCK).reshape(-1, 16)
tables = {{kind: {{f"c{{j}}": rows[:, j] for j in range(16)}}
          for kind in ("trajectory", "propagator")}}
try:
    scenario.write_outputs(out, "csv", {{}}, tables)
except IoError as exc:
    message = str(exc)
gc.collect()
print(json.dumps({{"error": message, "threads": threading.active_count()}}))
"""
        package_root = str(Path(spinpair.scenario.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", script],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": package_root})
        assert done.returncode == 0 and done.stderr == "", done.stderr
        result = json.loads(done.stdout)
        assert f"{failing}.csv" in result["error"] and result["threads"] == 1


def skew_rate(values, factor):
    """A profile's ``_values`` with its rate scaled by ``factor``."""
    def skewed(self, t):
        w, wdot = values(self, t)
        return w, wdot * factor
    return skewed


class SkewedTanh(TanhRamp):
    """A tanh ramp whose rate is off by 1e-4 relative."""

    _values = skew_rate(TanhRamp._values, 1.0 + 1e-4)


class TestValidation:
    def test_all_checks_pass(self):
        cfg = parse_config(base_config(outputs=["trajectory"]))
        report = run_validation(cfg)
        assert report["all_pass"], report["checks"]

    def test_non_hermitian_hamiltonian_fails(self, monkeypatch):
        # the check reads the Hamiltonian stack the propagators build
        def skewed(params, times):
            h = hamiltonian_batch(params, times)
            h[:, 0, 1] += 1e-9
            return h

        monkeypatch.setattr(spinpair.scenario, "hamiltonian_batch", skewed)
        report = run_validation(parse_config(base_config(outputs=["trajectory"])))
        check = report["checks"]["hamiltonian_hermiticity"]
        assert not check["pass"] and check["value"] == pytest.approx(1e-9)
        assert not report["all_pass"]

    @pytest.mark.parametrize("profile, code", [(TanhRamp, 0), (SkewedTanh, 3)])
    def test_rate_checks_fail_a_wrong_rate_only(self, tmp_path, monkeypatch, profile,
                                                 code):
        monkeypatch.setitem(_PROFILES, "tanh", profile)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(ROUNDOFF_CONFIG))
        assert main(["validate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")]) == code
        checks = json.loads((tmp_path / "out" / "validation.json").read_text())["checks"]
        assert [checks[name]["pass"] for name in RATE_CHECKS] == [code == 0] * 2

    @pytest.mark.parametrize("name", ["lz_sweep", "oblique_propagate", "rate_sweep",
                                      "tabulated_compare", "tanh_compare"])
    def test_shipped_drives_fail_a_wrong_rate(self, monkeypatch, name):
        config = load_config(SCENARIOS / f"{name}.json")
        cls = type(config.params.profile)
        assert run_validation(config)["all_pass"]
        monkeypatch.setattr(cls, "_values", skew_rate(cls._values, 1.0 + 1e-4))
        checks = run_validation(config)["checks"]
        failing = RATE_CHECKS if config.params.is_special_orientation else RATE_CHECKS[:1]
        assert [checks[check]["pass"] for check in failing] == [False] * len(failing)

    def test_general_theta_subset(self):
        cfg_dict = base_config(initial_state="chi1", outputs=["trajectory"])
        cfg_dict["system"]["orientation"] = 0.5
        report = run_validation(parse_config(cfg_dict))
        assert report["all_pass"]
        assert "frame_diagonalization" not in report["checks"]


class TestCli:
    def write(self, tmp_path, config):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        return path

    def test_propagate_success(self, tmp_path):
        path = self.write(tmp_path, base_config(outputs=["trajectory"]))
        code = main(["propagate", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_compare_subcommand(self, tmp_path):
        path = self.write(tmp_path, base_config())
        code = main(["compare", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "comparison.csv").exists()

    @pytest.mark.parametrize("orientation", ["parallel", "perpendicular"])
    def test_compare_reports_the_corner_probability_across_the_axis_only(self, tmp_path,
                                                                          orientation):
        config = base_config(profile={"kind": "tanh", "omega_mid": 3.0, "amplitude": 2.0,
                                      "tau": 4.0},
                             grid={"t_start": -8.0, "t_end": 16.0, "n_steps": 60})
        config["system"]["orientation"] = orientation
        path = self.write(tmp_path, config)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "report.json").read_text())["summary"]
        cfg = load_config(path)
        _, _, first = full_propagator_paths(cfg.params, cfg.grid)
        central, corner = (abs(first[-1, i, j]) ** 2 for i, j in BLOCK_SLOTS)
        assert summary["final_beta_sq_central"] == central
        if orientation == "parallel":
            assert "final_beta_sq_corner" not in summary
        else:
            assert summary["final_beta_sq_corner"] == corner > 0.0

    @pytest.mark.parametrize("command", ["compare", "validate"])
    def test_uncoupled_central_pair_runs_on_either_side_of_the_axis(self, tmp_path,
                                                                   command):
        # the central coupling 2 a_perp + delta is 0 in both systems: one gap
        # rule gives them the same exit and a report each
        runs = {}
        for name, system in (("along", {"a_par": 1.0, "a_perp": 0.0,
                                        "orientation": "parallel"}),
                             ("across", {"a_par": -0.5, "a_perp": 0.5,
                                         "orientation": "perpendicular"})):
            config = base_config(system=dict(system, zeta=0.1),
                                 profile={"kind": "linear", "omega_start": -2.0,
                                          "rate": 1.0},
                                 grid={"t_start": 0.0, "t_end": 4.0, "n_steps": 40})
            out = tmp_path / name
            code = main([command, "--config", str(self.write(tmp_path, config)),
                         "--out", str(out), "--quiet"])
            runs[name] = (code, sorted(path.name for path in out.iterdir()))
        assert runs["along"] == runs["across"]
        assert runs["along"][0] == 0

    def test_compare_requires_comparison_output(self, tmp_path):
        path = self.write(tmp_path, base_config(outputs=["trajectory"]))
        code = main(["compare", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2

    def test_config_error_exit_code_and_no_outputs(self, tmp_path):
        bad = base_config()
        bad["grid"]["n_steps"] = -5
        path = self.write(tmp_path, bad)
        out = tmp_path / "out"
        code = main(["propagate", "--config", str(path),
                     "--out", str(out), "--quiet"])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [
        (json.dumps(base_config(outputs=["trajectory"])).encode("utf-16"), "not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        (json.dumps(base_config(outputs=["trajectory"], seed=-1)).encode(),
         "seed must be a non-negative integer"),
    ], ids=["utf-16", "nested-too-deep", "negative-seed"])
    def test_malformed_config_exits_2_without_traceback(self, tmp_path, content,
                                                         message):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        env = dict(os.environ)
        package_root = str(Path(spinpair.fields.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "spinpair.cli", "validate", "--config", str(path),
             "--quiet"], capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("config error: ")
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, grid, code, stderr", [
        ("validate", {"t_start": 0.0, "t_end": 1e-300}, 0, ""),
        ("propagate", {"t_start": 0.0, "t_end": 1e-300}, 3,
         "compute error [spinpair.errors.ToleranceNotMet]: refinement stalled"),
        ("validate", {"t_start": -1e308, "t_end": 1e308}, 2,
         "config error: grid: grid duration t_end - t_start must be finite"),
        ("propagate", {"t_start": -1e308, "t_end": 1e308}, 2,
         "config error: grid: grid duration t_end - t_start must be finite"),
    ], ids=["validate-tiny", "propagate-tiny", "validate-overflow", "propagate-overflow"])
    def test_extreme_grid_exits_without_traceback(self, tmp_path, command, grid, code,
                                                  stderr):
        # validation draws its sample times from a grid shorter than its
        # finite-difference steps; a span that overflows is a config error
        path = self.write(tmp_path, base_config(
            outputs=["trajectory"], grid=dict(grid, n_steps=10)))
        env = dict(os.environ)
        package_root = str(Path(spinpair.fields.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "spinpair.cli", command, "--config", str(path),
             "--out", str(tmp_path / "out"), "--quiet"],
            capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode == code, result.stderr
        assert result.stderr.startswith(stderr)
        assert "Traceback" not in result.stderr

    def test_overflowing_sweep_stops_at_the_first_halving(self, tmp_path, capsys):
        # a valid rate whose steps overflow to NaN: more halvings cannot help
        config = json.loads((SCENARIOS / "lz_sweep.json").read_text())
        config["sweep"] = {"parameter": "rate", "values": [1e308]}
        path = self.write(tmp_path, config)
        out = tmp_path / "out"
        # the overflow is reported once, as the typed error: no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 3
        message = capsys.readouterr().err
        assert message.startswith("compute error [spinpair.errors.ToleranceNotMet]")
        assert "after 1 halvings" in message
        assert message.count("\n") == 1 and message.endswith("\n")
        assert not out.exists()

    def test_overflowing_step_norm_exits_3(self, tmp_path, capsys):
        # a finite a_par whose 4x4 step norm overflows the squaring count:
        # the level is not finite, which the reference reports as its error
        config = json.loads((SCENARIOS / "oblique_propagate.json").read_text())
        config["system"]["a_par"] = 1.7e308
        config["grid"]["n_steps"] = 1
        config["integrator"] = {"max_halvings": 2}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["propagate", "--config", str(self.write(tmp_path, config)),
                         "--out", str(out), "--quiet"])
        assert code == 3
        message = capsys.readouterr().err
        assert message.startswith("compute error [spinpair.errors.ToleranceNotMet]")
        assert message.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("tol_per_time, reason", [
        (1e-6, "unitarity defect 1.000e+00"), (0.1, "shortest column 0.000e+00"),
        (0.2, "is 0.5 or more")], ids=["tight", "loose", "one-half-or-more"])
    def test_all_zero_general_angle_run_exits_3(self, tmp_path, capsys, tol_per_time,
                                                 reason):
        # a finite a_par whose 4x4 steps take hundreds of squarings: their
        # round-off leaves every step all zeros, so the levels agree exactly,
        # and the last node's unitarity defect of 1 refutes that certificate;
        # at a target of 0.4 its columns of norm 0 do, and a target of 0.8 is
        # refused before the first level
        config = json.loads((SCENARIOS / "oblique_propagate.json").read_text())
        config["system"]["a_par"] = 1e200
        config["grid"] = {"t_start": 0.0, "t_end": 4.0, "n_steps": 40}
        config["integrator"] = {"tol_per_time": tol_per_time}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["propagate", "--config", str(self.write(tmp_path, config)),
                         "--out", str(out), "--quiet"])
        assert code == 3
        message = capsys.readouterr().err
        assert message.startswith("compute error [spinpair.errors.ToleranceNotMet]")
        assert reason in message
        assert message.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("quiet", [True, False], ids=["quiet", "verbose"])
    def test_failed_validation_names_its_checks_on_stderr(self, tmp_path, capsys, quiet):
        # the same overflowing a_par fails validation: the exit, the report
        # and one stderr line say so, with or without --quiet
        config = json.loads((SCENARIOS / "oblique_propagate.json").read_text())
        config["system"]["a_par"] = 1.7e308
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["validate", "--config", str(self.write(tmp_path, config)),
                         "--out", str(out)] + ["--quiet"] * quiet)
        assert code == 3
        captured = capsys.readouterr()
        report = json.loads((out / "validation.json").read_text())
        failed = {name for name, entry in report["checks"].items() if not entry["pass"]}
        assert "propagator_unitarity" in failed and not report["all_pass"]
        assert captured.err.startswith("validation failed: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        named = captured.err[19:-1].split(", ")
        assert set(named) == failed
        # in the order the verbose lines list them
        listed = [line.split()[1].rstrip(":") for line in captured.out.splitlines()
                  if line.startswith("FAIL")]
        assert listed == ([] if quiet else named)

    @pytest.mark.parametrize("command", ["propagate", "compare"])
    def test_one_halving_budget_on_a_grid_without_a_coarse_rung_exits_3(
            self, tmp_path, capsys, command):
        # samples denser than the grid leave knot intervals of one cell, so
        # the midpoint ladder that a one-halving budget selects has two
        # levels: the run names the budget it needs before it steps
        config = base_config(
            profile={"kind": "tabulated", "times": [0.0, 0.3, 0.6, 0.9, 5.0],
                     "omegas": [2.0, 2.1, 2.3, 2.2, 2.6]},
            grid={"t_start": 0.0, "t_end": 5.0, "n_steps": 10},
            integrator={"max_halvings": 1, "tol_per_time": 1e-3})
        out = tmp_path / "out"
        code = main([command, "--config", str(self.write(tmp_path, config)),
                     "--out", str(out), "--quiet"])
        assert code == 3
        message = capsys.readouterr().err
        assert message.startswith("compute error [spinpair.errors.ToleranceNotMet]")
        assert "needs max_halvings >= 2" in message
        assert message.count("\n") == 1
        assert not out.exists()
        config["integrator"]["max_halvings"] = 2
        code = main([command, "--config", str(self.write(tmp_path, config)),
                     "--out", str(out), "--quiet"])
        assert code == 0

    @pytest.mark.parametrize("change", [
        {"system": {"a_par": 1.0, "a_perp": 1.7e308, "zeta": 0.1,
                    "orientation": "perpendicular"}},
        {"profile": {"kind": "linear", "omega_start": 1.7e308, "rate": 1e308}},
    ], ids=["hyperfine", "field"])
    def test_validate_on_overflowing_values_fails_its_checks_quietly(self, tmp_path,
                                                                     capsys, change):
        # every check whose value is not finite fails; numpy does not warn,
        # and the one stderr line names the failed checks
        config = dict(json.loads((SCENARIOS / "tanh_compare.json").read_text()), **change)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["validate", "--config", str(self.write(tmp_path, config)),
                         "--out", str(out), "--quiet"])
        assert code == 3
        message = capsys.readouterr().err
        assert message.startswith("validation failed: ") and message.count("\n") == 1
        assert "spectrum_closure" in message
        report = json.loads((out / "validation.json").read_text())
        assert not report["all_pass"]
        assert report["checks"]["spectrum_closure"] == {
            "pass": False, "threshold": 1e-11, "value": None}

    def test_grid_too_large_to_allocate_exits_3(self, tmp_path, capsys):
        # 10**15 steps pass the config check, but no machine holds their
        # times: numpy refuses the allocation before taking any memory
        config = json.loads((SCENARIOS / "lz_sweep.json").read_text())
        config["grid"]["n_steps"] = 10 ** 15
        out = tmp_path / "out"
        code = main(["propagate", "--config", str(self.write(tmp_path, config)),
                     "--out", str(out), "--quiet"])
        assert code == 3
        message = capsys.readouterr().err
        assert message.startswith("compute error [MemoryError]: ")
        assert message.count("\n") == 1
        assert not out.exists()

    def test_unswept_splitting_reports_no_lz_prediction(self, tmp_path):
        # zeta = 1: the central splitting omega (1 - zeta) stays 0, so a ramp
        # never sweeps it through the gap and there is nothing to predict
        config = json.loads((SCENARIOS / "lz_sweep.json").read_text())
        config["system"]["zeta"] = 1.0
        config["grid"]["n_steps"] = 200
        out = tmp_path / "out"
        code = main(["propagate", "--config", str(self.write(tmp_path, config)),
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert "lz_prediction" not in json.loads((out / "report.json").read_text())["summary"]

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["propagate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 4

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["propagate", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("change", [
        {"outputs": [["trajectory"]]},
        {"outputs": [{"kind": "trajectory"}]},
        {"initial_state": [["a", 0], [1, 0], [0, 0], [0, 0]]},
        {"initial_state": [[None, 0], [1, 0], [0, 0], [0, 0]]},
        {"initial_state": [[math.nan, 0], [1, 0], [0, 0], [0, 0]]},
    ])
    def test_malformed_values_are_config_errors(self, tmp_path, change):
        config = base_config(outputs=["trajectory"])
        config.update(change)
        path = self.write(tmp_path, config)
        out = tmp_path / "out"
        code = main(["propagate", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 2
        assert not out.exists()

    def large_config(self, tmp_path):
        """A propagate run whose CSV tables span several writer blocks."""
        config = base_config(outputs=["trajectory", "propagator"], initial_state="chi1",
                             grid={"t_start": 0.0, "t_end": 5.0, "n_steps": 1500})
        return self.write(tmp_path, config)

    def test_large_tables_start_no_process(self, tmp_path, monkeypatch):
        path = self.large_config(tmp_path)
        argv = ["propagate", "--config", str(path), "--quiet", "--out"]
        assert main([*argv, str(tmp_path / "json"), "--format", "json"]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the writer started a process")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        assert main([*argv, str(tmp_path / "csv")]) == 0
        for kind in ("trajectory", "propagator"):
            table = json.loads((tmp_path / "json" / f"{kind}.json").read_text())
            expected = "".join(",".join("%.17g" % v for v in row) + "\n"
                               for row in table["rows"])
            text = (tmp_path / "csv" / f"{kind}.csv").read_text()
            assert text == ",".join(table["columns"]) + "\n" + expected

    def test_write_error_mid_call_exits_4_and_names_the_path(self, tmp_path, capsys):
        path = self.large_config(tmp_path)
        # the second table's path is a directory: its open fails after the
        # first table was written
        (tmp_path / "out" / "propagator.csv").mkdir(parents=True)
        code = main(["propagate", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 4
        assert "propagator.csv" in capsys.readouterr().err
        assert (tmp_path / "out" / "trajectory.csv").stat().st_size > 0

    def test_validate_subcommand(self, tmp_path):
        path = self.write(tmp_path, base_config(outputs=["trajectory"]))
        code = main(["validate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "validation.json").exists()

    def test_validate_report_bytes(self, tmp_path):
        config = base_config(outputs=["trajectory"])
        path = self.write(tmp_path, config)
        code = main(["validate", "--config", str(path), "--quiet",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        expected = json.dumps(run_validation(parse_config(config)), indent=2,
                              sort_keys=True) + "\n"
        assert (tmp_path / "out" / "validation.json").read_bytes() == expected.encode()

    @pytest.mark.parametrize("argv, message", [
        (["simulate"], "argument command: invalid choice: 'simulate'"),
        (["propagate", "--config", "{config}"],
         "the following arguments are required: --out"),
        # validate always writes JSON, so a format flag would be ignored
        (["validate", "--config", "{config}", "--format", "csv", "--quiet",
          "--out", "{out}"], "unrecognized arguments: --format csv"),
        (["compare", "--config", "{config}", "--out", "{out}", "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
    ], ids=["unknown-subcommand", "missing-flag", "validate-rejects-format", "bad-choice"])
    def test_flag_error_prints_one_line_and_exits_2(self, tmp_path, capsys, argv,
                                                    message):
        config = self.write(tmp_path, base_config())
        argv = [arg.format(config=config, out=tmp_path / "out") for arg in argv]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert message in captured.err
        assert not (tmp_path / "out").exists()

    def test_validate_unwritable_out_is_io_error(self, tmp_path):
        path = self.write(tmp_path, base_config(outputs=["trajectory"]))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["validate", "--config", str(path), "--quiet",
                     "--out", str(blocker / "out")])
        assert code == 4

    @pytest.mark.parametrize("n_steps", [2, 9])
    def test_tabulated_compare_knots_inside_and_on_cells(self, tmp_path, n_steps):
        # knots at integer times: inside the 2 cells at non-dyadic positions,
        # on the edges of the 9 cells; the block route cuts its cells there
        knots = np.arange(10.0)
        config = base_config(outputs=["trajectory", "comparison"])
        config["system"]["orientation"] = "perpendicular"
        config["profile"] = {"kind": "tabulated", "times": knots.tolist(),
                             "omegas": (3.0 + 0.5 * np.sin(knots)).tolist()}
        config["grid"] = {"t_start": 0.0, "t_end": 9.0, "n_steps": n_steps}
        config["integrator"] = {"tol_per_time": 1e-6}
        path = self.write(tmp_path, config)
        out = tmp_path / "out"
        code = main(["compare", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "comparison.csv").exists()
        cfg = load_config(path)
        _, _, first = full_propagator_paths(cfg.params, cfg.grid)
        for k, slots in enumerate(BLOCK_SLOTS):
            np.testing.assert_allclose(first[-1][np.ix_(slots, slots)],
                                       first_order_block(cfg.params, k, knots),
                                       rtol=0, atol=1e-11)

    def csv_twin(self, tmp_path, **profile):
        """A config in its own directory whose tabulated profile names a CSV
        file under it by a relative path, and the rest of the shipped inline
        scenario ``tabulated_compare.json``."""
        inline = json.loads((SCENARIOS / "tabulated_compare.json").read_text())
        samples = zip(inline["profile"]["times"], inline["profile"]["omegas"])
        drives = tmp_path / "configs" / "drives"
        drives.mkdir(parents=True)
        (drives / "drive.csv").write_text(
            "t,omega\n" + "".join(f"{t!r},{w!r}\n" for t, w in samples))
        config = dict(inline, profile={"kind": "tabulated", "csv": "drives/drive.csv",
                                       **profile})
        path = tmp_path / "configs" / "scenario.json"
        path.write_text(json.dumps(config))
        return path

    def test_csv_profile_resolves_against_the_config_and_matches_its_inline_twin(
            self, tmp_path, monkeypatch):
        path = self.csv_twin(tmp_path)
        # a path resolved against the working directory would not exist
        monkeypatch.chdir(tmp_path)
        runs = {}
        for name, config in (("inline", SCENARIOS / "tabulated_compare.json"),
                             ("csv", path)):
            out = tmp_path / name
            assert main(["compare", "--config", str(config), "--out", str(out),
                         "--quiet"]) == 0
            runs[name] = out
        names = sorted(p.name for p in runs["inline"].iterdir())
        assert names == sorted(p.name for p in runs["csv"].iterdir())
        for name in names:
            if name != "report.json":
                assert (runs["csv"] / name).read_bytes() == (runs["inline"] / name).read_bytes()
        reports = [json.loads((out / "report.json").read_text()) for out in runs.values()]
        for report in reports:
            del report["config"]  # its profile names the samples or their file
        assert reports[0] == reports[1]

    def test_missing_csv_profile_exits_4(self, tmp_path, capsys):
        path = self.csv_twin(tmp_path)
        (path.parent / "drives" / "drive.csv").unlink()
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: cannot read tabulated profile")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_csv_profile_with_inline_samples_exits_2(self, tmp_path, capsys):
        path = self.csv_twin(tmp_path, times=[0.0, 12.0], omegas=[2.0, 4.0])
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "config error: profile(tabulated): give csv or inline samples, not both\n")
        assert not out.exists()

    def test_sweep_subcommand_ordering(self, tmp_path):
        config = base_config(outputs=["comparison"])
        config["profile"] = {"kind": "tanh", "omega_mid": 3.0,
                             "amplitude": 2.0, "tau": 2.0}
        config["grid"] = {"t_start": -4.0, "t_end": 8.0, "n_steps": 200}
        config["sweep"] = {"parameter": "rate", "values": [1.0, 0.5]}
        path = self.write(tmp_path, config)
        code = main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert values == [1.0, 0.5]

    @pytest.mark.parametrize("profile, values, message", [
        ({"kind": "linear", "omega_start": -3.0, "rate": 0.5}, [1.0, 1e-308],
         "sweep: rate value 1e-308: grid endpoints must be finite"),
        ({"kind": "tanh", "omega_mid": 3.0, "amplitude": 2.0, "tau": 1e-30}, [1e300],
         "sweep: rate value 1e+300: tanh ramp timescale tau must be positive"),
        ({"kind": "tabulated", "times": [-8.0, 16.0], "omegas": [1.0, 5.0]}, [1e-308],
         "sweep: rate value 1e-308: tabulated samples must be finite"),
    ], ids=["linear-grid-overflow", "tanh-tau-underflow", "tabulated-times-overflow"])
    @pytest.mark.filterwarnings("error")
    def test_sweep_value_that_breaks_its_point_exits_2(self, tmp_path, monkeypatch,
                                                       capsys, profile, values, message):
        config = base_config(outputs=["comparison"], profile=profile,
                             grid={"t_start": -4.0, "t_end": 8.0, "n_steps": 50},
                             sweep={"parameter": "rate", "values": values})
        path = self.write(tmp_path, config)

        def refuse(*args, **kwargs):
            raise AssertionError("a point ran before every point was built")

        # every point is built before the first one runs
        monkeypatch.setattr(spinpair.scenario, "_run_point", refuse)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()


def test_shipped_scenarios_parse():
    for name in ("lz_sweep.json", "constant_parallel.json", "tanh_compare.json",
                 "tabulated_compare.json", "rate_sweep.json", "oblique_propagate.json",
                 "lab_perpendicular.json"):
        cfg = load_config(SCENARIOS / name)
        assert cfg.grid.n_steps >= 1


SHIPPED = {path.name: json.loads(path.read_text())
           for path in sorted(SCENARIOS.glob("*.json"))}
# a second tabulated base: three samples spanning the long lz_sweep grid
FUZZ_BASES = dict(SHIPPED, tabulated=dict(
    SHIPPED["lz_sweep.json"],
    profile={"kind": "tabulated", "times": [0.0, 100.0, 200.0], "omegas": [-4.0, 0.0, 4.0]}))


def _value_paths(doc, prefix=()):
    """Key paths to every value and section of a JSON document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _value_paths(value, prefix + (key,))


# numbers that JSON parses but no finite float holds
_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400])
_SCALARS = (st.none() | st.booleans() | st.text(max_size=6) | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | _NONFINITE)
_KEYS = st.sampled_from(["kind", "omega0", "rate", "values", "parameter", "csv",
                         "times", "omegas", "a_par", "n_steps"]) | st.text(max_size=6)
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=8)
# four [re, im] pairs: the shape of a custom initial state
_PAIRS = st.lists(st.lists(_SCALARS, min_size=2, max_size=2), min_size=4, max_size=4)


@pytest.mark.parametrize("name", sorted(FUZZ_BASES))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data(), value=_JSON | _PAIRS | _NONFINITE)
def test_parse_config_fuzz(name, data, value):
    """A shipped scenario with one value or section replaced by drawn JSON
    parses to a finite, normalized config or raises ConfigError/IoError."""
    doc = copy.deepcopy(FUZZ_BASES[name])
    path = data.draw(st.sampled_from(list(_value_paths(doc))))
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        cfg = parse_config(doc, SCENARIOS)
    except (ConfigError, IoError):
        return
    assert abs(np.linalg.norm(cfg.initial_state) - 1.0) <= 1e-8
    assert all(math.isfinite(v) for v in (cfg.sweep or {}).get("values", []))
    assert math.isfinite(cfg.grid.dt)
    if isinstance(cfg.params.profile, Tabulated):
        assert np.all(np.isfinite(cfg.params.profile.times))
        assert np.all(np.isfinite(cfg.params.profile.omegas))


# finite magnitudes from the largest double down to the smallest subnormal
_MAGNITUDES = st.sampled_from([0.0, 5e-324, 2.2e-308, 1e-150, 1e-8, 0.5, 1.0, 3.0,
                               1e8, 1e150, 1e300, 1.7e308]) | st.floats(0.0, 1e3)
_FINITE = st.tuples(_MAGNITUDES, st.booleans()).map(lambda x: -x[0] if x[1] else x[0])


@st.composite
def run_documents(draw):
    """A shipped scenario with some of its numbers replaced by finite values
    of extreme magnitude, a numeric angle now and then, a grid of 1-60 steps
    and a budget of 1-5 halvings."""
    doc = copy.deepcopy(draw(st.sampled_from(list(FUZZ_BASES.values()))))
    for path in list(_value_paths(doc)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if (path and not isinstance(parent[path[-1]], bool)
                and isinstance(parent[path[-1]], (int, float))
                and path[-1] not in ("n_steps", "seed") and draw(st.booleans())):
            parent[path[-1]] = draw(_FINITE)
    if draw(st.booleans()):
        doc["system"]["orientation"] = draw(_FINITE | st.floats(0.0, math.pi))
    doc["grid"]["n_steps"] = draw(st.integers(1, 60))
    doc["integrator"] = {"max_halvings": draw(st.integers(1, 5)),
                         "tol_per_time": draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))}
    return doc


def _fuzz_found(name, system=None, profile=None, grid=None, **top):
    """The shipped scenario ``name`` with the given sections replaced."""
    doc = copy.deepcopy(SHIPPED[f"{name}.json"])
    for key, value in (("system", system), ("profile", profile), ("grid", grid)):
        if value is not None:
            doc[key] = dict(doc[key], **value)
    return dict(doc, **top)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(doc=run_documents())
# documents the search found numpy warnings on, one per site
@example(doc=_fuzz_found(  # a ramp timescale whose t / tau overflows
    "oblique_propagate", profile={"amplitude": 2.2e-308, "tau": 2.2e-308},
    grid={"n_steps": 2}, integrator={"max_halvings": 2, "tol_per_time": 1e-3}))
@example(doc=_fuzz_found(  # a ramp whose peak rate amplitude / tau overflows
    "oblique_propagate", system={"orientation": "perpendicular"},
    profile={"amplitude": -1e8, "tau": 5e-324}, grid={"n_steps": 21},
    integrator={"max_halvings": 1, "tol_per_time": 1e-12}))
@example(doc=_fuzz_found(  # running phases over a span near the largest float
    "constant_parallel", profile={"omega0": 2.2e-308}, system={"a_par": 2.2e-308},
    grid={"t_end": 1.7e308, "n_steps": 51},
    integrator={"max_halvings": 1, "tol_per_time": 1e-9}))
@example(doc=_fuzz_found(  # sample times whose differences overflow
    "tabulated_compare", profile={"times": [0.0, 2.0, 1e-150, -1.7e308, 1.7e308, 5.0,
                                            1.7e308]},
    grid={"n_steps": 2}, integrator={"max_halvings": 2, "tol_per_time": 1e-9}))
@example(doc=_fuzz_found(  # a field whose square overflows in max_eta
    "oblique_propagate", profile={"omega_mid": 1e300}, grid={"t_end": -3.0, "n_steps": 30},
    integrator={"max_halvings": 5, "tol_per_time": 1e-9}))
@example(doc=_fuzz_found(  # a central coupling whose square underflows at zero field
    "lz_sweep", system={"a_perp": 2.2e-308}, grid={"n_steps": 1},
    integrator={"max_halvings": 1, "tol_per_time": 1e-12}))
# a general-angle run whose steps round to all zeros: its levels agree exactly,
# which the grids drawn above miss, since there the steps overflow to nan
@example(doc=_fuzz_found(
    "oblique_propagate", system={"a_par": 1e200}, grid={"t_start": 0.0, "t_end": 4.0,
                                                        "n_steps": 40},
    integrator={"tol_per_time": 1e-6}))
def test_run_path_fuzz(tmp_path_factory, doc):
    """Every subcommand on a finite document ends in a documented exit (0, 2,
    3 or 4) with no numpy warning, nothing on stderr after a success and
    exactly one line after a failure; a failed run leaves no output
    directory, except the report of a validation whose checks fail, which
    its stderr line names.  A successful ``propagate`` reports final
    populations that sum to 1 within what its certificate allows."""
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "scenario.json"
    path.write_text(json.dumps(doc))
    for command in ("propagate", "compare", "sweep", "validate"):
        out = root / command
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([command, "--config", str(path), "--out", str(out), "--quiet"])
        message = stderr.getvalue()
        assert code in (0, 2, 3, 4), (command, code, message)
        if code == 0:
            assert message == "", (command, message)
            if command == "propagate":
                # the reference allows its last node U a unitarity defect of
                # 4 d (1 + d) per entry, with d the target plus round-off, and
                # the populations sum to 1 + psi0^dagger (U^dagger U - 1) psi0,
                # off 1 by at most 4 times that; 1e-7 covers the round-off and
                # the initial state's norm tolerance (1e-8)
                d = doc["integrator"]["tol_per_time"] * (doc["grid"]["t_end"]
                                                         - doc["grid"]["t_start"])
                total = sum(json.loads((out / "report.json").read_text())
                            ["summary"]["final_populations"])
                assert abs(total - 1.0) <= 16.0 * d * (1.0 + d) + 1e-7, (doc, total)
            continue
        assert message.count("\n") == 1 and message.endswith("\n"), (command, message)
        if out.exists():
            # failed checks: the report and the stderr line say which
            report = json.loads((out / "validation.json").read_text())
            assert command == "validate" and code == 3 and not report["all_pass"]
            failed = {name for name, entry in report["checks"].items() if not entry["pass"]}
            assert message.startswith("validation failed: "), message
            assert set(message[19:-1].split(", ")) == failed, message


class TestScipyFreeRuntime:
    """The package runs without scipy: the tests keep it only as a reference."""

    def run_python(self, script, *args):
        env = dict(os.environ)
        package_root = str(Path(spinpair.fields.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                              capture_output=True, text=True, env=env, timeout=300)

    def test_subcommands_run_with_scipy_blocked(self, tmp_path):
        script = """
import sys
from pathlib import Path
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from spinpair.cli import main
scenarios, out = Path(sys.argv[1]), Path(sys.argv[2])
runs = [["compare", "--config", str(scenarios / "tabulated_compare.json"),
         "--out", str(out / "compare"), "--quiet"]]
runs += [["validate", "--config", str(path), "--out", str(out / path.stem), "--quiet"]
         for path in sorted(scenarios.glob("*.json"))]
print([main(argv) for argv in runs])
"""
        result = self.run_python(script, SCENARIOS, tmp_path)
        assert result.returncode == 0, result.stderr
        codes = json.loads(result.stdout)
        assert codes == [0] * (1 + len(list(SCENARIOS.glob("*.json"))))
        assert (tmp_path / "compare" / "comparison.csv").exists()

    def test_import_loads_no_process_modules(self):
        # setup cost: the CSV writer runs in this interpreter, so importing
        # the command line pulls in no process or executor machinery
        script = """
import json
import sys
import spinpair.cli
print(json.dumps([name for name in ("subprocess", "concurrent.futures")
                  if name in sys.modules]))
"""
        result = self.run_python(script)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == []

    def test_import_and_load_leave_scipy_unloaded(self):
        script = """
import json
import sys
from pathlib import Path
import spinpair.cli
from spinpair.scenario import load_config
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    load_config(path)
print(json.dumps([name for name in sys.modules if name.split(".")[0] == "scipy"]))
"""
        result = self.run_python(script, SCENARIOS)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == []
