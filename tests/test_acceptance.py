"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion alongside the pytest verdicts.
"""

import json
import math
from pathlib import Path

import numpy as np

from spinpair.fields import Harmonic, LinearRamp, TanhRamp
from spinpair.frames import diagonalization_residual, mixing_angles
from spinpair.hamiltonian import (
    THETA_PERPENDICULAR,
    SystemParams,
    closed_eigenvalues,
    hamiltonian_batch,
)
from spinpair.linalg import dagger, unitarity_defect
from spinpair.propagators import (
    Frame,
    TimeGrid,
    fixed_step_propagators,
    frame_rotations,
    full_propagator_paths,
    reference_propagate,
)
from spinpair.scenario import load_config, run_scenario
from spinpair.fields import Constant

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
LZ_SURVIVAL = math.exp(-math.pi / 2)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def random_draws(n=200, seed=2024):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield SystemParams(
            a_par=rng.uniform(0.1, 3.0),
            a_perp=rng.uniform(0.1, 3.0),
            zeta=rng.uniform(-0.2, 0.2),
            theta=float(rng.choice([0.0, THETA_PERPENDICULAR])),
            profile=Constant(rng.uniform(0.0, 10.0)),
        )


def test_criterion_1_spectrum_closure():
    worst = 0.0
    for p in random_draws():
        numeric = np.sort(np.linalg.eigvalsh(hamiltonian_batch(p, 0.0)))
        closed = np.sort(closed_eigenvalues(p, 0.0))
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    report(1, "numeric spectrum matches closed forms to 1e-12", worst <= 1e-12,
           f"worst {worst:.2e}")


def test_criterion_2_diagonalization():
    worst = 0.0
    for p in random_draws():
        worst = max(worst, diagonalization_residual(p, 0.0))
    report(2, "frame conjugation leaves off-diagonal below 1e-12", worst <= 1e-12,
           f"worst {worst:.2e}")


def test_criterion_3_gauge_rate_oracle():
    h = 1e-6
    worst = 0.0
    rng = np.random.default_rng(5)
    for profile in (TanhRamp(3.0, 2.0, 5.0), Harmonic(2.0, 0.5, 0.7, 0.3)):
        for theta in (0.0, THETA_PERPENDICULAR):
            p = SystemParams(1.0, 0.5, 0.1, theta, profile)
            for t in rng.uniform(-8.0, 8.0, size=50):
                ang = mixing_angles(p, t)
                plus = mixing_angles(p, t + h)
                minus = mixing_angles(p, t - h)
                for rate, a, b in (
                    (ang.theta1_rate, plus.theta1, minus.theta1),
                    (ang.theta2_rate, plus.theta2, minus.theta2),
                ):
                    fd = (a - b) / (2.0 * h)
                    worst = max(worst, abs(rate - fd) / max(abs(rate), abs(fd), 1e-8))
    report(3, "closed-form angle rates match finite differences to 1e-5",
           worst <= 1e-5, f"worst rel {worst:.2e}")


def test_criterion_4_constant_field_exactness():
    worst = 0.0
    for theta in (0.0, THETA_PERPENDICULAR):
        p = SystemParams(1.0, 0.5, 0.1, theta, Constant(2.0))
        grid = TimeGrid(0.0, 20.0 / p.a_perp, 400)
        _, _, first = full_propagator_paths(p, grid)
        for index in range(4):
            phi0 = np.zeros(4, dtype=complex)
            phi0[index] = 1.0
            ref = reference_propagate(p, grid, phi0, Frame.ADIABATIC)
            approx = first[-1] @ phi0
            infid = 1.0 - abs(np.vdot(ref.adiabatic_states[-1], approx)) ** 2
            worst = max(worst, abs(infid))
    report(4, "constant-field first-order solution exact to 1e-9",
           worst <= 1e-9, f"worst infidelity {worst:.2e}")


def test_criterion_5_block_sparsity():
    worst = 0.0
    for theta in (0.0, THETA_PERPENDICULAR):
        mask = np.zeros((4, 4), dtype=bool)
        for i, j in ((0, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)):
            mask[i, j] = True
        if theta != 0.0:
            mask[0, 3] = mask[3, 0] = True
        p = SystemParams(1.0, 0.5, 0.1, theta, TanhRamp(3.0, 2.0, 4.0))
        traj = reference_propagate(p, TimeGrid(-8.0, 16.0, 200),
                                   np.array([1, 0, 0, 0], complex), Frame.LAB)
        for u in traj.propagators:
            worst = max(worst, float(np.max(np.abs(u[~mask]))))
    report(5, "reference lab propagator keeps the two-block sparsity to 1e-10",
           worst <= 1e-10, f"worst out-of-pattern {worst:.2e}")


def test_criterion_6_landau_zener_oracle():
    p = SystemParams(1.0, 0.05, 0.0, 0.0, LinearRamp(-4.0, 0.04))
    grid = TimeGrid(0.0, 200.0, 2000)
    phi0 = np.array([0, 0, 1, 0], dtype=complex)  # lower central level at omega = -4
    traj = reference_propagate(p, grid, phi0, Frame.ADIABATIC, tol_per_time=1e-9)
    survival = abs(traj.adiabatic_states[-1][1]) ** 2
    rel = abs(survival - LZ_SURVIVAL) / LZ_SURVIVAL
    report(6, "sweep survival within 2% of the asymptotic oracle",
           rel <= 0.02, f"survival {survival:.6f} vs {LZ_SURVIVAL:.6f}, rel {rel:.2e}")


def test_criterion_7_adiabatic_scaling():
    zeroth = []
    first = []
    for scale in (1.0, 2.0, 4.0):
        p = SystemParams(1.0, 0.5, 0.0, 0.0, TanhRamp(3.0, 2.0, 2.0 * scale))
        grid = TimeGrid(-4.0 * scale, 8.0 * scale, 400)
        phi0 = np.array([0, 1, 0, 0], dtype=complex)
        ref = reference_propagate(p, grid, phi0, Frame.ADIABATIC)
        _, _, first_nodes = full_propagator_paths(p, grid)
        approx = first_nodes[-1] @ phi0
        zeroth.append(abs(ref.adiabatic_states[-1][2]) ** 2)
        first.append(1.0 - abs(np.vdot(ref.adiabatic_states[-1], approx)) ** 2)
    ratios = [zeroth[i] / zeroth[i + 1] for i in range(2)]
    dominance = all(f <= z for f, z in zip(first, zeroth))
    ok = zeroth[0] < 1e-3 and all(3.0 <= r <= 5.0 for r in ratios) and dominance
    # measured accuracy order of the first-order solution, reported not asserted
    first_order_slope = (math.log(max(first[0], 1e-300) / max(first[-1], 1e-300))
                         / math.log(4.0))
    report(7, "zeroth-order leakage scales quadratically and first order dominates",
           ok, f"leakage {zeroth[0]:.2e}, ratios {ratios[0]:.2f}/{ratios[1]:.2f}, "
               f"first-order infidelity slope ~{first_order_slope:.1f} per rate halving")


def test_criterion_8_frame_round_trip():
    worst = 0.0
    for theta in (0.0, THETA_PERPENDICULAR):
        p = SystemParams(1.0, 0.5, 0.1, theta, TanhRamp(3.0, 2.0, 3.0))
        grid = TimeGrid(-6.0, 12.0, 400)
        chi0 = np.array([0, 1, 0, 0], dtype=complex)
        lab = reference_propagate(p, grid, chi0, Frame.LAB)
        rot0 = frame_rotations(p, np.asarray([grid.t_start]))[0]
        phi0 = dagger(rot0) @ chi0  # the frame rotation at t0 is not the identity
        adi = reference_propagate(p, grid, phi0, Frame.ADIABATIC)
        worst = max(worst, float(np.max(np.abs(lab.states - adi.states))))
    report(8, "lab and frame propagation agree through the rotation to 5e-9",
           worst <= 5e-9, f"worst state deviation {worst:.2e}")


def test_criterion_9_integrator_order():
    p = SystemParams(1.0, 0.5, 0.1, 0.0, Harmonic(2.0, 0.5, 0.7, 0.3))
    grid = TimeGrid(0.0, 20.0, 50)
    psi0 = np.array([0, 1, 0, 0], dtype=complex)
    final = {sub: fixed_step_propagators(p, grid, Frame.LAB, sub)[-1] @ psi0
             for sub in (8, 16, 32)}
    d1 = np.linalg.norm(final[8] - final[16])
    d2 = np.linalg.norm(final[16] - final[32])
    order = math.log2(d1 / d2)
    step = fixed_step_propagators(p, TimeGrid(0.0, 0.05, 1), Frame.LAB, 1)[-1]
    defect = unitarity_defect(step)
    ok = 1.8 <= order <= 2.2 and defect <= 1e-13
    report(9, "midpoint integrator is second order with unitary steps",
           ok, f"order {order:.3f}, step defect {defect:.1e}")


def test_criterion_10_determinism_and_io(tmp_path):
    config = load_config(SCENARIOS / "lz_sweep.json")
    report_a = run_scenario(config, tmp_path / "a")
    report_b = run_scenario(config, tmp_path / "b")
    csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    on_disk = json.loads((tmp_path / "a" / "report.json").read_text())
    ok = csv_a == csv_b and on_disk == report_a and report_a == report_b
    survival = report_a["summary"]["block_jump_probability"]
    rel = abs(survival - LZ_SURVIVAL) / LZ_SURVIVAL
    ok = ok and rel <= 0.02
    report(10, "repeated runs are byte-identical and reports round-trip",
           ok, f"csv bytes {len(csv_a)}, summary survival rel err {rel:.2e}")
