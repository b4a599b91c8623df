"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``[acceptance]`` line (visible with ``pytest -s``
or in the captured output summary) and then asserts.

Criterion 4 is split: 4a covers the pointwise structure of the activated
backstepping construction at the published parameters; 4b covers the
containment of the backstepping safe set in the activated one.  That
containment holds on the scan window once mu_a >= pi^2 mu_b; at the
published ratio 10/3 it fails, and 4b pins that it fails only where the
penalty comparison in its docstring says it must (s < 0, |phi| > 0.913).
"""

import dataclasses
import math

import numpy as np

from cbftk.analysis import abc_equivalence_check, validity_report
from cbftk.cbf import ABC, BACKSTEPPING, CBF_KINDS, HOCBF, RECBF, recbf_validity_condition
from cbftk.cli import main
from cbftk.sim import compute_metrics, rk4_step
from cbftk.systems import PendulumParams, pendulum_dynamics, pendulum_scenario
from conftest import central_difference
from test_safety_filter import brute_force_qp, qp_cost

HALF_PI_SQ = math.pi**2 / 4.0


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion}: {detail}"


def run(scenario, kind, x0=None, horizon=None, dt=None):
    return scenario.simulate(kind, x0=x0, horizon=horizon, dt=dt)


def scan(scenario, kind, resolution=(401, 401)):
    return dataclasses.replace(scenario, resolution=resolution).scan(kind)


# -- 1: forward invariance -----------------------------------------------------


def test_criterion_1_forward_invariance(pendulum):
    rng = np.random.default_rng(1)
    worst_h = np.inf
    worst_psi = np.inf
    for kind in (ABC, BACKSTEPPING, RECBF):
        inst = pendulum.make_cbf(kind)
        count = 0
        while count < 100:
            x0 = pendulum.sample_state(rng)
            if inst.value(x0) < 0.05:
                continue
            count += 1
            traj = run(pendulum, kind, x0=x0, horizon=10.0, dt=1e-3)
            worst_h = min(worst_h, traj.h.min())
            worst_psi = min(worst_psi, traj.psi.min())
            if traj.h.min() < -1e-6 or traj.psi.min() < -1e-6 or traj.exit_reason != "completed":
                report(1, False, f"{kind} from {x0}: min h {traj.h.min():.3e}, min psi {traj.psi.min():.3e}")
    report(
        1,
        worst_h >= -1e-6 and worst_psi >= -1e-6,
        f"300 runs, worst min h {worst_h:.3e}, worst min psi {worst_psi:.3e}",
    )


# -- 2: high-order invalidity ---------------------------------------------------


def test_criterion_2_high_order_invalidity(pendulum):
    hocbf_scan = scan(pendulum, HOCBF)
    spacing_phi = math.pi / 400.0
    spacing_omega = 8.0 / 400.0
    threshold = math.pi / (2.0 * math.sqrt(2.0))
    violations = hocbf_scan.x[hocbf_scan.validity_violation]
    band_ok = (
        violations.size > 0
        and np.all(np.abs(violations[:, 0]) < spacing_phi)
        and np.all(np.abs(violations[:, 1]) >= threshold - spacing_omega)
    )
    # conversely, every node of the predicted band is flagged
    expected = (np.abs(hocbf_scan.x[:, 0]) < 1e-9) & (
        np.abs(hocbf_scan.x[:, 1]) >= threshold + spacing_omega
    )
    band_ok &= bool(np.all(hocbf_scan.validity_violation[expected]))

    # a high-angular-velocity start crossing the upright blows up quickly
    # (the published run states no numeric start; the sign convention here
    # sends the pendulum across the singular line)
    traj = run(pendulum, HOCBF, x0=[0.1, -2.0], horizon=5.0)
    blow_ok = traj.blew_up and traj.t[-1] <= 5.0
    report(
        2,
        band_ok and blow_ok,
        f"{violations.shape[0]} violation nodes confined to the upright column; "
        f"blow-up at t = {traj.t[-1]:.3f} s",
    )


# -- 3: rectified-CBF epsilon sensitivity ---------------------------------------


def test_criterion_3_rectified_epsilon_sensitivity(pendulum):
    # epsilon = 4: condition fails, validation fails, the run blows up
    assert main(["validate", "--scenario", "pendulum", "--cbf", "recbf", "--set", "cbf.epsilon=4.0"]) == 3
    loose = pendulum_scenario(params=PendulumParams(epsilon=4.0))
    states = np.array([loose.state_from_axes(v) for v in _coarse_grid(loose, 101)])
    condition = recbf_validity_condition(loose.make_cbf(RECBF), loose.system, states)
    blow = run(loose, RECBF)
    eps4_ok = (not condition.ok) and blow.blew_up

    # epsilon = 2: validation passes and the default run is safe
    assert main(["validate", "--scenario", "pendulum", "--cbf", "recbf"]) == 0
    safe = run(pendulum, RECBF)
    eps2_ok = safe.exit_reason == "completed" and safe.h.min() >= -1e-6 and safe.psi.min() >= -1e-6

    # epsilon = 0.01: safe but nearly discontinuous; input increments do
    # not refine under dt halving, unlike the activated construction
    sharp = pendulum_scenario(params=PendulumParams(epsilon=0.01))
    recbf_factors = _halving_factors(sharp, RECBF)
    abc_factors = _halving_factors(pendulum, ABC)
    sharp_run = run(sharp, RECBF)
    eps001_ok = (
        sharp_run.exit_reason == "completed"
        and sharp_run.psi.min() >= -1e-6
        and all(f < 1.3 for f in recbf_factors)
        and all(f >= 1.8 for f in abc_factors)
    )
    report(
        3,
        eps4_ok and eps2_ok and eps001_ok,
        f"eps=4 invalid + blow-up; eps=2 safe; eps=0.01 factors "
        f"{[round(f, 3) for f in recbf_factors]} vs activated {[round(f, 3) for f in abc_factors]}",
    )


def _halving_factors(scenario, kind):
    deltas = []
    for dt in (2e-3, 1e-3, 5e-4):
        traj = run(scenario, kind, dt=dt)
        deltas.append(float(compute_metrics(traj).max_step_delta_u[0]))
    return [deltas[0] / deltas[1], deltas[1] / deltas[2]]


def _coarse_grid(scenario, count):
    axes = [np.linspace(lo, hi, count) for lo, hi in scenario.window]
    return [(a, b) for a in axes[0] for b in axes[1]]


# -- 4: activated backstepping structure ----------------------------------------


def test_criterion_4a_abc_structure(pendulum):
    abc_scan = scan(pendulum, ABC)
    bck_scan = scan(pendulum, BACKSTEPPING)

    equal = abc_scan.h == abc_scan.psi
    agreement_ok = bool(np.array_equal(equal, abc_scan.s >= -1e-10)) and bool(
        np.all(abc_scan.h[abc_scan.s >= 0.0] == abc_scan.psi[abc_scan.s >= 0.0])
    )
    singular_ok = abc_equivalence_check(abc_scan)
    rep = validity_report(abc_scan)
    lemma_ok = rep.n_violations == 0
    inclusion_ok = rep.n_inclusion_violations == 0

    in_abc = abc_scan.in_safe_set
    in_bck = bck_scan.in_safe_set
    extra = in_abc & ~in_bck & (abc_scan.psi >= 0.0) & (abc_scan.s >= 0.0)
    phi = abc_scan.x[:, 0]
    omega = abc_scan.x[:, 1]
    witnesses_ok = bool(np.any(extra & (phi < 0.0) & (omega > 0.0))) and bool(
        np.any(extra & (phi > 0.0) & (omega < 0.0))
    )
    report(
        "4a",
        agreement_ok and singular_ok and lemma_ok and inclusion_ok and witnesses_ok,
        f"agreement region, singular-set equivalence, 0 validity violations, "
        f"0 inclusion violations, quadrant witnesses ({int(extra.sum())} extra safe nodes)",
    )


def test_criterion_4b_backstepping_nodes_contained_in_abc(pendulum):
    """Node-set containment of the backstepping safe set in the activated one.

    Write e = omega + K phi and psi = pi^2/4 - phi^2, so |grad psi|^2 =
    4 phi^2.  Where s >= 0 the activated h equals psi, which is at least
    the backstepping h = psi - e^2 / (2 mu_b).  Where s < 0 the activated
    penalty is (grad psi . e)^2 / (2 mu_a) = 4 phi^2 e^2 / (2 mu_a), and by
    Cauchy-Schwarz it is at most the backstepping penalty whenever
    mu_a >= mu_b |grad psi|^2.  Containment therefore holds on the whole
    scan window once mu_a >= mu_b max_window |grad psi|^2 = pi^2 mu_b for
    |phi| <= pi/2 -- check (a).

    With the published parameters (mu_b = 1.5, mu_a = 5, K = 0.75) the
    ratio is 10/3 < pi^2, and the activated penalty is the larger one
    wherever 4 phi^2 > mu_a / mu_b, i.e. |phi| > sqrt(5/6) ~ 0.913 rad.
    The backstepping ellipse reaches |phi| = pi/2 along omega = -K phi, so
    some near-boundary nodes are backstepping-safe but activated-unsafe.
    Check (b) pins that every such node lies where the derivation allows
    it: s < 0 and |phi| > sqrt(mu_a / mu_b) / 2.  Check (c) evaluates the
    counterexample (phi, omega) = (1.2, 0.6):

        psi = pi^2/4 - 1.44 = 1.0274,
        backstepping h = psi - 1.5^2 / 3 = +0.277,
        activated    h = psi - (2 * 1.2 * 1.5)^2 / 10 = -0.269.
    """
    params = pendulum.params
    abc_scan = scan(pendulum, ABC)
    bck_scan = scan(pendulum, BACKSTEPPING)

    phi_lo, phi_hi = pendulum.window[0]
    max_grad_psi_sq = 4.0 * max(abs(phi_lo), abs(phi_hi)) ** 2
    wide = pendulum_scenario(
        params=dataclasses.replace(params, mu_abc=max_grad_psi_sq * params.mu_backstepping)
    )
    wide_abc = scan(wide, ABC)
    wide_offending = bck_scan.in_safe_set & ~wide_abc.in_safe_set
    contained_ok = not np.any(wide_offending)

    offending = bck_scan.in_safe_set & ~abc_scan.in_safe_set
    phi_bound = math.sqrt(params.mu_abc / params.mu_backstepping) / 2.0
    where_ok = bool(
        offending.any()
        and np.all(abc_scan.s[offending] < 0.0)
        and np.all(np.abs(abc_scan.x[offending, 0]) > phi_bound)
    )

    x = np.array([1.2, 0.6])
    h_bck = pendulum.make_cbf(BACKSTEPPING).value(x)
    h_abc = pendulum.make_cbf(ABC).value(x)
    counterexample_ok = abs(h_bck - 0.277) < 5e-4 and abs(h_abc + 0.269) < 5e-4

    report(
        "4b",
        contained_ok and where_ok and counterexample_ok,
        f"mu_a = pi^2 mu_b: {int(np.count_nonzero(wide_offending))} backstepping-safe nodes "
        f"outside the activated safe set ({int(np.count_nonzero(wide_abc.in_safe_set))} vs "
        f"{int(np.count_nonzero(bck_scan.in_safe_set))} safe); published mu: "
        f"{int(np.count_nonzero(offending))} such nodes, required to have s < 0 and "
        f"|phi| > {phi_bound:.3f}; (1.2, 0.6): h {h_bck:+.3f} backstepping, {h_abc:+.3f} activated",
    )


# -- 5: safety-filter optimality -------------------------------------------------


def test_criterion_5_filter_optimality(pendulum, bicycle):
    from cbftk.safety_filter import safety_filter

    rng = np.random.default_rng(5)
    kinds = (ABC, BACKSTEPPING, RECBF)
    worst_cost_gap = 0.0
    worst_slack = 0.0
    for scenario, total in ((pendulum, 500), (bicycle, 500)):
        checked = 0
        while checked < total:
            kind = kinds[checked % len(kinds)]
            inst = scenario.make_cbf(kind)
            spec = scenario.filter_spec()
            x = scenario.sample_state(rng)
            if scenario.name == "bicycle" and scenario.output.psi_of_state(x) < 0.0:
                continue  # QP feasibility is only certified on the constraint set
            kd = np.asarray(spec.desired(x))
            u = safety_filter(spec, inst, scenario.system, x)
            if np.max(np.abs(u - kd)) > 20.0:
                continue  # keep the oracle's input box authoritative
            h, grad = inst.value_and_gradient(x)
            lfh = float(grad @ scenario.system.f_vec(x))
            lgh = grad @ scenario.system.g_mat(x)
            slack = lfh + float(lgh @ u) + spec.alpha(h)
            worst_slack = min(worst_slack, slack)
            best = brute_force_qp(scenario.system, inst, spec, x)
            gap = qp_cost(u, kd, spec.gamma) - qp_cost(best, kd, spec.gamma)
            worst_cost_gap = max(worst_cost_gap, gap)
            if slack < -1e-9 or gap > 1e-6:
                report(5, False, f"{scenario.name}/{kind} at {x}: slack {slack:.2e}, gap {gap:.2e}")
            checked += 1
    report(
        5,
        worst_slack >= -1e-9 and worst_cost_gap <= 1e-6,
        f"1000 states, worst constraint slack {worst_slack:.2e}, "
        f"worst cost gap vs oracle {worst_cost_gap:.2e}",
    )


# -- 6: half-Sontag contract ------------------------------------------------------


def test_criterion_6_half_sontag_contract(bicycle):
    from cbftk.safety_filter import lambda_exact, lambda_half_sontag, virtual_kappa

    rng = np.random.default_rng(6)
    zero_ok = all(lambda_half_sontag(a, 0.0, 0.5) == 0.0 for a in (-3.0, 0.0, 7.0))

    # sigma -> 0 limit against the exact multiplier
    close_ok = True
    for _ in range(1000):
        a = rng.uniform(-10.0, 10.0)
        b = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        if abs(lambda_half_sontag(a, b * b, 1e-12) - lambda_exact(a, b * b)) >= 1e-5:
            close_ok = False
            break

    # strictness along the virtual controller on sampled output points
    p = bicycle.params
    vc = bicycle.make_cbf(ABC).kappa
    strict_ok = True
    worst = np.inf
    for _ in range(500):
        y = np.array([rng.uniform(0.0, 40.0), rng.uniform(-8.0, 8.0)])
        b = np.asarray(bicycle.output.psi_grad(y), dtype=float)
        if np.linalg.norm(b) <= 1e-8:
            continue
        kappa = virtual_kappa(vc, y)
        margin = float(b @ kappa) + p.alpha_hat_c * float(bicycle.output.psi(y))
        worst = min(worst, margin)
        strict_ok &= margin > 0.0
    report(
        6,
        zero_ok and close_ok and strict_ok,
        f"zero at b=0; sigma->0 limit within 1e-5; strict margin (min {worst:.3e})",
    )


# -- 7: AD correctness -------------------------------------------------------------


def test_criterion_7_gradients_match_finite_differences(pendulum, bicycle):
    rng = np.random.default_rng(7)
    worst = 0.0
    for scenario in (pendulum, bicycle):
        for kind in CBF_KINDS:
            inst = scenario.make_cbf(kind)
            checked = 0
            while checked < 1000:
                x = scenario.sample_state(rng)
                if kind == ABC and abs(inst.switching(x)) < 1e-4:
                    continue
                if kind == RECBF and abs(inst.residual(x) - inst.epsilon) < 1e-4:
                    continue
                g = inst.gradient(x)
                fd = central_difference(inst.value, x)
                err = float(np.max(np.abs(g - fd) / (1.0 + np.abs(g))))
                worst = max(worst, err)
                if err >= 1e-6:
                    report(7, False, f"{scenario.name}/{kind} at {x}: rel err {err:.2e}")
                checked += 1
    report(7, worst < 1e-6, f"8000 states, worst relative error {worst:.2e}")


# -- 8: vehicle case study ----------------------------------------------------------


def test_criterion_8_bicycle_case_study(bicycle):
    traj = run(bicycle, ABC)
    clearance = (traj.x[:, 0] - bicycle.params.obstacle_xi) ** 2 + (
        traj.x[:, 1] - bicycle.params.obstacle_eta
    ) ** 2
    no_collision = clearance.min() >= bicycle.params.obstacle_radius**2
    barrier_ok = traj.h.min() >= -1e-6 and traj.exit_reason == "completed"

    equal = traj.h == traj.psi
    # agreement with the constraint during the initial approach ...
    initial = traj.t <= 0.4
    initial_ok = bool(np.all(equal[initial]))
    # ... a safety-critical middle where they deviate ...
    deviates = bool(np.any(~equal))
    # ... and exact agreement again after clearing the obstacle
    tail = traj.t >= 10.0
    tail_ok = bool(np.all(equal[tail])) and bool(np.all(traj.s[tail] >= 0.0))

    eta_end = abs(traj.x[-1, 1])
    v_end = abs(traj.x[-1, 3] - bicycle.params.v_desired)
    recovery_ok = eta_end < 0.1 and v_end < 0.1
    report(
        8,
        no_collision and barrier_ok and initial_ok and deviates and tail_ok and recovery_ok,
        f"clearance^2 min {clearance.min():.2f} m^2, min h {traj.h.min():.2e}, "
        f"|eta(T)| {eta_end:.3f} m, |v(T) - v_d| {v_end:.3f} m/s",
    )


# -- 9: numerical hygiene ------------------------------------------------------------


def test_criterion_9_numerical_hygiene(pendulum, tmp_path):
    energy = lambda x: 0.5 * x[1] ** 2 + math.cos(x[0])
    x = np.array([0.4, 0.3])
    e0 = energy(x)
    drift = 0.0
    for _ in range(10000):
        x = rk4_step(lambda xs: pendulum_dynamics(xs, [0.0]), x, 1e-3)
        drift = max(drift, abs(energy(x) - e0))
    energy_ok = drift < 1e-6

    coarse = run(pendulum, ABC, dt=1e-3)
    fine = run(pendulum, ABC, dt=1e-4)
    step_gap = float(np.max(np.abs(coarse.x[-1] - fine.x[-1])))
    convergence_ok = step_gap < 1e-5

    args = ["simulate", "--scenario", "pendulum", "--cbf", "abc"]
    out1 = tmp_path / "first.csv"
    out2 = tmp_path / "second.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    deterministic_ok = out1.read_bytes() == out2.read_bytes()
    report(
        9,
        energy_ok and convergence_ok and deterministic_ok,
        f"energy drift {drift:.2e}, dt-refinement gap {step_gap:.2e}, reruns byte-identical",
    )
