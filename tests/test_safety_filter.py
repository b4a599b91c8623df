import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbftk import autodiff as ad
from cbftk.cbf import ABC, BACKSTEPPING, CBF_KINDS
from cbftk.core import DomainError, LinearClassK
from cbftk.safety_filter import (
    LinearGain,
    SafetyFilterSpec,
    check_virtual_controller,
    lambda_exact,
    lambda_half_sontag,
    safety_filter,
    virtual_kappa,
)
from cbftk.sim import rk4_step
from cbftk.systems import bicycle_scenario, pendulum_scenario
from strategies import bicycle_params, pendulum_params

HALF_PI_SQ = math.pi**2 / 4.0


# -- multipliers --------------------------------------------------------------


def test_lambda_exact_cases():
    assert lambda_exact(5.0, -1.0) == 0.0
    assert lambda_exact(-1.0, 2.0) == 0.5
    assert lambda_exact(3.0, 2.0) == 0.0
    assert lambda_exact(-1.0, 0.0) == 0.0  # b = 0 falls in the first branch


def test_lambda_half_sontag_cases():
    assert lambda_half_sontag(3.7, 0.0, 0.1) == 0.0
    for b in (0.5, 2.0, 10.0):
        assert lambda_half_sontag(0.0, b, 0.25) == pytest.approx(math.sqrt(0.25) / 2.0)
    # sigma -> 0 recovers the exact multiplier
    assert lambda_half_sontag(-1.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        lambda_half_sontag(1.0, 1.0, 0.0)


@given(
    a=st.floats(min_value=-10.0, max_value=10.0),
    b=st.floats(min_value=0.1, max_value=10.0),
)
def test_half_sontag_close_to_exact_for_tiny_sigma(a, b):
    bb = b * b
    # |difference| is bounded by sqrt(sigma)/2 uniformly in (a, b)
    diff = lambda_half_sontag(a, bb, 1e-12) - lambda_exact(a, bb)
    assert abs(diff) < 1e-5
    assert abs(diff) <= math.sqrt(1e-12) / 2.0 + 1e-12


@given(
    a=st.floats(min_value=-10.0, max_value=10.0),
    b=st.floats(min_value=1e-6, max_value=10.0),
    sigma=st.floats(min_value=1e-6, max_value=10.0),
)
def test_half_sontag_strict_feasibility(a, b, sigma):
    bb = b * b
    lam = lambda_half_sontag(a, bb, sigma)
    margin = a + lam * bb
    # nonnegative up to one rounding of the square root at |a|'s scale
    assert margin >= -1e-15 * (1.0 + abs(a))
    # the margin (a + sqrt(a^2 + sigma bb^2)) / 2 is strictly positive in
    # exact arithmetic; demand strictness where it is representable
    if sigma * bb * bb > 1e-13 * a * a:
        assert margin > 0.0


# -- the closed-form filter ----------------------------------------------------


def brute_force_qp(system, instance, spec, x, span=25.0):
    """Independent oracle: refined grid search of the weighted QP.

    Minimizes ||u - k_d||^2_Gamma over an input box subject to
    L_f h + L_g h u + alpha(h) >= 0, shrinking the grid around the best
    feasible point until the step is below 1e-8.
    """
    h, grad = instance.value_and_gradient(x)
    lfh = float(grad @ system.f_vec(x))
    lgh = grad @ system.g_mat(x)
    kd = np.asarray(spec.desired(x), dtype=float)
    bound = -(lfh + spec.alpha(h))
    m = kd.size
    lo = kd - span
    hi = kd + span
    best = None
    for _ in range(12):
        axes = [np.linspace(lo[i], hi[i], 33) for i in range(m)]
        grids = np.meshgrid(*axes, indexing="ij")
        candidates = np.stack([g.ravel() for g in grids], axis=1)
        feasible = candidates @ lgh >= bound - 1e-12
        if not np.any(feasible):
            return None
        candidates = candidates[feasible]
        cost = ((candidates - kd) ** 2 * spec.gamma).sum(axis=1)
        best = candidates[np.argmin(cost)]
        width = (hi - lo) / 32.0
        lo = best - width
        hi = best + width
        if np.max(width) < 1e-8:
            break
    return best


def qp_cost(u, kd, gamma):
    return float(((np.asarray(u) - kd) ** 2 * gamma).sum())


def test_filter_inactive_where_switching_nonnegative(pendulum, rng):
    inst = pendulum.make_cbf(ABC)
    spec = pendulum.filter_spec()
    found = 0
    for _ in range(200):
        x = pendulum.sample_state(rng)
        if inst.switching(x) >= 0.0:
            u = safety_filter(spec, inst, pendulum.system, x)
            assert np.array_equal(u, np.zeros(1))
            found += 1
    assert found > 30


def test_filter_returns_desired_when_margin_positive(pendulum, rng):
    inst = pendulum.make_cbf(BACKSTEPPING)
    spec = pendulum.filter_spec()
    system = pendulum.system
    found = 0
    for _ in range(300):
        x = pendulum.sample_state(rng)
        h, grad = inst.value_and_gradient(x)
        lfh = float(grad @ system.f_vec(x))
        lgh = grad @ system.g_mat(x)
        a = lfh + spec.alpha(h)  # desired controller is zero
        if a > 0.0:
            assert np.array_equal(safety_filter(spec, inst, system, x), np.zeros(1))
            found += 1
    assert found > 50


def test_backstepping_filter_hand_state_and_oracle(pendulum):
    # at (1, 0) the margin is positive, so u = 0; the oracle agrees
    inst = pendulum.make_cbf(BACKSTEPPING)
    spec = pendulum.filter_spec()
    u = safety_filter(spec, inst, pendulum.system, [1.0, 0.0])
    assert np.array_equal(u, np.zeros(1))
    best = brute_force_qp(pendulum.system, inst, spec, np.array([1.0, 0.0]))
    assert qp_cost(u, np.zeros(1), spec.gamma) <= qp_cost(best, np.zeros(1), spec.gamma) + 1e-6


@pytest.mark.parametrize("kind", [ABC, BACKSTEPPING])
def test_filter_matches_qp_oracle_pendulum(kind, pendulum, rng):
    inst = pendulum.make_cbf(kind)
    spec = pendulum.filter_spec()
    system = pendulum.system
    checked = 0
    while checked < 100:
        x = pendulum.sample_state(rng)
        u = safety_filter(spec, inst, system, x)
        if np.max(np.abs(u)) > 20.0:
            continue  # keep the oracle box authoritative
        h, grad = inst.value_and_gradient(x)
        lfh = float(grad @ system.f_vec(x))
        lgh = grad @ system.g_mat(x)
        assert lfh + float(lgh @ u) + spec.alpha(h) >= -1e-9
        best = brute_force_qp(system, inst, spec, x)
        kd = np.asarray(spec.desired(x))
        assert qp_cost(u, kd, spec.gamma) <= qp_cost(best, kd, spec.gamma) + 1e-6
        checked += 1


def test_filter_matches_qp_oracle_bicycle(bicycle, rng):
    # draws restricted to the constraint set, where the QP is provably
    # feasible for this construction (inside the obstacle the virtual
    # controller's smaller class-K gain no longer covers the outer one)
    inst = bicycle.make_cbf(ABC)
    spec = bicycle.filter_spec()
    system = bicycle.system
    checked = 0
    while checked < 40:
        x = bicycle.sample_state(rng)
        if bicycle.output.psi_of_state(x) < 0.0:
            continue
        u = safety_filter(spec, inst, system, x)
        kd = np.asarray(spec.desired(x))
        if np.max(np.abs(u - kd)) > 20.0:
            continue
        h, grad = inst.value_and_gradient(x)
        lfh = float(grad @ system.f_vec(x))
        lgh = grad @ system.g_mat(x)
        assert lfh + float(lgh @ u) + spec.alpha(h) >= -1e-9
        best = brute_force_qp(system, inst, spec, x)
        assert qp_cost(u, kd, spec.gamma) <= qp_cost(best, kd, spec.gamma) + 1e-6
        checked += 1


def _assert_filter_matches_qp_oracle(scenario, kind, seed, count):
    """The exact-multiplier filter against the brute-force QP at ``count``
    sampled states of the extended set whose filtered input stays inside
    the oracle's box."""
    inst = scenario.make_cbf(kind)
    spec = scenario.filter_spec()
    system = scenario.system
    rng = np.random.default_rng(seed)
    for _ in range(count):
        x = scenario.sample_state(rng)
        if not scenario.output.in_extended_set(x):
            continue
        u = safety_filter(spec, inst, system, x)
        kd = np.asarray(spec.desired(x), dtype=float)
        h, grad = inst.value_and_gradient(x)
        lgh = grad @ system.g_mat(x)
        if not np.any(lgh):
            assert np.array_equal(u, kd)  # no input can act on h: k_d passes
            continue
        if np.max(np.abs(u - kd)) > 20.0:
            continue  # keep the oracle box authoritative
        lfh = float(grad @ system.f_vec(x))
        scale = 1.0 + abs(lfh) + abs(spec.alpha(h)) + float(np.abs(lgh) @ np.abs(u))
        assert lfh + float(lgh @ u) + spec.alpha(h) >= -1e-12 * scale
        best = brute_force_qp(system, inst, spec, x)
        assert best is not None  # the half-space meets the box where u lies
        assert qp_cost(u, kd, spec.gamma) <= qp_cost(best, kd, spec.gamma) + 1e-6


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=6, derandomize=True)
@given(params=pendulum_params, seed=st.integers(0, 2**16))
def test_filter_matches_qp_oracle_pendulum_at_random_parameters(kind, params, seed):
    _assert_filter_matches_qp_oracle(pendulum_scenario(params=params), kind, seed, 30)


@pytest.mark.parametrize("kind", CBF_KINDS)
@settings(max_examples=6, derandomize=True)
@given(params=bicycle_params, seed=st.integers(0, 2**16))
def test_filter_matches_qp_oracle_bicycle_at_random_parameters(kind, params, seed):
    _assert_filter_matches_qp_oracle(bicycle_scenario(params=params), kind, seed, 40)


def test_scaled_desired_passes_through_when_inactive(pendulum, rng):
    inst = pendulum.make_cbf(ABC)
    system = pendulum.system
    base = pendulum.filter_spec()
    found = 0
    for _ in range(300):
        x = pendulum.sample_state(rng)
        for scale in (1.0, 3.0):
            kd_fn = lambda xs, s=scale: np.array([s * math.sin(xs[0] + 0.3)])
            spec = SafetyFilterSpec(desired=kd_fn, gamma=base.gamma, alpha=base.alpha)
            h, grad = inst.value_and_gradient(x)
            lfh = float(grad @ system.f_vec(x))
            lgh = grad @ system.g_mat(x)
            kd = kd_fn(x)
            if lfh + float(lgh @ kd) + spec.alpha(h) < 0.0:
                break
            assert np.array_equal(safety_filter(spec, inst, system, x), kd)
        else:
            found += 1
    assert found > 30


def test_spec_validation_errors(pendulum):
    with pytest.raises(ValueError):
        SafetyFilterSpec(desired=lambda x: np.zeros(1), gamma=np.array([0.0]), alpha=LinearClassK(1.0))


def test_spec_gamma_is_a_read_only_copy():
    # the generated step of sim.simulate holds gamma's values, so it cannot change
    weights = np.array([1.0, 0.15])
    spec = SafetyFilterSpec(desired=lambda x: np.zeros(2), gamma=weights, alpha=LinearClassK(1.0))
    with pytest.raises(ValueError, match="read-only"):
        spec.gamma[0] = 2.0
    weights[0] = 2.0  # the caller's array stays writable and apart
    assert spec.gamma.tolist() == [1.0, 0.15]


@pytest.mark.parametrize("kind", CBF_KINDS)
def test_filter_refuses_the_bicycle_obstacle_centre(bicycle, kind):
    x = np.array([20.0, -0.1, 0.0, 3.0])
    with pytest.raises(DomainError) as err:
        safety_filter(bicycle.filter_spec(), bicycle.make_cbf(kind), bicycle.system, x)
    assert str(err.value) == f"state {x} is outside the extended set"
    assert err.value.index is None


# -- virtual controllers -------------------------------------------------------


def test_linear_gain_kappa():
    vc = LinearGain(0.75, p=1)
    assert virtual_kappa(vc, [1.0]) == pytest.approx([-0.75])
    assert virtual_kappa(vc, [-2.0]) == pytest.approx([1.5])


def test_smooth_filter_far_from_obstacle(bicycle):
    # far field with positive margin: the correction multiplier is
    # bounded by sigma ||b||^2 / (4 a) and the output stays near the
    # desired constant velocity
    inst = bicycle.make_cbf(ABC)
    vc = inst.kappa
    y = [0.0, 0.0]
    b = np.asarray(bicycle.output.psi_grad(y), dtype=float)
    a = float(b @ [bicycle.params.v_hat, 0.0]) + bicycle.params.alpha_hat_c * float(
        bicycle.output.psi(y)
    )
    assert a > 0.0
    kappa = virtual_kappa(vc, y)
    lam = (kappa[0] - bicycle.params.v_hat) / b[0]
    bb = float(b @ b)
    assert 0.0 < lam <= bicycle.params.sigma_hat * bb / (4.0 * a) * 1.0001
    assert lam <= 1e-2
    assert np.allclose(kappa, [bicycle.params.v_hat, 0.0] + lam * b)


def test_smooth_filter_repulsive_on_boundary_ahead(bicycle):
    p = bicycle.params
    y = [p.obstacle_xi - p.obstacle_radius, p.obstacle_eta]
    kappa = virtual_kappa(bicycle.make_cbf(ABC).kappa, y)
    b = np.asarray(bicycle.output.psi_grad(y), dtype=float)
    assert float(kappa @ b) > 0.0  # radial component points away from the obstacle


def test_smooth_filter_domain_error_at_obstacle_center(bicycle):
    p = bicycle.params
    with pytest.raises(DomainError):
        virtual_kappa(bicycle.make_cbf(ABC).kappa, [p.obstacle_xi, p.obstacle_eta])


def test_virtual_controller_condition_pendulum(pendulum):
    vc = LinearGain(pendulum.params.K, p=1)
    report = check_virtual_controller(
        vc, pendulum.output, pendulum.system, LinearClassK(pendulum.params.alpha_c), pendulum.assumption_states
    )
    assert report.ok


def test_virtual_controller_condition_bicycle(bicycle):
    # checked against the outer class-K gain on the constraint set; inside
    # the obstacle only the filter's own (smaller) gain is guaranteed
    vc = bicycle.make_cbf(ABC).kappa
    states = [x for x in bicycle.assumption_states if bicycle.output.psi_of_state(x) >= 0.0]
    report = check_virtual_controller(vc, bicycle.output, bicycle.system, bicycle.alpha_outer, states)
    assert report.ok
    report_hat = check_virtual_controller(
        vc,
        bicycle.output,
        bicycle.system,
        LinearClassK(bicycle.params.alpha_hat_c),
        bicycle.assumption_states,
        margin=0.0,
    )
    assert report_hat.ok


def test_single_integrator_closed_loop_stays_safe(bicycle, rng):
    # ydot = kappa(y) from boundary-adjacent starts keeps psi nonnegative
    vc = bicycle.make_cbf(ABC).kappa
    p = bicycle.params
    for _ in range(100):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = p.obstacle_radius + rng.uniform(0.05, 2.0)
        y = np.array(
            [
                p.obstacle_xi + radius * math.cos(angle),
                p.obstacle_eta + radius * math.sin(angle),
            ]
        )
        assert bicycle.output.psi(y) >= 0.0
        worst = np.inf
        for _ in range(1000):
            y = rk4_step(lambda yy: virtual_kappa(vc, yy), y, 0.01)
            worst = min(worst, float(bicycle.output.psi(y)))
        assert worst >= -1e-6


def test_half_sontag_batch_skips_the_zero_elements():
    a = np.array([-1.0, 2.0, 0.0, -3.0])
    b = np.array([0.0, 1.5, 0.0, 4.0])
    lam = lambda_half_sontag(a, b, 0.01)
    for i in range(4):
        assert lam[i] == lambda_half_sontag(a[i], b[i], 0.01)
    # with derivatives: the b = 0 elements get zero partials, as alone
    da = ad.Dual(a, np.ones((2, 4)))
    db = ad.Dual(b, np.array([[1.0, 0.0, -1.0, 2.0], [0.5, 1.0, 1.0, 1.0]]))
    out = lambda_half_sontag(da, db, 0.01)
    for i in range(4):
        alone = lambda_half_sontag(ad.Dual(a[i], da.partials[:, i]), ad.Dual(b[i], db.partials[:, i]), 0.01)
        assert out.value[i] == alone.value
        assert np.array_equal(out.partials[:, i], alone.partials)


def test_smooth_filter_batch_names_the_first_singular_point(bicycle):
    kappa = bicycle.make_cbf(ABC).kappa
    p = bicycle.params
    xi = np.array([10.0, p.obstacle_xi, p.obstacle_xi])
    eta = np.array([1.0, p.obstacle_eta, p.obstacle_eta])
    with pytest.raises(DomainError) as err:
        kappa([xi, eta])
    assert err.value.index == 1
    k = kappa([xi[:1], eta[:1]])
    assert k[0][0] == pytest.approx(virtual_kappa(kappa, [10.0, 1.0])[0], rel=1e-15)
