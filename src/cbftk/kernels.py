"""Closed-loop simulation kernels for the two built-in scenarios.

Closed-loop stepping evaluates the filter at every RK4 stage of every
step, one state at a time, so the per-state math for the pendulum and
bicycle scenarios is spelled out here as scalar kernels in plain Python.
The simulation kernels log as :func:`cbftk.sim.simulate` does, appending
each row to the caller's ``array('d')`` and returning the exit reason.
Derivatives are carried inline (value plus partials), mirroring the
dual-number rules of :mod:`cbftk.autodiff`; the test suite pins these
kernels against the AD reference path at random states and parameters.
Within the library only :meth:`cbftk.systems.Scenario.simulate` calls them.
Phase-plane scans need no kernel: :func:`cbftk.analysis.grid_scan`
runs blocks of nodes as numpy lanes of one traced per-state evaluation,
and :meth:`cbftk.systems.Scenario.scan` calls it.  The scan kernels
:func:`pend_scan` and :func:`bike_scan` are no longer called by the
library; they stay only because the benchmark's span tracer
(``perfbench/tracing.py``) still lists them as targets, and go with those
targets at the next change to the benchmark.

The kernels take Python floats: the state, the step, the threshold and the
parameter vector.  Fed numpy scalars they give the same bits, but every
scalar operation then runs as ``np.float64`` arithmetic, 2-3 times slower
per step, so the caller converts at the boundary.  On Python floats a
division by zero raises where numpy gave inf or NaN.  Each divisor is
nonzero by construction (``mu``, ``gamma``, ``sigma_hat`` and the
wheelbase are refused at zero or below when the scenario's construction,
filter and parameters are built, and ``b`` and ``bb`` are guarded) except
``root`` in :func:`bike_kappa_grad`, which underflow can zero; it divides
as numpy did, so such a run ends as it did on numpy scalars.

Parameter vectors
-----------------
pendulum ``P`` (6):  alpha_in, alpha_out, K, mu, epsilon, gamma

bicycle ``P`` (17):  L, v_d, v_hat, xi_o, eta_o, r_o, k_eta, k_theta, k_v,
                     gamma1, gamma2, alpha_hat, sigma_hat, mu, alpha_in,
                     alpha_out, epsilon

A kernel's ``kind`` is a name of :data:`cbftk.cbf.CBF_KINDS`.
"""

from __future__ import annotations

import math

import numpy as np

from .cbf import ABC, BACKSTEPPING, HOCBF, RECBF

HALF_PI_SQ = math.pi * math.pi / 4.0


def _requ(z):
    return z * z if z > 0.0 else 0.0


def _requ_prime(z):
    return 2.0 * z if z > 0.0 else 0.0


def _over_zero(z):
    """``z / 0.0`` as IEEE 754 (and numpy) gives it, where Python raises."""
    return math.copysign(math.inf, z) if z != 0.0 and z == z else math.nan


def _lambda_exact(a, b):
    if b <= 0.0:
        return 0.0
    lam = -a / b
    return lam if lam > 0.0 else 0.0


# ---------------------------------------------------------------------------
# pendulum: x = (phi, omega), psi = pi^2/4 - phi^2, kappa(phi) = -K phi
# ---------------------------------------------------------------------------


def pend_h_grad(kind, phi, om, P):
    """(h, dh/dphi, dh/domega) for the requested construction."""
    ai = P[0]
    K = P[2]
    mu = P[3]
    eps = P[4]
    psi = HALF_PI_SQ - phi * phi
    if kind == HOCBF:
        h = -2.0 * phi * om + ai * psi
        return h, -2.0 * om - 2.0 * ai * phi, -2.0 * phi
    if kind == RECBF:
        r = -2.0 * phi * om + ai * psi
        z = eps - r
        c = _requ_prime(z) / (2.0 * mu)
        h = psi - _requ(z) / (2.0 * mu)
        # grad z = -grad r = (2 om + 2 ai phi, 2 phi)
        return h, -2.0 * phi - c * (2.0 * om + 2.0 * ai * phi), -c * 2.0 * phi
    if kind == BACKSTEPPING:
        q = om + K * phi
        h = psi - q * q / (2.0 * mu)
        return h, -2.0 * phi - q * K / mu, -q / mu
    # activated backstepping; z = -s = 2 phi (om + K phi)
    z = 2.0 * phi * (om + K * phi)
    c = _requ_prime(z) / (2.0 * mu)
    h = psi - _requ(z) / (2.0 * mu)
    return h, -2.0 * phi - c * (2.0 * om + 4.0 * K * phi), -c * 2.0 * phi


def pend_switching(phi, om, K):
    return -2.0 * phi * (om + K * phi)


def pend_control(kind, phi, om, P):
    """(u, h) of the exact safety filter with the zero desired controller."""
    h, g0, g1 = pend_h_grad(kind, phi, om, P)
    lfh = g0 * om + g1 * math.sin(phi)
    a = lfh + P[1] * h
    b = g1 / P[5]
    lam = _lambda_exact(a, g1 * b)
    return lam * b, h


def pend_simulate(kind, phi0, om0, n_steps, dt, P, blow_threshold, rows):
    """Closed-loop RK4 with the controller evaluated at every stage point.

    Appends each row (phi, omega, u, h, psi and, for ``abc``, s) to
    ``rows``, an ``array('d')``, and returns the exit reason, named as in
    :attr:`cbftk.sim.Trajectory.exit_reason`; a run that stops early holds
    only the rows it logged.
    """
    K = P[2]
    phi = phi0
    om = om0
    for k in range(n_steps + 1):
        if not (math.isfinite(phi) and math.isfinite(om)):
            return "non_finite"
        u, h = pend_control(kind, phi, om, P)
        rows.extend((phi, om, u, h, HALF_PI_SQ - phi * phi))
        if kind == ABC:
            rows.append(pend_switching(phi, om, K))
        if not math.isfinite(u):
            return "non_finite"
        if abs(u) > blow_threshold:
            return "blow_up"
        if k == n_steps:
            break
        d1p = om
        d1o = math.sin(phi) + u
        p2 = phi + 0.5 * dt * d1p
        o2 = om + 0.5 * dt * d1o
        u2, _ = pend_control(kind, p2, o2, P)
        d2p = o2
        d2o = math.sin(p2) + u2
        p3 = phi + 0.5 * dt * d2p
        o3 = om + 0.5 * dt * d2o
        u3, _ = pend_control(kind, p3, o3, P)
        d3p = o3
        d3o = math.sin(p3) + u3
        p4 = phi + dt * d3p
        o4 = om + dt * d3o
        u4, _ = pend_control(kind, p4, o4, P)
        d4p = o4
        d4o = math.sin(p4) + u4
        phi = phi + dt / 6.0 * (d1p + 2.0 * d2p + 2.0 * d3p + d4p)
        om = om + dt / 6.0 * (d1o + 2.0 * d2o + 2.0 * d3o + d4o)
    return "completed"


def pend_scan(kind, phis, oms, P):
    """Row-major grid scan: h, psi, |L_g h|, L_f h + alpha_out(h), s."""
    n = phis.size * oms.size
    h_arr = np.empty(n)
    psi_arr = np.empty(n)
    lgh_arr = np.empty(n)
    margin_arr = np.empty(n)
    s_arr = np.empty(n)
    K = P[2]
    idx = 0
    for i in range(phis.size):
        phi = phis[i]
        for j in range(oms.size):
            om = oms[j]
            h, g0, g1 = pend_h_grad(kind, phi, om, P)
            lfh = g0 * om + g1 * math.sin(phi)
            h_arr[idx] = h
            psi_arr[idx] = HALF_PI_SQ - phi * phi
            lgh_arr[idx] = abs(g1)
            margin_arr[idx] = lfh + P[1] * h
            s_arr[idx] = pend_switching(phi, om, K) if kind == ABC else np.nan
            idx += 1
    return h_arr, psi_arr, lgh_arr, margin_arr, s_arr


# ---------------------------------------------------------------------------
# bicycle: x = (xi, eta, theta, v), y = (xi, eta),
# psi = (xi - xi_o)^2 + (eta - eta_o)^2 - r_o^2
# ---------------------------------------------------------------------------


def bike_kappa_grad(xi, eta, P):
    """Smooth-filter virtual controller and its output-space partials.

    Returns (k1, k2, dk1/dxi, dk1/deta, dk2/dxi, dk2/deta).
    """
    v_hat = P[2]
    xi_o = P[3]
    eta_o = P[4]
    r_o = P[5]
    ah = P[11]
    sig = P[12]
    b1 = 2.0 * (xi - xi_o)
    b2 = 2.0 * (eta - eta_o)
    psi = (xi - xi_o) * (xi - xi_o) + (eta - eta_o) * (eta - eta_o) - r_o * r_o
    a = b1 * v_hat + ah * psi
    ax = 2.0 * v_hat + ah * b1
    ae = ah * b2
    bb = b1 * b1 + b2 * b2
    if bb == 0.0:
        # exact obstacle center: outside the extended set; poison the
        # result so callers truncate instead of dividing by zero
        return np.nan, np.nan, np.nan, np.nan, np.nan, np.nan
    bbx = 4.0 * b1
    bbe = 4.0 * b2
    root = math.sqrt(a * a + sig * bb * bb)
    if root == 0.0:
        # only where a * a + sig * bb * bb underflows
        rootx = _over_zero(a * ax + sig * bb * bbx)
        roote = _over_zero(a * ae + sig * bb * bbe)
    else:
        rootx = (a * ax + sig * bb * bbx) / root
        roote = (a * ae + sig * bb * bbe) / root
    lam = (root - a) / (2.0 * bb)
    lamx = (rootx - ax) / (2.0 * bb) - lam * bbx / bb
    lame = (roote - ae) / (2.0 * bb) - lam * bbe / bb
    k1 = v_hat + lam * b1
    k2 = lam * b2
    return (
        k1,
        k2,
        lamx * b1 + 2.0 * lam,
        lame * b1,
        lamx * b2,
        lame * b2 + 2.0 * lam,
    )


def bike_h_grad(kind, xi, eta, th, v, P):
    """(h, dh/dxi, dh/deta, dh/dtheta, dh/dv)."""
    xi_o = P[3]
    eta_o = P[4]
    r_o = P[5]
    mu = P[13]
    ai = P[14]
    eps = P[16]
    dx = xi - xi_o
    dy = eta - eta_o
    b1 = 2.0 * dx
    b2 = 2.0 * dy
    psi = dx * dx + dy * dy - r_o * r_o
    cth = math.cos(th)
    sth = math.sin(th)
    yd1 = v * cth
    yd2 = v * sth
    psidot = b1 * yd1 + b2 * yd2
    # grad psidot = (2 yd1, 2 yd2, v (b2 cth - b1 sth), b1 cth + b2 sth)
    pd_th = v * (b2 * cth - b1 * sth)
    pd_v = b1 * cth + b2 * sth
    if kind == HOCBF:
        h = psidot + ai * psi
        return h, 2.0 * yd1 + ai * b1, 2.0 * yd2 + ai * b2, pd_th, pd_v
    if kind == RECBF:
        r = psidot + ai * psi
        z = eps - r
        c = _requ_prime(z) / (2.0 * mu)
        h = psi - _requ(z) / (2.0 * mu)
        # grad h = grad psi + c * grad r
        return (
            h,
            b1 + c * (2.0 * yd1 + ai * b1),
            b2 + c * (2.0 * yd2 + ai * b2),
            c * pd_th,
            c * pd_v,
        )
    k1, k2, k1x, k1e, k2x, k2e = bike_kappa_grad(xi, eta, P)
    e1 = yd1 - k1
    e2 = yd2 - k2
    if kind == BACKSTEPPING:
        h = psi - (e1 * e1 + e2 * e2) / (2.0 * mu)
        return (
            h,
            b1 - (e1 * (-k1x) + e2 * (-k2x)) / mu,
            b2 - (e1 * (-k1e) + e2 * (-k2e)) / mu,
            -(e1 * (-v * sth) + e2 * (v * cth)) / mu,
            -(e1 * cth + e2 * sth) / mu,
        )
    # activated backstepping
    s = b1 * e1 + b2 * e2
    sx = 2.0 * e1 - b1 * k1x - b2 * k2x
    se = 2.0 * e2 - b1 * k1e - b2 * k2e
    sth_d = v * (b2 * cth - b1 * sth)
    sv = b1 * cth + b2 * sth
    z = -s
    c = _requ_prime(z) / (2.0 * mu)
    h = psi - _requ(z) / (2.0 * mu)
    # grad h = grad psi + c * grad s
    return h, b1 + c * sx, b2 + c * se, c * sth_d, c * sv


def bike_switching(xi, eta, th, v, P):
    k1, k2, _, _, _, _ = bike_kappa_grad(xi, eta, P)
    b1 = 2.0 * (xi - P[3])
    b2 = 2.0 * (eta - P[4])
    return b1 * (v * math.cos(th) - k1) + b2 * (v * math.sin(th) - k2)


def bike_control(kind, xi, eta, th, v, P):
    """(u1, u2, h): exact safety filter around the lane-keeping controller."""
    L = P[0]
    v_d = P[1]
    k_eta = P[6]
    k_theta = P[7]
    k_v = P[8]
    g1w = P[9]
    g2w = P[10]
    aout = P[15]
    h, hx, he, hth, hv = bike_h_grad(kind, xi, eta, th, v, P)
    lfh = hx * v * math.cos(th) + he * v * math.sin(th)
    lgh1 = hth * v / L
    lgh2 = hv
    kd1 = -k_eta * eta - k_theta * math.sin(th)
    kd2 = k_v * (v_d - v)
    a = lfh + lgh1 * kd1 + lgh2 * kd2 + aout * h
    b1 = lgh1 / g1w
    b2 = lgh2 / g2w
    lam = _lambda_exact(a, lgh1 * b1 + lgh2 * b2)
    return kd1 + lam * b1, kd2 + lam * b2, h


def _bike_rhs(kind, xi, eta, th, v, P):
    u1, u2, _ = bike_control(kind, xi, eta, th, v, P)
    return v * math.cos(th), v * math.sin(th), v * u1 / P[0], u2


def bike_simulate(kind, xi0, eta0, th0, v0, n_steps, dt, P, blow_threshold, rows):
    """Closed-loop RK4 with stage-evaluated control; see pend_simulate."""
    xi = xi0
    eta = eta0
    th = th0
    v = v0
    for k in range(n_steps + 1):
        if not (math.isfinite(xi) and math.isfinite(eta) and math.isfinite(th) and math.isfinite(v)):
            return "non_finite"
        dxo = xi - P[3]
        dyo = eta - P[4]
        if dxo * dxo + dyo * dyo < 1e-18:
            return "left_domain"
        u1, u2, h = bike_control(kind, xi, eta, th, v, P)
        rows.extend((xi, eta, th, v, u1, u2, h, dxo * dxo + dyo * dyo - P[5] * P[5]))
        if kind == ABC:
            rows.append(bike_switching(xi, eta, th, v, P))
        if not (math.isfinite(u1) and math.isfinite(u2)):
            return "non_finite"
        if abs(u1) > blow_threshold or abs(u2) > blow_threshold:
            return "blow_up"
        if k == n_steps:
            break
        d1 = v * math.cos(th), v * math.sin(th), v * u1 / P[0], u2
        d2 = _bike_rhs(kind, xi + 0.5 * dt * d1[0], eta + 0.5 * dt * d1[1], th + 0.5 * dt * d1[2], v + 0.5 * dt * d1[3], P)
        d3 = _bike_rhs(kind, xi + 0.5 * dt * d2[0], eta + 0.5 * dt * d2[1], th + 0.5 * dt * d2[2], v + 0.5 * dt * d2[3], P)
        d4 = _bike_rhs(kind, xi + dt * d3[0], eta + dt * d3[1], th + dt * d3[2], v + dt * d3[3], P)
        xi = xi + dt / 6.0 * (d1[0] + 2.0 * d2[0] + 2.0 * d3[0] + d4[0])
        eta = eta + dt / 6.0 * (d1[1] + 2.0 * d2[1] + 2.0 * d3[1] + d4[1])
        th = th + dt / 6.0 * (d1[2] + 2.0 * d2[2] + 2.0 * d3[2] + d4[2])
        v = v + dt / 6.0 * (d1[3] + 2.0 * d2[3] + 2.0 * d3[3] + d4[3])
    return "completed"


def bike_scan(kind, xis, etas, theta, v, P):
    """Grid scan over (xi, eta) at a fixed (theta, v) slice.

    The obstacle-center node (where psi_grad vanishes inside the obstacle)
    lies outside the extended set and is flagged excluded.
    """
    n = xis.size * etas.size
    h_arr = np.empty(n)
    psi_arr = np.empty(n)
    lgh_arr = np.empty(n)
    margin_arr = np.empty(n)
    s_arr = np.empty(n)
    excluded = np.zeros(n, dtype=np.bool_)
    L = P[0]
    idx = 0
    for i in range(xis.size):
        xi = xis[i]
        for j in range(etas.size):
            eta = etas[j]
            dxo = xi - P[3]
            dyo = eta - P[4]
            psi_arr[idx] = dxo * dxo + dyo * dyo - P[5] * P[5]
            if dxo * dxo + dyo * dyo < 1e-18:
                excluded[idx] = True
                h_arr[idx] = np.nan
                lgh_arr[idx] = np.nan
                margin_arr[idx] = np.nan
                s_arr[idx] = np.nan
                idx += 1
                continue
            h, hx, he, hth, hv = bike_h_grad(kind, xi, eta, theta, v, P)
            lfh = hx * v * math.cos(theta) + he * v * math.sin(theta)
            lgh1 = hth * v / L
            lgh2 = hv
            h_arr[idx] = h
            lgh_arr[idx] = math.sqrt(lgh1 * lgh1 + lgh2 * lgh2)
            margin_arr[idx] = lfh + P[15] * h
            s_arr[idx] = bike_switching(xi, eta, theta, v, P) if kind == ABC else np.nan
            idx += 1
    return h_arr, psi_arr, lgh_arr, margin_arr, s_arr, excluded
