"""Hypothesis strategies for scenario parameters, shared by the test modules."""

from unittest import mock

from hypothesis import strategies as st

from cbftk import autodiff as ad
from cbftk.systems import BicycleParams, PendulumParams

# blocks of 2048 nodes, smaller than the library's, so that the grids small
# enough for the per-state references still run in several blocks; at 2107
# nodes the first block ends 41 nodes into row 41
SPLIT_BLOCK = 2048
ROW_SPLITTING = (43, 49)
assert SPLIT_BLOCK < ROW_SPLITTING[0] * ROW_SPLITTING[1]
assert SPLIT_BLOCK % ROW_SPLITTING[1]


def split_blocks():
    """A context in which the scans and checks run in blocks of :data:`SPLIT_BLOCK`."""
    return mock.patch.object(ad, "BLOCK_NODES", SPLIT_BLOCK)

gains = st.floats(0.2, 3.0)

pendulum_params = st.builds(
    PendulumParams,
    alpha_c=gains,
    gamma=gains,
    K=st.floats(0.1, 2.0),
    mu_backstepping=st.floats(0.5, 10.0),
    mu_abc=st.floats(0.5, 10.0),
    mu_recbf=st.floats(0.5, 10.0),
    epsilon=st.floats(0.0, 4.0),
    alpha_outer_c=st.none() | gains,
)

bicycle_params = st.builds(
    BicycleParams,
    wheelbase=st.floats(1.5, 4.0),
    v_desired=st.floats(5.0, 15.0),
    v_hat=st.floats(1.0, 8.0),
    obstacle_xi=st.floats(10.0, 30.0),
    obstacle_eta=st.floats(-2.0, 2.0),
    obstacle_radius=st.floats(1.0, 6.0),
    k_eta=gains,
    k_theta=gains,
    k_v=gains,
    gamma1=gains,
    gamma2=st.floats(0.05, 2.0),
    alpha_hat_c=gains,
    sigma_hat=st.floats(1e-4, 0.1),
    mu=st.floats(0.3, 5.0),
    alpha_c=st.floats(1.0, 8.0),
    epsilon=st.floats(0.0, 4.0),
    alpha_outer_c=st.none() | st.floats(1.0, 8.0),
)
